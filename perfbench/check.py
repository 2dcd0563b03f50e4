"""Per-run correctness check, and a self-test that the check catches defects.

The check reads only what ``run_single`` returned, plus the clean oracle for
clean runs.  Each rule yields a tagged message; an empty list means the run
passed.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from offar.solvers import RunStatus
from offar.trace import COLUMNS

_GRAD = COLUMNS.index("grad_norm")
_MIN_EIG = COLUMNS.index("min_eig")
SOLVED = (RunStatus.FIRST_ORDER, RunStatus.SECOND_ORDER)


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def check_outcome(out, cell, workload, clean_oracle) -> list[str]:
    """Rules every run must meet; clean runs are also re-evaluated.

    moffar2 runs with eps2 = eps1, which is what run_single picks when no
    eps2 is given.
    """
    defects = []
    rows = out.trace.rows
    if len(rows) != out.iterations + 1:
        defects.append(f"rows: {len(rows)} trace rows for {out.iterations} iterations")
        if not rows:
            return defects
    last_grad = rows[-1][_GRAD]
    if not _same(last_grad, out.final_grad_norm):
        defects.append(f"last-row: grad_norm {last_grad!r} != final {out.final_grad_norm!r}")
    if out.status in SOLVED:
        if not last_grad <= workload.eps1:
            defects.append(f"tolerance: solved with grad_norm {last_grad!r} > {workload.eps1!r}")
        if cell.algorithm == "moffar2" and not rows[-1][_MIN_EIG] >= -workload.eps1:
            defects.append(f"curvature: solved with min_eig {rows[-1][_MIN_EIG]!r}")
    elif out.status == RunStatus.MAX_ITERATIONS and out.iterations != workload.max_iter:
        defects.append(f"budget: MaxIterations after {out.iterations} of {workload.max_iter}")
    if not workload.noisy:
        g = clean_oracle.evaluate(out.final_x).gradient
        gnorm = float(np.linalg.norm(g))
        if not _same(gnorm, out.final_grad_norm):
            defects.append(f"reproduce: clean oracle gives {gnorm!r}, run reported "
                          f"{out.final_grad_norm!r}")
    return defects


def self_test(good, cell, workload, clean_oracle) -> list[str]:
    """Corrupt copies of a passing clean outcome; return what the check missed.

    ``good`` must be an unsolved run of ``cell`` at level 0 that passes
    :func:`check_outcome`; each corruption must then draw the defect that
    carries its tag.
    """
    if check_outcome(good, cell, workload, clean_oracle):
        return ["self-test input does not pass the check"]

    def corrupt(field, value):
        bad = copy.deepcopy(good)
        setattr(bad, field, value)
        return bad

    truncated = copy.deepcopy(good)
    truncated.trace.rows.pop()
    x_moved = good.final_x.copy()
    x_moved[0] += 1e-3
    cases = {
        "tolerance": corrupt("status", RunStatus.FIRST_ORDER),
        "last-row": corrupt("final_grad_norm",
                            float(np.nextafter(good.final_grad_norm, math.inf))),
        "reproduce": corrupt("final_x", x_moved),
        "rows": truncated,
    }
    missed = []
    for tag, bad in cases.items():
        defects = check_outcome(bad, cell, workload, clean_oracle)
        if not any(defect.startswith(tag + ":") for defect in defects):
            missed.append(tag)
    return missed
