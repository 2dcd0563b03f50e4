"""Performance profiles over a cost matrix c[problem][algorithm].

Failed runs carry cost inf.  Ratios are taken against the per-problem best;
problems where every algorithm failed are excluded from the ratio base (but
still count in the robustness percentages).  The scalar profile score is

    pi = (1/50) * (rho(1) + integral from 1 to 50 of rho(tau) dtau),

i.e. the curve's left edge contributes one unit-width column, so an
algorithm that wins every problem scores exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TAU_MAX = 50.0


@dataclass
class ProfileTable:
    problems: tuple
    algorithms: tuple
    costs: np.ndarray   # (n_problems, n_algorithms), inf = failure
    ratios: np.ndarray  # same shape, rows restricted to the ratio base
    pi: dict
    rho: dict           # percent of finite-cost runs, all problems counted
    curves: dict        # algorithm -> array of (tau, value) breakpoints


def compute_profile(costs, problems=None, algorithms=None) -> ProfileTable:
    """Build the profile table from a cost matrix.

    costs may be a list of rows or an ndarray; entries must be positive or
    inf.  Returns per-algorithm scores pi in [0, 1], robustness percentages
    rho in [0, 100], and the breakpoints of each profile curve.
    """
    c = np.asarray(costs, dtype=float)
    if c.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got shape {c.shape}")
    n_prob, n_alg = c.shape
    if np.any(np.isnan(c)) or np.any(c <= 0.0):
        raise ValueError("costs must be positive (inf for failures)")
    problems = tuple(problems) if problems is not None else tuple(
        f"p{i}" for i in range(n_prob))
    algorithms = tuple(algorithms) if algorithms is not None else tuple(
        f"a{j}" for j in range(n_alg))
    if len(problems) != n_prob or len(algorithms) != n_alg:
        raise ValueError("label lengths do not match the cost matrix")

    best = np.min(c, axis=1)
    base = np.isfinite(best)
    n_base = int(np.count_nonzero(base))
    with np.errstate(invalid="ignore"):
        ratios = c[base] / best[base, None]

    pi = {}
    rho = {}
    curves = {}
    for j, name in enumerate(algorithms):
        col = ratios[:, j] if n_base else np.empty(0)
        rho[name] = 100.0 * float(np.mean(np.isfinite(c[:, j]))) if n_prob else 0.0
        finite = np.sort(col[np.isfinite(col)])
        taus = np.unique(np.concatenate(([1.0], finite[finite <= TAU_MAX], [TAU_MAX])))
        vals = (np.searchsorted(finite, taus, side="right") / n_base
                if n_base else np.zeros_like(taus))
        curves[name] = np.column_stack([taus, vals])
        # rho(1) plus the exact integral of the step curve, left to right
        t, v = taus.tolist(), vals.tolist()
        area = v[0]
        for i in range(len(t) - 1):
            area += v[i] * (t[i + 1] - t[i])
        pi[name] = area / TAU_MAX

    return ProfileTable(problems=problems, algorithms=algorithms, costs=c,
                        ratios=ratios, pi=pi, rho=rho, curves=curves)
