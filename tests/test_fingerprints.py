"""Bitwise guard: a fast grid of runs must reproduce its recorded traces.

Each entry of data/fingerprints.json holds the status, the iteration count
and the SHA-256 of the trace CSV of one run_single call.  A change that is
not meant to alter the numerics must leave every entry as it is, unless it
adds, removes or renames a config field: the CSV's "# config=" line hashes
the config's fields, so every hash moves while status and iterations stay.
Such a change, or one meant to alter the numerics, regenerates the file with

    PYTHONPATH=src python tests/test_fingerprints.py

and states the old-to-new iteration differences with the change.  Traces
depend on the LAPACK build behind eigh and on the SIMD code numpy picks for
the host CPU, so the file records the Python, numpy, BLAS and SIMD extensions
it was made with, and the test skips on any other.
"""

import hashlib
import io
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from offar import SUITE_NAMES, get_problem, run_single
from offar.harness import EPS_CLEAN, EPS_NOISY

DATA = Path(__file__).resolve().parent / "data" / "fingerprints.json"
MAX_ITER = 200
CLEAN_ALGORITHMS = ("offar1", "offar2a", "offar2b", "moffar2", "ar2")
NOISY_ALGORITHMS = ("offar2a", "ar2")
NOISE_LEVEL = 0.25
NOISE_SEED = 1


def grid():
    """(key, problem, algorithm, level, seed) for every guarded run."""
    cells = [(p, a, 0.0, 0) for p in SUITE_NAMES for a in CLEAN_ALGORITHMS]
    cells += [(p, a, NOISE_LEVEL, NOISE_SEED) for p in SUITE_NAMES for a in NOISY_ALGORITHMS]
    return [(f"{p}/{a}/{lvl!r}/{seed}", p, a, lvl, seed) for p, a, lvl, seed in cells]


def fingerprint(problem, algorithm, level, seed):
    out = run_single(get_problem(problem), algorithm,
                     eps1=EPS_CLEAN if level == 0.0 else EPS_NOISY,
                     noise_level=level, seed=seed, max_iter=MAX_ITER)
    buf = io.StringIO()
    out.trace.to_csv(buf)
    return [out.status.value, out.iterations, hashlib.sha256(buf.getvalue().encode()).hexdigest()]


def environment():
    """Python, numpy, BLAS and the SIMD extensions numpy dispatches on."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {}).get("name")
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "simd": config.get("SIMD Extensions")}


def _recorded():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("key,problem,algorithm,level,seed", grid(),
                         ids=[cell[0] for cell in grid()])
def test_trace_fingerprint(key, problem, algorithm, level, seed):
    recorded = _recorded()
    if recorded["environment"] != environment():
        pytest.skip(f"fingerprints recorded on {recorded['environment']}, "
                    f"running on {environment()}")
    assert fingerprint(problem, algorithm, level, seed) == recorded["fingerprints"][key]


def test_grid_matches_recorded_keys():
    assert sorted(_recorded()["fingerprints"]) == sorted(cell[0] for cell in grid())


if __name__ == "__main__":
    prints = {key: fingerprint(*cell) for key, *cell in grid()}
    lines = [f"  {json.dumps(key)}: {json.dumps(prints[key])}" for key in sorted(prints)]
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text('{"environment": ' + json.dumps(environment(), sort_keys=True)
                    + ',\n "fingerprints": {\n' + ",\n".join(lines) + "\n }}\n")
    print(f"{len(prints)} fingerprints written to {DATA}")
