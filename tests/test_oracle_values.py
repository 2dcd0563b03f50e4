"""Per-formula guards: each suite formula, called directly, at fixed points.

data/oracle_values.json holds, for each problem, the SHA-256 of the bytes of
f, g and H at x0, at 50 seeded points in the problem's safe box (some with a
coordinate set to -0.0 or +0.0) and at four far points where intermediate
powers overflow to inf.  The trace fingerprints reach only the points a run
visits; these pin every formula bit for bit, signed zeros and infinities
included.  A change meant to alter a formula's arithmetic regenerates the
file with

    PYTHONPATH=src python tests/test_oracle_values.py

Like the trace fingerprints, the file records the Python, numpy, BLAS and
SIMD extensions it was made with (vectorized pow and the BLAS products vary
by build and CPU), and the bitwise test skips on any other.  The shape test
and the degree-1 test, which compares a formula with itself, run everywhere.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from offar import SUITE_NAMES, get_problem
from offar.problems import (_arwhead, _beale, _broyden3d, _cube, _dixmaana, _engval1,
                            _helix, _nondquar, _powell_singular, _rosenbrock, _tridia,
                            _woods)
from test_fingerprints import environment

DATA = Path(__file__).resolve().parent / "data" / "oracle_values.json"
FORMULAS = {
    "rosenbr": _rosenbrock, "cube": _cube, "beale": _beale, "powellsg": _powell_singular,
    "broyden3d": _broyden3d, "tridia": _tridia, "arwhead": _arwhead, "engval1": _engval1,
    "dixmaana": _dixmaana, "nondquar": _nondquar, "woods": _woods, "helix": _helix,
}
BOX_POINTS = 50
# Scales of x0 at which the quartic, cubic, square and linear terms overflow.
FAR_SCALES = (1e80, 1e110, 1e160, 1e300)


def box_points(name, count=BOX_POINTS):
    """count seeded points in the safe box; of each three, the second has one
    coordinate set to -0.0 and the third one set to +0.0."""
    problem = get_problem(name)
    lo, hi = problem.safe_box
    rng = np.random.default_rng(SUITE_NAMES.index(name))
    points = []
    for k in range(count):
        x = lo + rng.uniform(size=problem.n) * (hi - lo)
        if k % 3:
            x[rng.integers(problem.n)] = -0.0 if k % 3 == 1 else 0.0
        points.append(x)
    return points


def guarded_points(name):
    x0 = get_problem(name).x0
    return [x0.copy()] + box_points(name) + [scale * x0 for scale in FAR_SCALES]


def digest(f, g, H):
    return hashlib.sha256(np.float64(f).tobytes() + g.tobytes() + H.tobytes()).hexdigest()


def digests(name):
    with np.errstate(all="ignore"):  # the far points overflow on purpose
        return [digest(*FORMULAS[name](x, 2)) for x in guarded_points(name)]


def _recorded():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_formula_values(name):
    recorded = _recorded()
    if recorded["environment"] != environment():
        pytest.skip(f"oracle values recorded on {recorded['environment']}, "
                    f"running on {environment()}")
    got, want = digests(name), recorded["digests"][name]
    assert len(got) == len(want)
    moved = [k for k, (a, b) in enumerate(zip(got, want)) if a != b]
    assert not moved, f"{name}: values moved at points {moved} (0 is x0)"


def test_formulas_match_recorded_problems():
    assert sorted(_recorded()["digests"]) == sorted(SUITE_NAMES) == sorted(FORMULAS)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_formula_shapes(name):
    """f is a Python float, g a fresh C-contiguous float64 vector and H an
    (n, n) float64 matrix equal to its transpose bit for bit, which the
    noise wrapper's triangle gather relies on."""
    problem = get_problem(name)
    n = problem.n
    for x in [problem.x0.copy()] + box_points(name, 20):
        before = x.tobytes()
        f, g, H = FORMULAS[name](x, 2)
        assert x.tobytes() == before
        assert type(f) is float
        assert type(g) is np.ndarray and g.dtype == np.float64 and g.shape == (n,)
        assert g.flags.c_contiguous and g.flags.owndata and g.flags.writeable
        assert type(H) is np.ndarray and H.dtype == np.float64 and H.shape == (n, n)
        bits = H.view(np.int64)
        assert np.array_equal(bits, bits.T)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_degree_one_values(name):
    """Asked for degree 1, a formula returns the f and g of degree 2 bit for
    bit, at every guarded point, and None for H."""
    with np.errstate(all="ignore"):  # as in digests
        for k, x in enumerate(guarded_points(name)):
            f1, g1, H1 = FORMULAS[name](x, 1)
            f2, g2, _ = FORMULAS[name](x, 2)
            assert H1 is None, k
            assert np.float64(f1).tobytes() == np.float64(f2).tobytes(), k
            assert type(g1) is np.ndarray and g1.tobytes() == g2.tobytes(), k


if __name__ == "__main__":
    values = {name: digests(name) for name in SUITE_NAMES}
    lines = [f"  {json.dumps(name)}: [\n   " + ",\n   ".join(json.dumps(d) for d in values[name])
             + "]" for name in sorted(values)]
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text('{"environment": ' + json.dumps(environment(), sort_keys=True)
                    + ',\n "digests": {\n' + ",\n".join(lines) + "\n }}\n")
    print(f"{sum(map(len, values.values()))} digests for {len(values)} formulas written to {DATA}")
