"""Subproblem solver checks against independent brute-force references.

The references here (dense 1-D grids, hierarchical 2-D grids, interval
bisection on the multiplier equation, the secular equation in exact rational
arithmetic) share no code with the solver: the solver goes through an
eigendecomposition and a Newton iteration, the references only ever evaluate
the model or its multiplier equation.
"""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _checks import solve_p2_raw
from offar import (SUITE_NAMES, DerivativeBundle, certify, get_problem,
                   model_terms, solve_p1, solve_p2)
from offar.model import eigh, vnorm
from offar.subsolver import _CERTIFY_RTOL, _HARD_CASE_RTOL, _leftmost_norm, _secular_root


@functools.lru_cache(maxsize=1)
def _grid_1d(radius, h):
    """The grid s of grid_min_1d and |s|^3, built once per (radius, h) and
    read-only."""
    s = np.arange(-radius, radius + h, h)
    cube = np.abs(s) ** 3
    s.flags.writeable = cube.flags.writeable = False
    return s, cube


def grid_min_1d(g1, H1, sigma, radius=3.0, h=1e-6):
    s, cube = _grid_1d(radius, h)
    m = g1 * s + 0.5 * H1 * s * s + sigma / 6.0 * cube
    i = int(np.argmin(m))
    return float(s[i]), float(m[i])


def grid_min_2d(g, H, sigma, radius=3.0):
    """Coarse full grid, then two local hundred-fold refinements."""
    center = np.zeros(2)
    span = radius
    best = math.inf
    for h in (1e-2, 1e-4, 1e-6):
        xs = np.arange(center[0] - span, center[0] + span + h, h)
        ys = np.arange(center[1] - span, center[1] + span + h, h)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        M = (g[0] * X + g[1] * Y
             + 0.5 * (H[0, 0] * X * X + 2.0 * H[0, 1] * X * Y + H[1, 1] * Y * Y)
             + sigma / 6.0 * (X * X + Y * Y) ** 1.5)
        i, j = np.unravel_index(np.argmin(M), M.shape)
        best = float(M[i, j])
        center = np.array([X[i, j], Y[i, j]])
        span = 2.0 * h
    return best


def bisect_multiplier(g1, H1, sigma, tol=1e-13):
    """Root of ||(H + lam)^-1 g| - 2 lam / sigma by pure interval halving."""
    lam_low = max(0.0, -H1)
    phi = lambda lam: abs(g1) / (H1 + lam) - 2.0 * lam / sigma

    lo = lam_low
    hi = max(1.0, 2.0 * lam_low)
    while phi(hi) > 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol * max(1.0, mid):
            break
        if phi(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestGrid1d:
    def test_cached_cube_is_the_grid_cubed(self):
        s, cube = _grid_1d(2.0, 1e-6)
        assert cube.tobytes() == (np.abs(s) ** 3).tobytes()
        assert not s.flags.writeable and not cube.flags.writeable


class TestSolveP1:
    def test_closed_form(self):
        g = np.array([0.3, 0.4])
        r = solve_p1(g, 1.0, vnorm(g))
        np.testing.assert_allclose(r.step, [-0.3, -0.4])
        _, value, tgrad_norm, _ = model_terms(g, None, 1.0, r.step)
        assert -value == pytest.approx(0.5**2 / 2.0)
        assert tgrad_norm == pytest.approx(0.5)
        assert r.multiplier == 0.0

    def test_scaling_with_sigma(self):
        g = np.array([2.0, -1.0])
        r = solve_p1(g, 4.0, vnorm(g))
        np.testing.assert_allclose(r.step, -g / 4.0)

    def test_rejects_zero_gradient(self):
        with pytest.raises(ValueError):
            solve_p1(np.zeros(2), 1.0, 0.0)

    def test_rejects_bad_sigma(self):
        g = np.ones(2)
        for sigma in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="sigma"):
                solve_p1(g, sigma, vnorm(g))


class TestSolveP2Examples:
    def test_pure_gradient(self):
        # g = -1, H = 0, sigma = 6: s solves s^2 * sigma/2 = 1 -> s = 1/sqrt(3)
        r = solve_p2_raw(np.array([-1.0]), np.array([[0.0]]), 6.0)
        np.testing.assert_allclose(r.step, [1.0 / math.sqrt(3.0)], rtol=1e-12)
        assert r.multiplier == pytest.approx(math.sqrt(3.0), rel=1e-12)
        s_ref, _ = grid_min_1d(-1.0, 0.0, 6.0, radius=2.0)
        assert r.step[0] == pytest.approx(s_ref, abs=2e-6)

    def test_convex_scalar(self):
        # g = -1, H = 1, sigma = 3: 3/2 s^2 + s - 1 = 0 -> s = (sqrt(7)-1)/3
        r = solve_p2_raw(np.array([-1.0]), np.array([[1.0]]), 3.0)
        np.testing.assert_allclose(r.step, [(math.sqrt(7.0) - 1.0) / 3.0], rtol=1e-12)
        s_ref, _ = grid_min_1d(-1.0, 1.0, 3.0, radius=2.0)
        assert r.step[0] == pytest.approx(s_ref, abs=2e-6)

    def test_pure_negative_curvature(self):
        # g = 0, H = -2, sigma = 2: ||s|| = 2|lambda_min|/sigma = 2, sign tie -> +2
        g, H = np.array([0.0]), np.array([[-2.0]])
        r = solve_p2_raw(g, H, 2.0)
        np.testing.assert_allclose(r.step, [2.0], rtol=1e-12)
        assert r.hard_case
        value = model_terms(g, H, 2.0, r.step)[1]
        assert -value == pytest.approx(4.0 / 3.0, rel=1e-12)
        _, m_ref = grid_min_1d(0.0, -2.0, 2.0, radius=2.5)
        assert value == pytest.approx(m_ref, abs=2e-6)

    def test_zero_gradient_psd_rejected(self):
        with pytest.raises(ValueError):
            solve_p2_raw(np.zeros(2), np.eye(2), 1.0)

    def test_hard_case_2d(self):
        # Gradient orthogonal to the negative-curvature direction.
        g = np.array([0.0, 1.0])
        H = np.diag([-1.0, 2.0])
        sigma = 0.5
        r = solve_p2_raw(g, H, sigma)
        assert r.hard_case
        # multiplier pinned at -lambda_min, radius 2 lam / sigma
        assert r.multiplier == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.norm(r.step) == pytest.approx(4.0, rel=1e-12)
        # first component padded positive by the orientation rule
        assert r.step[0] > 0.0
        # s = (alpha, -1/3) with alpha^2 = 16 - 1/9: m(s) = -17/6.
        assert model_terms(g, H, sigma, r.step)[1] == pytest.approx(-17.0 / 6.0, rel=1e-12)

    def test_hard_case_sign_deterministic(self):
        r1 = solve_p2_raw(np.array([0.0, 0.0]), np.diag([-2.0, 1.0]), 2.0)
        r2 = solve_p2_raw(np.array([0.0, 0.0]), np.diag([-2.0, 1.0]), 2.0)
        np.testing.assert_array_equal(r1.step, r2.step)
        assert r1.step[0] > 0.0

    def test_near_hard_case_still_solves(self):
        g = np.array([1e-13, 1.0])
        H = np.diag([-1.0, 2.0])
        r = solve_p2_raw(g, H, 0.5)
        # model stationarity regardless of which branch fired:
        # grad m(s) = grad T(x,s) + sigma/2 ||s|| s
        tgrad = g + H @ r.step
        assert np.linalg.norm(tgrad + 0.5 / 2.0 * vnorm(r.step) * r.step) < 1e-9

    def test_rejects_bad_sigma(self):
        for sigma in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="sigma"):
                solve_p2_raw(np.array([1.0, 2.0]), np.eye(2), sigma)

    def test_overflowing_secular_root_raises(self):
        # The root lies closer to the pole lam = 1 than float64 resolves, so
        # ||s(lam)||^2 overflows one ulp above it and the root search ends at
        # lam = inf, which would give a zero step.  (A gradient whose own
        # squared norm overflows ends a run in finite_grad_norm instead.)
        with np.errstate(over="ignore"), pytest.raises(OverflowError, match="not finite"):
            solve_p2_raw(np.array([1e150, 1e150]), np.diag([-1.0, 2.0]), 1e-300)

    def test_overflowing_eigenvalue_spread_raises(self):
        # A finite H whose eigenvalues lie more than DBL_MAX apart: the secular
        # root's start squares half an eigenvalue, which overflows to inf.
        H = np.array([[2.0**1023, 2.0**1023], [2.0**1023, -1.0]])
        with np.errstate(over="ignore"), pytest.raises(OverflowError, match="not finite"):
            solve_p2_raw(np.array([1.0, 1.0]), H, 1e300)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_eigenvalue_spread_raises_without_warning(self):
        # The same call outside np.errstate: the spread is caught before
        # numpy's w - lam1 overflows, so no RuntimeWarning comes first.
        H = np.array([[2.0**1023, 2.0**1023], [2.0**1023, -1.0]])
        with pytest.raises(OverflowError, match="not finite"):
            solve_p2_raw(np.array([1.0, 1.0]), H, 1e300)


def scaled_p2_instances():
    """200 seeded (g, H, sigma) with n = 1..7 and entries and sigma over
    1e-3..1e3; every fourth is a hard case (g[0] = 0, H's first row and
    column e_1 times -1)."""
    rng = np.random.default_rng(23)
    for k in range(200):
        n = int(rng.integers(1, 8))
        g = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
        A = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-3.0, 3.0)
        if k % 4 == 0:
            g[0] = 0.0
            A[0, :] = A[:, 0] = 0.0
            A[0, 0] = -1.0
        yield g, A, float(10.0 ** rng.uniform(-3.0, 3.0))


class TestSolveP2Properties:
    def test_grid_agreement_2d(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            g = rng.uniform(-2.0, 2.0, 2)
            A = rng.uniform(-2.0, 2.0, (2, 2))
            H = 0.5 * (A + A.T)
            sigma = float(np.exp(rng.uniform(np.log(4.0), np.log(40.0))))
            r = solve_p2_raw(g, H, sigma)
            mv = model_terms(g, H, sigma, r.step)[1]
            assert mv < 0.0
            assert mv <= grid_min_2d(g, H, sigma) + 1e-9

    def test_bisection_agreement_1d(self):
        rng = np.random.default_rng(7)
        count = 0
        while count < 40:
            g1 = float(rng.uniform(-3.0, 3.0))
            if abs(g1) < 1e-6:
                continue
            H1 = float(rng.uniform(-3.0, 3.0))
            sigma = float(np.exp(rng.uniform(np.log(2.0), np.log(30.0))))
            r = solve_p2_raw(np.array([g1]), np.array([[H1]]), sigma)
            lam_ref = bisect_multiplier(g1, H1, sigma)
            assert r.multiplier == pytest.approx(lam_ref, rel=1e-10, abs=1e-10)
            count += 1

    def test_multiplier_identity(self):
        # lambda = sigma ||s|| / 2 at any exact solution (interior or hard).
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            g = rng.normal(size=n)
            A = rng.normal(size=(n, n))
            H = 0.5 * (A + A.T)
            sigma = float(np.exp(rng.uniform(np.log(0.5), np.log(50.0))))
            r = solve_p2_raw(g, H, sigma)
            assert r.multiplier == pytest.approx(
                sigma * np.linalg.norm(r.step) / 2.0, rel=1e-9)

    def test_secular_monotone_in_sigma(self):
        # Larger sigma gives a shorter step on a fixed instance.
        g = np.array([1.0, -2.0, 0.5])
        A = np.array([[1.0, 0.2, 0.0], [0.2, -0.5, 0.1], [0.0, 0.1, 2.0]])
        H = 0.5 * (A + A.T)
        sigmas = np.exp(np.linspace(np.log(0.05), np.log(500.0), 20))
        norms = [float(np.linalg.norm(solve_p2_raw(g, H, s).step)) for s in sigmas]
        assert all(a > b for a, b in zip(norms, norms[1:]))

    def test_tail_matches_model_terms(self):
        # The drivers trace model_terms at solve_p2's step: it gives the
        # numbers of the evaluation written out below (H s once, with H as
        # the bundle symmetrizes it, then g.s + s.Hs/2 + sigma/6 ||s||^3 and
        # ||g + H s||) bit for bit, hard cases included.
        for g, A, sigma in scaled_p2_instances():
            s = solve_p2_raw(g, A, sigma).step
            bundle = DerivativeBundle(g, A)
            Hs = bundle.hessian @ s
            reduction = -(float(g @ s) + 0.5 * float(s @ Hs) + sigma / 6.0 * vnorm(s) ** 3)
            _, value, tgrad_norm, snorm = model_terms(g, bundle.hessian, sigma, s)
            assert value == -reduction
            assert tgrad_norm == vnorm(g + Hs)
            assert snorm == vnorm(s)

    def test_model_reduction_positive(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            g = rng.normal(size=n)
            A = rng.normal(size=(n, n))
            H = 0.5 * (A + A.T)
            r = solve_p2_raw(g, H, 2.0)
            assert -model_terms(g, H, 2.0, r.step)[1] > 0.0


def secular_inputs(rng, n):
    """Sorted eigenvalues of either sign over 1e-3..1e6 in magnitude and
    projections ghat scaled over 1e-8..1e8; in four cases of ten the leftmost
    projection is 1e-14..1e-6 of ||ghat||, in one of ten the leftmost
    eigenvalue is double."""
    w = np.sort(rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 6.0, n))
    if n > 1 and rng.random() < 0.1:
        w[1] = w[0]
    ghat = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0)
    if rng.random() < 0.4:
        ghat[0] = np.linalg.norm(ghat) * 10.0 ** rng.uniform(-14.0, -6.0)
    return w, ghat


def _ulps_away(x, k):
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else -math.inf)
    return x


def _longer(w, ghat2, sigma, lam):
    """||s(lam)||^2 > (2 lam / sigma)^2 in exact arithmetic; at or past a pole
    (w_i + lam <= 0) the step counts as longer."""
    lam = Fraction(lam)
    total = Fraction(0)
    for wi, gi in zip(w, ghat2):
        d = Fraction(float(wi)) + lam
        if d <= 0:
            return True
        total += Fraction(float(gi)) / (d * d)
    return total > (2 * lam / Fraction(sigma)) ** 2


def near_secular_root(w, ghat2, sigma, lam):
    """lam lies within 4 ulps of the exact root of ||s(lam)|| = 2 lam / sigma."""
    return (math.isfinite(lam)
            and _longer(w, ghat2, sigma, _ulps_away(lam, -4))
            and not _longer(w, ghat2, sigma, _ulps_away(lam, 4)))


def seeded_batch():
    """The 5,000 seeded (w, ghat, sigma) inputs of the reference checks."""
    rng = np.random.default_rng(20260)
    for _ in range(5000):
        w, ghat = secular_inputs(rng, int(rng.integers(1, 13)))
        yield w, ghat, float(10.0 ** rng.uniform(-4.0, 12.0))


class TestSecularRootReference:
    """Every multiplier lies within 4 ulps of the root, checked in exact arithmetic."""

    def test_seeded_batch(self):
        misses = []
        for i, (w, ghat, sigma) in enumerate(seeded_batch()):
            lam = _secular_root(w, ghat**2, sigma, max(0.0, -float(w[0])))
            if not near_secular_root(w, ghat**2, sigma, lam):
                misses.append((i, lam))
        assert misses == []

    def test_masked_hard_case_calls(self):
        # The call solve_p2 makes when g is orthogonal to the leftmost
        # eigenspace: leftmost pairs dropped, lam_low = -lambda_1 > 0.  It only
        # makes it when the interior equation has a root above lam_low.
        rng = np.random.default_rng(4711)
        calls = 0
        misses = []
        for i in range(1000):
            w, ghat = secular_inputs(rng, int(rng.integers(2, 13)))
            w[0] = -abs(w[0])
            mask = w > w[0]
            if not mask.any():
                continue
            sigma = float(10.0 ** rng.uniform(-4.0, 12.0))
            wm, ghat2, lam_low = w[mask], ghat[mask] ** 2, -float(w[0])
            if not _longer(wm, ghat2, sigma, lam_low):
                continue
            calls += 1
            lam = _secular_root(wm, ghat2, sigma, lam_low)
            if not near_secular_root(wm, ghat2, sigma, lam):
                misses.append((i, lam))
        assert calls == 326
        assert misses == []

    def test_hard_case_through_solve_p2(self):
        # g has no leftmost component and sigma is small enough that the
        # interior equation has a root: the masked secular branch runs.
        H = np.diag([-1.0, 2.0, 5.0])
        g = np.array([0.0, 3.0, -4.0])
        r = solve_p2_raw(g, H, 10.0)
        assert not r.hard_case
        assert near_secular_root([2.0, 5.0], [9.0, 16.0], 10.0, r.multiplier)

    def test_overflowing_bracket_like_reference(self):
        # ||s|| = inf everywhere: the root is reported as inf, which solve_p2
        # turns into its OverflowError.
        assert _secular_root(np.array([1.0, 3.0]), np.array([1.0, math.inf]),
                             1e300, 0.0) == math.inf


def masked_leftmost_norm(w, ghat, lam1):
    """The norm of ghat over the leftmost eigenspace, through the mask."""
    return vnorm(ghat[w - lam1 <= 1e-12 * max(1.0, abs(lam1))])


def screen_inputs():
    """Seeded (w, ghat) from eigh of symmetric matrices, n = 1..7, with a
    simple or a repeated (exactly, or to within the threshold) negative
    smallest eigenvalue, and ghat_0 at, below and above _HARD_CASE_RTOL
    ||ghat||."""
    rng = np.random.default_rng(2027)
    for k in range(600):
        n = int(rng.integers(1, 8))
        w = np.sort(rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0))
        w[0] = -abs(w[0]) - 1e-3
        if n > 1 and k % 3 == 1:
            w[1] = w[0]
        elif n > 1 and k % 3 == 2:
            w[1] = w[0] * (1.0 - 1e-13)
        w.sort()
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        H = (Q * w) @ Q.T
        ew, eQ = eigh(0.5 * H + 0.5 * H.T)
        ghat = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0)
        ghat[0] = vnorm(ghat) * _HARD_CASE_RTOL * 10.0 ** rng.uniform(-1.0, 1.0)
        yield ew, ghat


class TestHardCaseScreen:
    """solve_p2 takes ghat's norm over the leftmost eigenspace from one entry
    when the smallest eigenvalue is simple; the norm, and with it the hard
    case decision, must be the masked norm's, bit for bit."""

    @staticmethod
    def assert_same(w, ghat):
        lam1 = float(w[0])
        got, want = _leftmost_norm(w, ghat, lam1), masked_leftmost_norm(w, ghat, lam1)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (w, ghat)
        limit = _HARD_CASE_RTOL * vnorm(ghat)
        assert (got <= limit) == (want <= limit)
        return want <= limit

    def test_seeded_symmetric_matrices(self):
        decisions = [self.assert_same(w, ghat) for w, ghat in screen_inputs()]
        assert 0 < sum(decisions) < len(decisions)

    @pytest.mark.parametrize("lam1", [-1.0, -0.5, -3e7, -(2.0**-60)])
    def test_threshold_of_a_repeated_eigenvalue(self, lam1):
        # w_1 a few ulps either side of lam1 + 1e-12 max(1, |lam1|): counted
        # in the leftmost eigenspace up to the threshold, not past it.  At
        # lam1 = -2^-60 the sum is exact, so w_1 - lam1 meets it with equality.
        edge = lam1 + 1e-12 * max(1.0, abs(lam1))
        ghat = np.array([3e-13, 0.5, 1.0])
        for k in range(-3, 4):
            w = np.array([lam1, _ulps_away(edge, k), 2.0])
            self.assert_same(w, ghat)

    @np.errstate(over="ignore")
    def test_one_dimension(self):
        for w0 in (-1.0, -1e-300, -1e300):
            for g0 in (1.0, 0.0, -0.0, 1e-170, 1e200):
                self.assert_same(np.array([w0]), np.array([g0]))

    def test_straddling_the_relative_threshold(self):
        w = np.array([-2.0, 1.0, 4.0])
        rest = np.array([0.0, 3.0, -4.0])
        edge = _HARD_CASE_RTOL * vnorm(rest)
        sides = set()
        for k in range(-3, 4):
            ghat = rest.copy()
            ghat[0] = _ulps_away(edge, k)
            sides.add(self.assert_same(w, ghat))
        assert sides == {True, False}

    @pytest.mark.parametrize("g0", [1e-170, -3e-162, 5e-324, 1e200])
    @np.errstate(over="ignore")
    def test_square_underflows_or_overflows(self, g0):
        # sqrt(g0^2), which the mask's norm gives, is not |g0| here.
        assert math.sqrt(g0 * g0) != abs(g0)
        for w in (np.array([-1.0, 2.0]), np.array([-1.0, -1.0, 2.0])):
            ghat = np.full(w.size, 1e-300)
            ghat[0] = g0
            self.assert_same(w, ghat)


@st.composite
def cubic_problems(draw):
    """Diagonal H (so eigh is exact) with eigenvalues of either sign over
    1e-3..1e6, a leftmost eigenvalue of multiplicity 1..n, gradient entries over
    1e-4..1e4, and in half the draws a leftmost projection 1e-14..1e-6 of
    ||g||."""
    n = draw(st.integers(1, 6))
    signs = st.sampled_from([-1.0, 1.0])
    w = sorted(draw(signs) * 10.0 ** draw(st.floats(-3.0, 6.0)) for _ in range(n))
    mult = draw(st.integers(1, n))
    w[:mult] = [w[0]] * mult
    g = np.array([draw(signs) * 10.0 ** draw(st.floats(-4.0, 4.0)) for _ in range(n)])
    if mult < n and draw(st.booleans()):
        g[:mult] *= 10.0 ** draw(st.floats(-14.0, -6.0)) * vnorm(g[mult:]) / vnorm(g[:mult])
    sigma = 10.0 ** draw(st.floats(-4.0, 12.0))
    return np.array(w), g, sigma


class TestSolveP2Hypothesis:
    @settings(derandomize=True, database=None, deadline=None)
    @given(cubic_problems())
    def test_exact_minimizer(self, problem):
        w, g, sigma = problem
        r = solve_p2_raw(g, np.diag(w), sigma)
        assert w[0] + r.multiplier >= 0.0
        if not r.hard_case:
            # Mirror solve_p2's branch: a gradient orthogonal to the leftmost
            # eigenspace drops those pairs from the secular equation.
            keep = w - w[0] > 1e-12 * max(1.0, abs(w[0]))
            if not (w[0] < 0.0 and vnorm(g[~keep]) <= _HARD_CASE_RTOL * vnorm(g)):
                keep[:] = True
            assert near_secular_root(w[keep], g[keep] ** 2, sigma, r.multiplier)
        assert model_terms(g, np.diag(w), sigma, r.step)[1] < 0.0


class TestCertify:
    def exact_setup(self, theta1=1.0):
        g = np.array([-1.0, 0.5])
        H = np.array([[1.0, 0.0], [0.0, 2.0]])
        sigma = 3.0
        return solve_p2_raw(g, H, sigma), (g, H, sigma), theta1

    def test_exact_step_passes_at_theta_one(self):
        r, point, theta1 = self.exact_setup()
        assert certify(r.step, *point, theta1)
        assert certify(r.step, *point, theta1, theta2=1.0, min_eig=1.0)

    def test_shrunk_step_fails(self):
        r, point, theta1 = self.exact_setup()
        assert not certify(0.9 * r.step, *point, theta1)

    def test_inflated_step_still_passes(self):
        # Inflating the step loosens both one-sided inequalities here.
        r, point, theta1 = self.exact_setup()
        assert certify(1.1 * r.step, *point, theta1)

    def test_descent_violation_detected(self):
        r, point, theta1 = self.exact_setup()
        assert not certify(-r.step, *point, theta1)

    def test_curvature_bound(self):
        g = np.array([0.0, 1.0])
        H = np.diag([-1.0, 2.0])
        sigma = 0.5
        r = solve_p2_raw(g, H, sigma)
        assert certify(r.step, g, H, sigma, 1.0, theta2=1.0, min_eig=-1.0)
        # a zero step cannot meet the curvature certificate on this instance
        tiny = np.array([0.0, -1e-8])
        assert not certify(tiny, g, H, sigma, 1.0, theta2=1.0, min_eig=-1.0)

    def test_curvature_needs_min_eig(self):
        r, point, theta1 = self.exact_setup()
        with pytest.raises(ValueError, match="min_eig"):
            certify(r.step, *point, theta1, theta2=1.0)

    def test_recomputes_from_model(self):
        # certify hands back model_terms' numbers at the step, bit for bit,
        # hard cases included, and at p = 1 (H = None) at -g/sigma.
        for g, A, sigma in scaled_p2_instances():
            r = solve_p2_raw(g, A, sigma)
            H = DerivativeBundle(g, A).hessian
            assert certify(r.step, g, H, sigma, 2.0) == model_terms(g, H, sigma, r.step)
            if g.any():
                s = solve_p1(g, sigma, vnorm(g)).step
                assert certify(s, g, None, sigma, 2.0) == model_terms(g, None, sigma, s)

    @staticmethod
    def reference(s, g, H, sigma, theta1, theta2, min_eig):
        """The step conditions written out, as certify's docstring states
        them, without model_terms."""
        p = 1 if H is None else 2
        snorm = float(np.linalg.norm(s))
        value = float(g @ s) + sigma / math.factorial(p + 1) * snorm ** (p + 1)
        tgrad = g.copy()
        if p == 2:
            value += 0.5 * float(s @ H @ s)
            tgrad += H @ s
        if not value < 0.0:
            return False
        bound = theta1 * sigma / math.factorial(p) * snorm**p
        if float(np.linalg.norm(tgrad)) > bound + _CERTIFY_RTOL * max(1.0, bound):
            return False
        if theta2 is not None and p == 2:
            cbound = theta2 * sigma * snorm
            return not min_eig < -cbound - _CERTIFY_RTOL * max(1.0, cbound)
        return True

    def test_suite_decisions_match_reference(self):
        # Exact steps at each suite start, scaled so that some fail the
        # descent or the Taylor-gradient condition, at p = 1 and p = 2, and
        # at p = 2 with the curvature condition: at the drivers' theta2 = 2,
        # and at 0.1, where it rejects steps on beale, dixmaana and helix.
        cases = ((1, None), (2, None), (2, 2.0), (2, 0.1))
        decisions = {case: [] for case in cases}
        for name in SUITE_NAMES:
            bundle = get_problem(name).evaluate(get_problem(name).x0)
            min_eig = float(eigh(bundle.hessian)[0][0])
            eigvalsh_min = float(np.linalg.eigvalsh(bundle.hessian)[0])
            for sigma in (1e-2, 1.0, 1e3):
                g, gnorm = bundle.gradient, bundle.finite_grad_norm()
                exact = {1: solve_p1(g, sigma, gnorm).step,
                         2: solve_p2(g, eigh(bundle.hessian), sigma, gnorm).step}
                for p, theta2 in cases:
                    point = (g, bundle.hessian if p == 2 else None, sigma)
                    for scale in (0.0, 0.5, 1.0, 1.5, -1.0):
                        step = scale * exact[p]
                        got = bool(certify(step, *point, 2.0, theta2, eigvalsh_min))
                        assert got == self.reference(step, *point, 2.0, theta2, eigvalsh_min), (
                            name, sigma, p, theta2, scale)
                        # A driver's min_eig, from its eigh, decides the same.
                        assert bool(certify(step, *point, 2.0, theta2, min_eig)) == got, (
                            name, sigma, p, theta2, scale)
                        decisions[p, theta2].append(got)
        for case, got in decisions.items():
            assert len(got) == 12 * 3 * 5 and 0 < sum(got) < len(got), case
        plain, curved = decisions[2, None], decisions[2, 0.1]
        assert any(a and not b for a, b in zip(plain, curved))
