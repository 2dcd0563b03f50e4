"""Benchmark suite integrity: derivatives, metadata, noise wrapper."""

import math
import sys

import numpy as np
import pytest

from offar import (Ar2Config, NoiseSpec, OffoConfig, ProblemMeta, ProblemOracle,
                   RunStatus, SUITE_NAMES, add_noise, get_problem, make_suite,
                   run_ar2, run_offar, validate_derivatives)
from offar.model import DerivativeBundle, eigh
from offar.problems import _BATCH, _bundle, _helix
from offar.subsolver import solve_p2

# DBL_MAX/2, the largest float64 below 2**1023: an entry up to it doubles to
# a finite value, and 2**1023, the next float up, doubles to inf.
HALF_MAX = math.nextafter(2.0**1023, 0.0)
DBL_MAX = sys.float_info.max


def symmetric(n, triangle):
    """The n x n matrix with this upper triangle (np.triu_indices order),
    mirrored bit for bit."""
    H = np.zeros((n, n))
    rows, cols = np.triu_indices(n)
    H[rows, cols] = triangle
    H[cols, rows] = triangle
    return H


def same_bytes(a, b):
    return (np.float64(a.fvalue).tobytes() == np.float64(b.fvalue).tobytes()
            and a.gradient.tobytes() == b.gradient.tobytes()
            and a.hessian.tobytes() == b.hessian.tobytes())


class TestSuiteComposition:
    def test_twelve_problems(self):
        suite = make_suite()
        assert len(suite) == 12
        assert tuple(p.name for p in suite) == SUITE_NAMES

    def test_get_problem_roundtrip(self):
        for name in SUITE_NAMES:
            p = get_problem(name)
            assert p.name == name
            assert p.x0.shape == (p.n,)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_problem("nosuch")

    def test_safe_boxes_contain_start(self):
        for p in make_suite():
            lo, hi = p.safe_box
            assert np.all(lo <= p.x0) and np.all(p.x0 <= hi)

    def test_shape_check(self):
        p = get_problem("cube")
        with pytest.raises(ValueError):
            p.evaluate(np.zeros(3))

    def test_start_values_finite(self):
        for p in make_suite():
            b = p.evaluate(p.x0)
            assert b.finite_grad_norm() < math.inf and b.hessian is not None
            assert np.isfinite(b.fvalue)
            assert float(np.linalg.norm(b.gradient)) > 1e-3  # start is not critical


class TestDerivatives:
    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_gradients_and_hessians_match_differences(self, name):
        p = get_problem(name)
        lo, hi = p.safe_box
        rng = np.random.default_rng(SUITE_NAMES.index(name))
        pts = [lo + rng.uniform(size=p.n) * (hi - lo) for _ in range(4)]
        pts.append(p.x0)
        report = validate_derivatives(p, pts)
        assert report.ok, report.violations[:3]
        assert report.max_grad_err <= 1e-5
        assert report.max_hess_err <= 1e-4

    def test_negative_control_bad_gradient(self):
        def ev(x, degree):
            return DerivativeBundle(2.0 * x + 0.05, np.eye(2), float(x @ x))

        p = ProblemOracle("badgrad", 2, np.zeros(2), ev, ProblemMeta())
        report = validate_derivatives(p, [np.array([0.3, -0.2])])
        assert not report.ok
        assert any(kind == "gradient" for _, kind, _, _ in report.violations)

    def test_negative_control_bad_hessian(self):
        # A NaN entry compares False against the tolerance, yet is an error.
        for name, hess in (("badhess", 1.9 * np.eye(2)),
                           ("nanhess", np.array([[2.0, 0.0], [0.0, np.nan]]))):
            def ev(x, degree, hess=hess):
                return DerivativeBundle(2.0 * x, hess, float(x @ x))

            p = ProblemOracle(name, 2, np.zeros(2), ev, ProblemMeta())
            report = validate_derivatives(p, [np.array([0.3, -0.2])])
            assert not report.ok, name
            assert any(kind == "hessian" for _, kind, _, _ in report.violations), name

    def test_noisy_oracle_fails_validation(self):
        p = add_noise(get_problem("tridia"), NoiseSpec(level=0.05, seed=3))
        report = validate_derivatives(p, [p.x0])
        assert not report.ok


    def test_beale_hessian_on_the_x2_axis(self):
        # The j = 1 term of d^2f/dx2^2 is 0 * x2^-1, not NaN, at x2 = 0.
        bundle = get_problem("beale").evaluate(np.array([2.0, 0.0]))
        assert bundle.hessian[1, 1] == 10.0
        assert bundle.finite_grad_norm() < math.inf

    @pytest.mark.parametrize("x", [[-3.2e-218, 2.2e-125, -6.2e-238], [1e-82, 1e-82, 1.0],
                                   [0.0, 0.0, 2.0], [-0.0, 5e-324, 0.0]])
    def test_helix_where_r4_underflows(self, x):
        # x1^2 + x2^2 is 0 or its square underflows to 0: NaN, not ZeroDivisionError.
        f, g, H = _helix(np.array(x), 2)
        assert math.isnan(f) and np.isnan(g).all() and np.isnan(H).all()
        helix = get_problem("helix")
        start = ProblemOracle("helix", 3, np.array(x), helix.evaluator, helix.meta)
        assert run_offar(start, OffoConfig(degree=2, eps1=1e-6)).status == RunStatus.ORACLE_OVERFLOW

    def test_helix_finite_where_r4_is_subnormal(self):
        # r^4 ~ 1e-312 is subnormal but not 0: the formula still returns values.
        f, g, H = _helix(np.array([-1e-78, 0.0, 0.5]), 2)
        assert math.isfinite(f)
        assert not np.isnan(g).any() and not np.isnan(H).any()


class TestMetadata:
    def test_known_minima_are_critical_points(self):
        for p in make_suite():
            if p.meta.known_minimum is None:
                continue
            xstar, fstar = p.meta.known_minimum
            b = p.evaluate(xstar)
            assert b.fvalue == pytest.approx(fstar, abs=1e-10)
            assert float(np.linalg.norm(b.gradient)) < 1e-8
            assert float(np.linalg.eigvalsh(b.hessian)[0]) > -1e-8

    def test_f_low_is_a_lower_bound_at_start(self):
        for p in make_suite():
            assert p.meta.f_low is not None
            assert p.evaluate(p.x0).fvalue > p.meta.f_low

    def test_quadratic_problem_constants(self):
        p = get_problem("tridia")
        H = p.evaluate(p.x0).hessian
        lam = np.linalg.eigvalsh(H)
        assert p.meta.lipschitz[1] == pytest.approx(lam[-1])
        assert p.meta.lipschitz[2] == 0.0
        assert p.meta.kappa_high == 0.0
        xstar, _ = p.meta.known_minimum
        np.testing.assert_allclose(xstar, 2.0 ** (-np.arange(10.0)))

    def test_dixmaana_floor(self):
        p = get_problem("dixmaana")
        assert p.meta.f_low == 1.0
        assert p.evaluate(np.zeros(12)).fvalue == pytest.approx(1.0)


class TestNoise:
    def test_level_zero_is_passthrough(self):
        clean = get_problem("rosenbr")
        noisy = add_noise(clean, NoiseSpec(level=0.0, seed=7))
        a = clean.evaluate(clean.x0)
        b = noisy.evaluate(clean.x0)
        assert a.fvalue == b.fvalue
        np.testing.assert_array_equal(a.gradient, b.gradient)
        np.testing.assert_array_equal(a.hessian, b.hessian)
        assert noisy.evaluator is clean.evaluator

    def test_same_seed_replays(self):
        clean = get_problem("woods")
        spec = NoiseSpec(level=0.25, seed=11)
        xs = [clean.x0, clean.x0 + 0.1, clean.x0 - 0.3]
        n1 = add_noise(clean, spec)
        n2 = add_noise(clean, spec)
        for x in xs:
            a, b = n1.evaluate(x), n2.evaluate(x)
            assert a.fvalue == b.fvalue
            np.testing.assert_array_equal(a.gradient, b.gradient)
            np.testing.assert_array_equal(a.hessian, b.hessian)

    def test_counter_advances_per_evaluation(self):
        noisy = add_noise(get_problem("woods"), NoiseSpec(level=0.25, seed=11))
        a = noisy.evaluate(noisy.x0)
        b = noisy.evaluate(noisy.x0)
        assert a.fvalue != b.fvalue

    def test_different_seeds_differ(self):
        clean = get_problem("woods")
        a = add_noise(clean, NoiseSpec(level=0.25, seed=1)).evaluate(clean.x0)
        b = add_noise(clean, NoiseSpec(level=0.25, seed=2)).evaluate(clean.x0)
        assert a.fvalue != b.fvalue

    def test_fvalue_false_leaves_f_clean(self):
        # f is left as it is and takes no normal: each evaluation spends
        # n + n(n+1)/2 of them, on g and H's upper triangle, so after N
        # evaluations the next factors are normals N size .. (N + 1) size of
        # default_rng(seed).  100 evaluations cross two refills.
        n = 12
        ones = ProblemOracle("ones", n, np.zeros(n),
                             lambda x, degree: DerivativeBundle(np.ones(n), np.ones((n, n)), 1.0))
        spec = NoiseSpec(level=0.3, seed=5, fvalue=False)
        noisy, ref = add_noise(ones, spec), np.random.default_rng(spec.seed)
        size = n + n * (n + 1) // 2
        for _ in range(100):
            b = noisy.evaluate(noisy.x0)
            assert b.fvalue == 1.0
            ours = np.concatenate((b.gradient, b.hessian[np.triu_indices(n)]))
            assert ours.tobytes() == (1.0 + spec.level * ref.standard_normal(size)).tobytes()
        assert 100 * size > 2 * _BATCH

    def test_noised_hessian_stays_symmetric(self):
        clean = get_problem("rosenbr")
        noisy = add_noise(clean, NoiseSpec(level=0.5, seed=9))
        H = noisy.evaluate(clean.x0).hessian
        np.testing.assert_array_equal(H, H.T)

    def test_relative_scale(self):
        clean = get_problem("tridia")
        level = 0.05
        devs = []
        for seed in range(40):
            g = add_noise(clean, NoiseSpec(level=level, seed=seed)).evaluate(
                clean.x0).gradient
            ref = clean.evaluate(clean.x0).gradient
            devs.append(np.abs(g / ref - 1.0))
        mean_dev = float(np.mean(devs))
        # mean |z| of a standard normal is sqrt(2/pi) ~ 0.7979
        assert 0.5 * level < mean_dev < 1.2 * level

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(level=1.5, seed=0)
        with pytest.raises(ValueError):
            NoiseSpec(level=-0.1, seed=0)

    @staticmethod
    def three_term_noise(bundle, spec, rng):
        """The wrapper's original build from the reference stream rng: one
        draw each for the function scalar, the gradient and the Hessian's
        upper triangle Hn, which is mirrored as Hn + Hn.T - diag(Hn)."""
        f = bundle.fvalue * (1.0 + spec.level * rng.standard_normal())
        g = bundle.gradient * (1.0 + spec.level * rng.standard_normal(bundle.n))
        iu = np.triu_indices(bundle.n)
        vals = bundle.hessian[iu] * (1.0 + spec.level * rng.standard_normal(iu[0].size))
        Hn = np.zeros_like(bundle.hessian)
        Hn[iu] = vals
        return DerivativeBundle(g, Hn + Hn.T - np.diag(np.diag(Hn)), f)

    @pytest.mark.parametrize("name", ["rosenbr", "woods", "helix", "dixmaana"])
    def test_hessian_build_matches_three_term_formula(self, name):
        clean = get_problem(name)
        # Zeros in x make -0.0 entries (rosenbr: -400 x_i), and level 1
        # draws factors 1 + z < 0 that turn +0.0 entries into -0.0.
        x = clean.x0.copy()
        x[1::2] = 0.0
        spec = NoiseSpec(level=1.0, seed=3)
        noisy = add_noise(clean, spec)
        ref, rng = clean.evaluate(x), np.random.default_rng(spec.seed)
        for _ in range(40):
            new, old = noisy.evaluate(x), self.three_term_noise(ref, spec, rng)
            assert new.fvalue == old.fvalue
            assert new.gradient.tobytes() == old.gradient.tobytes()
            assert new.hessian.tobytes() == old.hessian.tobytes()
            assert not np.any(np.signbit(new.hessian) & (new.hessian == 0.0))

    def test_boundary_entries_match_three_term_formula(self):
        # Triangle entries chosen from the stream's first factors so that the
        # noised value lands a few ulps above 2**1023 or below DBL_MAX/2; the
        # others are -0.0, +0.0, NaN and 1.0.  Level 1 draws factors below 0,
        # which turn +0.0 into -0.0 before the build's + 0.0.
        n, spec = 12, NoiseSpec(level=1.0, seed=4)
        k = n * (n + 1) // 2
        z = np.random.default_rng(spec.seed).standard_normal(1 + n + k)
        fac = 1.0 + z[1 + n :]
        kinds = np.arange(k) % 6
        big = (kinds < 2) & (np.abs(fac) > 1.01)  # so that |h| < DBL_MAX/2 too
        target = np.where(kinds == 0, 2.0**1023 * (1 + 2.0**-48), HALF_MAX * (1 - 2.0**-48))
        triangle = np.select([big, kinds == 2, kinds == 3, kinds == 4],
                             [target * np.sign(z[1 + n :]) / np.where(big, fac, 1.0),
                              -0.0, 0.0, np.nan], 1.0)
        g = np.array([-0.0, 0.0, np.nan, HALF_MAX, 1.0, -1.0] * 2)
        ref = DerivativeBundle(g, symmetric(n, triangle), -0.0)
        noisy = add_noise(ProblemOracle("edges", n, np.zeros(n), lambda x, degree: ref), spec)
        with np.errstate(over="ignore"):
            new = noisy.evaluate(np.zeros(n))
            old = self.three_term_noise(ref, spec, np.random.default_rng(spec.seed))
        rows, cols = np.triu_indices(n)
        noised = new.hessian[rows, cols]
        # Every noised entry is the finite product.  The three-term build
        # doubles the diagonal in Hn + Hn.T, so there it overflows those
        # above 2**1023 to inf; elsewhere the two agree bit for bit.
        assert noised[big].tobytes() == (triangle * fac)[big].tobytes()
        assert np.all(np.abs(noised[big & (kinds == 0)]) > 2.0**1023)
        assert np.all(np.abs(noised[big & (kinds == 1)]) > 2.0**1022)
        assert np.all(np.isfinite(noised[big]))
        doubled = big & (kinds == 0) & (rows == cols)
        assert np.all(np.isinf(old.hessian[rows[doubled], cols[doubled]]))
        old.hessian[rows[doubled], cols[doubled]] = noised[doubled]
        assert same_bytes(new, old)
        assert np.any(doubled) and np.any(big & (kinds == 0) & (rows != cols))
        assert np.any(big & (kinds == 1))
        assert np.any((kinds == 3) & (fac < 0))
        assert not np.any(np.signbit(new.hessian) & (new.hessian == 0.0))

    def test_wrapper_leaves_original_untouched(self):
        clean = get_problem("beale")
        before = clean.evaluate(clean.x0)
        noisy = add_noise(clean, NoiseSpec(level=0.4, seed=2))
        noisy.evaluate(noisy.x0)
        after = clean.evaluate(clean.x0)
        assert before.fvalue == after.fvalue
        np.testing.assert_array_equal(before.gradient, after.gradient)


class TestNoiseStreams:
    """Each wrapper reads one np.random.default_rng(seed) stream in order."""

    @staticmethod
    def factors(bundle):
        """f, g and H's upper triangle (those present), flat: for a bundle of
        ones, the factors 1 + level z the wrapper applied."""
        f = [] if bundle.fvalue is None else [bundle.fvalue]
        H = [] if bundle.hessian is None else bundle.hessian[np.triu_indices(bundle.n)]
        return np.concatenate((f, bundle.gradient, H))

    @pytest.mark.parametrize("fvalue", [False, True])
    def test_degree_one_spends_gradient_normals(self, fvalue):
        # Asked for degree 1, the inner evaluator returns no Hessian, and the
        # wrapper spends n normals on the gradient, n + 1 with the function
        # value; degree-2 evaluations in between spend their full size.
        n = 12

        def ones(x, degree):
            return DerivativeBundle(np.ones(n), np.ones((n, n)) if degree == 2 else None, 1.0)

        spec = NoiseSpec(level=0.1, seed=5, fvalue=fvalue)
        noisy = add_noise(ProblemOracle("ones", n, np.zeros(n), ones), spec)
        ref = np.random.default_rng(spec.seed)
        for degree in (1, 2, 1, 1, 2, 1):
            bundle = noisy.evaluate(noisy.x0, degree)
            assert (bundle.hessian is None) == (degree == 1)
            ours = self.factors(bundle)[0 if fvalue else 1:]  # an un-noised f is 1.0
            assert ours.size == fvalue + n + (degree == 2) * n * (n + 1) // 2
            assert ours.tobytes() == (1.0 + 0.1 * ref.standard_normal(ours.size)).tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, np.int64(7), 2**64 + 3])
    def test_draws_match_default_rng(self, seed):
        # fvalue alternates between a float and None, and every third
        # evaluation has no Hessian, so the number of normals an evaluation
        # takes varies, and 200 evaluations cross several refills of the
        # wrapper's batched factors.
        n, calls = 12, []

        def ones(x, degree):
            calls.append(1)
            return DerivativeBundle(np.ones(n), np.ones((n, n)) if len(calls) % 3 else None,
                                    1.0 if len(calls) % 2 else None)

        spec = NoiseSpec(level=0.1, seed=seed)
        noisy, ref = add_noise(ProblemOracle("ones", n, np.zeros(n), ones), spec), np.random.default_rng(seed)
        drawn = 0
        for _ in range(200):
            ours = self.factors(noisy.evaluate(noisy.x0))
            assert ours.tobytes() == (1.0 + 0.1 * ref.standard_normal(ours.size)).tobytes()
            drawn += ours.size
        assert drawn > 2 * _BATCH

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError, match="noise seed must be a nonnegative integer, got -1$"):
            add_noise(get_problem("cube"), NoiseSpec(level=0.1, seed=-1))
        for seed in (np.int64(-2), 1.5, 2.0, "3", None):
            with pytest.raises(ValueError, match="noise seed must be a nonnegative integer"):
                NoiseSpec(level=0.1, seed=seed)

    def test_long_run_matches_default_rng_streams(self):
        # One evaluation spends 1 + n + n(n+1)/2 normals and nothing else
        # draws: after an ar2 run of K iterations, which makes N = 1 + K
        # evaluations, the next evaluation's factors are normals
        # N size .. (N + 1) size of default_rng(seed).  The run ends at its
        # sigma cap, after rejections there and accepted steps before it.
        clean = get_problem("woods")
        n = clean.n
        source = clean.evaluator
        spec = NoiseSpec(level=0.5, seed=3)
        problem = add_noise(ProblemOracle("woods", n, clean.x0, lambda x, degree: source(x, degree)), spec)
        out = run_ar2(problem, Ar2Config(eps1=1e-3, max_iter=1000))
        assert out.status == RunStatus.SIGMA_CAP
        accepted = out.trace.column("accepted")[:-1]
        assert 0 < accepted.sum() < out.iterations
        size = 1 + n + n * (n + 1) // 2
        ref = np.random.default_rng(spec.seed)
        ref.standard_normal((1 + out.iterations) * size)
        expected = 1.0 + spec.level * ref.standard_normal(size)

        # The oracle now answers with ones, which come back as their factors.
        def source(x, degree):
            return DerivativeBundle(np.ones(n), np.ones((n, n)), 1.0)

        ours = self.factors(problem.evaluate(clean.x0))
        assert ours.tobytes() == expected.tobytes()


class TestBundleBuild:
    def test_boundary_entries_match_constructor(self):
        # _bundle builds its bundle without the constructor's symmetrization,
        # which keeps a bitwise symmetric H as it is, 2**1023 included.
        n = 4
        H = symmetric(n, [2.0**1023, -(2.0**1023), HALF_MAX, -HALF_MAX, -0.0,
                          0.0, np.nan, 5e-324, math.inf, 1.0])
        g = np.array([-0.0, np.nan, HALF_MAX, 1.0])
        ev = _bundle(lambda x, degree: (-0.0, g.copy(), H.copy()))
        new, old = ev(np.zeros(n), 2), DerivativeBundle(g, H, -0.0)
        assert same_bytes(new, old)
        assert new.hessian.tobytes() == H.tobytes()
        assert new.hessian[0, 0] == 2.0**1023 and new.hessian[0, 1] == -(2.0**1023)

    @pytest.mark.parametrize("big", [2.0**1023, DBL_MAX])
    def test_huge_entries_stay_finite(self, big):
        # Entries whose double overflows: symmetrizing keeps them finite, in
        # the constructor and in _bundle, and solve_p2 steps from them.
        H = np.array([[big, -big], [-big, 1.0]])
        g = np.array([1.0, -0.0])
        ev = _bundle(lambda x, degree: (0.0, g.copy(), H.copy()))
        for bundle in (DerivativeBundle(g, H, 0.0), ev(np.zeros(2), 2)):
            assert bundle.hessian.tobytes() == H.tobytes()
        lopsided = np.array([[big, -big], [-HALF_MAX, 1.0]])
        half = np.float64(-big) / 2 + -HALF_MAX / 2
        assert DerivativeBundle(g, lopsided).hessian.tobytes() == np.array(
            [[big, half], [half, 1.0]]).tobytes()
        point = DerivativeBundle(np.ones(2), np.diag([big, 1.0]))
        step = solve_p2(point.gradient, eigh(point.hessian), 1.0, point.finite_grad_norm())
        assert np.all(np.isfinite(step.step))
