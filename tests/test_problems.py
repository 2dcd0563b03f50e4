"""Benchmark suite integrity: derivatives, metadata, noise wrapper."""

import numpy as np
import pytest

from offar import (NoiseSpec, ProblemMeta, ProblemOracle, SUITE_NAMES,
                   add_noise, get_problem, make_suite, validate_derivatives)
from offar.model import DerivativeBundle
from offar.problems import _bundle


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
            assert b.is_finite() and b.hessian is not None
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
        def ev(x):
            return DerivativeBundle(2.0 * x + 0.05, np.eye(2), float(x @ x))

        p = ProblemOracle("badgrad", 2, np.zeros(2), ev, ProblemMeta())
        report = validate_derivatives(p, [np.array([0.3, -0.2])])
        assert not report.ok
        assert any(kind == "gradient" for _, kind, _, _ in report.violations)

    def test_negative_control_bad_hessian(self):
        # A NaN entry compares False against the tolerance, yet is an error.
        for name, hess in (("badhess", 1.9 * np.eye(2)),
                           ("nanhess", np.array([[2.0, 0.0], [0.0, np.nan]]))):
            def ev(x, hess=hess):
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
        assert bundle.is_finite()


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

    def test_targets_restrict_corruption(self):
        clean = get_problem("tridia")
        spec = NoiseSpec(level=0.3, seed=5, targets=frozenset({"gradient"}))
        ref = clean.evaluate(clean.x0)
        noisy = add_noise(clean, spec).evaluate(clean.x0)
        assert noisy.fvalue == ref.fvalue
        np.testing.assert_array_equal(noisy.hessian, ref.hessian)
        assert np.any(noisy.gradient != ref.gradient)

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
        with pytest.raises(ValueError):
            NoiseSpec(level=0.1, seed=0, targets=frozenset({"jacobian"}))

    @staticmethod
    def three_term_noise(bundle, spec, count):
        """The wrapper's original Hessian build: the noised upper triangle Hn
        plus its mirror as Hn + Hn.T - diag(Hn)."""
        rng = np.random.default_rng((int(spec.seed), count))
        g = bundle.gradient * (1.0 + spec.level * rng.standard_normal(bundle.n))
        iu = np.triu_indices(bundle.n)
        vals = bundle.hessian[iu] * (1.0 + spec.level * rng.standard_normal(iu[0].size))
        Hn = np.zeros_like(bundle.hessian)
        Hn[iu] = vals
        return DerivativeBundle(g, Hn + Hn.T - np.diag(np.diag(Hn)), bundle.fvalue)

    @pytest.mark.parametrize("name", ["rosenbr", "woods", "helix", "dixmaana"])
    def test_hessian_build_matches_three_term_formula(self, name):
        clean = get_problem(name)
        # Zeros in x make -0.0 entries (rosenbr: -400 x_i), and level 1
        # draws factors 1 + z < 0 that turn +0.0 entries into -0.0.
        x = clean.x0.copy()
        x[1::2] = 0.0
        spec = NoiseSpec(level=1.0, seed=3, targets=frozenset({"gradient", "hessian"}))
        noisy = add_noise(clean, spec)
        ref = clean.evaluate(x)
        for count in range(40):
            new, old = noisy.evaluate(x), self.three_term_noise(ref, spec, count)
            assert new.gradient.tobytes() == old.gradient.tobytes()
            assert new.hessian.tobytes() == old.hessian.tobytes()
            assert not np.any(np.signbit(new.hessian) & (new.hessian == 0.0))

    def test_wrapper_leaves_original_untouched(self):
        clean = get_problem("beale")
        before = clean.evaluate(clean.x0)
        noisy = add_noise(clean, NoiseSpec(level=0.4, seed=2))
        noisy.evaluate(noisy.x0)
        after = clean.evaluate(clean.x0)
        assert before.fvalue == after.fvalue
        np.testing.assert_array_equal(before.gradient, after.gradient)


class TestMemo:
    @staticmethod
    def counting_evaluator():
        calls = []

        def formula(x):
            calls.append(x.copy())
            return float(x @ x), 2.0 * x, 2.0 * np.eye(x.size)

        return _bundle(formula), calls

    def test_repeat_point_evaluates_once(self):
        ev, calls = self.counting_evaluator()
        x = np.array([1.0, -2.0])
        first = ev(x)
        assert ev(x.copy()) is first and len(calls) == 1
        other = ev(np.array([1.0, 2.0]))
        assert other is not first and len(calls) == 2
        np.testing.assert_array_equal(other.gradient, [2.0, 4.0])
        # one slot: going back to x recomputes
        assert ev(x) is not first and len(calls) == 3

    def test_signed_zero_recomputes(self):
        ev, calls = self.counting_evaluator()
        pos = ev(np.array([0.0, 1.0]))
        neg = ev(np.array([-0.0, 1.0]))
        assert len(calls) == 2
        assert not np.signbit(pos.gradient[0]) and np.signbit(neg.gradient[0])

    def test_cached_arrays_are_read_only(self):
        ev, _ = self.counting_evaluator()
        bundle = ev(np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            bundle.gradient[0] = 0.0
        with pytest.raises(ValueError):
            bundle.hessian[0, 0] = 0.0

    def test_suite_oracle_memoizes(self):
        po = get_problem("woods")
        a = po.evaluate(po.x0)
        assert po.evaluate(po.x0.copy()) is a
        assert po.evaluate(po.x0 + 1.0) is not a
