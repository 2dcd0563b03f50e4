"""Outer-iteration driver behavior on analytic and scripted oracles."""

import itertools
import math

import numpy as np
import pytest

from _checks import check_offo_invariants
from offar import (Ar2Config, DerivativeBundle, OffoConfig, ProblemMeta,
                   ProblemOracle, RunStatus, get_problem, run_ar2, run_moffar,
                   run_offar, run_single, solve_p2, solvers)


def quadratic_oracle(A, b, x0, name="quad"):
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)

    def ev(x):
        return DerivativeBundle(A @ x - b, A, 0.5 * x @ A @ x - b @ x)

    return ProblemOracle(name, b.size, np.asarray(x0, dtype=float), ev, ProblemMeta())


def double_well_oracle(x0):
    def ev(x):
        f = x[0] ** 4 / 4.0 - x[0] ** 2 / 2.0 + x[1] ** 2
        g = np.array([x[0] ** 3 - x[0], 2.0 * x[1]])
        H = np.array([[3.0 * x[0] ** 2 - 1.0, 0.0], [0.0, 2.0]])
        return DerivativeBundle(g, H, f)

    return ProblemOracle("double-well", 2, np.asarray(x0, dtype=float), ev,
                         ProblemMeta())


class TestOffarConvergence:
    def test_p1_strict_on_identity_quadratic(self):
        po = quadratic_oracle(np.eye(2), np.zeros(2), [1.0, 1.0])
        cfg = OffoConfig(degree=1, eps1=1e-6, strict_mode=True, nu0=1.0,
                         max_iter=200000)
        out = run_offar(po, cfg)
        assert out.status == RunStatus.FIRST_ORDER
        assert out.final_grad_norm <= 1e-6

    def test_p2_strict_on_diagonal_quadratic(self):
        po = quadratic_oracle(np.diag([1.0, 10.0]), np.zeros(2), [1.0, 1.0])
        cfg = OffoConfig(degree=2, eps1=1e-6, strict_mode=True, nu0=1.0)
        out = run_offar(po, cfg)
        assert out.status == RunStatus.FIRST_ORDER
        assert out.iterations <= 50

    def test_practical_rosenbrock(self):
        out = run_offar(get_problem("rosenbr"), OffoConfig(degree=2, eps1=1e-6))
        assert out.status == RunStatus.FIRST_ORDER
        assert out.final_grad_norm <= 1e-6

    def test_status_grad_norm_contract(self):
        po = quadratic_oracle(np.diag([2.0, 3.0]), np.array([1.0, -1.0]), [4.0, 4.0])
        out = run_offar(po, OffoConfig(degree=2, eps1=1e-8))
        assert out.status == RunStatus.FIRST_ORDER
        assert out.final_grad_norm <= 1e-8
        # terminal trace row repeats the final iterate data
        assert out.trace.column("k")[-1] == out.iterations
        assert math.isnan(out.trace.column("step_norm")[-1])

    def test_max_iterations(self):
        po = quadratic_oracle(np.eye(3), np.ones(3), np.zeros(3))
        out = run_offar(po, OffoConfig(degree=2, eps1=1e-12, max_iter=1))
        assert out.status == RunStatus.MAX_ITERATIONS
        assert out.iterations == 1

    def test_strict_needs_nu0(self):
        po = quadratic_oracle(np.eye(2), np.ones(2), np.zeros(2))
        with pytest.raises(ValueError):
            run_offar(po, OffoConfig(degree=2, strict_mode=True))

    @pytest.mark.parametrize("algorithm", ["offar2a", "moffar2"])
    def test_degree2_needs_hessians(self, algorithm):
        po = ProblemOracle("nohess", 2, np.ones(2), lambda x: DerivativeBundle(x.copy()),
                           ProblemMeta())
        with pytest.raises(ValueError, match="needs Hessians"):
            run_single(po, algorithm, eps1=1e-6)

    def test_history_lengths(self):
        po = quadratic_oracle(np.diag([1.0, 4.0]), np.ones(2), np.zeros(2))
        out = run_offar(po, OffoConfig(degree=2, eps1=1e-8), collect_history=True)
        h = out.history
        assert len(h.xs) == out.iterations + 1
        assert len(h.steps) == out.iterations
        assert len(h.step_results) == out.iterations
        x = h.xs[0].copy()
        for s in h.steps:
            x = x + s
        np.testing.assert_allclose(x, out.final_x, rtol=0, atol=0)


class TestInvariants:
    @pytest.mark.parametrize("name", ["tridia", "rosenbr", "beale"])
    def test_strict_runs_clean(self, name):
        po = get_problem(name)
        g0 = float(np.linalg.norm(po.evaluate(po.x0).gradient))
        cfg = OffoConfig(degree=2, eps1=1e-6, strict_mode=True,
                         nu0=solvers.practical_nu0(g0), max_iter=5000)
        out = run_offar(po, cfg, collect_history=True)
        assert check_offo_invariants(out, cfg, po) == []

    def test_practical_run_also_clean(self):
        # the practical sigma is clamped into the same interval
        po = get_problem("tridia")
        cfg = OffoConfig(degree=2, eps1=1e-8)
        out = run_offar(po, cfg, collect_history=True)
        assert check_offo_invariants(out, cfg, po) == []


class TestDeterminism:
    def test_bitwise_repeat(self):
        po = get_problem("woods")
        cfg = OffoConfig(degree=2, eps1=1e-6)
        a = run_offar(po, cfg)
        b = run_offar(po, cfg)
        assert a.trace.equals(b.trace)

    def test_config_hash_distinguishes(self):
        po = get_problem("tridia")
        a = run_offar(po, OffoConfig(degree=2, eps1=1e-6))
        b = run_offar(po, OffoConfig(degree=2, eps1=1e-5))
        assert a.trace.config_hash != b.trace.config_hash


@pytest.mark.filterwarnings("error")  # the status reports an overflow, not a warning
class TestOverflow:
    def oracle_exploding(self, explode_at):
        calls = {"n": 0}

        def ev(x):
            calls["n"] += 1
            if calls["n"] > explode_at:
                return DerivativeBundle(np.array([np.inf, 1.0]), np.eye(2), np.inf)
            return DerivativeBundle(np.array([1.0, 0.5]), np.eye(2), 1.0)

        return ProblemOracle("exploding", 2, np.zeros(2), ev, ProblemMeta())

    def test_overflow_at_start(self):
        out = run_offar(self.oracle_exploding(0), OffoConfig(degree=2, eps1=1e-6))
        assert out.status == RunStatus.ORACLE_OVERFLOW
        assert out.iterations == 0
        assert len(out.trace) == out.iterations + 1
        assert math.isnan(out.final_grad_norm)

    def test_overflow_mid_run(self):
        out = run_offar(self.oracle_exploding(1), OffoConfig(degree=2, eps1=1e-6))
        assert out.status == RunStatus.ORACLE_OVERFLOW
        assert out.iterations == 1
        assert len(out.trace) == out.iterations + 1
        assert math.isnan(out.final_grad_norm)

    def test_ar2_overflow_at_start(self):
        out = run_ar2(self.oracle_exploding(0), Ar2Config(eps1=1e-6))
        assert out.status == RunStatus.ORACLE_OVERFLOW
        assert out.iterations == 0
        assert len(out.trace) == 1
        assert math.isnan(out.trace.column("grad_norm")[0])

    @pytest.mark.parametrize("algorithm", ["offar2a", "offar2b", "moffar2", "ar2"])
    @pytest.mark.parametrize("explode_at", [0, 1])
    def test_gradient_norm_overflow(self, algorithm, explode_at):
        # Finite entries whose norm overflows: at the start, after one step
        # (offar2a, offar2b, moffar2) or on the trial point (ar2).
        calls = itertools.count()

        def ev(x):
            g = [1e200, 1e200] if next(calls) >= explode_at else [1.0, 0.5]
            return DerivativeBundle(np.array(g), np.eye(2), 0.0)

        po = ProblemOracle("huge", 2, np.zeros(2), ev, ProblemMeta())
        out = run_single(po, algorithm, eps1=1e-6)
        assert out.status == RunStatus.ORACLE_OVERFLOW
        assert out.iterations == explode_at
        assert len(out.trace) == out.iterations + 1
        if algorithm != "ar2":  # ar2 keeps the accepted point's curvature
            assert out.final_min_eig is None

    def test_gradient_norm_overflow_in_noisy_ar2(self):
        # Noisy gradients grow until a trial gradient's norm overflows float64
        # while its entries stay finite.
        out = run_single(get_problem("beale"), "ar2", eps1=1e-3, noise_level=0.5,
                         seed=19, max_iter=2000)
        assert out.status == RunStatus.ORACLE_OVERFLOW
        assert len(out.trace) == out.iterations + 1

    def test_nonfinite_fvalue_alone_is_not_overflow(self):
        def ev(x):
            f = math.inf if np.linalg.norm(x) > 0.5 else 1.0
            return DerivativeBundle(x.copy(), np.eye(2), f)

        po = ProblemOracle("badf", 2, np.array([3.0, 4.0]), ev, ProblemMeta())
        out = run_offar(po, OffoConfig(degree=2, eps1=1e-8))
        assert out.status == RunStatus.FIRST_ORDER


class TestCertificateErrors:
    def test_offar_raises_when_certificate_fails(self, monkeypatch):
        monkeypatch.setattr(solvers, "certify", lambda *args: False)
        po = quadratic_oracle(np.eye(2), np.ones(2), np.zeros(2))
        with pytest.raises(solvers.CertificateError, match="iteration 0"):
            run_offar(po, OffoConfig(degree=2, eps1=1e-6))

    def test_ar2_raises_on_zero_taylor_decrease(self, monkeypatch):
        monkeypatch.setattr(solvers, "taylor_decrease", lambda model, s: 0.0)
        po = quadratic_oracle(np.eye(2), np.ones(2), np.zeros(2))
        with pytest.raises(solvers.CertificateError, match="iteration 0"):
            run_ar2(po, Ar2Config(eps1=1e-6))


class TestFactorizations:
    """Each p = 2 point is factorized by one eigh; certify's eigvalsh is the
    only other eigenvalue call."""

    def run_counted(self, monkeypatch, driver, config):
        problem = get_problem("rosenbr")  # building the suite calls eigvalsh
        counts = {"eigh": 0, "eigvalsh": 0}
        for name in counts:
            def counting(H, _original=getattr(np.linalg, name), _name=name):
                counts[_name] += 1
                return _original(H)
            monkeypatch.setattr(np.linalg, name, counting)
        return driver(problem, config), counts

    def test_moffar2(self, monkeypatch):
        cfg = OffoConfig(degree=2, eps1=1e-6, eps2=1e-6)
        out, counts = self.run_counted(monkeypatch, run_moffar, cfg)
        assert out.status == RunStatus.SECOND_ORDER
        assert counts == {"eigh": out.iterations + 1, "eigvalsh": out.iterations}

    def test_offar2a(self, monkeypatch):
        out, counts = self.run_counted(monkeypatch, run_offar, OffoConfig(degree=2, eps1=1e-6))
        assert out.status == RunStatus.FIRST_ORDER
        assert counts == {"eigh": out.iterations + 1, "eigvalsh": 0}

    def test_ar2(self, monkeypatch):
        out, counts = self.run_counted(monkeypatch, run_ar2, Ar2Config(eps1=1e-6))
        accepted = int(out.trace.column("accepted")[:-1].sum())
        assert 0 < accepted < out.iterations
        assert counts == {"eigh": 1 + accepted, "eigvalsh": 0}


class TestMoffar:
    def test_requires_second_order_config(self):
        po = get_problem("tridia")
        with pytest.raises(ValueError):
            run_moffar(po, OffoConfig(degree=1, eps1=1e-6))
        with pytest.raises(ValueError):
            run_moffar(po, OffoConfig(degree=2, eps1=1e-6))  # no eps2

    def test_does_not_stop_at_saddle(self):
        # start exactly where the gradient vanishes but curvature is -1
        po = double_well_oracle([0.0, 0.0])
        cfg = OffoConfig(degree=2, eps1=1e-4, eps2=1e-4, strict_mode=True, nu0=1.0)
        out = run_moffar(po, cfg)
        assert out.status == RunStatus.SECOND_ORDER
        assert abs(abs(out.final_x[0]) - 1.0) < 1e-3
        assert out.final_min_eig >= -1e-4
        assert out.iterations > 0  # it moved away instead of declaring victory

    def test_offar_would_stop_at_the_same_saddle(self):
        po = double_well_oracle([0.0, 0.0])
        out = run_offar(po, OffoConfig(degree=2, eps1=1e-4))
        assert out.status == RunStatus.FIRST_ORDER
        assert out.iterations == 0

    def test_second_order_point_on_convex_problem(self):
        po = get_problem("tridia")
        cfg = OffoConfig(degree=2, eps1=1e-6, eps2=1e-6)
        out = run_moffar(po, cfg)
        assert out.status == RunStatus.SECOND_ORDER
        assert out.final_min_eig > 0.0


class TestAr2:
    def test_quadratic_fast(self):
        po = quadratic_oracle(np.diag([1.0, 3.0]), np.array([1.0, 1.0]), np.zeros(2))
        out = run_ar2(po, Ar2Config(eps1=1e-10))
        assert out.status == RunStatus.FIRST_ORDER
        assert out.iterations <= 10
        acc = out.trace.column("accepted")
        assert np.all(acc[:-1] == 1.0)  # every model fits a quadratic perfectly

    def test_sigma_decreases_on_very_successful(self):
        po = quadratic_oracle(np.eye(2), np.ones(2), np.zeros(2))
        out = run_ar2(po, Ar2Config(eps1=1e-10, sigma0=8.0))
        sig = out.trace.column("sigma")
        assert sig[-1] < 8.0

    def test_rejection_cap(self):
        # oracle whose function value always climbs: every step is rejected,
        # sigma doubles until the 1e20 ceiling
        def ev(x):
            f = 1.0 if np.all(x == 0.0) else 2.0
            return DerivativeBundle(np.array([1.0, 0.0]), np.eye(2), f)

        po = ProblemOracle("liar", 2, np.zeros(2), ev, ProblemMeta())
        out = run_ar2(po, Ar2Config(eps1=1e-8, max_iter=75))
        assert out.status == RunStatus.MAX_ITERATIONS
        np.testing.assert_array_equal(out.final_x, np.zeros(2))
        acc = out.trace.column("accepted")
        assert np.all(acc[:-1] == 0.0)
        assert out.trace.column("sigma")[-1] == pytest.approx(1e20)

    def test_step_reused_while_x_and_sigma_hold(self, monkeypatch):
        # Rejections up to the 1e20 cap, then one accepted step at the cap
        # (rho huge, sigma halves), then rejections again: one solve per
        # distinct (x, sigma), however many iterations revisit it.
        calls = []

        def counting_solve_p2(g, H, sigma, **kwargs):
            calls.append((g.tobytes(), sigma))
            return solve_p2(g, H, sigma, **kwargs)

        monkeypatch.setattr(solvers, "solve_p2", counting_solve_p2)
        evals = itertools.count()

        def ev(x):
            if np.all(x == 0.0):
                f = 1.0
            else:
                f = 2.0 if next(evals) < 80 else -1.0
            return DerivativeBundle(x + np.array([1.0, 0.0]), np.eye(2), f)

        po = ProblemOracle("liar", 2, np.zeros(2), ev, ProblemMeta())
        out = run_ar2(po, Ar2Config(eps1=1e-8, max_iter=120))
        acc = out.trace.column("accepted")[:-1]
        sigma = out.trace.column("sigma")[:-1]
        assert acc.sum() == 1.0 and out.iterations == 120
        point = np.concatenate(([0.0], np.cumsum(acc)[:-1]))
        visited = list(dict.fromkeys(zip(point, sigma)))
        assert len(calls) == len(set(calls)) == len(visited) < out.iterations
        assert [s for _, s in calls] == [s for _, s in visited]

    def test_overflow_on_trial(self):
        def ev(x):
            f = 1.0 if np.all(x == 0.0) else math.inf
            return DerivativeBundle(np.array([1.0, 0.0]), np.eye(2), f)

        po = ProblemOracle("cliff", 2, np.zeros(2), ev, ProblemMeta())
        out = run_ar2(po, Ar2Config(eps1=1e-8))
        assert out.status == RunStatus.ORACLE_OVERFLOW
        assert out.iterations == 1
        assert len(out.trace) == out.iterations + 1
        assert math.isnan(out.trace.column("rho")[0])
        assert math.isnan(out.trace.column("accepted")[0])

    def test_history_lengths(self):
        out = run_ar2(get_problem("rosenbr"), Ar2Config(eps1=1e-6), collect_history=True)
        h = out.history
        accepted = int(out.trace.column("accepted")[:-1].sum())
        assert 0 < accepted < out.iterations  # both branches ran
        assert len(h.steps) == len(h.step_results) == out.iterations
        assert len(h.xs) == len(h.bundles) == 1 + accepted
        np.testing.assert_array_equal(h.xs[-1], out.final_x)

    def test_needs_function_values(self):
        def ev(x):
            return DerivativeBundle(x.copy(), np.eye(2))

        po = ProblemOracle("nofv", 2, np.ones(2), ev, ProblemMeta())
        with pytest.raises(ValueError):
            run_ar2(po, Ar2Config())

    def test_rho_recorded(self):
        po = quadratic_oracle(np.diag([1.0, 2.0]), np.ones(2), np.zeros(2))
        out = run_ar2(po, Ar2Config(eps1=1e-10))
        rho = out.trace.column("rho")
        assert np.all(rho[:-1] > 0.99)  # quadratic: predicted = actual decrease
