"""Outer-iteration driver behavior on analytic and scripted oracles."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from _checks import check_ar2_terms, check_offo_invariants, recording
from offar import (SUITE_NAMES, Ar2Config, DerivativeBundle, NoiseSpec, OffoConfig,
                   ProblemMeta, ProblemOracle, RunStatus, add_noise, get_problem, model,
                   run_ar2, run_moffar, run_offar, run_single, solvers,
                   subsolver)
from offar.trace import COLUMNS, RunTrace


def quadratic_oracle(A, b, x0, name="quad"):
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)

    def ev(x, degree):
        return DerivativeBundle(A @ x - b, A, 0.5 * x @ A @ x - b @ x)

    return ProblemOracle(name, b.size, np.asarray(x0, dtype=float), ev, ProblemMeta())


def double_well_oracle(x0):
    def ev(x, degree):
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
        po = ProblemOracle("nohess", 2, np.ones(2), lambda x, degree: DerivativeBundle(x.copy()),
                           ProblemMeta())
        with pytest.raises(ValueError, match="needs Hessians"):
            run_single(po, algorithm, eps1=1e-6)


def strict_config(po):
    g0 = float(np.linalg.norm(po.evaluate(po.x0).gradient))
    return OffoConfig(degree=2, eps1=1e-6, strict_mode=True,
                      nu0=solvers.practical_nu0(g0), max_iter=5000)


class TestInvariants:
    @pytest.mark.parametrize("name", ["tridia", "rosenbr", "beale"])
    def test_strict_runs_clean(self, name):
        po = get_problem(name)
        cfg = strict_config(po)
        po, points = recording(po)
        out = run_offar(po, cfg)
        assert check_offo_invariants(out, cfg, points, po) == []

    def test_practical_run_also_clean(self):
        # the practical sigma is clamped into the same interval
        po, points = recording(get_problem("tridia"))
        cfg = OffoConfig(degree=2, eps1=1e-8)
        out = run_offar(po, cfg)
        assert check_offo_invariants(out, cfg, points, po) == []

    def test_checker_flags_an_overstep_and_a_low_sigma(self):
        po = get_problem("tridia")
        cfg = strict_config(po)
        po, points = recording(po)
        out = run_offar(po, cfg)
        k = 2
        assert out.iterations > k + 1

        overstep = list(points)
        x0, x1 = points[k][0], points[k + 1][0]
        overstep[k + 1] = (x0 + 1.5 * (x1 - x0), points[k + 1][1])
        bad = check_offo_invariants(out, cfg, overstep, po)
        assert any(v.startswith(f"k={k}: step certificate failed") for v in bad), bad

        trace = RunTrace(rows=[row.copy() for row in out.trace.rows])
        row = trace.rows[k]
        row[COLUMNS.index("sigma")] = 0.5 * cfg.vartheta * row[COLUMNS.index("nu")]
        low = dataclasses.replace(out, trace=trace)
        bad = check_offo_invariants(low, cfg, points, po)
        assert any(v.startswith(f"k={k}: sigma=") and "outside" in v for v in bad), bad
        assert any(v.startswith(f"k={k}: (mu1[, mu2], sigma)") for v in bad), bad


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

        def ev(x, degree):
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

    @staticmethod
    def oracle_huge(explode_at):
        # Finite entries whose norm overflows from evaluation explode_at on.
        calls = itertools.count()

        def ev(x, degree):
            g = [1e200, 1e200] if next(calls) >= explode_at else [1.0, 0.5]
            return DerivativeBundle(np.array(g), np.eye(2), 0.0)

        return ProblemOracle("huge", 2, np.zeros(2), ev, ProblemMeta())

    @pytest.mark.parametrize("algorithm", ["offar1", "offar2a", "offar2b", "moffar2", "ar2"])
    @pytest.mark.parametrize("explode_at", [0, 1])
    def test_gradient_norm_overflow(self, algorithm, explode_at):
        # At the start, after one step (offar1, offar2a, offar2b, moffar2) or
        # on the trial point (ar2).
        out = run_single(self.oracle_huge(explode_at), algorithm, eps1=1e-6)
        assert out.status == RunStatus.ORACLE_OVERFLOW
        assert out.iterations == explode_at
        assert len(out.trace) == out.iterations + 1
        if algorithm != "ar2":  # ar2 keeps the accepted point's curvature
            assert out.final_min_eig is None

    def test_gradient_norm_overflow_in_noisy_ar2(self):
        # The overflowing trial gradient reaches ar2 through the noise wrapper.
        noisy = add_noise(self.oracle_huge(1), NoiseSpec(level=0.5, seed=1))
        out = run_ar2(noisy, Ar2Config(eps1=1e-6))
        assert out.status == RunStatus.ORACLE_OVERFLOW
        assert out.iterations == 1
        assert len(out.trace) == out.iterations + 1

    @pytest.mark.parametrize("algorithm", ["offar1", "offar2a"])
    def test_hessian_overflow(self, algorithm):
        # A finite gradient and a Hessian that overflows, which the evaluator
        # returns only when asked for degree 2, as the suite formulas do:
        # offar1 asks for degree 1 only and never sees it.
        degrees = []

        def ev(x, degree):
            degrees.append(degree)
            H = np.full((2, 2), np.inf) if degree == 2 else None
            return DerivativeBundle(x - 1.0, H, 0.0)

        po = ProblemOracle("hessian-overflow", 2, np.zeros(2), ev, ProblemMeta())
        out = run_single(po, algorithm, eps1=1e-6)
        if algorithm == "offar1":
            assert out.status == RunStatus.FIRST_ORDER
            assert out.iterations > 0 and set(degrees) == {1}
        else:
            assert out.status == RunStatus.ORACLE_OVERFLOW
            assert out.iterations == 0 and degrees == [2]

    def test_nonfinite_fvalue_alone_is_not_overflow(self):
        def ev(x, degree):
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

    def test_ar2_raises_when_certificate_fails(self, monkeypatch):
        monkeypatch.setattr(solvers, "certify", lambda *args: None)
        po = quadratic_oracle(np.eye(2), np.ones(2), np.zeros(2))
        with pytest.raises(solvers.CertificateError, match="iteration 0"):
            run_ar2(po, Ar2Config(eps1=1e-6))


class TestFactorizations:
    """Each p = 2 point is factorized by one model.eigh, and nothing else
    computes eigenvalues: moffar2's certify reads the driver's."""

    def run_counted(self, monkeypatch, driver, config):
        problem = get_problem("rosenbr")  # building the suite calls eigvalsh
        counts = {"eigh": 0, "eigvalsh": 0}
        # The helper where the drivers look it up, and numpy's.
        owners = {"eigh": (solvers, np.linalg), "eigvalsh": (np.linalg,)}
        for name, modules in owners.items():
            for module in modules:
                def counting(H, _original=getattr(module, name), _name=name):
                    counts[_name] += 1
                    return _original(H)
                monkeypatch.setattr(module, name, counting)
        return driver(problem, config), counts

    def test_moffar2(self, monkeypatch):
        cfg = OffoConfig(degree=2, eps1=1e-6, eps2=1e-6)
        out, counts = self.run_counted(monkeypatch, run_moffar, cfg)
        assert out.status == RunStatus.SECOND_ORDER
        assert counts == {"eigh": out.iterations + 1, "eigvalsh": 0}

    def test_offar2a(self, monkeypatch):
        out, counts = self.run_counted(monkeypatch, run_offar, OffoConfig(degree=2, eps1=1e-6))
        assert out.status == RunStatus.FIRST_ORDER
        assert counts == {"eigh": out.iterations + 1, "eigvalsh": 0}

    def test_ar2(self, monkeypatch):
        out, counts = self.run_counted(monkeypatch, run_ar2, Ar2Config(eps1=1e-6))
        accepted = int(out.trace.column("accepted")[:-1].sum())
        assert 0 < accepted < out.iterations
        assert counts == {"eigh": 1 + accepted, "eigvalsh": 0}


class _CountingMatrix(np.ndarray):
    """A Hessian that counts the matrix products it takes part in, in
    counts["H @ s"]; every other numpy operation sees a plain array."""

    counts: dict

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _CountingMatrix.counts["H @ s"] += 1
        inputs = [a.view(np.ndarray) if isinstance(a, _CountingMatrix) else a for a in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def twin_well_oracle(x0):
    """sum_i x_i^4/4 - x_i^2/2 in two variables: from equal coordinates the
    iterates keep them equal, so each Hessian is a multiple of I, whose
    smallest eigenvalue is repeated (and negative while |x_i| < 1/sqrt(3))."""
    def ev(x, degree):
        f = float(np.sum(x**4 / 4.0 - x**2 / 2.0))
        return DerivativeBundle(x**3 - x, np.diag(3.0 * x**2 - 1.0), f)

    return ProblemOracle("twin-well", 2, np.asarray(x0, dtype=float), ev, ProblemMeta())


class TestModelEvaluations:
    """Each p = 2 iteration evaluates the model at its step once: one H @ s,
    in model_terms, and three vector norms (||g|| at the point, in
    finite_grad_norm, which the driver hands solve_p2 as gnorm, then ||s||
    and ||g + H s||), plus solve_p2's norm over the leftmost eigenspace where
    H's smallest eigenvalue is negative and repeated; for a simple one that
    norm is taken from one entry, without vnorm.  An offar1 iteration takes
    three norms too: ||g|| in finite_grad_norm, and ||g|| and ||s|| in
    model_terms.  The terminal point adds one ||g||."""

    @staticmethod
    def repeated_leftmost(w):
        """A negative smallest eigenvalue that solve_p2 counts as repeated."""
        lam1 = float(w[0])
        return lam1 < 0.0 and w.size > 1 and w[1] - lam1 <= 1e-12 * max(1.0, -lam1)

    def run_counted(self, monkeypatch, driver, config, problem=None):
        counts = {"vnorm": 0, "H @ s": 0}
        monkeypatch.setattr(_CountingMatrix, "counts", counts, raising=False)
        # vnorm wherever the library looks it up.
        for module in (model, subsolver, solvers):
            if hasattr(module, "vnorm"):
                def counting(v, _original=getattr(module, "vnorm")):
                    counts["vnorm"] += 1
                    return _original(v)
                monkeypatch.setattr(module, "vnorm", counting)
        repeated = []
        solve = solvers.solve_p2

        def recording_solve(g, eig, sigma, gnorm):
            repeated.append(self.repeated_leftmost(eig[0]))
            return solve(g, eig, sigma, gnorm)

        monkeypatch.setattr(solvers, "solve_p2", recording_solve)
        problem = problem or get_problem("rosenbr")
        evaluate = problem.evaluator

        def evaluator(x, degree):
            bundle = evaluate(x, degree)
            if bundle.hessian is not None:
                bundle.hessian = bundle.hessian.view(_CountingMatrix)
            return bundle

        out = driver(dataclasses.replace(problem, evaluator=evaluator), config)
        assert len(repeated) == (0 if getattr(config, "degree", 2) == 1 else out.iterations)
        return out, counts, sum(repeated)

    def test_offar1(self, monkeypatch):
        out, counts, _ = self.run_counted(
            monkeypatch, run_offar, OffoConfig(degree=1, eps1=1e-6, max_iter=500))
        k = out.iterations
        assert k == 500
        assert counts == {"vnorm": 3 * k + 1, "H @ s": 0}

    def test_offar2a(self, monkeypatch):
        out, counts, repeated = self.run_counted(
            monkeypatch, run_offar, OffoConfig(degree=2, eps1=1e-6))
        k = out.iterations
        assert out.status == RunStatus.FIRST_ORDER and k > 0
        # rosenbr's Hessian has distinct eigenvalues, negative ones included.
        assert repeated == 0
        assert np.any(out.trace.column("min_eig")[:-1] < 0.0)
        assert counts == {"vnorm": 3 * k + 1, "H @ s": k}

    def test_offar2a_repeated_leftmost(self, monkeypatch):
        out, counts, repeated = self.run_counted(
            monkeypatch, run_offar, OffoConfig(degree=2, eps1=1e-6),
            twin_well_oracle([0.3, 0.3]))
        k = out.iterations
        assert out.status == RunStatus.FIRST_ORDER and 0 < repeated < k
        assert counts == {"vnorm": 3 * k + 1 + repeated, "H @ s": k}

    def test_moffar2(self, monkeypatch):
        out, counts, repeated = self.run_counted(
            monkeypatch, run_moffar, OffoConfig(degree=2, eps1=1e-6, eps2=1e-6))
        k = out.iterations
        assert out.status == RunStatus.SECOND_ORDER and k > 0
        assert counts == {"vnorm": 3 * k + 1 + repeated, "H @ s": k}

    def test_ar2(self, monkeypatch):
        # One evaluation, hence one ||g||, per trial point instead of per point.
        out, counts, repeated = self.run_counted(monkeypatch, run_ar2, Ar2Config(eps1=1e-6))
        k = out.iterations
        assert out.status == RunStatus.FIRST_ORDER and k > 0
        assert counts == {"vnorm": 3 * k + 1 + repeated, "H @ s": k}


class TestTracedModelTerms:
    """Every non-terminal row's model_reduction, taylor_grad_norm and
    step_norm are model_terms at the recorded bundle and the step, bit for
    bit; the checkers solve the step anew and require it to reach the next
    recorded point exactly."""

    CONFIGS = {"offar1": OffoConfig(degree=1, eps1=1e-6, max_iter=500),
               "offar2a": OffoConfig(degree=2, eps1=1e-6),
               "moffar2": OffoConfig(degree=2, eps1=1e-6, eps2=1e-6)}

    @pytest.mark.parametrize("name", SUITE_NAMES)
    @pytest.mark.parametrize("algorithm", ["offar1", "offar2a", "moffar2", "ar2"])
    def test_clean_suite(self, name, algorithm):
        po, points = recording(get_problem(name))
        if algorithm == "ar2":
            out = run_ar2(po, Ar2Config(eps1=1e-6))
            assert check_ar2_terms(out, points) == []
        else:
            cfg = self.CONFIGS[algorithm]
            out = (run_moffar if cfg.eps2 else run_offar)(po, cfg)
            assert check_offo_invariants(out, cfg, points) == []
        assert out.iterations > 0

    @pytest.mark.parametrize("algorithm", ["offar2a", "ar2"])
    def test_noisy(self, algorithm):
        oracle = get_problem("rosenbr")
        noisy = add_noise(oracle, NoiseSpec(0.25, 2, fvalue=algorithm == "ar2"))
        po, points = recording(noisy)
        if algorithm == "ar2":
            out = run_ar2(po, Ar2Config(eps1=1e-3, max_iter=700))
            assert out.status == RunStatus.SIGMA_CAP
            assert check_ar2_terms(out, points) == []
        else:
            cfg = OffoConfig(degree=2, eps1=1e-3, max_iter=2000)
            out = run_offar(po, cfg)
            assert check_offo_invariants(out, cfg, points) == []
        assert out.iterations > 0


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
        # sigma doubles from 1 until the 1e20 ceiling, reached at iteration
        # 67 since 2**67 > 1e20, and the rejection there ends the run
        def ev(x, degree):
            f = 1.0 if np.all(x == 0.0) else 2.0
            return DerivativeBundle(np.array([1.0, 0.0]), np.eye(2), f)

        po = ProblemOracle("liar", 2, np.zeros(2), ev, ProblemMeta())
        out = run_ar2(po, Ar2Config(eps1=1e-8, max_iter=75))
        assert (out.status, out.iterations) == (RunStatus.SIGMA_CAP, 68)
        np.testing.assert_array_equal(out.final_x, np.zeros(2))
        acc, sigma = out.trace.column("accepted"), out.trace.column("sigma")
        assert np.all(acc[:-1] == 0.0)
        assert sigma[-3] == 2.0**66 and sigma[-2] == sigma[-1] == solvers._GAMMA3
        # The budget still ends a run that stops short of that rejection.
        for max_iter, status in ((67, RunStatus.MAX_ITERATIONS), (68, RunStatus.SIGMA_CAP)):
            out = run_ar2(po, Ar2Config(eps1=1e-8, max_iter=max_iter))
            assert (out.status, out.iterations) == (status, max_iter)

    def test_overflow_on_trial(self):
        def ev(x, degree):
            f = 1.0 if np.all(x == 0.0) else math.inf
            return DerivativeBundle(np.array([1.0, 0.0]), np.eye(2), f)

        po = ProblemOracle("cliff", 2, np.zeros(2), ev, ProblemMeta())
        out = run_ar2(po, Ar2Config(eps1=1e-8))
        assert out.status == RunStatus.ORACLE_OVERFLOW
        assert out.iterations == 1
        assert len(out.trace) == out.iterations + 1
        assert math.isnan(out.trace.column("rho")[0])
        assert math.isnan(out.trace.column("accepted")[0])

    def test_needs_function_values(self):
        def ev(x, degree):
            return DerivativeBundle(x.copy(), np.eye(2))

        po = ProblemOracle("nofv", 2, np.ones(2), ev, ProblemMeta())
        with pytest.raises(ValueError):
            run_ar2(po, Ar2Config())

    def test_rho_recorded(self):
        po = quadratic_oracle(np.diag([1.0, 2.0]), np.ones(2), np.zeros(2))
        out = run_ar2(po, Ar2Config(eps1=1e-10))
        rho = out.trace.column("rho")
        assert np.all(rho[:-1] > 0.99)  # quadratic: predicted = actual decrease
