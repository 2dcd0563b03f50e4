"""End-to-end gate: ten numbered behaviors, one printed verdict line each.

Run with plain pytest; the verdict lines are queued on the shared conftest
registry and printed as a terminal summary section, PASS or FAIL, with the
wall time spent on each check.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from _checks import check_offo_invariants
from conftest import ACCEPTANCE_LINES
from test_profiles import riemann_pi
from test_subsolver import bisect_multiplier, grid_min_1d, grid_min_2d

from offar import (DerivativeBundle, OffoConfig, ProblemMeta, ProblemOracle,
                   RunStatus, SUITE_NAMES, compute_profile, get_problem,
                   run_bench, run_moffar, run_offar, run_single, solve_p2)
from offar.bounds import theory_bounds
from offar.solvers import practical_nu0
from offar.worstcase import (gen_first_order, gen_second_order,
                             replay_first_order, replay_second_order,
                             run_divergence)


def _emit(num, label, verdict, dt):
    ACCEPTANCE_LINES.append(
        f"criterion {num:02d} {label}: {verdict} ({dt:.2f}s)")


@contextmanager
def criterion(num: int, label: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        _emit(num, label, "FAIL", time.perf_counter() - t0)
        raise
    _emit(num, label, "PASS", time.perf_counter() - t0)


def test_01_slow_gradient_replays():
    with criterion(1, "slow gradient sequences replay exactly"):
        t0 = time.perf_counter()
        for p, eps, count in ((1, 0.1, 100), (1, 0.05, 400),
                              (2, 0.25, 8), (2, 0.1, 32)):
            seq = gen_first_order(p, eps, 1.0)
            assert seq.k_eps == count
            out = replay_first_order(seq)
            assert out.status == RunStatus.FIRST_ORDER
            assert out.iterations == count
            assert out.final_grad_norm == eps   # exact, not approximate
        assert time.perf_counter() - t0 < 1.0


def test_02_slow_curvature_replays():
    with criterion(2, "slow curvature sequences replay exactly"):
        t0 = time.perf_counter()
        for eps2, count in ((0.25, 64), (0.5, 8)):
            seq = gen_second_order(2, eps2, 1.0)
            assert seq.k_eps == count
            out = replay_second_order(seq)
            assert out.status == RunStatus.SECOND_ORDER
            assert out.iterations == count
            assert out.final_min_eig == -eps2
        assert time.perf_counter() - t0 < 1.0


def test_03_fixed_weight_divergence():
    with criterion(3, "fixed-weight update diverges at unit speed"):
        t0 = time.perf_counter()
        run = run_divergence(1.0, 1.0, 10**4)
        sig = run.sigmas
        assert np.ptp(sig) <= 1e-12 * sig[0]
        assert float(np.linalg.norm(run.gradient)) == math.sqrt(2.0)
        np.testing.assert_array_equal(run.xs[:, 0],
                                      np.arange(10**4 + 1, dtype=float))
        assert time.perf_counter() - t0 < 1.0


def test_04_strict_invariants_on_suite():
    with criterion(4, "strict runs keep every invariant on all 12 problems"):
        t0 = time.perf_counter()
        for name in SUITE_NAMES:
            po = get_problem(name)
            g0 = float(np.linalg.norm(po.evaluate(po.x0).gradient))
            cfg = OffoConfig(degree=2, eps1=1e-6, strict_mode=True,
                             nu0=practical_nu0(g0), max_iter=5000)
            out = run_offar(po, cfg, collect_history=True)
            violations = check_offo_invariants(out, cfg, po)
            assert violations == [], (name, violations[:3])
        assert time.perf_counter() - t0 < 120.0


def test_05_iteration_envelope():
    with criterion(5, "iteration counts stay under the eps^(-3/2) envelope"):
        t0 = time.perf_counter()
        grid = (1e-1, 1e-2, 1e-3, 1e-4)
        for name in ("tridia", "rosenbr"):
            counts = {}
            for eps in grid:
                out = run_single(get_problem(name), "offar2a", eps1=eps)
                assert out.status == RunStatus.FIRST_ORDER
                counts[eps] = out.iterations
            c_fit = counts[1e-1] * 0.1**1.5
            for eps in grid:
                assert counts[eps] <= 2.0 * c_fit * eps**-1.5, (name, eps)
        assert time.perf_counter() - t0 < 60.0


def test_06_subproblem_against_grid():
    with criterion(6, "subproblem minimizer matches brute-force grids"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(7)
        for _ in range(100):  # scalar instances
            g1 = float(rng.uniform(-2.0, 2.0))
            H1 = float(rng.uniform(-2.0, 2.0))
            sigma = float(np.exp(rng.uniform(np.log(4.0), np.log(40.0))))
            step = solve_p2(np.array([g1]), np.array([[H1]]), sigma)
            _, grid_val = grid_min_1d(g1, H1, sigma)
            assert abs(-step.model_reduction - grid_val) <= 1e-6
            if abs(g1) > 1e-12:
                lam = sigma * abs(float(step.step[0])) / 2.0
                ref = bisect_multiplier(g1, H1, sigma)
                assert abs(lam - ref) <= 1e-9 * max(1.0, ref)
        for _ in range(100):  # two-dimensional instances
            g = rng.uniform(-2.0, 2.0, size=2)
            A = rng.uniform(-2.0, 2.0, size=(2, 2))
            H = 0.5 * (A + A.T)
            sigma = float(np.exp(rng.uniform(np.log(4.0), np.log(40.0))))
            step = solve_p2(g, H, sigma)
            grid_val = grid_min_2d(g, H, sigma)
            assert abs(-step.model_reduction - grid_val) <= 1e-6
        assert time.perf_counter() - t0 < 60.0


def test_07_bound_calculator_worked_values():
    with criterion(7, "bound calculator reproduces its worked values"):
        unit = dict(L=1.0, sigma0=1.0, theta1=1.0, vartheta=1.0)
        rep = theory_bounds(2, 1.0, **unit, allow_partial=True)
        assert rep.k_star == 6
        half = theory_bounds(2, 0.5, **unit, allow_partial=True)
        ratio = half.k_star_raw / rep.k_star_raw
        assert abs(ratio - 2.0**1.5) <= 1e-9 * 2.0**1.5


def test_08_noise_robustness_ordering():
    with criterion(8, "derivative-only variant dominates under noise"):
        t0 = time.perf_counter()
        res = run_bench(None, ("offar2a", "ar2"), (0.05, 0.25, 0.50),
                        tuple(range(1, 11)), eps1=1e-3, max_iter=2000)
        for level in (0.25, 0.50):
            assert res.rho[("offar2a", level)] >= res.rho[("ar2", level)], level
        drop = res.rho[("ar2", 0.05)] - res.rho[("ar2", 0.50)]
        assert drop >= 30.0, drop
        assert time.perf_counter() - t0 < 600.0


def test_09_profile_scores():
    with criterion(9, "profile scores match hand and numeric references"):
        table = compute_profile([[10.0, 20.0]])
        assert table.pi["a0"] == 1.0
        assert table.pi["a1"] == 0.96
        rng = np.random.default_rng(99)
        for _ in range(50):
            c = rng.uniform(0.5, 30.0, size=(int(rng.integers(1, 21)),
                                             int(rng.integers(1, 6))))
            c[rng.random(size=c.shape) < 0.15] = np.inf
            got = compute_profile(c)
            ref = riemann_pi(c)
            for j, name in enumerate(got.algorithms):
                assert abs(got.pi[name] - ref[j]) <= 5e-3


def test_10_second_order_escape():
    with criterion(10, "curvature-aware driver escapes the double well"):
        def ev(x):
            f = x[0] ** 4 / 4.0 - x[0] ** 2 / 2.0 + x[1] ** 2
            g = np.array([x[0] ** 3 - x[0], 2.0 * x[1]])
            H = np.array([[3.0 * x[0] ** 2 - 1.0, 0.0], [0.0, 2.0]])
            return DerivativeBundle(g, H, f)

        po = ProblemOracle("double-well", 2, np.array([0.0, 1.0]), ev,
                           ProblemMeta())
        t0 = time.perf_counter()
        cfg = OffoConfig(degree=2, eps1=1e-4, eps2=1e-4, strict_mode=True, nu0=1.0)
        out = run_moffar(po, cfg)
        dt = time.perf_counter() - t0
        assert out.status == RunStatus.SECOND_ORDER
        assert out.final_grad_norm <= 1e-4
        assert out.final_min_eig >= -1e-4
        assert abs(abs(out.final_x[0]) - 1.0) <= 1e-3
        assert dt < 1.0
        # The default (non-strict) weights take a long detour after their
        # first weight collapse but must land at the same kind of point.
        out2 = run_moffar(po, OffoConfig(degree=2, eps1=1e-4, eps2=1e-4))
        assert out2.status == RunStatus.SECOND_ORDER
        assert out2.final_grad_norm <= 1e-4
        assert out2.final_min_eig >= -1e-4
        assert abs(abs(out2.final_x[0]) - 1.0) <= 1e-3
