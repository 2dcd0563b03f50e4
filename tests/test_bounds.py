"""Complexity-bound calculators: worked values, scaling, and plumbing."""

import pytest

from offar import OffoConfig, RunStatus, get_problem, run_offar
from offar.bounds import BoundReport, bounds_for_problem, problem_constants, theory_bounds

UNIT = dict(L=1.0, sigma0=1.0, theta1=1.0, vartheta=1.0)


class TestGradientPhaseCount:
    def test_unit_constants_give_six(self):
        rep = theory_bounds(2, 1.0, **UNIT, allow_partial=True)
        assert rep.k_star == 6
        assert rep.k_star_raw == pytest.approx(3.0**1.5, rel=1e-12)

    def test_eps_halving_scales_three_halves(self):
        a = theory_bounds(2, 0.5, **UNIT, allow_partial=True)
        b = theory_bounds(2, 0.25, **UNIT, allow_partial=True)
        assert b.k_star_raw / a.k_star_raw == pytest.approx(2.0**1.5, rel=1e-9)

    def test_p1_scaling_is_quadratic(self):
        a = theory_bounds(1, 0.5, **UNIT, allow_partial=True)
        b = theory_bounds(1, 0.25, **UNIT, allow_partial=True)
        assert b.k_star_raw / a.k_star_raw == pytest.approx(4.0, rel=1e-9)

    def test_larger_initial_weight_never_hurts(self):
        small = theory_bounds(2, 0.1, **UNIT, allow_partial=True)
        big = theory_bounds(2, 0.1, L=1.0, sigma0=10.0, theta1=1.0,
                            vartheta=1.0, allow_partial=True)
        assert big.k_star_raw <= small.k_star_raw


class TestEta:
    def test_zero_without_negative_curvature(self):
        rep = theory_bounds(2, 0.5, **UNIT, kappa_high=0.0, allow_partial=True)
        assert rep.eta == 0.0

    def test_zero_for_first_order(self):
        rep = theory_bounds(1, 0.5, **UNIT, kappa_high=-5.0, allow_partial=True)
        assert rep.eta == 0.0

    def test_worked_value(self):
        # p = 2, one term: (neg * 3! / (2! * vartheta * sigma0)) ** 1
        rep = theory_bounds(2, 0.5, **UNIT, kappa_high=-2.0, allow_partial=True)
        assert rep.eta == pytest.approx(6.0)

    def test_positive_curvature_is_ignored(self):
        rep = theory_bounds(2, 0.5, **UNIT, kappa_high=3.0, allow_partial=True)
        assert rep.eta == 0.0


class TestMixedOrderCount:
    def test_unit_constants_give_216(self):
        rep = theory_bounds(2, 1.0, **UNIT, theta2=1.0, eps2=1.0,
                            allow_partial=True)
        assert rep.kappa_both == pytest.approx(1.0 / 3.0)
        assert rep.k_star2 == 216

    def test_available_without_function_metadata(self):
        rep = theory_bounds(2, 1.0, **UNIT, theta2=1.0, eps2=1.0,
                            allow_partial=True)
        assert rep.k_star2 == 216
        assert rep.nu_max is None
        assert rep.bound_second_order is None

    def test_eps2_drives_the_mix(self):
        loose = theory_bounds(2, 1.0, **UNIT, theta2=1.0, eps2=1.0,
                              allow_partial=True)
        tight = theory_bounds(2, 1.0, **UNIT, theta2=1.0, eps2=0.25,
                              allow_partial=True)
        assert tight.k_star2_raw / loose.k_star2_raw == pytest.approx(
            0.25**-3.0, rel=1e-9)


class TestFullChain:
    def full(self, eps1=0.5):
        return theory_bounds(2, eps1, **UNIT, g0_norm=2.0, f0=3.0, f_low=0.0)

    def test_all_fields_populated(self):
        rep = self.full()
        assert rep.missing == ()
        for fld in ("nu_max", "sigma_max", "kappa_first", "bound_first_order"):
            assert getattr(rep, fld) is not None

    def test_ceilings_ordered(self):
        rep = self.full()
        assert rep.nu_max >= 1.0
        assert rep.sigma_max >= rep.nu_max
        assert rep.bound_first_order > rep.k_star

    def test_bound_tightens_with_eps(self):
        assert self.full(0.25).bound_first_order > self.full(0.5).bound_first_order

    def test_second_order_needs_more(self):
        rep = theory_bounds(2, 0.5, **UNIT, g0_norm=2.0, f0=3.0, f_low=0.0,
                            theta2=1.5, eps2=0.5)
        assert rep.bound_second_order is not None
        assert rep.bound_second_order >= rep.k_star2_raw


class TestValidation:
    def test_missing_metadata_raises_with_names(self):
        with pytest.raises(ValueError, match="g0_norm"):
            theory_bounds(2, 0.5, **UNIT)

    def test_partial_records_what_is_absent(self):
        rep = theory_bounds(2, 0.5, **UNIT, f0=1.0, allow_partial=True)
        assert "g0_norm" in rep.missing and "f_low" in rep.missing
        assert "f0" not in rep.missing

    @pytest.mark.parametrize("kwargs", [
        dict(p=0),
        dict(eps1=0.0),
        dict(eps1=2.0),
        dict(L=-1.0),
        dict(theta1=0.9),
        dict(vartheta=0.0),
        dict(vartheta=1.5),
        dict(sigma0=0.0),
    ])
    def test_bad_constants(self, kwargs):
        base = dict(p=2, eps1=0.5, **UNIT, allow_partial=True)
        base.update(kwargs)
        p = base.pop("p")
        eps1 = base.pop("eps1")
        with pytest.raises(ValueError):
            theory_bounds(p, eps1, **base)

    def test_second_order_needs_degree_two(self):
        with pytest.raises(ValueError):
            theory_bounds(1, 0.5, **UNIT, theta2=1.5, eps2=0.5,
                          allow_partial=True)

    def test_second_order_bad_eps2(self):
        with pytest.raises(ValueError):
            theory_bounds(2, 0.5, **UNIT, theta2=1.5, eps2=0.0,
                          allow_partial=True)


class TestProblemWrapper:
    def test_quadratic_problem_full_report(self):
        po = get_problem("tridia")
        cfg = OffoConfig(degree=2, eps1=1e-2, strict_mode=True, nu0=1.0)
        rep = bounds_for_problem(po, cfg)
        assert isinstance(rep, BoundReport)
        assert rep.missing == ()
        assert rep.bound_first_order is not None

    def test_bound_dominates_an_actual_run(self):
        po = get_problem("tridia")
        cfg = OffoConfig(degree=2, eps1=1e-2, strict_mode=True, nu0=1.0)
        rep = bounds_for_problem(po, cfg)
        out = run_offar(po, cfg)
        assert out.status == RunStatus.FIRST_ORDER
        assert out.iterations + 2 <= rep.bound_first_order

    def test_eps2_config_gets_the_second_order_bound(self):
        po = get_problem("tridia")
        cfg = OffoConfig(degree=2, eps1=1e-2, eps2=1e-2, strict_mode=True, nu0=1.0)
        rep = bounds_for_problem(po, cfg)
        want = theory_bounds(2, 1e-2, sigma0=1.0, theta1=2.0, vartheta=cfg.vartheta,
                             theta2=2.0, eps2=1e-2, **problem_constants(po, 2))
        assert rep.missing == ()
        assert rep.bound_second_order is not None
        assert rep == want

    def test_requires_declared_smoothness(self):
        po = get_problem("rosenbr")  # declares no global Lipschitz constant
        with pytest.raises(ValueError):
            bounds_for_problem(po, OffoConfig(degree=2, eps1=1e-2))
