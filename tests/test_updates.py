import pytest

from offar import (OffoConfig, SolverState, mu1_update, mu2_update, nu_update,
                   sigma_select)


class TestMu1:
    def test_arithmetic(self):
        assert mu1_update(2.0, 1.0, 1.0, theta1=1.0, p=2) == pytest.approx(3.0)
        assert mu1_update(1.0, 2.0, 0.5, theta1=1.0, p=2) == pytest.approx(0.0)

    def test_zero_gradient(self):
        assert mu1_update(0.0, 1.0, 4.0, theta1=1.5, p=1) == pytest.approx(-6.0)

    def test_zero_prev_step_rejected(self):
        with pytest.raises(ValueError):
            mu1_update(1.0, 0.0, 1.0, theta1=2.0, p=2)


class TestMu2:
    def test_psd_hessian(self):
        assert mu2_update(1.0, 1.0, 2.0, theta2=1.5, p=2) == pytest.approx(-3.0)

    def test_arithmetic(self):
        assert mu2_update(-3.0, 1.0, 1.0, theta2=1.0, p=2) == pytest.approx(2.0)
        assert mu2_update(-1.0, 2.0, 0.25, theta2=2.0, p=2) == pytest.approx(0.0)

    def test_zero_prev_step_rejected(self):
        with pytest.raises(ValueError):
            mu2_update(-1.0, 0.0, 1.0, theta2=2.0, p=2)


class TestNu:
    def test_zero_step_fixed_point(self):
        assert nu_update(1.0, 0.0, 2) == 1.0

    def test_growth(self):
        assert nu_update(2.0, 0.5, 1) == pytest.approx(2.5)

    def test_nondecreasing(self):
        nu = 0.3
        for s in (0.0, 0.1, 2.0, 0.01):
            nxt = nu_update(nu, s, 2)
            assert nxt >= nu
            nu = nxt


class TestSigmaSelect:
    def practical(self, **kw):
        return OffoConfig(degree=2, **kw)

    def test_mu_dominates(self):
        st = SolverState(nu=10.0, mu1=4.0)
        assert sigma_select(st, self.practical()) == pytest.approx(4.0)

    def test_lower_clamp(self):
        st = SolverState(nu=10.0, sigma=1e-3, mu1=-5.0)
        assert sigma_select(st, self.practical()) == pytest.approx(0.01)

    def test_fall_cap_binds(self):
        st = SolverState(nu=10.0, sigma=8.0, mu1=-5.0)
        assert sigma_select(st, self.practical()) == pytest.approx(4.0)

    def test_fall_cap_clamped_to_interval(self):
        st = SolverState(nu=10.0, sigma=100.0, mu1=4.0)
        assert sigma_select(st, self.practical()) == pytest.approx(10.0)

    def test_strict_ignores_fall_cap(self):
        cfg = OffoConfig(degree=2, strict_mode=True, nu0=1.0)
        st = SolverState(nu=10.0, sigma=8.0, mu1=-5.0)
        assert sigma_select(st, cfg) == pytest.approx(0.01)

    def test_strict_takes_mu_face_value(self):
        cfg = OffoConfig(degree=2, strict_mode=True, nu0=1.0)
        st = SolverState(nu=10.0, mu1=4.0)
        assert sigma_select(st, cfg) == pytest.approx(4.0)

    def test_mu2_raises_strict_choice(self):
        cfg = OffoConfig(degree=2, strict_mode=True, nu0=1.0, eps2=1e-4)
        st = SolverState(nu=10.0, mu1=1.0, mu2=7.5)
        assert sigma_select(st, cfg) == pytest.approx(7.5)

    def test_result_stays_in_interval(self):
        import numpy as np
        rng = np.random.default_rng(5)
        cfg_p = self.practical()
        cfg_s = OffoConfig(degree=2, strict_mode=True, nu0=1.0)
        for _ in range(200):
            st = SolverState(nu=float(rng.uniform(1e-3, 1e3)),
                             sigma=float(10.0 ** rng.uniform(-4.0, 4.0)),
                             mu1=float(rng.uniform(-50.0, 50.0)),
                             mu2=float(rng.uniform(-50.0, 50.0)) if rng.random() < 0.5 else None)
            for cfg in (cfg_p, cfg_s):
                val = sigma_select(st, cfg)
                lo = cfg.vartheta * st.nu
                hi = max(st.nu, st.mu1) if st.mu2 is None else max(st.nu, st.mu1, st.mu2)
                assert lo <= val <= max(hi, lo) + 1e-15

    def test_needs_mu1(self):
        with pytest.raises(ValueError):
            sigma_select(SolverState(nu=1.0), self.practical())


class TestConfigValidation:
    # Explicit ids, so that removing a case leaves the others' ids alone.
    @pytest.mark.parametrize("kw", [
        pytest.param(dict(degree=3), id="kw0"),
        pytest.param(dict(vartheta=0.0), id="kw3"),
        pytest.param(dict(vartheta=1.5), id="kw4"),
        pytest.param(dict(eps1=0.0), id="kw5"),
        pytest.param(dict(eps1=2.0), id="kw6"),
        pytest.param(dict(eps2=0.0), id="kw7"),
        pytest.param(dict(max_iter=-1), id="kw10"),
        pytest.param(dict(eps2=1.5), id="kw11"),
        pytest.param(dict(nu0=0.0), id="kw13"),
    ])
    def test_bad_offo_config(self, kw):
        base = dict(degree=2)
        base.update(kw)
        with pytest.raises(ValueError):
            OffoConfig(**base)

    def test_good_config_roundtrip(self):
        cfg = OffoConfig(degree=1, eps1=1e-3)
        assert cfg.degree == 1
        assert cfg.eps1 == 1e-3
