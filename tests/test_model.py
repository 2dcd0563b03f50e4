import math
import struct

import numpy as np
import pytest

from offar import SUITE_NAMES, DerivativeBundle, RegularizedModel, model, model_terms
from offar.model import all_finite, eigh, vnorm
from test_oracle_values import FORMULAS, guarded_points


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestVnorm:
    """vnorm must reproduce float(np.linalg.norm(v)) bit for bit."""

    def test_random_vectors(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            v = rng.standard_normal(int(rng.integers(1, 40))) * 10.0 ** rng.uniform(-150, 150)
            assert bits(vnorm(v)) == bits(float(np.linalg.norm(v)))

    def test_strided_and_reversed_views(self):
        # Strided dots sum in another order than contiguous ones.
        rng = np.random.default_rng(6)
        for _ in range(500):
            base = rng.standard_normal(int(rng.integers(2, 80)))
            for v in (base[::2], base[::-1], base[1::3]):
                assert bits(vnorm(v)) == bits(float(np.linalg.norm(v)))

    @pytest.mark.parametrize("v", [[np.inf, 1.0], [-np.inf, 0.0], [np.nan, 1.0],
                                   [np.inf, np.nan], [1e200, 1e200], [1e-200, 0.0],
                                   [-0.0], []])
    def test_special_values(self, v):
        v = np.array(v, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            assert bits(vnorm(v)) == bits(float(np.linalg.norm(v)))


@pytest.mark.parametrize("a", [[1.0, -2.0], [np.inf, 1.0], [-np.inf], [np.nan, 0.0],
                               [1e308, -1e308], [-0.0], [], [[1.0, np.inf], [np.inf, 1.0]]],
                         ids=["finite", "inf", "-inf", "nan", "huge", "-0.0", "empty", "matrix"])
def test_all_finite_matches_isfinite(a):
    # No floating-point warning either: pyproject.toml makes one an error.
    a = np.array(a, dtype=float)
    assert all_finite(a) == bool(np.isfinite(a).all())


class TestEigh:
    """eigh must reproduce np.linalg.eigh bit for bit, values and vectors."""

    @staticmethod
    def assert_same(h):
        w, v = eigh(h)
        ref_w, ref_v = np.linalg.eigh(h)
        assert w.tobytes() == ref_w.tobytes() and v.tobytes() == ref_v.tobytes()

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_suite_hessians(self, name):
        finite = 0
        for x in guarded_points(name):
            with np.errstate(all="ignore"):  # the far points overflow on purpose
                h = FORMULAS[name](x, 2)[2]
            if all_finite(h):  # eigh's domain, as the drivers call it
                self.assert_same(h)
                finite += 1
        assert finite >= 51  # x0 and every box point

    def test_random_symmetric(self):
        rng = np.random.default_rng(7)
        for n in range(1, 13):
            for _ in range(50):
                a = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-100, 100)
                self.assert_same(0.5 * a + 0.5 * a.T)

    def test_nan_result_raises(self, monkeypatch):
        # LAPACK's failure to converge shows as NaN eigenvalues.
        def failing(h, signature):
            return np.full(len(h), np.nan), np.full(h.shape, np.nan)

        monkeypatch.setattr(model._umath_linalg, "eigh_lo", failing)
        with pytest.raises(np.linalg.LinAlgError):
            eigh(np.eye(3))


class TestDerivativeBundle:
    def test_vectorizes_gradient(self):
        b = DerivativeBundle([1.0, 2.0])
        assert isinstance(b.gradient, np.ndarray)
        assert b.gradient.dtype == float
        assert b.n == 2

    def test_symmetrizes_hessian(self):
        H = np.array([[1.0, 2.0], [0.0, 3.0]])
        b = DerivativeBundle(np.zeros(2), H)
        np.testing.assert_allclose(b.hessian, b.hessian.T)
        np.testing.assert_allclose(b.hessian, [[1.0, 1.0], [1.0, 3.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DerivativeBundle(np.zeros(3), np.eye(2))

    def test_is_finite_flags(self):
        def finite(b):
            return b.finite_grad_norm() < math.inf

        assert not finite(DerivativeBundle(np.array([1.0, np.inf])))
        b2 = DerivativeBundle(np.ones(2), np.eye(2), fvalue=np.nan)
        assert finite(b2)  # fvalue is diagnostic only
        assert finite(DerivativeBundle(np.ones(2)))  # a missing Hessian is not checked
        b4 = DerivativeBundle(np.ones(2), np.array([[1.0, np.nan], [np.nan, 1.0]]))
        assert not finite(b4)
        assert not finite(DerivativeBundle(np.ones(2), np.array([[1.0, -np.inf], [-np.inf, 1.0]])))
        with np.errstate(over="ignore"):  # finite entries, norm overflows
            assert not finite(DerivativeBundle(np.array([1e200, 1e200])))
        assert not finite(DerivativeBundle(np.array([1.0, np.nan])))


class TestRegularizedModel:
    def bundle(self):
        return DerivativeBundle(np.array([1.0, -2.0]),
                                np.array([[2.0, 0.0], [0.0, 4.0]]), fvalue=7.0)

    def test_degree_needs_hessian(self):
        with pytest.raises(ValueError):
            RegularizedModel(DerivativeBundle(np.ones(2)), 1.0, 2)

    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            RegularizedModel(self.bundle(), 0.0, 2)

    @pytest.mark.parametrize("sigma", [2.5, 3, np.float64(1e-3)])
    def test_unchecked_model_is_the_constructors(self, sigma):
        bundle = self.bundle()
        for degree in (1, 2):
            checked = RegularizedModel(bundle, sigma, degree)
            unchecked = RegularizedModel._of_checked(bundle, sigma, degree)
            assert type(unchecked) is RegularizedModel and unchecked == checked
            assert type(unchecked.sigma) is float

    def test_taylor_decrease_quadratic(self):
        # -(g.s + 0.5 s.H.s) with s = (1, 1): -(1 - 2 + 0.5*(2 + 4)) = -2
        m = RegularizedModel(self.bundle(), 1.0, 2)
        s = np.array([1.0, 1.0])
        assert model_terms(m, s)[0] == pytest.approx(-2.0)

    def test_taylor_decrease_worked(self):
        b = DerivativeBundle(np.array([2.0, 2.0]), np.array([[2.0, 0.0], [0.0, 2.0]]))
        m = RegularizedModel(b, 1.0, 2)
        s = np.array([1.0, 1.0])
        # g.s = 4, quadratic term 2 -> decrease is -(4 + 2) = -6
        assert model_terms(m, s)[0] == pytest.approx(-6.0)

    def test_model_value_zero_step(self):
        m1 = RegularizedModel(self.bundle(), 3.0, 1)
        m2 = RegularizedModel(self.bundle(), 3.0, 2)
        z = np.zeros(2)
        assert model_terms(m1, z)[1] == 0.0
        assert model_terms(m2, z)[1] == 0.0

    def test_model_value_includes_regularization(self):
        b = DerivativeBundle(np.zeros(1), np.zeros((1, 1)))
        m = RegularizedModel(b, 6.0, 2)
        s = np.array([1.0])
        # only the sigma/(p+1)! ||s||^3 term: 6/6 = 1
        assert model_terms(m, s)[1] == pytest.approx(1.0)

    def test_value_is_regularized_decrease(self):
        # m(s) = -(T(x,0) - T(x,s)) + sigma/(p+1)! ||s||^(p+1) with ||s||^2 = 2
        b = self.bundle()
        s = np.array([1.0, 1.0])
        decrease, value, _, snorm = model_terms(RegularizedModel(b, 6.0, 1), s)
        assert decrease == 1.0
        assert value == pytest.approx(-1.0 + 6.0 / 2.0 * 2.0)
        assert snorm == vnorm(s)
        decrease, value, _, snorm = model_terms(RegularizedModel(b, 6.0, 2), s)
        assert decrease == -2.0
        assert value == pytest.approx(2.0 + 6.0 / 6.0 * 2.0 ** 1.5)
        assert snorm == vnorm(s)

    def test_model_gradient_at_zero_is_gradient(self):
        # grad m(0) = grad T(x,0) + sigma/2 ||0|| 0
        m = RegularizedModel(self.bundle(), 5.0, 2)
        assert model_terms(m, np.zeros(2))[2:] == (vnorm(self.bundle().gradient), 0.0)

    def test_model_gradient_stationary_at_minimizer(self):
        # grad m(s) = grad T(x,s) + sigma/2 ||s|| s vanishes at the minimizer.
        from offar import solve_p2
        b = self.bundle()
        m = RegularizedModel(b, 2.5, 2)
        r = solve_p2(b.gradient, b.hessian, 2.5)
        tgrad = b.gradient + b.hessian @ r.step
        assert np.linalg.norm(tgrad + 2.5 / 2.0 * vnorm(r.step) * r.step) < 1e-10
        assert model_terms(m, r.step)[2] == vnorm(tgrad)

    def test_taylor_gradient(self):
        m = RegularizedModel(self.bundle(), 1.0, 2)
        s = np.array([1.0, 0.0])
        # grad T(x,s) = (3, -2)
        assert model_terms(m, s)[2] == pytest.approx(np.sqrt(13.0))

    def test_taylor_gradient_degree1_constant(self):
        b = DerivativeBundle(np.array([3.0, 4.0]))
        m = RegularizedModel(b, 1.0, 1)
        assert model_terms(m, np.array([9.0, -9.0]))[2] == 5.0
        assert model_terms(m, np.ones(2))[2] == 5.0

    def test_dimension_checks(self):
        m = RegularizedModel(self.bundle(), 1.0, 2)
        with pytest.raises(ValueError):
            model_terms(m, np.zeros(3))
