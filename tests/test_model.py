import struct

import numpy as np
import pytest

from offar import (DerivativeBundle, RegularizedModel, model_gradient,
                   model_value, taylor_decrease, taylor_gradient,
                   taylor_gradient_norm, taylor_min_curvature)
from offar.model import vnorm


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
        assert not DerivativeBundle(np.array([1.0, np.inf])).is_finite()
        b2 = DerivativeBundle(np.ones(2), np.eye(2), fvalue=np.nan)
        assert b2.is_finite()  # fvalue is diagnostic only
        assert DerivativeBundle(np.ones(2)).is_finite()  # a missing Hessian is not checked
        b4 = DerivativeBundle(np.ones(2), np.array([[1.0, np.nan], [np.nan, 1.0]]))
        assert not b4.is_finite()
        with np.errstate(over="ignore"):  # finite entries, norm overflows
            assert not DerivativeBundle(np.array([1e200, 1e200])).is_finite()
        assert not DerivativeBundle(np.array([1.0, np.nan])).is_finite()


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

    def test_taylor_decrease_quadratic(self):
        # -(g.s + 0.5 s.H.s) with s = (1, 1): -(1 - 2 + 0.5*(2 + 4)) = -2
        m = RegularizedModel(self.bundle(), 1.0, 2)
        s = np.array([1.0, 1.0])
        assert taylor_decrease(m, s) == pytest.approx(-2.0)

    def test_taylor_decrease_worked(self):
        b = DerivativeBundle(np.array([2.0, 2.0]), np.array([[2.0, 0.0], [0.0, 2.0]]))
        m = RegularizedModel(b, 1.0, 2)
        s = np.array([1.0, 1.0])
        # g.s = 4, quadratic term 2 -> decrease is -(4 + 2) = -6
        assert taylor_decrease(m, s) == pytest.approx(-6.0)

    def test_model_value_zero_step(self):
        m1 = RegularizedModel(self.bundle(), 3.0, 1)
        m2 = RegularizedModel(self.bundle(), 3.0, 2)
        z = np.zeros(2)
        assert model_value(m1, z) == 0.0
        assert model_value(m2, z) == 0.0

    def test_model_value_includes_regularization(self):
        b = DerivativeBundle(np.zeros(1), np.zeros((1, 1)))
        m = RegularizedModel(b, 6.0, 2)
        s = np.array([1.0])
        # only the sigma/(p+1)! ||s||^3 term: 6/6 = 1
        assert model_value(m, s) == pytest.approx(1.0)

    def test_model_gradient_at_zero_is_gradient(self):
        m = RegularizedModel(self.bundle(), 5.0, 2)
        np.testing.assert_allclose(model_gradient(m, np.zeros(2)),
                                   self.bundle().gradient)

    def test_model_gradient_stationary_at_minimizer(self):
        from offar import solve_p2
        b = self.bundle()
        m = RegularizedModel(b, 2.5, 2)
        r = solve_p2(b.gradient, b.hessian, 2.5)
        assert np.linalg.norm(model_gradient(m, r.step)) < 1e-10

    def test_taylor_gradient(self):
        m = RegularizedModel(self.bundle(), 1.0, 2)
        s = np.array([1.0, 0.0])
        np.testing.assert_allclose(taylor_gradient(m, s), [3.0, -2.0])
        assert taylor_gradient_norm(m, s) == pytest.approx(np.sqrt(13.0))

    def test_taylor_gradient_degree1_constant(self):
        m = RegularizedModel(DerivativeBundle(np.array([3.0, 4.0])), 1.0, 1)
        np.testing.assert_allclose(taylor_gradient(m, np.array([9.0, -9.0])), [3.0, 4.0])
        assert taylor_gradient_norm(m, np.ones(2)) == pytest.approx(5.0)

    def test_min_curvature(self):
        m = RegularizedModel(self.bundle(), 1.0, 2)
        assert taylor_min_curvature(m) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            taylor_min_curvature(RegularizedModel(self.bundle(), 1.0, 1))

    def test_dimension_checks(self):
        m = RegularizedModel(self.bundle(), 1.0, 2)
        with pytest.raises(ValueError):
            model_value(m, np.zeros(3))
