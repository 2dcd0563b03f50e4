"""Derivatives at a point and the regularized Taylor models built from them.

A solver iteration works on the local model

    m(s) = g.s [+ 0.5 s.H.s] + sigma/(p+1)! * ||s||^(p+1)

built from a :class:`DerivativeBundle` at the current iterate.  The bundle is
where outside data comes in: its constructor checks shapes and symmetrizes
H, and finite_grad_norm checks finiteness.  Everything downstream takes the
bundle's gradient and Hessian as they are.  The constant term f(x) is
deliberately absent: the derivative-only solvers never see function values,
and every consumer only compares model differences, so m(0) = 0 by
construction.  :func:`model_terms` evaluates the model at a step: the Taylor
decrease, m(s), the Taylor gradient's norm and ||s||, from one product H s.
It is the one place that does: certify and the drivers read these numbers
from it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

Array = np.ndarray


def vnorm(v: Array) -> float:
    """float(np.linalg.norm(v)) for a 1-D float array, bit for bit, minus its dispatch."""
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


@functools.cache
def _zeros(size: int) -> Array:
    zeros = np.zeros(size)
    zeros.flags.writeable = False
    return zeros


def all_finite(a: Array) -> bool:
    """np.isfinite(a).all() for a float array, in one numpy call: 0 times an
    entry is NaN exactly when the entry is inf or NaN, and np.vdot, unlike
    np.dot, raises no floating-point warning for the inf * 0 it meets."""
    return np.vdot(a, _zeros(a.size)) == 0.0


def eigh(h: Array) -> tuple[Array, Array]:
    """np.linalg.eigh(h) for a finite float64 symmetric matrix, bit for bit,
    minus its dispatch: the LAPACK gufunc it calls.  LAPACK's failure to
    converge (NaN eigenvalues, after numpy's invalid-value warning) raises
    LinAlgError, as there."""
    w, v = _umath_linalg.eigh_lo(h, signature="d->dd")
    if math.isnan(w[0]):
        raise LinAlgError("Eigenvalues did not converge")
    return w, v


def _symmetric(h: Array) -> Array:
    """A copy of the float64 matrix h when it equals its transpose bit for bit
    (-0.0 against +0.0 counts as a difference), else 0.5 * h + 0.5 * h.T,
    which, unlike 0.5 * (h + h.T), keeps every finite entry finite."""
    bits = h.view(np.int64)
    if np.array_equal(bits, bits.T):
        return h.copy()
    return 0.5 * h + 0.5 * h.T


def _as_vector(x) -> Array:
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    return v


@dataclass
class DerivativeBundle:
    """Derivatives of the objective at one point.

    ``fvalue`` is diagnostic only; the derivative-only solvers never read it.
    The Hessian, when present, is symmetrized on ingestion (:func:`_symmetric`)
    so downstream eigenvalue computations see an exactly symmetric matrix.
    The suite formulas and the noise wrapper, whose Hessians are exactly
    symmetric already, build theirs with :meth:`_of_symmetric` instead.
    """

    gradient: Array
    hessian: Array | None = None
    fvalue: float | None = None

    def __post_init__(self):
        self.gradient = _as_vector(self.gradient)
        if self.hessian is not None:
            h = np.asarray(self.hessian, dtype=float)
            n = self.gradient.size
            if h.shape != (n, n):
                raise ValueError(
                    f"hessian shape {h.shape} does not match gradient size {n}"
                )
            self.hessian = _symmetric(h)
        if self.fvalue is not None:
            self.fvalue = float(self.fvalue)

    @classmethod
    def _of_symmetric(cls, gradient: Array, hessian: Array | None,
                      fvalue: float | None) -> DerivativeBundle:
        """The constructor's bundle, bit for bit, from a float64 vector, an
        exactly symmetric float64 matrix of matching shape (or None) and a
        float (or None), without its checks and copies."""
        bundle = object.__new__(cls)
        bundle.gradient, bundle.hessian, bundle.fvalue = gradient, hessian, fvalue
        return bundle

    @property
    def n(self) -> int:
        return self.gradient.size

    def finite_grad_norm(self) -> float:
        """||gradient||, or inf when a derivative present is not finite or
        the norm overflows (finite entries can still overflow it); fvalue is
        not consulted.  The drivers' one gradient norm per evaluation."""
        norm = vnorm(self.gradient)
        if norm < math.inf and (self.hessian is None or all_finite(self.hessian)):
            return norm
        return math.inf


def model_terms(g: Array, H: Array | None, sigma: float,
                s) -> tuple[float, float, float, float]:
    """(T(x,0) - T(x,s), m(s) - m(0), ||grad T(x,s)||, ||s||) of the model
    of a DerivativeBundle's gradient g and Hessian H (None: degree 1) from one
    check of sigma and s, one ||s|| and, at degree 2, one product H s.
    m(s) - m(0) < 0 iff s is a descent step."""
    if not (sigma > 0.0) or not math.isfinite(sigma):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    s = _as_vector(s)
    if s.size != g.size:
        raise ValueError(f"step size {s.size} does not match dimension {g.size}")
    val = float(g @ s)
    if H is None:
        p = 1
        tgrad_norm = vnorm(g)
    else:
        p = 2
        Hs = H @ s
        val += 0.5 * float(s @ Hs)
        tgrad_norm = vnorm(g + Hs)
    snorm = vnorm(s)
    reg = sigma / math.factorial(p + 1) * snorm ** (p + 1)
    return -val, val + reg, tgrad_norm, snorm
