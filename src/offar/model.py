"""Regularized Taylor models of degree one and two.

A solver iteration works on the local model

    m(s) = g.s [+ 0.5 s.H.s] + sigma/(p+1)! * ||s||^(p+1)

built from a :class:`DerivativeBundle` at the current iterate.  The constant
term f(x) is deliberately absent: the derivative-only solvers never see
function values, and every consumer only compares model differences, so
m(0) = 0 by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Array = np.ndarray


def vnorm(v: Array) -> float:
    """float(np.linalg.norm(v)) for a 1-D float array, bit for bit, minus its dispatch."""
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


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
    The Hessian, when present, is symmetrized on ingestion so downstream
    eigenvalue computations see an exactly symmetric matrix.
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
            self.hessian = 0.5 * (h + h.T)
        if self.fvalue is not None:
            self.fvalue = float(self.fvalue)

    @property
    def n(self) -> int:
        return self.gradient.size

    def is_finite(self) -> bool:
        """Finiteness of the derivatives present, the gradient's norm included
        (finite entries can still overflow it); fvalue is not consulted."""
        if not vnorm(self.gradient) < math.inf:
            return False
        return self.hessian is None or bool(np.isfinite(self.hessian).all())


@dataclass
class RegularizedModel:
    """Degree-p Taylor model plus the sigma/(p+1)! ||s||^(p+1) term."""

    bundle: DerivativeBundle
    sigma: float
    degree: int

    def __post_init__(self):
        self.sigma = float(self.sigma)
        self.degree = int(self.degree)
        if self.degree not in (1, 2):
            raise ValueError(f"degree must be 1 or 2, got {self.degree}")
        if not (self.sigma > 0.0) or not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if self.degree == 2 and self.bundle.hessian is None:
            raise ValueError("degree 2 model requires a hessian in the bundle")

    @property
    def n(self) -> int:
        return self.bundle.n


def _check_step(model: RegularizedModel, s) -> Array:
    v = _as_vector(s)
    if v.size != model.n:
        raise ValueError(f"step size {v.size} does not match dimension {model.n}")
    return v


def taylor_decrease(model: RegularizedModel, s) -> float:
    """T(x,0) - T(x,s), the decrease of the unregularized Taylor part."""
    s = _check_step(model, s)
    val = float(model.bundle.gradient @ s)
    if model.degree == 2:
        val += 0.5 * float(s @ (model.bundle.hessian @ s))
    return -val


def model_value(model: RegularizedModel, s) -> float:
    """m(s) - m(0); negative iff s is a descent step for the model."""
    s = _check_step(model, s)
    norm = vnorm(s)
    reg = model.sigma / math.factorial(model.degree + 1) * norm ** (model.degree + 1)
    return -taylor_decrease(model, s) + reg


def model_gradient(model: RegularizedModel, s) -> Array:
    """Gradient of m at s; equals the bundle gradient at s = 0."""
    s = _check_step(model, s)
    g = model.bundle.gradient.copy()
    if model.degree == 2:
        g += model.bundle.hessian @ s
    norm = vnorm(s)
    g += model.sigma / math.factorial(model.degree) * norm ** (model.degree - 1) * s
    return g


def taylor_gradient(model: RegularizedModel, s) -> Array:
    """Gradient of the Taylor part alone at s."""
    s = _check_step(model, s)
    g = model.bundle.gradient.copy()
    if model.degree == 2:
        g += model.bundle.hessian @ s
    return g


def taylor_gradient_norm(model: RegularizedModel, s) -> float:
    return vnorm(taylor_gradient(model, s))


def taylor_min_curvature(model: RegularizedModel) -> float:
    """Smallest eigenvalue of the (constant) Taylor Hessian; degree 2 only."""
    if model.degree != 2:
        raise ValueError("curvature is only defined for degree 2 models")
    return float(np.linalg.eigvalsh(model.bundle.hessian)[0])
