"""Exact global minimizers of the regularized model subproblem.

For p = 1 the step is the closed form -g/sigma.  For p = 2 the global
minimizer of g.s + 0.5 s.H.s + sigma/6 ||s||^3 is characterized by

    (H + lambda I) s = -g,   lambda = sigma ||s|| / 2,   H + lambda I >= 0,

solved through a dense symmetric eigendecomposition plus a scalar Newton
iteration on psi(lambda) = 1/||(H + lambda I)^-1 g|| - sigma/(2 lambda), which
climbs monotonically to the root from a lower bound.  The hard case (g
numerically orthogonal to the leftmost eigenspace with lambda* = -lambda_1)
adds a leftmost eigenvector component whose sign is made deterministic by
orienting the eigenvector.

Problem dimensions are desk scale (n <= a few dozen), so the dense route is
both exact and cheap.  The inputs are a checked point: a DerivativeBundle's
gradient g with its finite_grad_norm ``gnorm`` and ``eig = model.eigh(H)``
of its Hessian, which the drivers compute once per point; moffar2 also hands
certify the smallest eigenvalue as ``min_eig``.  Only sigma is checked here.
The solvers return the step alone; certify evaluates the model there once,
through model_terms, and hands every driver the numbers it traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import model_terms, vnorm

Array = np.ndarray

# Relative threshold below which the gradient is treated as orthogonal to the
# leftmost eigenspace.
_HARD_CASE_RTOL = 1e-12
# Relative slack of certify's inequalities: the exact minimizer attains some
# of them with equality (e.g. theta1 = 1).
_CERTIFY_RTOL = 1e-10


@dataclass
class StepResult:
    """A subproblem minimizer: the step, the multiplier lambda = sigma ||s|| / 2
    (0 from solve_p1) and whether the hard case padded the step.  The model's
    values at the step come from model_terms."""

    step: Array
    multiplier: float
    hard_case: bool = False


def solve_p1(g: Array, sigma: float, gnorm: float) -> StepResult:
    """Global minimizer of g.s + sigma/2 ||s||^2, i.e. s = -g/sigma, with
    gnorm = ||g||."""
    if not (sigma > 0.0) or not math.isfinite(sigma):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if gnorm == 0.0:
        raise ValueError("zero gradient: the caller should have stopped")
    return StepResult(step=-g / sigma, multiplier=0.0)


def _oriented(u: Array) -> Array:
    """Flip u so its first nonzero component is positive (deterministic sign)."""
    for ui in u:
        if abs(ui) > 1e-14:
            return -u if ui < 0.0 else u
    return u


def _secular_root(w: Array, ghat2: Array, sigma: float, lam_low: float) -> float:
    """Root of psi(lam) = 1/||s(lam)|| - sigma/(2 lam) on (lam_low, inf).

    Here ||s(lam)||^2 = sum_i ghat2_i / (w_i + lam)^2.  psi is increasing and
    concave there, so Newton steps taken left of the root climb monotonically
    to it (More & Sorensen 1983; Cartis, Gould & Toint 2011, Part I, sec. 6),
    and the first step that does not increase lam marks the root in floating
    point.  The start is the largest positive root of lam (lam + w_i) =
    sigma |ghat_i| / 2, a lower bound because ||s(lam)|| >= |ghat_i| / (w_i +
    lam), moved one ulp above lam_low where ||s|| has its pole.  Returns inf
    when ||s|| or the start overflows.  The loop runs on plain floats: the
    caller invokes this many thousands of times on small problems and numpy
    call overhead dominates otherwise.
    """
    pairs = list(zip(w.tolist(), ghat2.tolist()))
    lam = lam_low
    for wi, gi in pairs:
        c = 0.5 * sigma * math.sqrt(gi)
        h = 0.5 * wi
        q = math.sqrt(h * h + c)
        # q - h cancels for w_i > 0; the quotient form does not.  An
        # overflowed ghat2_i gives nan here, which never wins the max.
        root = c / (q + h) if h > 0.0 else q - h
        if root > lam:
            lam = root
    if lam == lam_low:
        lam = math.nextafter(lam, math.inf)
    if lam == math.inf:  # h * h overflowed: the spread of w exceeds float64
        return lam
    while True:
        r2 = rp = 0.0
        for wi, gi in pairs:
            d = wi + lam
            dd = d * d
            r2 += gi / dd
            rp += gi / (dd * d)
        if not r2 < math.inf:
            return math.inf
        a = 1.0 / math.sqrt(r2)
        b = 0.5 * sigma / lam
        # Newton step -psi/psi' with psi = a - b, psi' = rp a^3 + b / lam.
        nxt = lam + (b - a) / (rp * a * a * a + b / lam)
        if not nxt > lam:
            return lam
        lam = nxt


def _leftmost(w: Array, lam1: float) -> Array:
    """Mask of the leftmost eigenspace of the ascending eigenvalues w."""
    return w - lam1 <= 1e-12 * max(1.0, abs(lam1))


def _leftmost_norm(w: Array, ghat: Array, lam1: float) -> float:
    """vnorm(ghat[_leftmost(w, lam1)]), bit for bit, without the mask when the
    leftmost eigenvalue is simple.  w ascends and fl(w_i - lam1) is monotone
    in w_i, so when w_1 is past the threshold the mask is {0}, and the norm
    of that one entry is sqrt(ghat_0^2) (not |ghat_0|, which differs where
    the square underflows or overflows)."""
    if w.size == 1 or w.item(1) - lam1 > 1e-12 * max(1.0, abs(lam1)):
        g0 = ghat.item(0)
        return math.sqrt(g0 * g0)
    return vnorm(ghat[_leftmost(w, lam1)])


def solve_p2(g: Array, eig: tuple[Array, Array], sigma: float, gnorm: float) -> StepResult:
    """Global minimizer of g.s + 0.5 s.H.s + sigma/6 ||s||^3, with eig =
    model.eigh(H) and gnorm = ||g||.

    The multiplier is the root of the secular equation to within a few ulps;
    OverflowError when ||s|| or the spread of H's eigenvalues overflows
    float64.
    """
    if not (sigma > 0.0) or not math.isfinite(sigma):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    w, Q = eig
    lam1 = float(w[0])
    ghat = Q.T @ g
    lam_low = max(0.0, -lam1)

    hard = False
    if gnorm == 0.0:
        if lam1 >= 0.0:
            raise ValueError("s = 0 is already optimal: zero gradient and H >= 0")
        lam = -lam1
        snorm = 2.0 * lam / sigma
        s = snorm * _oriented(Q[:, 0].copy())
        hard = True
    elif lam1 < 0.0 and float(w[-1]) - lam1 == math.inf:
        lam = math.inf  # w - lam1 would overflow: raised below
    elif lam1 < 0.0 and _leftmost_norm(w, ghat, lam1) <= _HARD_CASE_RTOL * gnorm:
        # Gradient numerically orthogonal to the leftmost eigenspace.
        mask = ~_leftmost(w, lam1)
        lam = lam_low
        coef = np.zeros_like(ghat)
        coef[mask] = -ghat[mask] / (w[mask] + lam)
        perp_norm2 = float(np.sum(coef * coef))
        radius = 2.0 * lam / sigma
        if perp_norm2 <= radius * radius:
            # Interior equation has no root: pad with the leftmost eigenvector.
            alpha = math.sqrt(max(radius * radius - perp_norm2, 0.0))
            s = Q @ coef + alpha * _oriented(Q[:, 0].copy())
            hard = True
        else:
            lam = _secular_root(w[mask], ghat[mask] ** 2, sigma, lam_low)
            coef[mask] = -ghat[mask] / (w[mask] + lam)
            s = Q @ coef
    else:
        lam = _secular_root(w, ghat**2, sigma, lam_low)
        s = Q @ (-ghat / (w + lam))
    if not math.isfinite(lam):
        raise OverflowError(
            f"secular root is not finite (||g|| = {gnorm!r}, sigma = {sigma!r}): "
            "the squared gradient, 2 lam/sigma or the spread of H's eigenvalues "
            "overflowed float64")
    return StepResult(step=s, multiplier=float(lam), hard_case=hard)


def certify(
    s: Array,
    g: Array,
    H: Array | None,
    sigma: float,
    theta1: float,
    theta2: float | None = None,
    min_eig: float | None = None,
) -> tuple[float, float, float, float] | None:
    """Check the step conditions the outer iteration requires of a step s on
    the model of (g, H, sigma), of degree p = 1 when H is None, else 2.

    The conditions are m(s) - m(0) < 0, ||grad T(x,s)|| <= theta1 sigma/p!
    ||s||^p and, given theta2 at p = 2, lambda_min(H) >= -theta2 sigma ||s||,
    with H's smallest eigenvalue ``min_eig`` (required with theta2) from the
    caller's factorization.  The inequalities get relative slack
    _CERTIFY_RTOL.  Everything is read from model_terms at s, so this is an
    independent predicate on (s, g, H, sigma).  Returns model_terms' tuple
    when the step passes, else None.
    """
    if theta2 is not None and min_eig is None:
        raise ValueError("the curvature condition needs min_eig")
    terms = model_terms(g, H, sigma, s)
    _, value, tgrad_norm, snorm = terms
    if not value < 0.0:
        return None
    p = 1 if H is None else 2
    bound = theta1 * sigma / math.factorial(p) * snorm**p
    if tgrad_norm > bound + _CERTIFY_RTOL * max(1.0, bound):
        return None
    if theta2 is not None and p == 2:
        cbound = theta2 * sigma * snorm
        if min_eig < -cbound - _CERTIFY_RTOL * max(1.0, cbound):
            return None
    return terms
