"""Exact global minimizers of the regularized model subproblem.

For p = 1 the step is the closed form -g/sigma.  For p = 2 the global
minimizer of g.s + 0.5 s.H.s + sigma/6 ||s||^3 is characterized by

    (H + lambda I) s = -g,   lambda = sigma ||s|| / 2,   H + lambda I >= 0,

solved through a dense symmetric eigendecomposition plus a safeguarded
scalar Newton iteration on phi(lambda) = ||(H + lambda I)^-1 g|| - 2 lambda/sigma.
The hard case (g numerically orthogonal to the leftmost eigenspace with
lambda* = -lambda_1) adds a leftmost eigenvector component whose sign is made
deterministic by orienting the eigenvector.

Problem dimensions are desk scale (n <= a few dozen), so the dense route is
both exact and cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import RegularizedModel, model_value, taylor_gradient_norm, vnorm

Array = np.ndarray

# Relative threshold below which the gradient is treated as orthogonal to the
# leftmost eigenspace.
_HARD_CASE_RTOL = 1e-12
_MAX_SECULAR_ITER = 200
# Relative slack of certify's inequalities: the exact minimizer attains some
# of them with equality (e.g. theta1 = 1).
_CERTIFY_RTOL = 1e-10


@dataclass
class StepResult:
    """Step plus the certificates the outer iteration relies on."""

    step: Array
    multiplier: float
    taylor_grad_norm: float
    model_reduction: float
    taylor_min_curv: float | None = None
    hard_case: bool = False


def solve_p1(g, sigma: float) -> StepResult:
    """Global minimizer of g.s + sigma/2 ||s||^2, i.e. s = -g/sigma."""
    g = np.asarray(g, dtype=float)
    if g.ndim == 0:
        g = g.reshape(1)
    if not np.isfinite(g).all():
        raise ValueError("gradient must be finite")
    if not (sigma > 0.0) or not math.isfinite(sigma):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    gnorm = vnorm(g)
    if gnorm == 0.0:
        raise ValueError("zero gradient: the caller should have stopped")
    s = -g / sigma
    return StepResult(
        step=s,
        multiplier=0.0,
        taylor_grad_norm=gnorm,
        model_reduction=gnorm**2 / (2.0 * sigma),
        taylor_min_curv=None,
        hard_case=False,
    )


def _oriented(u: Array) -> Array:
    """Flip u so its first nonzero component is positive (deterministic sign)."""
    for ui in u:
        if abs(ui) > 1e-14:
            return -u if ui < 0.0 else u
    return u


def _secular_root(w: Array, ghat2: Array, sigma: float, lam_low: float) -> float:
    """Root of phi(lam) = ||s(lam)|| - 2 lam / sigma on (lam_low, inf).

    phi is strictly decreasing there, so a bracketed Newton iteration with
    bisection fallback converges; the loop runs until the residual is at
    machine level or the bracket collapses.  The inner evaluations run on
    plain floats: the caller invokes this many thousands of times on small
    problems and numpy call overhead dominates otherwise.

    The bracket's upper end is the first point base * 2^k, base =
    max(1, 2 lam_low), at which phi <= 0: a doubling search from base finds
    it.  Here the search starts at the largest such point at most
    L = (-w_n + sqrt(w_n^2 + 2 sigma ||g||)) / 2, a lower bound on the root
    because ||s(lam)|| >= ||g|| / (lam + w_n).  It doubles from there while
    phi > 0, or else halves while phi <= 0 one point lower.  The computed phi
    is monotone in lam too, so either way it stops at the very point the
    search from base stops at, after about three evaluations instead of
    twenty on the suite's solves.
    Each evaluation yields the slope term in the same pass as ||s||.  Once an
    iteration leaves (lo, hi, lam) unchanged every later one would repeat
    it, so the loop stops there with the lam it would have returned.
    """
    ws, gs = w.tolist(), ghat2.tolist()
    pairs = list(zip(ws, gs))

    def evaluate(lam: float) -> tuple[float, float, float]:
        """||s(lam)||, phi(lam) and sum ghat_i^2 / (w_i + lam)^3."""
        r2 = rp = 0.0
        for wi, gi in pairs:
            d = wi + lam
            if d == 0.0:
                return math.inf, math.inf, rp
            dd = d * d
            r2 += gi / dd
            rp += gi / (dd * d)
        r = math.sqrt(r2) if r2 < math.inf else math.inf
        return r, r - 2.0 * lam / sigma, rp

    lo = lam_low
    base = max(1.0, 2.0 * lam_low)
    w_n = ws[-1] if ws else 0.0
    # abs() only matters for sigma < 0, where phi > 0 everywhere and the
    # doubling fails to bracket from any start.
    bound = 0.5 * (-w_n + math.sqrt(abs(w_n * w_n + 2.0 * sigma * math.sqrt(sum(gs)))))
    ratio = bound / base
    hi = math.ldexp(base, math.frexp(ratio)[1] - 1) if 1.0 <= ratio < math.inf else base
    phi_hi = evaluate(hi)[1]
    if phi_hi > 0.0:
        while phi_hi > 0.0:
            hi *= 2.0
            if not math.isfinite(hi):
                raise RuntimeError("failed to bracket the secular root")
            phi_hi = evaluate(hi)[1]
    else:
        while hi != base and not evaluate(0.5 * hi)[1] > 0.0:
            hi *= 0.5

    lam = 0.5 * (lo + hi)
    for _ in range(_MAX_SECULAR_ITER):
        state = (lo, hi, lam)
        r, phi, rp = evaluate(lam)
        if phi > 0.0:
            lo = lam
        else:
            hi = lam
        if abs(phi) <= 1e-15 * max(1.0, 2.0 * lam / sigma):
            break
        if hi - lo <= 1e-16 * max(1.0, hi):
            break
        newton = None
        if math.isfinite(r) and r > 0.0:
            dphi = -rp / r - 2.0 / sigma
            if dphi < 0.0:
                cand = lam - phi / dphi
                if lo < cand < hi:
                    newton = cand
        lam = newton if newton is not None else 0.5 * (lo + hi)
        if (lo, hi, lam) == state:
            break
    return lam


def solve_p2(g, H, sigma: float) -> StepResult:
    """Global minimizer of g.s + 0.5 s.H.s + sigma/6 ||s||^3.

    The secular iteration polishes the multiplier to machine precision.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim == 0:
        g = g.reshape(1)
    H = np.asarray(H, dtype=float)
    if H.shape != (g.size, g.size):
        raise ValueError(f"hessian shape {H.shape} does not match gradient size {g.size}")
    if not (np.isfinite(g).all() and np.isfinite(H).all()):
        raise ValueError("derivatives must be finite")
    if not (sigma > 0.0) or not math.isfinite(sigma):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")

    Hs = 0.5 * (H + H.T)
    w, Q = np.linalg.eigh(Hs)
    lam1 = float(w[0])
    ghat = Q.T @ g
    gnorm = vnorm(g)
    lam_low = max(0.0, -lam1)
    leftmost = w - lam1 <= 1e-12 * max(1.0, abs(lam1))

    hard = False
    if gnorm == 0.0:
        if lam1 >= 0.0:
            raise ValueError("s = 0 is already optimal: zero gradient and H >= 0")
        lam = -lam1
        snorm = 2.0 * lam / sigma
        s = snorm * _oriented(Q[:, 0].copy())
        hard = True
    elif lam1 < 0.0 and vnorm(ghat[leftmost]) <= _HARD_CASE_RTOL * gnorm:
        # Gradient numerically orthogonal to the leftmost eigenspace.
        mask = ~leftmost
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
            coef = np.zeros_like(ghat)
            coef[mask] = -ghat[mask] / (w[mask] + lam)
            s = Q @ coef
    else:
        lam = _secular_root(w, ghat**2, sigma, lam_low)
        s = Q @ (-ghat / (w + lam))
    if not math.isfinite(lam):
        raise OverflowError(
            f"secular root is not finite (||g|| = {gnorm!r}, sigma = {sigma!r}): "
            "the squared gradient or 2 lam/sigma overflowed float64")

    Hss = Hs @ s
    tgrad = g + Hss
    reduction = -(
        float(g @ s)
        + 0.5 * float(s @ Hss)
        + sigma / 6.0 * vnorm(s) ** 3
    )
    return StepResult(
        step=s,
        multiplier=float(lam),
        taylor_grad_norm=vnorm(tgrad),
        model_reduction=reduction,
        taylor_min_curv=lam1,
        hard_case=hard,
    )


def certify(
    step: StepResult,
    model: RegularizedModel,
    theta1: float,
    theta2: float | None = None,
) -> bool:
    """Check the step conditions the outer iteration requires.

    All quantities are recomputed from the model, so this is an independent
    predicate on (step, model), not a readback of StepResult fields.  The
    inequalities get relative slack _CERTIFY_RTOL.
    """
    s = step.step
    p = model.degree
    sigma = model.sigma
    snorm = vnorm(s)

    if not model_value(model, s) < 0.0:
        return False

    bound = theta1 * sigma / math.factorial(p) * snorm**p
    if taylor_gradient_norm(model, s) > bound + _CERTIFY_RTOL * max(1.0, bound):
        return False

    if theta2 is not None and p == 2:
        cbound = theta2 * sigma / math.factorial(p - 1) * snorm ** (p - 1)
        lam_min = float(np.linalg.eigvalsh(model.bundle.hessian)[0])
        if lam_min < -cbound - _CERTIFY_RTOL * max(1.0, cbound):
            return False
    return True
