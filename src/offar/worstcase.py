"""Worst-case constructions: slow sequences and the fixed-weight divergence run.

gen_first_order builds the scripted 1-D run on which the first-order driver
needs exactly ceil(eps^(-(p+1)/p)) iterations: gradient values shrink linearly
from 2 eps to eps while all higher derivatives stay zero, and the weights
follow sigma_{k+1} = sigma_k + sigma_k |s_k|^(p+1).  gen_second_order is the
curvature analogue with zero gradients; one construction builds both and
verifies, at build time, that the sequence values admit a bounded-derivative
interpolant (divided-difference growth bounds) and that sigma stays under its
closed-form ceiling.

run_divergence reproduces the fixed-regularization failure mode: with
sigma held at 2(H+1)/sqrt(1+(H+1)^2) < 2 the iterates march off to infinity
along the first coordinate at unit speed while the served derivatives are
consistent with a bounded-Hessian objective.

General p >= 1 (p >= 2 for the curvature variant) is supported here even
though the drivers implement p in {1, 2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import _ceil_snapped
from .model import DerivativeBundle
from .problems import ProblemMeta, ProblemOracle
from .solvers import OffoConfig, RunOutcome, run_moffar, run_offar
from .subsolver import solve_p2

Array = np.ndarray


class ConstructionError(RuntimeError):
    """A generated sequence violated one of its own certificates."""


@dataclass
class SlowSequence:
    """Scripted values of one slow run; arrays have length k_eps + 1."""

    p: int
    eps: float
    sigma0: float
    k_eps: int
    order: int  # 1: gradient sequence, 2: curvature sequence
    omega: Array
    values: Array  # g_k for order 1, H_k for order 2
    svals: Array
    sigmas: Array
    fvals: Array
    sigma_max_bound: float


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise ConstructionError(message)


def gen_first_order(p: int, eps: float, sigma0: float) -> SlowSequence:
    """Slow gradient sequence forcing ceil(eps^(-(p+1)/p)) iterations."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return _slow_sequence(1, p, eps, sigma0)


def gen_second_order(p: int, eps2: float, sigma0: float) -> SlowSequence:
    """Slow curvature sequence forcing ceil(eps2^(-(p+1)/(p-1))) iterations."""
    if p < 2:
        raise ValueError(f"p must be >= 2 for the curvature sequence, got {p}")
    return _slow_sequence(2, p, eps2, sigma0)


def _slow_sequence(order: int, p: int, eps: float, sigma0: float) -> SlowSequence:
    """Scripted derivative of the given order shrinking linearly from 2 eps to eps.

    The step is s_k = (p! |v_k| / sigma_k)^(1/q) with q = p + 1 - order, so
    the run needs ceil(eps^(-(p+1)/q)) iterations.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    if not sigma0 > 0.0:
        raise ValueError(f"sigma0 must be positive, got {sigma0}")
    q = p + 1 - order
    fact = float(math.factorial(p))
    k_eps = _ceil_snapped(eps ** (-(p + 1) / q))

    ks = np.arange(k_eps + 1, dtype=float)
    omega = eps * (k_eps - ks) / k_eps
    values = -(eps + omega)
    sigmas = np.empty(k_eps + 1)
    svals = np.empty(k_eps + 1)
    fvals = np.empty(k_eps + 1)
    sigmas[0] = sigma0
    # One integer quotient, e.g. (2p+1)/p for order 1, rounds once where
    # 2 + 1/p would round twice.
    fvals[0] = 2.0 ** ((p + 1 + (2 - order) * q) / q) * (fact / sigma0) ** (order / q)
    for k in range(k_eps + 1):
        svals[k] = (fact * abs(values[k]) / sigmas[k]) ** (1.0 / q)
        if k < k_eps:
            sigmas[k + 1] = sigmas[k] + sigmas[k] * svals[k] ** (p + 1)
            fvals[k + 1] = fvals[k] + values[k] * svals[k] ** order / order

    sigma_max = sigma0 + 2.0 * ((2.0 * fact) ** (p + 1) / sigma0**order) ** (1.0 / q)
    seq = SlowSequence(p=p, eps=eps, sigma0=sigma0, k_eps=k_eps, order=order,
                       omega=omega, values=values, svals=svals, sigmas=sigmas,
                       fvals=fvals, sigma_max_bound=sigma_max)
    _verify(seq)
    return seq


def _verify(seq: SlowSequence) -> None:
    p, eps, order = seq.p, seq.eps, seq.order
    name = "gradient" if order == 1 else "curvature"
    v, s = seq.values, seq.svals[:-1]
    absv = np.abs(v)
    _check(bool(np.all((absv >= eps) & (absv <= 2.0 * eps + 1e-15 * eps))),
           f"{name} magnitudes left [eps, 2 eps]")
    _check(bool(np.all(absv[:-1] > eps)), "early termination would trigger")
    _check(v[-1] == -eps, f"final {name} must hit -eps exactly")
    # Larger steps only loosen the growth bounds below: tie them to the recursions.
    sigmas, q = seq.sigmas, p + 1 - order
    steps = (math.factorial(p) * absv / sigmas) ** (1.0 / q)
    _check(bool(np.allclose(seq.svals, steps, rtol=1e-12, atol=0.0)),
           "steps do not follow s_k = (p! |v_k| / sigma_k)^(1/q)")
    _check(bool(np.allclose(sigmas[1:], sigmas[:-1] + sigmas[:-1] * s ** (p + 1),
                            rtol=1e-12, atol=0.0)),
           "weights do not follow sigma_{k+1} = sigma_k + sigma_k s_k^(p+1)")
    _check(bool(np.all(sigmas <= seq.sigma_max_bound * (1.0 + 1e-12))),
           "sigma exceeded its closed-form ceiling")
    f = seq.fvals
    _check(bool(np.all(f <= f[0] + 1e-12 * abs(f[0])) and np.all(f >= -1e-12 * abs(f[0]))),
           "objective values left [0, f0]")
    # Divided-difference growth bounds: the scripted values must be
    # interpolable by a function with derivatives bounded via sigma_max.
    # Derivatives below the scripted order are the Taylor terms of v_k, the
    # scripted one changes by diff(v), and all higher ones are identically
    # zero, so their conditions reduce to 0 <= bound.
    scale = seq.sigma_max_bound / math.factorial(p)
    for j in range(order + 1):
        if j < order:
            lhs = absv[:-1] * s ** (order - j) / math.factorial(order - j)
        else:
            lhs = np.abs(np.diff(v))
        rhs = scale * s ** (p + 1 - j)
        if order == 1 and j == 0:
            rhs = 2.0 * rhs
        _check(bool(np.all(lhs <= rhs * (1.0 + 1e-12))),
               f"{('zeroth', 'first', 'second')[j]}-order compatibility failed")


class _ScriptedEvaluator:
    """Serves precomputed derivative values by evaluation order, not by x."""

    def __init__(self, bundles):
        self.bundles = bundles
        self.count = 0

    def __call__(self, x: Array) -> DerivativeBundle:
        idx = min(self.count, len(self.bundles) - 1)
        self.count += 1
        return self.bundles[idx]


def scripted_oracle(seq: SlowSequence, *, degree: int) -> ProblemOracle:
    """A 1-D oracle replaying the scripted derivative values in order."""
    bundles = []
    for k in range(seq.k_eps + 1):
        if seq.order == 1:
            g = np.array([seq.values[k]])
            H = np.zeros((1, 1)) if degree == 2 else None
        else:
            g = np.zeros(1)
            H = np.array([[seq.values[k]]])
        bundles.append(DerivativeBundle(gradient=g, hessian=H, fvalue=float(seq.fvals[k])))
    return ProblemOracle(
        name=f"slow{seq.order}_p{seq.p}", n=1, x0=np.zeros(1),
        evaluator=_ScriptedEvaluator(bundles), meta=ProblemMeta(),
    )


def replay_first_order(seq: SlowSequence) -> RunOutcome:
    """Run the first-order driver against the scripted sequence.

    Strict mode with vartheta = 1 and nu0 = sigma0 makes the driver's weight
    track the scripted sigma recursion exactly (mu1 stays negative along the
    sequence, so sigma_k = nu_k at every iteration).
    """
    if seq.order != 1:
        raise ValueError("need a first-order sequence")
    if seq.p not in (1, 2):
        raise ValueError("the drivers implement p in {1, 2}")
    oracle = scripted_oracle(seq, degree=seq.p)
    config = OffoConfig(degree=seq.p, vartheta=1.0, eps1=seq.eps, strict_mode=True,
                        nu0=seq.sigma0, max_iter=seq.k_eps + 10)
    return run_offar(oracle, config)


def replay_second_order(seq: SlowSequence) -> RunOutcome:
    """Run the second-order driver against the scripted curvature sequence."""
    if seq.order != 2:
        raise ValueError("need a second-order sequence")
    if seq.p != 2:
        raise ValueError("the drivers implement p = 2")
    oracle = scripted_oracle(seq, degree=2)
    config = OffoConfig(degree=2, vartheta=1.0, eps1=1.0, eps2=seq.eps, strict_mode=True,
                        nu0=seq.sigma0, max_iter=seq.k_eps + 10)
    return run_moffar(oracle, config)


@dataclass
class DivergenceRun:
    H: float
    theta1: float
    iterations: int
    sigma: float
    step: Array
    gradient: Array  # the served (constant) gradient
    xs: Array  # (iterations + 1) x 2
    sigmas: Array
    mu1s: Array
    max_identity_error: float


def run_divergence(H: float, theta1: float, iters: int) -> DivergenceRun:
    """March the simplified fixed-weight recursion for iters steps.

    Serves g = (-1, -1), Hess = diag(0, H) at every iterate with
    sigma = 2 (H + 1) / sqrt(1 + (H + 1)^2); the subproblem solution is
    s = (1, 1/(H+1)) with sigma ||s|| / 2 = 1, so the simplified update
    sigma <- max(sigma, mu1) never moves and x_1 grows by one per step.
    The subproblem is identical every iteration, so it is solved once and
    the per-step bookkeeping is replayed arithmetically.
    """
    if H <= 0.0:
        raise ValueError(f"H must be positive, got {H}")
    if theta1 < 1.0:
        raise ValueError(f"theta1 must be at least 1, got {theta1}")
    if iters < 1:
        raise ValueError(f"iters must be at least 1, got {iters}")

    a = H + 1.0
    sigma = 2.0 * a / math.sqrt(1.0 + a * a)
    _check(sigma < 2.0, "sigma must stay below 2")
    g = np.array([-1.0, -1.0])
    Hess = np.array([[0.0, 0.0], [0.0, H]])
    step = solve_p2(g, Hess, sigma).step
    closed = np.array([1.0, 1.0 / a])
    _check(bool(np.all(np.abs(step - closed) <= 1e-12)),
           "subproblem solution drifted from the closed form")
    snorm = float(np.linalg.norm(closed))
    identity_err = abs(sigma * snorm / 2.0 - 1.0)
    _check(identity_err <= 1e-12, "sigma ||s|| / 2 = 1 identity failed")

    gnorm = math.sqrt(2.0)
    mu1 = 2.0 * gnorm / (snorm * snorm) - theta1 * sigma
    _check(mu1 < sigma, "mu1 must stay below sigma")

    # Consistency of the served values with a bounded-Hessian objective,
    # checked per coordinate through divided-difference growth bounds with
    # kappa = (H+1)^2.
    kappa = a * a
    s1, s2 = 1.0, 1.0 / a
    checks = [
        (1.0, kappa * s1**3),                      # |f-slope| along coord 1
        (0.0, kappa * s1**2),                      # gradient change, coord 1
        (0.0, kappa * s1),                         # curvature change, coord 1
        ((H + 2.0) / (2.0 * a * a), kappa * s2**3),  # slope along coord 2
        (H / a, kappa * s2**2),                    # gradient change, coord 2
        (0.0, kappa * s2),                         # curvature change, coord 2
    ]
    for lhs, rhs in checks:
        _check(lhs <= rhs * (1.0 + 1e-12), "bounded-Hessian compatibility failed")

    xs = np.zeros((iters + 1, 2))
    sigmas = np.full(iters, sigma)
    mu1s = np.full(iters, mu1)
    x = np.zeros(2)
    for k in range(iters):
        new_sigma = max(sigma, mu1)
        _check(new_sigma == sigma, "simplified update moved sigma")
        x = x + closed
        xs[k + 1] = x
    return DivergenceRun(H=H, theta1=theta1, iterations=iters, sigma=sigma,
                         step=closed, gradient=g, xs=xs, sigmas=sigmas,
                         mu1s=mu1s, max_identity_error=identity_err)
