"""Outer iterations: derivative-only regularization solvers and an AR2 baseline.

run_offar drives the first-order-target method for p in {1, 2}: every step is
accepted, and the regularization weight sigma_k is steered only by gradient
norms and step norms through the mu1/nu recursions.  run_moffar adds the
curvature channel (mu2, smallest Hessian eigenvalue) and stops at approximate
second-order points.  Both support a strict mode (sigma_k = max of the lower
bound and the mu estimates, nu0 user supplied) and a practical mode
(sigma_k = max(vartheta nu_k, mu1_k, sigma_{k-1}/2), so sigma falls by at
most a factor of 2 per iteration; nu0 from practical_nu0).  Both clamp
sigma_k into [vartheta nu_k, max(nu_k, mu_k)], where the complexity bounds
hold.  The same rule runs on clean and noisy oracles.  A driver of degree p
asks the oracle for derivatives up to degree p, so offar1 reads gradients
only.

run_ar2 is the classical function-value-based adaptive regularization
baseline.  Every driver takes its step through _step (the exact subproblem
minimizer, checked by certify); ar2 is the only driver that reads fvalue.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .model import DerivativeBundle, eigh
from .subsolver import certify, solve_p1, solve_p2
from .trace import RunTrace

Array = np.ndarray


class RunStatus(str, Enum):
    FIRST_ORDER = "FirstOrderPoint"
    SECOND_ORDER = "SecondOrderPoint"
    MAX_ITERATIONS = "MaxIterations"
    ORACLE_OVERFLOW = "OracleOverflow"
    SIGMA_CAP = "SigmaCap"  # ar2 rejected a trial with sigma at its cap


class CertificateError(RuntimeError):
    """An exact subproblem solution failed its own step conditions."""


@dataclass
class OffoConfig:
    """Parameters of the derivative-only drivers.

    vartheta in (0, 1] is the lower regularization fence and eps2 the
    curvature tolerance that run_moffar needs.  The step conditions use the
    fixed _THETA1 = _THETA2 = 2.  nu0 = None means the practical rule of
    practical_nu0; strict mode requires an explicit nu0.
    """

    degree: int = 2
    vartheta: float = 1e-3
    eps1: float = 1e-6
    eps2: float | None = None
    max_iter: int = 50000
    strict_mode: bool = False
    nu0: float | None = None

    def __post_init__(self):
        if self.degree not in (1, 2):
            raise ValueError(f"degree must be 1 or 2, got {self.degree}")
        if not 0.0 < self.vartheta <= 1.0:
            raise ValueError(f"vartheta must lie in (0, 1], got {self.vartheta}")
        if not 0.0 < self.eps1 <= 1.0:
            raise ValueError(f"eps1 must lie in (0, 1], got {self.eps1}")
        if self.eps2 is not None and not 0.0 < self.eps2 <= 1.0:
            raise ValueError(f"eps2 must lie in (0, 1], got {self.eps2}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be nonnegative, got {self.max_iter}")
        if self.nu0 is not None and not 0.0 < self.nu0 < math.inf:
            raise ValueError(f"nu0 must be positive and finite, got {self.nu0}")


# theta1 and theta2 of the step conditions (certify) and the mu updates.  The
# complexity bounds hold for any fixed theta1, theta2 > 1.
_THETA1 = 2.0
_THETA2 = 2.0

# The practical nu0 never falls below this floor.
_VARSIGMA = 1e-6


def practical_nu0(g0_norm: float) -> float:
    """The practical initial weight max[varsigma, 6 ||g0||]."""
    return max(_VARSIGMA, 6.0 * g0_norm)


# In practical mode sigma_k >= _SIGMA_FALL * sigma_{k-1} before the clamp into
# the admissible interval: the weight falls by at most a factor of 2 per
# iteration, as AR2's _GAMMA2 lets it.
_SIGMA_FALL = 0.5


# AR2's accept/reject constants (Cartis, Gould & Toint 2011, ARC Part I): a
# trial is accepted at rho >= _ETA1; at rho >= _ETA2 sigma shrinks by _GAMMA2,
# not below _SIGMA_MIN; a rejection grows it by _GAMMA1, up to _GAMMA3, and a
# rejection at _GAMMA3 ends the run (Cartis, Gould & Toint set no cap).
_ETA1 = 1e-4
_ETA2 = 0.95
_GAMMA1 = 2.0
_GAMMA2 = 0.5
_GAMMA3 = 1e20
_SIGMA_MIN = 1e-4


@dataclass
class Ar2Config:
    """Classical AR2 parameters."""

    eps1: float = 1e-6
    sigma0: float = 1.0
    max_iter: int = 50000

    def __post_init__(self):
        if not 0.0 < self.eps1 <= 1.0:
            raise ValueError(f"eps1 must lie in (0, 1], got {self.eps1}")
        # Above _GAMMA3 a rejection would lower sigma to the cap.
        if not _SIGMA_MIN <= self.sigma0 <= _GAMMA3:
            raise ValueError(f"sigma0 must lie in [{_SIGMA_MIN}, {_GAMMA3}], got {self.sigma0}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be nonnegative, got {self.max_iter}")


@dataclass
class RunOutcome:
    status: RunStatus
    final_x: Array
    final_grad_norm: float
    iterations: int
    trace: RunTrace
    final_min_eig: float | None = None


def mu1_update(grad_norm: float, prev_step_norm: float, sigma_prev: float,
               theta1: float, p: int) -> float:
    """First-order regularization estimate p! ||g_k|| / ||s_{k-1}||^p - theta1 sigma_{k-1}."""
    if not prev_step_norm > 0.0:
        raise ValueError("previous step norm must be positive")
    return math.factorial(p) * grad_norm / prev_step_norm**p - theta1 * sigma_prev


def mu2_update(min_eig: float, prev_step_norm: float, sigma_prev: float,
               theta2: float, p: int) -> float:
    """Curvature estimate (p-1)! max[0, -lambda_min] / ||s_{k-1}||^(p-1) - theta2 sigma_{k-1}."""
    if not prev_step_norm > 0.0:
        raise ValueError("previous step norm must be positive")
    negcurv = max(0.0, -min_eig)
    return (
        math.factorial(p - 1) * negcurv / prev_step_norm ** (p - 1)
        - theta2 * sigma_prev
    )


def nu_update(nu: float, step_norm: float, p: int) -> float:
    """nu_{k+1} = nu_k + nu_k ||s_k||^(p+1); nondecreasing by construction."""
    return nu + nu * step_norm ** (p + 1)


def sigma_select(nu: float, sigma_prev: float, mu1: float, mu2: float | None,
                 config: OffoConfig) -> float:
    """Pick sigma_k inside [vartheta nu_k, max(nu_k, mu1_k[, mu2_k])], with
    mu2 = None outside run_moffar.

    Strict mode takes the mu estimates at face value.  Practical mode takes
    max(vartheta nu_k, mu1_k, _SIGMA_FALL * sigma_{k-1}).  The clamp into the
    interval is a guard in strict mode; in practical mode it binds when
    _SIGMA_FALL * sigma_{k-1} exceeds max(nu_k, mu_k).
    """
    mus = (mu1,) if mu2 is None else (mu1, mu2)
    lo = config.vartheta * nu
    if config.strict_mode:
        value = max(lo, *mus)
    else:
        value = max(lo, mu1, _SIGMA_FALL * sigma_prev)
    return min(value, max(max(nu, *mus), lo))


def _factorize(bundle: DerivativeBundle) -> tuple:
    """eigh of the Hessian, and its smallest eigenvalue."""
    eig = eigh(bundle.hessian)
    return eig, float(eig[0][0])


def _new_trace(problem, algorithm: str, config) -> RunTrace:
    """An empty trace labelled with the problem, algorithm and config hash."""
    items = [(f.name, getattr(config, f.name)) for f in fields(config)]
    text = type(config).__name__ + repr(items)
    return RunTrace(problem=getattr(problem, "name", ""), algorithm=algorithm,
                    config_hash=hashlib.md5(text.encode()).hexdigest()[:12])


def _finish(trace: RunTrace, status: RunStatus, x: Array, gnorm: float, k: int,
            min_eig: float | None = None, **row) -> RunOutcome:
    """End a run: append the terminal row, so K iterations give K + 1 rows."""
    trace.append(k=k, grad_norm=gnorm, min_eig=min_eig, **row)
    return RunOutcome(status, x, gnorm, k, trace, final_min_eig=min_eig)


def _step(k: int, p: int, bundle: DerivativeBundle, eig, gnorm: float, sigma: float,
          theta2: float | None = None, min_eig: float | None = None) -> tuple[Array, tuple]:
    """Every driver's step: the exact minimizer s of the degree-p model of
    (bundle, sigma), and certify's model_terms there, (T(x,0) - T(x,s),
    m(s) - m(0), ||grad T(x,s)||, ||s||).  CertificateError if s fails."""
    g = bundle.gradient
    s = (solve_p1(g, sigma, gnorm) if p == 1 else solve_p2(g, eig, sigma, gnorm)).step
    # H = None makes the model degree 1, whatever else the evaluator returned.
    terms = certify(s, g, bundle.hessian if p == 2 else None, sigma, _THETA1, theta2, min_eig)
    if not terms:
        raise CertificateError(f"step conditions failed at iteration {k} (sigma={sigma!r})")
    return s, terms


def run_offar(problem, config: OffoConfig) -> RunOutcome:
    """First-order driver; terminates when ||g_k|| <= eps1."""
    return _run_offo(problem, config, second_order=False)


def run_moffar(problem, config: OffoConfig) -> RunOutcome:
    """Second-order driver; needs degree 2 and eps2."""
    if config.degree != 2:
        raise ValueError("run_moffar requires degree 2")
    if config.eps2 is None:
        raise ValueError("run_moffar requires eps2")
    return _run_offo(problem, config, second_order=True)


# Overflow ends a run as OracleOverflow; numpy's warnings about it, such as a
# gradient norm beyond float64, would only repeat the status.
@np.errstate(over="ignore")
def _run_offo(problem, config: OffoConfig, *, second_order: bool) -> RunOutcome:
    p = config.degree
    algorithm = ("moffar" if second_order else "offar") + str(p)
    trace = _new_trace(problem, algorithm, config)

    if config.strict_mode and config.nu0 is None:
        raise ValueError("strict mode requires an explicit nu0")

    x = np.array(problem.x0, dtype=float)
    bundle = problem.evaluate(x, p)
    if p == 2 and bundle.hessian is None:
        raise ValueError(f"{algorithm} needs Hessians")
    gnorm = bundle.finite_grad_norm()
    if not gnorm < math.inf:
        return _finish(trace, RunStatus.ORACLE_OVERFLOW, x, math.nan, 0)

    nu = sigma = config.nu0 if config.nu0 is not None else practical_nu0(gnorm)
    mu1 = mu2 = None
    theta2 = _THETA2 if second_order else None
    # One factorization per point feeds the stop test, mu2, the step, certify, the trace.
    eig, min_eig = _factorize(bundle) if p == 2 else (None, None)

    k = 0
    while True:
        stop = gnorm <= config.eps1 and (not second_order or min_eig >= -config.eps2)
        if stop or k >= config.max_iter:
            break

        s, (_, value, tgrad_norm, snorm) = _step(k, p, bundle, eig, gnorm, sigma, theta2, min_eig)
        trace.append(k=k, grad_norm=gnorm, sigma=sigma, nu=nu, mu1=mu1, mu2=mu2, step_norm=snorm,
                     model_reduction=-value, taylor_grad_norm=tgrad_norm, min_eig=min_eig,
                     fvalue=bundle.fvalue)

        x = x + s
        nu = nu_update(nu, snorm, p)
        k += 1

        bundle = problem.evaluate(x, p)
        gnorm = bundle.finite_grad_norm()
        if not gnorm < math.inf:
            return _finish(trace, RunStatus.ORACLE_OVERFLOW, x, math.nan, k, nu=nu)
        eig, min_eig = _factorize(bundle) if p == 2 else (None, None)
        # The weights of iteration k, from step k - 1.
        mu1 = mu1_update(gnorm, snorm, sigma, _THETA1, p)
        if second_order:
            mu2 = mu2_update(min_eig, snorm, sigma, _THETA2, p)
        sigma = sigma_select(nu, sigma, mu1, mu2, config)

    if stop:
        status = RunStatus.SECOND_ORDER if second_order else RunStatus.FIRST_ORDER
    else:
        status = RunStatus.MAX_ITERATIONS
    return _finish(trace, status, x, gnorm, k, min_eig, nu=nu, fvalue=bundle.fvalue)


@np.errstate(over="ignore")  # as in _run_offo
def run_ar2(problem, config: Ar2Config) -> RunOutcome:
    """Function-value-based baseline with the standard accept/reject loop.

    Rejected iterations still count; the trace records the ratio rho and the
    accept flag per iteration.  Each loop pass solves at the current
    (x, sigma).  At the _GAMMA3 cap a rejection changes neither, so the run
    could only re-read f at the same trial point: the first rejection there
    ends it as SigmaCap, a failure, with x and sigma = _GAMMA3 in its
    terminal row.
    """
    trace = _new_trace(problem, "ar2", config)

    x = np.array(problem.x0, dtype=float)
    bundle = problem.evaluate(x)
    if bundle.fvalue is None or bundle.hessian is None:
        raise ValueError("ar2 needs function values and Hessians")
    gnorm = bundle.finite_grad_norm()
    if not gnorm < math.inf or not math.isfinite(bundle.fvalue):
        return _finish(trace, RunStatus.ORACLE_OVERFLOW, x, math.nan, 0)
    eig, min_eig = _factorize(bundle)
    sigma = config.sigma0

    k = 0
    while not gnorm <= config.eps1 and k < config.max_iter:
        s, (decrease, value, tgrad_norm, snorm) = _step(k, 2, bundle, eig, gnorm, sigma)
        trial_x = x + s
        trial = problem.evaluate(trial_x)
        trial_gnorm = trial.finite_grad_norm()
        overflow = (trial.fvalue is None or not math.isfinite(trial.fvalue)
                    or not trial_gnorm < math.inf)
        rho = math.nan if overflow else (bundle.fvalue - trial.fvalue) / decrease
        accepted = rho >= _ETA1

        trace.append(k=k, grad_norm=gnorm, sigma=sigma, step_norm=snorm, model_reduction=-value,
                     min_eig=min_eig, taylor_grad_norm=tgrad_norm, fvalue=bundle.fvalue,
                     rho=rho, accepted=math.nan if overflow else float(accepted))
        k += 1
        if overflow:
            return _finish(trace, RunStatus.ORACLE_OVERFLOW, x, math.nan, k, min_eig,
                           sigma=sigma)

        if accepted:
            x = trial_x
            bundle = trial
            gnorm = trial_gnorm
            eig, min_eig = _factorize(bundle)
            if rho >= _ETA2:
                sigma = max(_SIGMA_MIN, _GAMMA2 * sigma)
        elif sigma == _GAMMA3:
            return _finish(trace, RunStatus.SIGMA_CAP, x, gnorm, k, min_eig, sigma=sigma,
                           fvalue=bundle.fvalue)
        else:
            sigma = min(_GAMMA1 * sigma, _GAMMA3)

    status = RunStatus.FIRST_ORDER if gnorm <= config.eps1 else RunStatus.MAX_ITERATIONS
    return _finish(trace, status, x, gnorm, k, min_eig, sigma=sigma, fvalue=bundle.fvalue)
