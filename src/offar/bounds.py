"""Closed-form complexity bound calculators for the derivative-only drivers.

Everything here is plain arithmetic on problem constants: the gradient-phase
iteration count k_star, the eta/kappa chain leading to the nu and sigma
ceilings, and the full first- and second-order evaluation bounds.  The raw
(pre-ceiling) k_star is reported as well because its exact scaling in eps1
is part of the calculator's contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .solvers import _THETA1, _THETA2, practical_nu0

__all__ = ["BoundReport", "theory_bounds", "bounds_for_problem", "problem_constants"]


def _ceil_snapped(t: float) -> int:
    """ceil, but a value within 1e-9 relative of an integer snaps to it: exact
    counts such as 0.1^-2 = 100 may come out of libm pow on either side."""
    nearest = round(t)
    if abs(t - nearest) <= 1e-9 * max(1.0, abs(t)):
        return int(nearest)
    return math.ceil(t)


@dataclass
class BoundReport:
    p: int
    eps1: float
    k_star: int
    k_star_raw: float
    eta: float
    kappa1: float
    # Require f0 / f_low / g0_norm:
    nu_max: float | None = None
    sigma_max: float | None = None
    kappa_first: float | None = None
    bound_first_order: float | None = None
    # Require theta2 / eps2 as well:
    eps2: float | None = None
    kappa_both: float | None = None
    k_star2: int | None = None
    k_star2_raw: float | None = None
    kappa_second: float | None = None
    bound_second_order: float | None = None
    missing: tuple = ()


def theory_bounds(
    p: int,
    eps1: float,
    *,
    L: float,
    sigma0: float,
    theta1: float,
    vartheta: float,
    kappa_high: float = 0.0,
    g0_norm: float | None = None,
    f0: float | None = None,
    f_low: float | None = None,
    theta2: float | None = None,
    eps2: float | None = None,
) -> BoundReport:
    """Evaluate the complexity bound chain for degree p at tolerance eps1.

    L is the Lipschitz constant of the p-th derivative, sigma0 = nu0 the
    initial weight, kappa_high a lower bound on the smallest initial Hessian
    curvature (only its negative part matters).  Without f0/f_low/g0_norm
    only the gradient-phase count is available: the report is partial and
    lists the absent fields in missing.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if not 0.0 < eps1 <= 1.0:
        raise ValueError(f"eps1 must lie in (0, 1], got {eps1}")
    if L < 0.0 or sigma0 <= 0.0 or not theta1 >= 1.0 or not 0.0 < vartheta <= 1.0:
        raise ValueError("need L >= 0, sigma0 > 0, theta1 >= 1, vartheta in (0, 1]")

    fact = float(math.factorial(p))
    pexp = (p + 1) / p

    k_star_raw = (
        2.0 * L / (eps1 * vartheta * fact) * ((1.0 + theta1) * L / sigma0 + theta1)
    ) ** pexp
    k_star = _ceil_snapped(k_star_raw)

    neg = max(0.0, -kappa_high)
    eta = 0.0
    for i in range(2, p + 1):
        eta += (neg * math.factorial(p + 1) / (math.factorial(i) * vartheta * sigma0)) ** (
            1.0 / (p - i + 1)
        )

    kappa1 = (
        1.0
        + 2.0 ** (2 * p + 1) * eta ** (p + 1)
        + 2.0 ** (2 * p + 1)
        * ((p + 1) / vartheta * ((1.0 + theta1) * L / sigma0 + theta1)) ** pexp
    )

    missing = [
        name
        for name, val in (("g0_norm", g0_norm), ("f0", f0), ("f_low", f_low))
        if val is None
    ]
    want_second = theta2 is not None or eps2 is not None
    if want_second:
        if theta2 is None:
            missing.append("theta2")
        if eps2 is None:
            missing.append("eps2")

    report = BoundReport(p=p, eps1=eps1, k_star=k_star, k_star_raw=k_star_raw,
                         eta=eta, kappa1=kappa1, eps2=eps2, missing=tuple(missing))

    have_second = theta2 is not None and eps2 is not None
    eps_mix = None
    if have_second:
        if p < 2:
            raise ValueError("second-order bounds need p >= 2")
        if not theta2 >= 1.0 or not 0.0 < eps2 <= 1.0:
            raise ValueError("need theta2 >= 1 and eps2 in (0, 1]")
        qexp = (p + 1) / (p - 1)
        kappa_both = min(
            (fact / ((1.0 + theta1) * L / sigma0 + theta1)) ** (1.0 / p),
            (math.factorial(p - 1) / ((1.0 + theta2) * L / sigma0 + theta2))
            ** (1.0 / (p - 1)),
        )
        eps_mix = max(eps1 ** (-pexp), eps2 ** (-qexp))
        k_star2_raw = (
            2.0 * L / (kappa_both ** (p + 1) * vartheta)
            * max((2.0 * L / vartheta) ** (1.0 / p),
                  (2.0 * L / vartheta) ** (2.0 / (p - 1)))
            * eps_mix
        )
        report.kappa_both = kappa_both
        report.k_star2_raw = k_star2_raw
        report.k_star2 = _ceil_snapped(k_star2_raw)

    if g0_norm is None or f0 is None or f_low is None:
        return report

    factp1 = float(math.factorial(p + 1))
    nu_max = max(
        sigma0
        + sigma0 * (2.0 * eta + 2.0 * (factp1 * g0_norm / sigma0) ** (1.0 / p)) ** (p + 1),
        2.0 * kappa1 * L / vartheta,
    )
    gap = f0 - f_low + (L / sigma0 * nu_max + vartheta * sigma0) / factp1
    sigma_max = max(2.0 * factp1 / vartheta * gap + nu_max, L, sigma0)
    kappa_first = (
        2.0
        * factp1
        * sigma_max ** (1.0 / p)
        * ((L / sigma0 + vartheta * theta1) / (vartheta * fact)) ** pexp
    )
    bound_first = (
        kappa_first * gap
        + (2.0 * L / (vartheta * fact) * (L / sigma0 + theta1)) ** pexp
    ) * eps1 ** (-pexp) + 2.0
    report.nu_max = nu_max
    report.sigma_max = sigma_max
    report.kappa_first = kappa_first
    report.bound_first_order = bound_first

    if have_second:
        qexp = (p + 1) / (p - 1)
        kappa_second = (
            2.0
            * factp1
            * max(
                sigma_max ** (1.0 / p)
                * ((L / sigma0 + vartheta * theta1) / (vartheta * fact)) ** pexp,
                sigma_max ** (2.0 / (p - 1))
                * ((L / sigma0 + vartheta * theta2) / (vartheta * math.factorial(p - 1)))
                ** qexp,
            )
        )
        report.kappa_second = kappa_second
        report.bound_second_order = (
            kappa_second * gap * eps_mix + report.k_star2_raw + 2.0
        )
    return report


def problem_constants(oracle, p: int) -> dict:
    """L, kappa_high, g0_norm, f0 and f_low of an oracle, as theory_bounds takes them."""
    L = oracle.meta.lipschitz.get(p)
    if L is None:
        raise ValueError(f"{oracle.name} declares no Lipschitz constant for degree {p}")
    bundle = oracle.evaluate(oracle.x0)
    return dict(L=L, kappa_high=oracle.meta.kappa_high or 0.0,
                g0_norm=float(np.linalg.norm(bundle.gradient)), f0=bundle.fvalue,
                f_low=oracle.meta.f_low)


def bounds_for_problem(oracle, config) -> BoundReport:
    """Convenience wrapper pulling constants from an oracle and a config.

    sigma0 is taken as the nu0 the run would use (explicit, or the practical
    rule from the start gradient), and theta1, theta2 as the drivers' constants;
    a config with eps2 also gets the second-order bound.  Absent metadata
    gives a partial report.
    """
    constants = problem_constants(oracle, config.degree)
    sigma0 = config.nu0 if config.nu0 is not None else practical_nu0(constants["g0_norm"])
    return theory_bounds(config.degree, config.eps1, sigma0=sigma0, theta1=_THETA1,
                         vartheta=config.vartheta,
                         theta2=_THETA2 if config.eps2 is not None else None,
                         eps2=config.eps2, **constants)
