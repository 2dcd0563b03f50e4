"""Shared per-iteration invariant checker for driver runs.

The checks mirror the quantities the drivers themselves maintain but are
recomputed here from the recorded trace and history, so a run is validated
against its own raw data rather than against the solver's bookkeeping.

Inequalities that hold with equality in exact arithmetic (certificates at
theta = 1, Lipschitz identities on quadratics where L2 = 0) are given a
relative slack REL plus a small scale-aware absolute floor; without it,
last-ulp rounding flips them spuriously.
"""

import math

import numpy as np

from offar import RegularizedModel, certify, theory_bounds
from offar.solvers import _THETA1, _THETA2

REL = 1e-9
ABS = 1e-12


def _le(a, b, scale=1.0):
    """a <= b up to relative slack on the magnitude of either side."""
    return a <= b + REL * max(1.0, abs(b)) + ABS * max(1.0, scale)


def check_offo_invariants(outcome, config, oracle=None, check_lipschitz=True):
    """Return a list of human-readable violation strings (empty = clean).

    Needs outcome.history (run with collect_history=True).  The Lipschitz
    family only fires when the oracle declares a constant for the run's
    degree; the sigma_max ceiling additionally needs f_low/kappa_high
    metadata and fvalues.
    """
    bad = []
    tr = outcome.trace
    hist = outcome.history
    if hist is None:
        raise ValueError("invariant checking needs collect_history=True")
    p = config.degree
    pfact = math.factorial(p)
    K = outcome.iterations

    nu = tr.column("nu")
    sigma = tr.column("sigma")
    mu1 = tr.column("mu1")
    mu2 = tr.column("mu2")
    snorm = tr.column("step_norm")
    gnorm = tr.column("grad_norm")
    fval = tr.column("fvalue")

    for k in range(K):
        if not nu[k + 1] >= nu[k]:
            bad.append(f"k={k}: nu decreased {nu[k]!r} -> {nu[k + 1]!r}")

    for k in range(1, K):
        lo = config.vartheta * nu[k]
        hi = max(nu[k], mu1[k], mu2[k]) if not math.isnan(mu2[k]) else max(nu[k], mu1[k])
        hi = max(hi, lo)
        if not (_le(lo, sigma[k]) and _le(sigma[k], hi)):
            bad.append(f"k={k}: sigma={sigma[k]!r} outside [{lo!r}, {hi!r}]")

    theta2 = _THETA2 if config.eps2 is not None else None
    for k in range(min(K, len(hist.step_results))):
        model = RegularizedModel(hist.bundles[k], sigma[k], p)
        if not certify(hist.step_results[k], model, _THETA1, theta2):
            bad.append(f"k={k}: step certificate failed (sigma={sigma[k]!r})")

    L = oracle.meta.lipschitz.get(p) if oracle is not None else None
    if L is None or not check_lipschitz:
        return bad

    nu0 = nu[0]
    mu_cap = max(nu0, L)
    for k in range(1, K):
        if not _le(mu1[k], mu_cap):
            bad.append(f"k={k}: mu1={mu1[k]!r} above max(nu0, L)={mu_cap!r}")
        if not math.isnan(mu2[k]) and not _le(mu2[k], mu_cap):
            bad.append(f"k={k}: mu2={mu2[k]!r} above max(nu0, L)={mu_cap!r}")
    for k in range(K):
        if not _le(sigma[k], L + nu[k]):
            bad.append(f"k={k}: sigma={sigma[k]!r} above L + nu={L + nu[k]!r}")

    for k in range(K):
        if math.isnan(gnorm[k + 1]):
            continue
        need = pfact * gnorm[k + 1] / (L + _THETA1 * sigma[k])
        if not _le(need, snorm[k] ** p, scale=snorm[k] ** p):
            bad.append(
                f"k={k}: step bound ||s||^p={snorm[k] ** p!r} "
                f"not above p!||g+||/(L+theta1 sigma)={need!r}")

    # Taylor error bounds against the oracle's own next-point data.
    nb = len(hist.bundles)
    for k in range(min(K, nb - 1, len(hist.steps))):
        b0, b1, s = hist.bundles[k], hist.bundles[k + 1], hist.steps[k]
        sn = float(np.linalg.norm(s))
        if b0.fvalue is not None and b1.fvalue is not None:
            taylor = b0.fvalue + float(b0.gradient @ s)
            if p == 2:
                taylor += 0.5 * float(s @ (b0.hessian @ s))
            lhs = abs(b1.fvalue - taylor)
            rhs = L * sn ** (p + 1) / math.factorial(p + 1)
            if not _le(lhs, rhs, scale=abs(b0.fvalue) + abs(b1.fvalue)):
                bad.append(f"k={k}: |f - T| = {lhs!r} above {rhs!r}")
        tg = b0.gradient + (b0.hessian @ s if p == 2 else 0.0 * s)
        lhs = float(np.linalg.norm(b1.gradient - tg))
        rhs = L * sn**p / pfact
        if not _le(lhs, rhs, scale=float(np.linalg.norm(b0.gradient))):
            bad.append(f"k={k}: ||g - grad T|| = {lhs!r} above {rhs!r}")
        if p == 2 and b0.hessian is not None and b1.hessian is not None:
            lhs = float(np.linalg.norm(b1.hessian - b0.hessian, 2))
            if not _le(lhs, L * sn, scale=float(np.linalg.norm(b0.hessian, 2))):
                bad.append(f"k={k}: ||H+ - H|| = {lhs!r} above L||s||={L * sn!r}")

    # Guaranteed decrease whenever sigma clears 2L (diagnostic fvalues only).
    for k in range(K):
        if sigma[k] >= 2.0 * L and not (math.isnan(fval[k]) or math.isnan(fval[k + 1])):
            got = fval[k] - fval[k + 1]
            need = sigma[k] * snorm[k] ** (p + 1) / (2.0 * math.factorial(p + 1))
            if not _le(need, got, scale=abs(fval[k])):
                bad.append(f"k={k}: decrease {got!r} below sigma||s||^(p+1) share {need!r}")

    meta = oracle.meta
    if meta.f_low is not None and not math.isnan(fval[0]):
        report = theory_bounds(
            p, config.eps1, L=L, sigma0=nu0, theta1=_THETA1,
            vartheta=config.vartheta,
            kappa_high=0.0 if meta.kappa_high is None else meta.kappa_high,
            g0_norm=gnorm[0], f0=fval[0], f_low=meta.f_low)
        for k in range(K):
            if not _le(sigma[k], report.sigma_max):
                bad.append(f"k={k}: sigma={sigma[k]!r} above sigma_max={report.sigma_max!r}")
    return bad
