"""Shared per-iteration invariant checker for driver runs.

The checks mirror the quantities the drivers themselves maintain but are
recomputed here from the run's trace and from the oracle's own record of
what it was asked, so a run is validated against its raw data rather than
against the solver's bookkeeping.  recording(oracle) wraps the oracle's
evaluator and appends (x, bundle) for every evaluation.  A derivative-only
driver evaluates once at x0 and once per iteration, and accepts every step,
so step k is the realized displacement x_{k+1} - x_k: the step actually
taken, which is also the s that the Taylor error bounds against the
derivatives at x_{k+1} need.  The traced model terms are checked bit for bit
instead, against model_terms at the step solved anew from the recorded
bundle and the traced sigma, which must carry x_k to x_{k+1} exactly, and
so is the weight recursion (nu, mu1, mu2, sigma), recomputed from the row
before with the rule written out here rather than through the drivers'
update functions.

Inequalities that hold with equality in exact arithmetic (certificates at
theta = 1, Lipschitz identities on quadratics where L2 = 0) are given a
relative slack REL plus a small scale-aware absolute floor; without it,
last-ulp rounding flips them spuriously.
"""

import dataclasses
import math

import numpy as np

from offar import DerivativeBundle, certify, model_terms, solve_p1, solve_p2, theory_bounds
from offar.model import eigh
from offar.solvers import _THETA1, _THETA2

REL = 1e-9
ABS = 1e-12


def _le(a, b, scale=1.0):
    """a <= b up to relative slack on the magnitude of either side."""
    return a <= b + REL * max(1.0, abs(b)) + ABS * max(1.0, scale)


def solve_p2_raw(g, H, sigma):
    """solve_p2 on a raw (g, H), through the checks a driver's point passes:
    DerivativeBundle's shape check and symmetrization, finite_grad_norm and
    one eigh."""
    bundle = DerivativeBundle(g, H)
    gnorm = bundle.finite_grad_norm()
    if not gnorm < math.inf:
        raise ValueError("derivatives must be finite")
    return solve_p2(bundle.gradient, eigh(bundle.hessian), sigma, gnorm)


def recording(oracle):
    """A copy of oracle that appends (x, bundle) to points at each evaluation."""
    points = []
    evaluate = oracle.evaluator

    def evaluator(x, degree):
        bundle = evaluate(x, degree)
        points.append((x.copy(), bundle))
        return bundle

    return dataclasses.replace(oracle, evaluator=evaluator), points


def _bits(*values):
    return np.array(values, dtype=float).tobytes()


def _traced_terms(trace):
    """Per row, the traced (model_reduction, taylor_grad_norm, step_norm)."""
    return np.column_stack([trace.column(name)
                            for name in ("model_reduction", "taylor_grad_norm", "step_norm")])


def _terms_violations(k, traced, bundle, sigma, p):
    """The step a driver takes at (bundle, sigma), and the violations of row
    k's traced model_reduction, taylor_grad_norm and step_norm against
    model_terms there, bit for bit."""
    g, H, gnorm = bundle.gradient, (bundle.hessian if p == 2 else None), bundle.finite_grad_norm()
    s = (solve_p1(g, sigma, gnorm) if p == 1 else solve_p2(g, eigh(H), sigma, gnorm)).step
    _, value, tgrad_norm, snorm = model_terms(g, H, sigma, s)
    traced, want = traced.tolist(), [-value, tgrad_norm, snorm]
    if _bits(*traced) != _bits(*want):
        return s, [f"k={k}: traced (m(0) - m(s), ||grad T||, ||s||) = {traced!r}, "
                   f"model_terms gives {want!r}"]
    return s, []


def _weight_violations(trace, config, K):
    """The weight recursion recomputed row by row, bit for bit, from row k's
    traced grad_norm and min_eig and the step_norm, nu and sigma of the row
    before, with the rule written out here in the drivers' float operations:

        nu_0 = sigma_0 = nu0, or max(1e-6, 6 ||g_0||) without one,
        nu_(k+1) = nu_k + nu_k ||s_k||^(p+1),
        mu1_k = p! ||g_k|| / ||s_(k-1)||^p - theta1 sigma_(k-1),
        mu2_k = (p-1)! max(0, -lambda_k) / ||s_(k-1)||^(p-1) - theta2 sigma_(k-1)
                (second order only),
        sigma_k = min(v, max(nu_k, mu_k, vartheta nu_k)), where v is
                  max(vartheta nu_k, mu_k) in strict mode and
                  max(vartheta nu_k, mu1_k, sigma_(k-1) / 2) in practical mode.
    """
    if K == 0:
        return []
    p, second_order = config.degree, config.eps2 is not None
    nu, sigma, gnorm, snorm, lam, mu1, mu2 = (
        trace.column(name).tolist()
        for name in ("nu", "sigma", "grad_norm", "step_norm", "min_eig", "mu1", "mu2"))
    bad = []
    nu0 = config.nu0 if config.nu0 is not None else max(1e-6, 6.0 * gnorm[0])
    if _bits(nu[0], sigma[0]) != _bits(nu0, nu0):
        bad.append(f"k=0: (nu, sigma) = {(nu[0], sigma[0])!r}, the rule gives nu0 = {nu0!r}")
    for k in range(1, K + 1):
        want = nu[k - 1] + nu[k - 1] * snorm[k - 1] ** (p + 1)
        if _bits(nu[k]) != _bits(want):
            bad.append(f"k={k}: nu={nu[k]!r}, the recursion gives {want!r}")
        if k == K:
            break
        want_mu1 = math.factorial(p) * gnorm[k] / snorm[k - 1] ** p - _THETA1 * sigma[k - 1]
        mus = [want_mu1]
        if second_order:
            mus.append(math.factorial(p - 1) * max(0.0, -lam[k]) / snorm[k - 1] ** (p - 1)
                       - _THETA2 * sigma[k - 1])
        lo = config.vartheta * nu[k]
        if config.strict_mode:
            value = max(lo, *mus)
        else:
            value = max(lo, want_mu1, 0.5 * sigma[k - 1])
        want = [*mus, min(value, max(nu[k], *mus, lo))]
        got = [mu1[k], mu2[k], sigma[k]] if second_order else [mu1[k], sigma[k]]
        if _bits(*got) != _bits(*want) or not (second_order or math.isnan(mu2[k])):
            bad.append(f"k={k}: (mu1[, mu2], sigma) = {got!r}, the recursion gives {want!r}")
    return bad


def check_ar2_terms(outcome, points):
    """check_offo_invariants' bitwise model-terms check for an ar2 run.

    points is recording()'s list: x_0 and one trial point per iteration.  Row
    k's bundle is the last accepted point's, and the step solved there must
    reach row k's trial point exactly.
    """
    K = outcome.iterations
    if len(points) != K + 1:
        raise ValueError(f"{K} iterations need {K + 1} recorded points, got {len(points)}")
    tr = outcome.trace
    sigma, accepted = tr.column("sigma"), tr.column("accepted")
    traced = _traced_terms(tr)
    x, bundle = points[0]
    bad = []
    for k in range(K):
        s, row_bad = _terms_violations(k, traced[k], bundle, sigma[k], 2)
        bad += row_bad
        trial_x, trial = points[k + 1]
        if _bits(*(x + s)) != _bits(*trial_x):
            bad.append(f"k={k}: the trial point is not x + the step solved at sigma_k")
        if accepted[k] == 1.0:
            x, bundle = trial_x, trial
    return bad


def check_offo_invariants(outcome, config, points, oracle=None, check_lipschitz=True):
    """Return a list of human-readable violation strings (empty = clean).

    points is the list recording() filled during the run: x_0 .. x_K and
    their bundles.  The Lipschitz family only fires when the oracle declares
    a constant for the run's degree; the sigma_max ceiling additionally
    needs f_low/kappa_high metadata and fvalues.
    """
    bad = []
    tr = outcome.trace
    p = config.degree
    pfact = math.factorial(p)
    K = outcome.iterations
    if len(points) != K + 1:
        raise ValueError(f"{K} iterations need {K + 1} recorded points, got {len(points)}")
    bundles = [b for _, b in points]
    steps = [points[k + 1][0] - points[k][0] for k in range(K)]

    nu = tr.column("nu")
    sigma = tr.column("sigma")
    mu1 = tr.column("mu1")
    mu2 = tr.column("mu2")
    snorm = tr.column("step_norm")
    gnorm = tr.column("grad_norm")
    fval = tr.column("fvalue")

    bad += _weight_violations(tr, config, K)
    for k in range(1, K):
        lo = config.vartheta * nu[k]
        hi = max(nu[k], mu1[k], mu2[k]) if not math.isnan(mu2[k]) else max(nu[k], mu1[k])
        hi = max(hi, lo)
        if not (_le(lo, sigma[k]) and _le(sigma[k], hi)):
            bad.append(f"k={k}: sigma={sigma[k]!r} outside [{lo!r}, {hi!r}]")

    theta2 = _THETA2 if config.eps2 is not None else None
    traced = _traced_terms(tr)
    for k in range(K):
        # certify recomputes everything from the model at the step; the
        # curvature condition gets this checker's own smallest eigenvalue.
        min_eig = None if theta2 is None else float(np.linalg.eigvalsh(bundles[k].hessian)[0])
        H = bundles[k].hessian if p == 2 else None
        if not certify(steps[k], bundles[k].gradient, H, sigma[k], _THETA1, theta2, min_eig):
            bad.append(f"k={k}: step certificate failed (sigma={sigma[k]!r})")
        s, row_bad = _terms_violations(k, traced[k], bundles[k], sigma[k], p)
        bad += row_bad
        if _bits(*(points[k][0] + s)) != _bits(*points[k + 1][0]):
            bad.append(f"k={k}: x_(k+1) is not x_k + the step solved at sigma_k")

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

    # Taylor error bounds against the oracle's own next-point data; an
    # overflowing last point has no finite derivatives to compare.
    for k in range(K):
        if math.isnan(gnorm[k + 1]):
            continue
        b0, b1, s = bundles[k], bundles[k + 1], steps[k]
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
