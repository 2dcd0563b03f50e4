"""Frozen copy of the original secular-root iteration, kept as a bitwise reference.

It starts the bracket at max(1, 2 lam_low) and doubles, and runs a Newton
iteration with bisection fallback whose slope takes a second pass over the
eigenpairs.  The current ``offar.subsolver._secular_root`` must return the
very same float on every input; test_subsolver.py checks that.
"""

import math

import numpy as np

_MAX_SECULAR_ITER = 200


def reference_secular_root(w: np.ndarray, ghat2: np.ndarray, sigma: float,
                           lam_low: float) -> float:
    pairs = list(zip((float(v) for v in w), (float(v) for v in ghat2)))

    def r_and_phi(lam: float) -> tuple[float, float]:
        r2 = 0.0
        for wi, gi in pairs:
            d = wi + lam
            if d == 0.0:
                return math.inf, math.inf
            r2 += gi / (d * d)
        r = math.sqrt(r2) if r2 < math.inf else math.inf
        return r, r - 2.0 * lam / sigma

    lo = lam_low
    hi = max(1.0, 2.0 * lam_low)
    _, phi_hi = r_and_phi(hi)
    while phi_hi > 0.0:
        hi *= 2.0
        if not math.isfinite(hi):
            raise RuntimeError("failed to bracket the secular root")
        _, phi_hi = r_and_phi(hi)

    lam = 0.5 * (lo + hi)
    for _ in range(_MAX_SECULAR_ITER):
        r, phi = r_and_phi(lam)
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
            rp = 0.0
            for wi, gi in pairs:
                d = wi + lam
                rp += gi / (d * d * d)
            dphi = -rp / r - 2.0 / sigma
            if dphi < 0.0:
                cand = lam - phi / dphi
                if lo < cand < hi:
                    newton = cand
        lam = newton if newton is not None else 0.5 * (lo + hi)
    return lam
