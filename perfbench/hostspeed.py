"""The host's speed, read from a fixed kernel timed next to the work.

On a shared host the speed of the same deterministic loop swings by up to 2x
in spells of a few seconds to minutes, with no steal time showing, most
likely from other tenants sharing the cores' caches and execution units.  A
run's wall time then says as much about its neighbours as about the
program.  So the benchmark times KERNEL_REPS passes of a fixed kernel of
small numpy calls (the kind of call the solvers make: a symmetric
eigendecomposition, a matrix-vector product, a norm) just before and just
after each timed piece of work, and scales the work's wall time by REF_S
over the kernel's time around it:

    scaled_s = wall_s * REF_S / kernel_s

that is, the seconds the work would take on a host running the kernel in
REF_S.  The kernel calls no code of offar, so a change to the library moves
scaled times exactly as it moves wall times on a steady host.

Measured on 2 cores of a shared host, ten fresh-process runs per workload:
the IQR over median of sweep_s was 8.9% (noisy-sweep), 8.4% (clean-suite)
and 1.1% (first-order) scaled, against 10.3%, 4.2% and 11.2% in wall time;
between two such sets half an hour apart the scaled medians moved by at most
3.4%, the wall median of noisy-sweep by 10%.  The scaling tracks best where
runs are short: the kernel sees the host only between runs.  A longer kernel
reads the host's speed with less noise (150 passes gave 9% on single
clean-suite sweeps, 450 gave 7%) but costs more time between runs.
"""

from __future__ import annotations

import time

# The kernel's time, in seconds, on the shared 2-core Xeon host this
# benchmark was tuned on, while that host ran fast (its 10th percentile).
REF_S = 0.008
KERNEL_REPS = 450
_ARGS = None


def kernel_s() -> float:
    """Seconds the fixed kernel takes now."""
    global _ARGS
    import numpy as np
    if _ARGS is None:
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 6))
        _ARGS = (a + a.T, rng.standard_normal(6))
    a, x = _ARGS
    t = time.perf_counter()
    for _ in range(KERNEL_REPS):
        np.linalg.eigh(a)
        y = a @ x
        x * float(np.linalg.norm(y)) + y
    return time.perf_counter() - t


def scale(wall_s: float, kernel_before: float, kernel_after: float) -> float:
    """wall_s at the reference speed, from the kernel's times around it."""
    return wall_s * REF_S * 2.0 / (kernel_before + kernel_after)
