"""Desk-scale smooth test problems with exact gradients and Hessians.

Each oracle returns a DerivativeBundle (f, g, H) from plain numpy formulas.
Dimensions are fixed per problem; every problem declares a safe box around
its start point on which the evaluator is finite and the analytic
derivatives can be validated against central finite differences.

tridia is the only member with a globally Lipschitz Hessian (it is a convex
quadratic, so L2 = 0 and L1 = lambda_max(H)); the quartic and transcendental
members have unbounded third derivatives on R^n and therefore declare no
Lipschitz constants.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .model import DerivativeBundle

Array = np.ndarray


@dataclass
class ProblemMeta:
    # Per-degree global Lipschitz constants of the degree-th derivative,
    # declared only when finite on all of R^n.
    lipschitz: dict[int, float] = field(default_factory=dict)
    f_low: float | None = None
    kappa_high: float | None = None
    known_minimum: tuple[Array, float] | None = None


@dataclass
class ProblemOracle:
    name: str
    n: int
    x0: Array
    evaluator: Callable[[Array], DerivativeBundle]
    meta: ProblemMeta = field(default_factory=ProblemMeta)
    safe_box: tuple[Array, Array] | None = None

    def evaluate(self, x) -> DerivativeBundle:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"{self.name}: expected shape ({self.n},), got {x.shape}")
        return self.evaluator(x)


def _bundle(fn):
    """Evaluator for a suite formula, memoizing the last point it was called at.

    The suite's formulas are pure functions of x, so a repeat call with the
    same bytes (ar2 retries one trial point after each rejection at the sigma
    cap) returns the same bundle, its arrays made read-only; -0.0 and +0.0
    differ in bytes and recompute.  The memo is not in the noise wrapper or
    ProblemOracle.evaluate: those take any evaluator, including scripted ones
    that answer by call count, and the wrapper draws fresh noise per call.
    """
    last = (None, None)

    def evaluator(x: Array) -> DerivativeBundle:
        nonlocal last
        key = x.tobytes()
        last_key, bundle = last
        if key == last_key:
            return bundle
        f, g, H = fn(x)
        bundle = DerivativeBundle(gradient=g, hessian=H, fvalue=f)
        bundle.gradient.setflags(write=False)
        bundle.hessian.setflags(write=False)
        last = (key, bundle)
        return bundle

    return evaluator


def _rosenbrock(x):
    """Chained Rosenbrock: sum 100 (x_{i+1} - x_i^2)^2 + (1 - x_i)^2."""
    n = x.size
    r = x[1:] - x[:-1] ** 2
    f = float(100.0 * np.sum(r**2) + np.sum((1.0 - x[:-1]) ** 2))
    g = np.zeros(n)
    g[:-1] = -400.0 * x[:-1] * r - 2.0 * (1.0 - x[:-1])
    g[1:] += 200.0 * r
    H = np.zeros((n, n))
    d = np.zeros(n)
    d[:-1] = 1200.0 * x[:-1] ** 2 - 400.0 * x[1:] + 2.0
    d[1:] += 200.0
    H[np.arange(n), np.arange(n)] = d
    off = -400.0 * x[:-1]
    H[np.arange(n - 1), np.arange(1, n)] = off
    H[np.arange(1, n), np.arange(n - 1)] = off
    return f, g, H


def _cube(x):
    """(x1 - 1)^2 + 100 (x2 - x1^3)^2."""
    r = x[1] - x[0] ** 3
    f = float((x[0] - 1.0) ** 2 + 100.0 * r**2)
    g = np.array([2.0 * (x[0] - 1.0) - 600.0 * x[0] ** 2 * r, 200.0 * r])
    H = np.array(
        [
            [2.0 - 1200.0 * x[0] * r + 1800.0 * x[0] ** 4, -600.0 * x[0] ** 2],
            [-600.0 * x[0] ** 2, 200.0],
        ]
    )
    return f, g, H


_BEALE_C = np.array([1.5, 2.25, 2.625])


def _beale(x):
    """sum_j (c_j - x1 (1 - x2^j))^2 with c = (1.5, 2.25, 2.625)."""
    j = np.array([1.0, 2.0, 3.0])
    pj = x[1] ** j
    r = _BEALE_C - x[0] * (1.0 - pj)
    dr1 = -(1.0 - pj)
    dr2 = x[0] * j * x[1] ** (j - 1.0)
    f = float(np.sum(r**2))
    g = 2.0 * np.array([np.sum(r * dr1), np.sum(r * dr2)])
    d12 = j * x[1] ** (j - 1.0)
    # The j = 1 term is 0 * x2^-1; the exponent max(j-2, 0) keeps it 0 at x2 = 0.
    d22 = x[0] * j * (j - 1.0) * x[1] ** np.maximum(j - 2.0, 0.0)
    H = np.zeros((2, 2))
    H[0, 0] = 2.0 * np.sum(dr1 * dr1)
    H[0, 1] = H[1, 0] = 2.0 * np.sum(dr1 * dr2 + r * d12)
    H[1, 1] = 2.0 * np.sum(dr2 * dr2 + r * d22)
    return f, g, H


def _powell_singular(x):
    """Groups of 4: (a+10b)^2 + 5(c-d)^2 + (b-2c)^4 + 10(a-d)^4."""
    n = x.size
    a, b, c, d = x[0::4], x[1::4], x[2::4], x[3::4]
    t1 = a + 10.0 * b
    t2 = c - d
    t3 = b - 2.0 * c
    t4 = a - d
    f = float(np.sum(t1**2 + 5.0 * t2**2 + t3**4 + 10.0 * t4**4))
    g = np.zeros(n)
    g[0::4] = 2.0 * t1 + 40.0 * t4**3
    g[1::4] = 20.0 * t1 + 4.0 * t3**3
    g[2::4] = 10.0 * t2 - 8.0 * t3**3
    g[3::4] = -10.0 * t2 - 40.0 * t4**3
    H = np.zeros((n, n))
    for grp in range(n // 4):
        i = 4 * grp
        q3 = 12.0 * t3[grp] ** 2
        q4 = 120.0 * t4[grp] ** 2
        blk = np.array(
            [
                [2.0 + q4, 20.0, 0.0, -q4],
                [20.0, 200.0 + q3, -2.0 * q3, 0.0],
                [0.0, -2.0 * q3, 10.0 + 4.0 * q3, -10.0],
                [-q4, 0.0, -10.0, 10.0 + q4],
            ]
        )
        H[i : i + 4, i : i + 4] = blk
    return f, g, H


def _broyden3d(x):
    """Tridiagonal Broyden system residuals, squared and summed."""
    n = x.size
    xm = np.concatenate(([0.0], x[:-1]))
    xp = np.concatenate((x[1:], [0.0]))
    r = (3.0 - 2.0 * x) * x - xm - 2.0 * xp + 1.0
    f = float(np.sum(r**2))
    J = np.zeros((n, n))
    J[np.arange(n), np.arange(n)] = 3.0 - 4.0 * x
    J[np.arange(1, n), np.arange(n - 1)] = -1.0
    J[np.arange(n - 1), np.arange(1, n)] = -2.0
    g = 2.0 * (J.T @ r)
    H = 2.0 * (J.T @ J)
    H[np.arange(n), np.arange(n)] += 2.0 * r * (-4.0)
    return f, g, H


def _tridia_jacobian(n: int) -> Array:
    J = np.zeros((n, n))
    J[0, 0] = 1.0
    for i in range(1, n):
        w = math.sqrt(i + 1.0)
        J[i, i] = 2.0 * w
        J[i, i - 1] = -w
    return J


_TRIDIA_J = _tridia_jacobian(10)
_TRIDIA_H = 2.0 * (_TRIDIA_J.T @ _TRIDIA_J)


def _tridia(x):
    """(x1 - 1)^2 + sum_i i (2 x_i - x_{i-1})^2; convex quadratic."""
    r = _TRIDIA_J @ x
    r[0] -= 1.0
    f = float(np.sum(r**2))
    g = 2.0 * (_TRIDIA_J.T @ r)
    return f, g, _TRIDIA_H.copy()


def _arwhead(x):
    """sum_{i<n} (x_i^2 + x_n^2)^2 - 4 x_i + 3."""
    n = x.size
    head = x[:-1]
    t = head**2 + x[-1] ** 2
    f = float(np.sum(t**2 - 4.0 * head + 3.0))
    g = np.zeros(n)
    g[:-1] = 4.0 * head * t - 4.0
    g[-1] = 4.0 * x[-1] * np.sum(t)
    H = np.zeros((n, n))
    H[np.arange(n - 1), np.arange(n - 1)] = 4.0 * t + 8.0 * head**2
    H[:-1, -1] = H[-1, :-1] = 8.0 * head * x[-1]
    H[-1, -1] = np.sum(4.0 * t + 8.0 * x[-1] ** 2)
    return f, g, H


def _engval1(x):
    """sum_{i<n} (x_i^2 + x_{i+1}^2)^2 - 4 x_i + 3."""
    n = x.size
    t = x[:-1] ** 2 + x[1:] ** 2
    f = float(np.sum(t**2 - 4.0 * x[:-1] + 3.0))
    g = np.zeros(n)
    g[:-1] = 4.0 * x[:-1] * t - 4.0
    g[1:] += 4.0 * x[1:] * t
    H = np.zeros((n, n))
    d = np.zeros(n)
    d[:-1] = 4.0 * t + 8.0 * x[:-1] ** 2
    d[1:] += 4.0 * t + 8.0 * x[1:] ** 2
    H[np.arange(n), np.arange(n)] = d
    off = 8.0 * x[:-1] * x[1:]
    H[np.arange(n - 1), np.arange(1, n)] = off
    H[np.arange(1, n), np.arange(n - 1)] = off
    return f, g, H


def _dixmaana(x):
    """Dixon-Maany variant A: alpha=1, beta=0, gamma=delta=0.125, flat weights."""
    n = x.size
    m = n // 3
    gamma, delta = 0.125, 0.125
    f = 1.0 + float(np.sum(x**2))
    f += gamma * float(np.sum(x[: 2 * m] ** 2 * x[m : 3 * m] ** 4))
    f += delta * float(np.sum(x[:m] * x[2 * m : 3 * m]))
    g = 2.0 * x
    g[: 2 * m] += 2.0 * gamma * x[: 2 * m] * x[m : 3 * m] ** 4
    g[m : 3 * m] += 4.0 * gamma * x[: 2 * m] ** 2 * x[m : 3 * m] ** 3
    g[:m] += delta * x[2 * m : 3 * m]
    g[2 * m : 3 * m] += delta * x[:m]
    H = 2.0 * np.eye(n)
    idx = np.arange(2 * m)
    H[idx, idx] += 2.0 * gamma * x[m : 3 * m] ** 4
    H[idx + m, idx + m] += 12.0 * gamma * x[: 2 * m] ** 2 * x[m : 3 * m] ** 2
    cross = 8.0 * gamma * x[: 2 * m] * x[m : 3 * m] ** 3
    H[idx, idx + m] += cross
    H[idx + m, idx] += cross
    i = np.arange(m)
    H[i, i + 2 * m] += delta
    H[i + 2 * m, i] += delta
    return f, g, H


def _nondquar(x):
    """(x1-x2)^2 + (x_{n-1}+x_n)^2 + sum (x_i + x_{i+1} + x_n)^4."""
    n = x.size
    t = x[:-2] + x[1:-1] + x[-1]
    f = float((x[0] - x[1]) ** 2 + (x[-2] + x[-1]) ** 2 + np.sum(t**4))
    g = np.zeros(n)
    g[0] += 2.0 * (x[0] - x[1])
    g[1] -= 2.0 * (x[0] - x[1])
    g[-2] += 2.0 * (x[-2] + x[-1])
    g[-1] += 2.0 * (x[-2] + x[-1])
    c = 4.0 * t**3
    g[:-2] += c
    g[1:-1] += c
    g[-1] += np.sum(c)
    H = np.zeros((n, n))
    H[0, 0] += 2.0
    H[1, 1] += 2.0
    H[0, 1] -= 2.0
    H[1, 0] -= 2.0
    H[-2, -2] += 2.0
    H[-1, -1] += 2.0
    H[-2, -1] += 2.0
    H[-1, -2] += 2.0
    q = 12.0 * t**2
    for i in range(n - 2):
        for a in (i, i + 1, n - 1):
            for b in (i, i + 1, n - 1):
                H[a, b] += q[i]
    return f, g, H


def _woods(x):
    """Groups of 4 coupling two Rosenbrock-like valleys."""
    n = x.size
    a, b, c, d = x[0::4], x[1::4], x[2::4], x[3::4]
    r1 = b - a**2
    r2 = d - c**2
    f = float(
        np.sum(
            100.0 * r1**2
            + (1.0 - a) ** 2
            + 90.0 * r2**2
            + (1.0 - c) ** 2
            + 10.0 * (b + d - 2.0) ** 2
            + 0.1 * (b - d) ** 2
        )
    )
    g = np.zeros(n)
    g[0::4] = -400.0 * a * r1 - 2.0 * (1.0 - a)
    g[1::4] = 200.0 * r1 + 20.0 * (b + d - 2.0) + 0.2 * (b - d)
    g[2::4] = -360.0 * c * r2 - 2.0 * (1.0 - c)
    g[3::4] = 180.0 * r2 + 20.0 * (b + d - 2.0) - 0.2 * (b - d)
    H = np.zeros((n, n))
    for grp in range(n // 4):
        i = 4 * grp
        blk = np.array(
            [
                [-400.0 * r1[grp] + 800.0 * a[grp] ** 2 + 2.0, -400.0 * a[grp], 0.0, 0.0],
                [-400.0 * a[grp], 220.2, 0.0, 19.8],
                [0.0, 0.0, -360.0 * r2[grp] + 720.0 * c[grp] ** 2 + 2.0, -360.0 * c[grp]],
                [0.0, 19.8, -360.0 * c[grp], 200.2],
            ]
        )
        H[i : i + 4, i : i + 4] = blk
    return f, g, H


def _helix(x):
    """Helical valley: 100 [(x3 - 10 theta)^2 + (r - 1)^2] + x3^2.

    theta = arctan(x2/x1)/(2 pi), shifted by +1/2 for x1 < 0, which keeps the
    angle smooth across the negative x1 half-plane where the run starts.
    Plain products instead of ** keep scalar overflow at inf rather than an
    exception.
    """
    x1, x2, x3 = (float(v) for v in x)
    r2 = x1 * x1 + x2 * x2
    if r2 == 0.0:
        return math.nan, np.full(3, np.nan), np.full((3, 3), np.nan)
    r = math.sqrt(r2)
    if x1 != 0.0:
        theta = math.atan(x2 / x1) / (2.0 * math.pi)
        if x1 < 0.0:
            theta += 0.5
    else:
        theta = 0.25 if x2 > 0.0 else -0.25
    u = x3 - 10.0 * theta
    v = r - 1.0
    f = 100.0 * (u * u + v * v) + x3 * x3
    twopi = 2.0 * math.pi
    th1 = -x2 / (twopi * r2)
    th2 = x1 / (twopi * r2)
    g = np.array(
        [
            -2000.0 * u * th1 + 200.0 * v * x1 / r,
            -2000.0 * u * th2 + 200.0 * v * x2 / r,
            200.0 * u + 2.0 * x3,
        ]
    )
    r4 = r2 * r2
    th11 = 2.0 * x1 * x2 / (twopi * r4)
    th12 = (x2 * x2 - x1 * x1) / (twopi * r4)
    th22 = -th11
    r3 = r2 * r
    r11 = x2 * x2 / r3
    r12 = -x1 * x2 / r3
    r22 = x1 * x1 / r3
    H = np.zeros((3, 3))
    H[0, 0] = 20000.0 * th1 * th1 - 2000.0 * u * th11 + 200.0 * (x1 * x1 / r2 + v * r11)
    H[1, 1] = 20000.0 * th2 * th2 - 2000.0 * u * th22 + 200.0 * (x2 * x2 / r2 + v * r22)
    H[0, 1] = H[1, 0] = (
        20000.0 * th1 * th2 - 2000.0 * u * th12 + 200.0 * (x1 * x2 / r2 + v * r12)
    )
    H[0, 2] = H[2, 0] = -2000.0 * th1
    H[1, 2] = H[2, 1] = -2000.0 * th2
    H[2, 2] = 202.0
    return f, g, H


def _alternating(n: int, a: float, b: float) -> Array:
    x = np.empty(n)
    x[0::2] = a
    x[1::2] = b
    return x


def _box(x0: Array, radius: float) -> tuple[Array, Array]:
    return x0 - radius, x0 + radius


def make_suite() -> list[ProblemOracle]:
    """The twelve benchmark problems, in fixed order."""
    suite = []

    x0 = _alternating(10, -1.2, 1.0)
    suite.append(ProblemOracle(
        "rosenbr", 10, x0, _bundle(_rosenbrock),
        ProblemMeta(f_low=0.0, known_minimum=(np.ones(10), 0.0)),
        _box(x0, 2.0)))

    x0 = np.array([-1.2, 1.0])
    suite.append(ProblemOracle(
        "cube", 2, x0, _bundle(_cube),
        ProblemMeta(f_low=0.0, known_minimum=(np.ones(2), 0.0)),
        _box(x0, 2.0)))

    x0 = np.array([1.0, 1.0])
    suite.append(ProblemOracle(
        "beale", 2, x0, _bundle(_beale),
        ProblemMeta(f_low=0.0, known_minimum=(np.array([3.0, 0.5]), 0.0)),
        _box(x0, 2.0)))

    x0 = np.tile([3.0, -1.0, 0.0, 1.0], 3)
    suite.append(ProblemOracle(
        "powellsg", 12, x0, _bundle(_powell_singular),
        ProblemMeta(f_low=0.0, known_minimum=(np.zeros(12), 0.0)),
        _box(x0, 2.0)))

    x0 = -np.ones(10)
    suite.append(ProblemOracle(
        "broyden3d", 10, x0, _bundle(_broyden3d),
        ProblemMeta(f_low=0.0),
        _box(x0, 2.0)))

    x0 = np.ones(10)
    lam = np.linalg.eigvalsh(_TRIDIA_H)
    xstar = 2.0 ** (-np.arange(10, dtype=float))
    suite.append(ProblemOracle(
        "tridia", 10, x0, _bundle(_tridia),
        ProblemMeta(lipschitz={1: float(lam[-1]), 2: 0.0}, f_low=0.0,
                    kappa_high=0.0, known_minimum=(xstar, 0.0)),
        _box(x0, 2.0)))

    x0 = np.ones(10)
    xstar = np.ones(10)
    xstar[-1] = 0.0
    suite.append(ProblemOracle(
        "arwhead", 10, x0, _bundle(_arwhead),
        ProblemMeta(f_low=0.0, known_minimum=(xstar, 0.0)),
        _box(x0, 2.0)))

    x0 = 2.0 * np.ones(10)
    suite.append(ProblemOracle(
        "engval1", 10, x0, _bundle(_engval1),
        ProblemMeta(f_low=0.0),
        _box(x0, 2.0)))

    x0 = 2.0 * np.ones(12)
    suite.append(ProblemOracle(
        "dixmaana", 12, x0, _bundle(_dixmaana),
        ProblemMeta(f_low=1.0, known_minimum=(np.zeros(12), 1.0)),
        _box(x0, 2.0)))

    x0 = _alternating(10, 1.0, -1.0)
    suite.append(ProblemOracle(
        "nondquar", 10, x0, _bundle(_nondquar),
        ProblemMeta(f_low=0.0, known_minimum=(np.zeros(10), 0.0)),
        _box(x0, 2.0)))

    x0 = _alternating(12, -3.0, -1.0)
    suite.append(ProblemOracle(
        "woods", 12, x0, _bundle(_woods),
        ProblemMeta(f_low=0.0, known_minimum=(np.ones(12), 0.0)),
        _box(x0, 2.0)))

    x0 = np.array([-1.0, 0.0, 0.0])
    suite.append(ProblemOracle(
        "helix", 3, x0, _bundle(_helix),
        ProblemMeta(f_low=0.0, known_minimum=(np.array([1.0, 0.0, 0.0]), 0.0)),
        (np.array([-1.6, -0.4, -1.0]), np.array([-0.4, 0.4, 1.0]))))

    return suite


SUITE_NAMES = tuple(p.name for p in make_suite())


def get_problem(name: str) -> ProblemOracle:
    for p in make_suite():
        if p.name == name:
            return p
    raise KeyError(f"unknown problem {name!r}; choose from {', '.join(SUITE_NAMES)}")


NOISE_TARGETS = frozenset({"function", "gradient", "hessian"})


@dataclass(frozen=True)
class NoiseSpec:
    """Multiplicative Gaussian noise: q -> q (1 + level z), z ~ N(0,1).

    Each wrapper reads one np.random.default_rng(seed) stream: every
    evaluation makes one standard_normal draw from it and spends it in a
    fixed order: function scalar, gradient entries, Hessian upper triangle
    (each only where targeted and present).  So the same spec and the same
    sequence of calls replay bit-identically, and level 0 is an exact
    passthrough.  A negative seed raises numpy's ValueError in add_noise.
    """

    level: float
    seed: int
    targets: frozenset = NOISE_TARGETS

    def __post_init__(self):
        if not 0.0 <= self.level <= 1.0:
            raise ValueError(f"noise level must lie in [0, 1], got {self.level}")
        bad = set(self.targets) - NOISE_TARGETS
        if bad:
            raise ValueError(f"unknown noise targets: {sorted(bad)}")


@functools.cache
def _mirror(n: int) -> Array:
    """For each entry (i, j) of an n x n matrix, the position of (min(i, j),
    max(i, j)) in np.triu_indices(n) order; built once per n and read-only."""
    upper = np.zeros((n, n), dtype=np.intp)
    upper[np.triu_indices(n)] = np.arange(n * (n + 1) // 2)
    mirror = upper + np.triu(upper, 1).T
    mirror.flags.writeable = False
    return mirror


class _NoisyEvaluator:
    """Noise for one wrapped oracle, drawn from its own default_rng(spec.seed):
    one standard_normal draw per evaluation, spent in NoiseSpec's order."""

    def __init__(self, inner, spec: NoiseSpec):
        self.inner = inner
        self.spec = spec
        self.rng = np.random.default_rng(spec.seed)

    def __call__(self, x: Array) -> DerivativeBundle:
        bundle = self.inner(x)
        spec = self.spec
        if spec.level == 0.0:
            return bundle
        f, g, H = bundle.fvalue, bundle.gradient, bundle.hessian
        noise_f = "function" in spec.targets and f is not None
        noise_g = "gradient" in spec.targets
        noise_h = "hessian" in spec.targets and H is not None
        n = g.size
        # One draw for the whole bundle equals separate draws in this order.
        size = noise_f + (n if noise_g else 0) + (n * (n + 1) // 2 if noise_h else 0)
        fac = 1.0 + spec.level * self.rng.standard_normal(size)
        i = 0
        if noise_f:
            f = f * fac[0]
            i = 1
        if noise_g:
            g = g * fac[i : i + n]
            i += n
        if noise_h:
            # DerivativeBundle Hessians are exactly symmetric, so scaling each
            # entry by its triangle twin's factor mirrors the noised triangle.
            # + 0.0 turns -0.0 into +0.0, as the three-term build
            # Hn + Hn.T - diag(Hn) of the noised triangle Hn does.
            H = H * fac[i:].take(_mirror(n)) + 0.0
        return DerivativeBundle(gradient=g, hessian=H, fvalue=f)


def add_noise(oracle: ProblemOracle, spec: NoiseSpec) -> ProblemOracle:
    """Wrap an oracle with a private noise stream, seeded from spec.seed."""
    return ProblemOracle(
        name=oracle.name,
        n=oracle.n,
        x0=oracle.x0.copy(),
        evaluator=_NoisyEvaluator(oracle.evaluator, spec),
        meta=oracle.meta,
        safe_box=oracle.safe_box,
    )


@dataclass
class DerivativeCheckReport:
    ok: bool
    max_grad_err: float
    max_hess_err: float
    violations: list


# Largest relative finite-difference errors validate_derivatives accepts.
_GRAD_TOL = 1e-5
_HESS_TOL = 1e-4


def validate_derivatives(oracle: ProblemOracle, points) -> DerivativeCheckReport:
    """Cross-check analytic derivatives against central finite differences.

    Gradient errors are measured relative to max(1, max|g|), Hessian errors
    relative to max(1, max|H|), with step 1e-6 max(1, ||x||).
    """
    violations = []
    worst_g = 0.0
    worst_h = 0.0
    for idx, x in enumerate(points):
        x = np.asarray(x, dtype=float)
        h = 1e-6 * max(1.0, float(np.linalg.norm(x)))
        ref = oracle.evaluate(x)
        gscale = max(1.0, float(np.max(np.abs(ref.gradient))))
        n = x.size
        fd_g = np.zeros(n)
        fd_H = np.zeros((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            plus = oracle.evaluate(x + e)
            minus = oracle.evaluate(x - e)
            fd_g[j] = (plus.fvalue - minus.fvalue) / (2.0 * h)
            fd_H[:, j] = (plus.gradient - minus.gradient) / (2.0 * h)
        # A NaN error compares False both ways: ~(err <= tol) counts it, and
        # np.maximum keeps it in the reported worst error.
        gerr = np.abs(fd_g - ref.gradient) / gscale
        worst_g = float(np.maximum(worst_g, np.max(gerr)))
        for j in np.flatnonzero(~(gerr <= _GRAD_TOL)):
            violations.append((idx, "gradient", (int(j),), float(gerr[j])))
        if ref.hessian is not None:
            hscale = max(1.0, float(np.max(np.abs(ref.hessian))))
            herr = np.abs(fd_H - ref.hessian) / hscale
            worst_h = float(np.maximum(worst_h, np.max(herr)))
            for a, b in zip(*np.nonzero(~(herr <= _HESS_TOL))):
                violations.append((idx, "hessian", (int(a), int(b)), float(herr[a, b])))
    return DerivativeCheckReport(
        ok=not violations,
        max_grad_err=worst_g,
        max_hess_err=worst_h,
        violations=violations,
    )
