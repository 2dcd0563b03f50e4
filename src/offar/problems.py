"""Desk-scale smooth test problems with exact gradients and Hessians.

Each oracle returns a DerivativeBundle (f, g and, asked for degree 2, H).
Dimensions are fixed per problem; every problem declares a safe box around
its start point on which the evaluator is finite and the analytic
derivatives can be validated against central finite differences.

At n <= 12 a numpy call costs more than its arithmetic, so the formulas read
x once with x.tolist(), compute in Python floats and build g and H once at
the end; asked for degree 1, they return right after g, with H None.  They
give, bit for bit, what the same formula written on numpy arrays gives
(tests/data/oracle_values.json pins them), and a new formula keeps the three
rules that make that so:

- A square of an array's entries is a * a, as numpy squares arrays; a power
  of one numpy scalar is libm pow, _pow(a, k), as numpy scalars compute it.
- A cube, a fourth power or a power with an array exponent stays one numpy
  call on an array, read back with .tolist(): numpy's vectorized pow differs
  from libm pow in the last bit on some inputs.
- A sum goes through _sum, numpy's summation order; a matrix product stays
  a BLAS call.

The one difference left is which NaN a sum of several NaNs returns.

tridia is the only member with a globally Lipschitz Hessian (it is a convex
quadratic, so L2 = 0 and L1 = lambda_max(H)); the quartic and transcendental
members have unbounded third derivatives on R^n and therefore declare no
Lipschitz constants.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field, replace
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
    """A problem of dimension n with start x0 and an evaluator.

    evaluate(x, degree) asks evaluator(x, degree) for the derivatives up to
    degree: 2 for a bundle with a Hessian, 1 for one without it (an evaluator
    may return more than asked).  Degree 2 is the default; offar1 asks for 1.
    """

    name: str
    n: int
    x0: Array
    evaluator: Callable[[Array, int], DerivativeBundle]
    meta: ProblemMeta = field(default_factory=ProblemMeta)
    safe_box: tuple[Array, Array] | None = None

    def evaluate(self, x, degree: int = 2) -> DerivativeBundle:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"{self.name}: expected shape ({self.n},), got {x.shape}")
        return self.evaluator(x, degree)


def _bundle(fn):
    """Evaluator for a suite formula f, g, H = fn(x, degree).

    A formula returns a float, a fresh float64 vector and, at degree 2, an
    exactly symmetric float64 matrix; at degree 1 it returns None for H, its
    f and g bit for bit those of degree 2 (test_formula_shapes and
    test_degree_one_values pin this).  So the bundle is built without the
    constructor's symmetrization.
    """
    def evaluator(x: Array, degree: int) -> DerivativeBundle:
        f, g, H = fn(x, degree)
        return DerivativeBundle._of_symmetric(g, H, f)

    return evaluator


def _pow(a: float, k: int) -> float:
    """a ** k by libm pow, as numpy computes a power of a float64 scalar,
    and inf where that overflows; a Python float power raises OverflowError."""
    try:
        return a**k
    except OverflowError:
        return math.copysign(math.inf, a) if k % 2 else math.inf


def _sum(terms: list) -> float:
    """float(np.sum(terms)) bit for bit below 128 terms, where numpy adds
    fewer than 8 in order from +0.0 and more in eight interleaved partial
    sums, combined pairwise before the tail is added and the total added to
    +0.0.  Longer lists get the same scheme, which numpy splits in halves."""
    n = len(terms)
    if n < 8:
        total = 0.0
        for t in terms:
            total += t
        return total
    r = terms[:8]
    tail = n - n % 8
    for i in range(8, tail, 8):
        r = [a + b for a, b in zip(r, terms[i : i + 8])]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for t in terms[tail:]:
        total += t
    return 0.0 + total


def _matrix(n: int, index: Array, values: list) -> Array:
    """The n x n matrix that holds values at the flat positions index, 0.0 elsewhere."""
    H = np.zeros(n * n)
    H[index] = values
    return H.reshape(n, n)


@functools.cache
def _band(n: int) -> Array:
    """Flat positions of the diagonal, the superdiagonal and the subdiagonal."""
    d = np.arange(n) * (n + 1)
    return np.concatenate((d, d[:-1] + 1, d[:-1] + n))


@functools.cache
def _blocks(n: int) -> Array:
    """Flat positions of the n // 4 diagonal 4 x 4 blocks, each row by row."""
    i = np.arange(4)
    block = (i[:, None] * n + i).ravel()
    return np.concatenate([block + 4 * k * (n + 1) for k in range(n // 4)])


@functools.cache
def _arrow(n: int) -> Array:
    """Flat positions of the diagonal, the last column, then the last row."""
    i = np.arange(n - 1)
    return np.concatenate((np.arange(n) * (n + 1), i * n + n - 1, (n - 1) * n + i))


def _rosenbrock(x, degree):
    """Chained Rosenbrock: sum 100 (x_{i+1} - x_i^2)^2 + (1 - x_i)^2."""
    v = x.tolist()
    n = len(v)
    head, tail = v[:-1], v[1:]
    r = [b - a * a for a, b in zip(head, tail)]
    u = [1.0 - a for a in head]
    f = 100.0 * _sum([t * t for t in r]) + _sum([t * t for t in u])
    lead = [-400.0 * a * t - 2.0 * w for a, t, w in zip(head, r, u)] + [0.0]
    g = lead[:1] + [p + 200.0 * t for p, t in zip(lead[1:], r)]
    if degree == 1:
        return f, np.array(g), None
    d = [1200.0 * (a * a) - 400.0 * b + 2.0 for a, b in zip(head, tail)] + [0.0]
    diag = d[:1] + [t + 200.0 for t in d[1:]]
    off = [-400.0 * a for a in head]
    return f, np.array(g), _matrix(n, _band(n), diag + off + off)


def _cube(x, degree):
    """(x1 - 1)^2 + 100 (x2 - x1^3)^2."""
    x1, x2 = x.tolist()
    r = x2 - _pow(x1, 3)
    f = _pow(x1 - 1.0, 2) + 100.0 * _pow(r, 2)
    g = np.array([2.0 * (x1 - 1.0) - 600.0 * _pow(x1, 2) * r, 200.0 * r])
    if degree == 1:
        return f, g, None
    h12 = -600.0 * _pow(x1, 2)
    H = np.array([[2.0 - 1200.0 * x1 * r + 1800.0 * _pow(x1, 4), h12], [h12, 200.0]])
    return f, g, H


_BEALE_C = (1.5, 2.25, 2.625)
# x2^j, x2^(j-1) and x2^max(j-2, 0) for j = 1, 2, 3; the last keeps the j = 1
# term of d22, 0 * x2^-1, at 0 on x2 = 0.
_BEALE_POWERS = np.array([1.0, 2.0, 3.0, 0.0, 1.0, 2.0, 0.0, 0.0, 1.0])


def _beale(x, degree):
    """sum_j (c_j - x1 (1 - x2^j))^2 with c = (1.5, 2.25, 2.625)."""
    x1, x2 = x.tolist()
    pw = (x2**_BEALE_POWERS).tolist()
    j = (1.0, 2.0, 3.0)
    r = [c - x1 * (1.0 - p) for c, p in zip(_BEALE_C, pw[0:3])]
    dr1 = [-(1.0 - p) for p in pw[0:3]]
    dr2 = [x1 * k * p for k, p in zip(j, pw[3:6])]
    f = _sum([t * t for t in r])
    g = np.array([2.0 * _sum([a * b for a, b in zip(r, dr1)]),
                  2.0 * _sum([a * b for a, b in zip(r, dr2)])])
    if degree == 1:
        return f, g, None
    d12 = [k * p for k, p in zip(j, pw[3:6])]
    d22 = [x1 * k * (k - 1.0) * p for k, p in zip(j, pw[6:9])]
    h12 = 2.0 * _sum([a * b + t * c for a, b, t, c in zip(dr1, dr2, r, d12)])
    H = np.array([[2.0 * _sum([a * a for a in dr1]), h12],
                  [h12, 2.0 * _sum([a * a + t * c for a, t, c in zip(dr2, r, d22)])]])
    return f, g, H


def _powell_singular(x, degree):
    """Groups of 4: (a+10b)^2 + 5(c-d)^2 + (b-2c)^4 + 10(a-d)^4."""
    v = x.tolist()
    n = len(v)
    a, b, c, d = v[0::4], v[1::4], v[2::4], v[3::4]
    t1 = [p + 10.0 * q for p, q in zip(a, b)]
    t2 = [p - q for p, q in zip(c, d)]
    t3 = [p - 2.0 * q for p, q in zip(b, c)]
    t4 = [p - q for p, q in zip(a, d)]
    m = len(t3)
    t34 = np.array(t3 + t4)
    cubes, quarts = (t34**3).tolist(), (t34**4).tolist()
    f = _sum([p * p + 5.0 * (q * q) + s + 10.0 * w
              for p, q, s, w in zip(t1, t2, quarts[:m], quarts[m:])])
    g, blocks = [], []
    for p, q, s, w, c3, c4 in zip(t1, t2, t3, t4, cubes[:m], cubes[m:]):
        g += [2.0 * p + 40.0 * c4, 20.0 * p + 4.0 * c3,
              10.0 * q - 8.0 * c3, -10.0 * q - 40.0 * c4]
        if degree == 1:
            continue
        q3 = 12.0 * _pow(s, 2)
        q4 = 120.0 * _pow(w, 2)
        blocks += [2.0 + q4, 20.0, 0.0, -q4,
                   20.0, 200.0 + q3, -2.0 * q3, 0.0,
                   0.0, -2.0 * q3, 10.0 + 4.0 * q3, -10.0,
                   -q4, 0.0, -10.0, 10.0 + q4]
    return f, np.array(g), None if degree == 1 else _matrix(n, _blocks(n), blocks)


def _broyden3d(x, degree):
    """Tridiagonal Broyden system residuals, squared and summed."""
    v = x.tolist()
    n = len(v)
    r = [(3.0 - 2.0 * a) * a - p - 2.0 * q + 1.0
         for a, p, q in zip(v, [0.0] + v[:-1], v[1:] + [0.0])]
    f = _sum([t * t for t in r])
    J = _matrix(n, _band(n), [3.0 - 4.0 * a for a in v] + [-2.0] * (n - 1) + [-1.0] * (n - 1))
    g = 2.0 * (J.T @ np.array(r))
    if degree == 1:
        return f, g, None
    H = 2.0 * (J.T @ J)
    H.flat[:: n + 1] += [2.0 * t * (-4.0) for t in r]
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


def _tridia(x, degree):
    """(x1 - 1)^2 + sum_i i (2 x_i - x_{i-1})^2; convex quadratic."""
    r = _TRIDIA_J @ x
    r[0] -= 1.0
    f = float(np.sum(r**2))
    g = 2.0 * (_TRIDIA_J.T @ r)
    return f, g, None if degree == 1 else _TRIDIA_H.copy()


def _arwhead(x, degree):
    """sum_{i<n} (x_i^2 + x_n^2)^2 - 4 x_i + 3."""
    v = x.tolist()
    n = len(v)
    head, z = v[:-1], v[-1]
    z2 = _pow(z, 2)
    t = [a * a + z2 for a in head]
    f = _sum([s * s - 4.0 * a + 3.0 for s, a in zip(t, head)])
    g = [4.0 * a * s - 4.0 for a, s in zip(head, t)] + [4.0 * z * _sum(t)]
    if degree == 1:
        return f, np.array(g), None
    diag = [4.0 * s + 8.0 * (a * a) for s, a in zip(t, head)]
    diag.append(_sum([4.0 * s + 8.0 * z2 for s in t]))
    cross = [8.0 * a * z for a in head]
    return f, np.array(g), _matrix(n, _arrow(n), diag + cross + cross)


def _engval1(x, degree):
    """sum_{i<n} (x_i^2 + x_{i+1}^2)^2 - 4 x_i + 3."""
    v = x.tolist()
    n = len(v)
    head, tail = v[:-1], v[1:]
    t = [a * a + b * b for a, b in zip(head, tail)]
    f = _sum([s * s - 4.0 * a + 3.0 for s, a in zip(t, head)])
    lead = [4.0 * a * s - 4.0 for a, s in zip(head, t)] + [0.0]
    g = lead[:1] + [p + 4.0 * b * s for p, b, s in zip(lead[1:], tail, t)]
    if degree == 1:
        return f, np.array(g), None
    d = [4.0 * s + 8.0 * (a * a) for s, a in zip(t, head)] + [0.0]
    diag = d[:1] + [p + (4.0 * s + 8.0 * (b * b)) for p, b, s in zip(d[1:], tail, t)]
    off = [8.0 * a * b for a, b in zip(head, tail)]
    return f, np.array(g), _matrix(n, _band(n), diag + off + off)


@functools.cache
def _dixmaana_index(n: int) -> Array:
    """Flat positions of the diagonal, then (i, i+m) and its mirror for
    i < 2m, then (i, i+2m) and its mirror for i < m, with m = n // 3."""
    m = n // 3
    i, k = np.arange(2 * m), np.arange(m)
    return np.concatenate((np.arange(n) * (n + 1), i * n + i + m, (i + m) * n + i,
                           k * n + k + 2 * m, (k + 2 * m) * n + k))


def _dixmaana(x, degree):
    """Dixon-Maany variant A: alpha=1, beta=0, gamma=delta=0.125, flat weights."""
    v = x.tolist()
    n = len(v)
    m = n // 3
    gamma, delta = 0.125, 0.125
    p3 = (x[m : 3 * m] ** 3).tolist()
    p4 = (x[m : 3 * m] ** 4).tolist()
    lo, mid, hi = v[: 2 * m], v[m : 3 * m], v[2 * m : 3 * m]
    f = 1.0 + _sum([a * a for a in v])
    f += gamma * _sum([a * a * p for a, p in zip(lo, p4)])
    f += delta * _sum([a * b for a, b in zip(v[:m], hi)])
    g = [2.0 * a for a in v]
    g[: 2 * m] = [p + 2.0 * gamma * a * q for p, a, q in zip(g, lo, p4)]
    g[m : 3 * m] = [p + 4.0 * gamma * (a * a) * q for p, a, q in zip(g[m:], lo, p3)]
    g[:m] = [p + delta * b for p, b in zip(g, hi)]
    g[2 * m : 3 * m] = [p + delta * a for p, a in zip(g[2 * m :], v[:m])]
    if degree == 1:
        return f, np.array(g), None
    diag = [2.0] * n
    diag[: 2 * m] = [p + 2.0 * gamma * q for p, q in zip(diag, p4)]
    diag[m : 3 * m] = [p + 12.0 * gamma * (a * a) * (b * b)
                       for p, a, b in zip(diag[m:], lo, mid)]
    # 0.0 + turns -0.0 into +0.0, as adding onto a zero entry does.
    cross = [0.0 + 8.0 * gamma * a * q for a, q in zip(lo, p3)]
    H = _matrix(n, _dixmaana_index(n), diag + cross + cross + [delta] * (2 * m))
    return f, np.array(g), H


@functools.cache
def _nondquar_index(n: int) -> Array:
    """Flat positions of the diagonal, (k, k+1) and its mirror for k < n-2,
    then the last column and the last row without their corner."""
    d = np.arange(n) * (n + 1)
    k = np.arange(n - 1)
    return np.concatenate((d, d[: n - 2] + 1, d[: n - 2] + n, k * n + n - 1, (n - 1) * n + k))


def _nondquar(x, degree):
    """(x1-x2)^2 + (x_{n-1}+x_n)^2 + sum (x_i + x_{i+1} + x_n)^4."""
    v = x.tolist()
    n = len(v)
    z = v[-1]
    t = np.array([a + b + z for a, b in zip(v[:-2], v[1:-1])])
    c = [4.0 * p for p in (t**3).tolist()]
    e, s = v[0] - v[1], v[-2] + z
    f = _pow(e, 2) + _pow(s, 2) + _sum((t**4).tolist())
    g = [0.0] * n
    g[0] += 2.0 * e
    g[1] -= 2.0 * e
    g[-2] += 2.0 * s
    g[-1] += 2.0 * s
    g[:-2] = [p + a for p, a in zip(g, c)]
    g[1:-1] = [p + a for p, a in zip(g[1:], c)]
    g[-1] += _sum(c)
    if degree == 1:
        return f, np.array(g), None
    q = [12.0 * (s * s) for s in t.tolist()]
    # Term i adds q_i to each entry among rows and columns i, i+1, n-1, so
    # band entry k gets q_{k-1}, then q_k, after the squared terms' +-2.0
    # (which sit apart for n >= 4).  q >= 0, so no sum here is -0.0 and
    # padding with 0.0 changes no bit.
    before, after = [0.0] + q, q + [0.0]
    corner = 2.0
    for a in q:
        corner += a
    diag = [a + b + c for a, b, c in zip([2.0, 2.0] + [0.0] * (n - 4) + [2.0], before, after)]
    off = [-2.0 + q[0]] + q[1:]
    last = [a + b + c for a, b, c in zip([0.0] * (n - 2) + [2.0], before, after)]
    H = _matrix(n, _nondquar_index(n), diag + [corner] + off + off + last + last)
    return f, np.array(g), H


def _woods(x, degree):
    """Groups of 4 coupling two Rosenbrock-like valleys."""
    v = x.tolist()
    n = len(v)
    terms, g, blocks = [], [], []
    for a, b, c, d in zip(v[0::4], v[1::4], v[2::4], v[3::4]):
        r1 = b - a * a
        r2 = d - c * c
        u, w = 1.0 - a, 1.0 - c
        s, e = b + d - 2.0, b - d
        terms.append(100.0 * (r1 * r1) + u * u + 90.0 * (r2 * r2) + w * w
                     + 10.0 * (s * s) + 0.1 * (e * e))
        g += [-400.0 * a * r1 - 2.0 * u, 200.0 * r1 + 20.0 * s + 0.2 * e,
              -360.0 * c * r2 - 2.0 * w, 180.0 * r2 + 20.0 * s - 0.2 * e]
        if degree == 1:
            continue
        h11 = -400.0 * r1 + 800.0 * _pow(a, 2) + 2.0
        h33 = -360.0 * r2 + 720.0 * _pow(c, 2) + 2.0
        blocks += [h11, -400.0 * a, 0.0, 0.0,
                   -400.0 * a, 220.2, 0.0, 19.8,
                   0.0, 0.0, h33, -360.0 * c,
                   0.0, 19.8, -360.0 * c, 200.2]
    H = None if degree == 1 else _matrix(n, _blocks(n), blocks)
    return _sum(terms), np.array(g), H


def _helix(x, degree):
    """Helical valley: 100 [(x3 - 10 theta)^2 + (r - 1)^2] + x3^2.

    theta = arctan(x2/x1)/(2 pi), shifted by +1/2 for x1 < 0, which keeps the
    angle smooth across the negative x1 half-plane where the run starts.
    Plain products instead of ** keep scalar overflow at inf rather than an
    exception.  Where r^4 is 0 (x1^2 + x2^2 is 0 or its square underflows)
    the angle's derivatives would divide by 0, so every output is NaN.
    """
    x1, x2, x3 = (float(v) for v in x)
    r2 = x1 * x1 + x2 * x2
    if r2 * r2 == 0.0:
        return math.nan, np.full(3, np.nan), None if degree == 1 else np.full((3, 3), np.nan)
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
    if degree == 1:
        return f, g, None
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


def check_noise_level(level: float) -> None:
    """Raise ValueError unless 0 <= level <= 1; NaN fails too."""
    if not 0.0 <= level <= 1.0:
        raise ValueError(f"noise level must lie in [0, 1], got {level}")


@dataclass(frozen=True)
class NoiseSpec:
    """Multiplicative Gaussian noise: q -> q (1 + level z), z ~ N(0,1).

    The gradient and the Hessian (when present) are always noised, the
    function value (when present) only if fvalue.  Each wrapper reads one
    np.random.default_rng(seed) stream: every evaluation takes the next
    consecutive normals of it and spends them in a fixed order: function
    scalar, gradient entries, Hessian upper triangle.  A degree-1 evaluation
    returns no Hessian and so spends n normals, n + 1 with fvalue.  So the
    same spec and the same sequence of calls, degrees included, replay
    bit-identically.  The seed must be a nonnegative integer.
    """

    level: float
    seed: int
    fvalue: bool = True

    def __post_init__(self):
        check_noise_level(self.level)
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"noise seed must be a nonnegative integer, got {self.seed!r}")


# Normals a noise wrapper draws at a time; a woods (n = 12) evaluation spends
# 91 of them.  standard_normal(a + b) gives the values of standard_normal(a)
# followed by standard_normal(b), so the batch size leaves the noise unchanged.
_BATCH = 4096


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
    each evaluation passes its degree to the inner evaluator, takes the
    stream's next consecutive factors 1 + level z for what comes back,
    computed _BATCH normals at a time, and spends them in NoiseSpec's order."""

    def __init__(self, inner, spec: NoiseSpec):
        self.inner = inner
        self.spec = spec
        self.rng = np.random.default_rng(spec.seed)
        self._factors = np.empty(0)
        self._used = 0

    def _next_factors(self, size: int) -> Array:
        i = self._used
        if i + size > self._factors.size:
            z = self.rng.standard_normal(max(size, _BATCH))
            self._factors = np.concatenate((self._factors[i:], 1.0 + self.spec.level * z))
            i = 0
        self._used = i + size
        return self._factors[i : i + size]

    def __call__(self, x: Array, degree: int) -> DerivativeBundle:
        bundle = self.inner(x, degree)
        f, g, H = bundle.fvalue, bundle.gradient, bundle.hessian
        noise_f = self.spec.fvalue and f is not None
        n = g.size
        size = noise_f + n + (0 if H is None else n * (n + 1) // 2)
        fac = self._next_factors(size)
        if noise_f:
            f = float(f * fac[0])
        g = g * fac[noise_f : noise_f + n]
        if H is not None:
            # DerivativeBundle Hessians are exactly symmetric, so scaling each
            # entry by its triangle twin's factor mirrors the noised triangle.
            # + 0.0 turns -0.0 into +0.0, as the three-term build
            # Hn + Hn.T - diag(Hn) of the noised triangle Hn does.
            H = H * fac[noise_f + n :].take(_mirror(n)) + 0.0
        return DerivativeBundle._of_symmetric(g, H, f)


def add_noise(oracle: ProblemOracle, spec: NoiseSpec) -> ProblemOracle:
    """A copy of the oracle whose evaluations are noised from a private
    stream, seeded from spec.seed; at level 0, a copy with no wrapper."""
    x0 = oracle.x0.copy()
    if spec.level == 0.0:
        return replace(oracle, x0=x0)
    return replace(oracle, x0=x0, evaluator=_NoisyEvaluator(oracle.evaluator, spec))


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
