"""q-calculus primitives on geometric time scales.

Everything is parameterized by a scale index 0 < q < 1.  The module
provides the q-bracket and q-factorial, the q-shifted factorial (t - s)^(a)
(finite product for integer a >= 0, truncated infinite product ratio
otherwise), q-gamma (read off a weight table of :mod:`qfde.l1q`), q-beta,
Jackson's q-integral and the q-derivative with its iterated closed form.

All values are plain doubles (a scalar Jackson sum adds and tests its
terms as Python floats), and the operations are pure functions,
safe for concurrent use; :func:`q_gamma` keeps its GAMMAS_KEPT most
recently used values per process.  The infinite sums and products stop at a
relative tolerance of REL_TOL = 1e-14.  How many terms that takes is
fixed by q: the terms decay like q^m, so T(q) = ceil(ln(REL_TOL)/ln q)
of them reach the tolerance (Gasper & Rahman, *Basic Hypergeometric
Series*, 2nd ed., ch. 1).  Every loop may run max(10_000, 2 T(q)) terms
before it raises :class:`~qfde.errors.NonConvergenceError`; the factor 2
covers the product's tighter band REL_TOL (1-q).  A series whose terms
decay like q^(c m), 0 < c < 1, has the budget of the scale q^c: T(q^c)
is about T(q)/c.  T is capped at MAX_TAIL = 2^20 terms, which bounds the
work of any loop (q up to about 0.99997); past it a call raises
NonConvergenceError before its loop starts.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat
from typing import Callable

import numpy as np

from .errors import NonConvergenceError, PoleError, SingularKernelError

# Vector-valued functions are supported wherever f(t) appears; scalars
# are the common case.
QFunction = Callable[[float], "float | np.ndarray"]


@dataclass(frozen=True)
class QScale:
    """Geometric time scale {b*q^n : n >= 0} plus 0."""

    q: float
    b: float = 1.0

    def __post_init__(self):
        _check_q(self.q)
        if not 0.0 < self.b < math.inf:
            raise ValueError(f"horizon b must be positive and finite, got {self.b}")


REL_TOL = 1e-14        # relative truncation tolerance of every series
MIN_TERMS = 10_000     # floor of the term budget of every loop
MAX_TAIL = 2 ** 20     # largest T(q) accepted: bounds the work of a loop
GAMMAS_KEPT = 256      # q_gamma values kept per process

_TINY = sys.float_info.min    # the least normal double, a Python float


def tail_terms(q: float) -> int:
    """T(q) = ceil(ln(REL_TOL)/ln q), the least T with q^T <= REL_TOL.

    Raises NonConvergenceError when T(q) exceeds MAX_TAIL or q is 1.
    """
    tail = math.ceil(math.log(REL_TOL) / math.log(q)) if q < 1.0 else math.inf
    if tail > MAX_TAIL:
        raise NonConvergenceError(
            f"series at q={q!r} need {tail} terms to reach {REL_TOL:g}, "
            f"over the limit of {MAX_TAIL}")
    return tail


def _budget(q: float) -> int:
    """Terms a loop may run at q before it gives up: max(MIN_TERMS, 2 T(q))."""
    return max(MIN_TERMS, 2 * tail_terms(q))


def _check_q(q: float) -> None:
    if not 0.0 < q < 1.0:
        raise ValueError(f"scale index q must be in (0, 1), got {q}")


def q_bracket(alpha: float, q: float) -> float:
    """[alpha]_q = (1 - q^alpha)/(1 - q), formed by expm1 to keep its digits near alpha = 0."""
    _check_q(q)
    return math.expm1(alpha * math.log(q)) / (q - 1.0)


def q_factorial(n: int, q: float) -> float:
    """[n]_q! = [n]_q [n-1]_q ... [1]_q, with [0]_q! = 1."""
    _check_q(q)
    if n < 0:
        raise ValueError(f"q-factorial needs n >= 0, got {n}")
    out = 1.0
    for k in range(1, n + 1):
        out *= q_bracket(k, q)
    return out


def shifted_factorial_int(t: float, s: float, k: int, q: float) -> float:
    """(t - s)^(k) = prod_{i=0}^{k-1} (t - q^i s); empty product for k = 0."""
    _check_q(q)
    if k < 0:
        raise ValueError(f"integer shifted factorial needs k >= 0, got {k}")
    out = 1.0
    qi = 1.0
    for _ in range(k):
        out *= t - qi * s
        qi *= q
    return out


def shifted_factorial_real(t: float, s: float, alpha: float, q: float) -> float:
    """(t - s)^(alpha) for real alpha, 0 <= s <= t, t > 0.

    Nonnegative integer alpha routes to the exact finite product; other
    orders use the truncated product

        t^alpha * prod_{i>=0} (t - q^i s)/(t - q^(alpha+i) s),

    each denominator formed as (t - q^i s) - q^i s (q^alpha - 1), which
    keeps its digits next to alpha = -1, and stopped at the first factor
    within REL_TOL*(1-q) of 1.  Factors approach 1 geometrically at rate
    q, so the dropped tail contributes a relative error of order REL_TOL.
    """
    _check_q(q)
    for name, value in (("t", t), ("s", s), ("alpha", alpha)):
        if not math.isfinite(value):
            raise ValueError(
                f"shifted factorial needs a finite {name}, got {name}={value}")
    if t <= 0.0:
        raise ValueError(f"shifted factorial needs t > 0, got t={t}")
    if not 0.0 <= s <= t:
        raise ValueError(f"shifted factorial needs 0 <= s <= t, got s={s}, t={t}")
    if alpha == math.floor(alpha) and alpha >= 0:
        return shifted_factorial_int(t, s, int(alpha), q)
    budget = _budget(q)
    band = REL_TOL * (1.0 - q)
    shift = math.expm1(alpha * math.log(q))    # q^alpha - 1
    prod, qi = 1.0, 1.0    # qi = q^i
    for _ in range(budget):
        num = t - qi * s
        den = num - qi * s * shift    # t - q^(alpha+i) s
        if den == 0.0:
            raise SingularKernelError(
                f"(t-s)^(alpha) product factor denominator vanished "
                f"(t={t!r}, s={s!r}, alpha={alpha!r}, q={q!r})")
        factor = num / den
        prod *= factor
        if -band < factor - 1.0 < band:
            return t ** alpha * prod
        qi *= q
    raise NonConvergenceError(
        f"shifted factorial product did not settle within {budget} factors "
        f"at q={q!r}")


@functools.lru_cache(maxsize=GAMMAS_KEPT)
def q_gamma(alpha: float, q: float) -> float:
    """q-gamma function Gamma_q(alpha) = (q;q)_inf (1-q)^(1-alpha) / (q^alpha;q)_inf.

    [alpha-1]_q! at a positive integer alpha.  Elsewhere Gamma_q(r) of the
    fractional part r = alpha - floor(alpha) is G(0) (1-q)^(1-r) of a fresh
    size-1 weight table of order 1 - r (:mod:`qfde.l1q`), never a kept one,
    and Gamma_q(x+1) = [x]_q Gamma_q(x) steps from r up or down to alpha.
    """
    _check_q(q)
    if not math.isfinite(alpha):
        raise ValueError(f"q-gamma needs a finite alpha, got alpha={alpha}")
    n = math.floor(alpha)
    if alpha == n:
        if n <= 0:
            raise PoleError(f"q-gamma has a pole at alpha={alpha}")
        return q_factorial(n - 1, q)
    r = alpha - n
    if not 0.0 < 1.0 - r < 1.0:
        raise SingularKernelError(f"q-gamma at alpha={alpha!r} rounds onto its pole at 0")
    from .l1q import weight_table   # l1q imports this module
    gamma = weight_table(q, 1.0 - r, 1).gamma
    gamma *= math.prod(q_bracket(alpha - i, q) for i in range(1, n + 1))
    return gamma / math.prod(q_bracket(alpha + i, q) for i in range(-n))


def _lattice(x: float, q: float):
    """The Jackson lattice x, x q, x q^2, ..., each point q times the last."""
    return accumulate(repeat(q), operator.mul, initial=float(x))


def _lattice_sum(terms, q: float):
    """Sum of one term (float or array) per lattice point, read as needed.

    Every Jackson sum of the package stops here: once three consecutive
    terms (not one: f may vanish at a point) fall below REL_TOL times the
    running sum, or with NonConvergenceError past the budget of q.  The
    first term, which counts toward the three, picks one of two loops.  A
    float (np.float64 is one) starts the float loop: it adds and tests the
    terms as they come, so float terms make no numpy scalar, and it returns
    a Python float.  Anything else starts the array loop: it reads each
    term by np.asarray and tests it entry by entry, so an array sum stops
    once every entry has settled, each on its own value; a 0-d sum is
    returned as a Python float.
    """
    budget = _budget(q)
    terms = islice(terms, budget)
    first = next(terms, None)
    total, small = -0.0, 0    # -0.0 + x is x for every x, -0.0 included
    if isinstance(first, float):
        for term in chain((first,), terms):
            total += term
            if abs(term) < REL_TOL * (abs(total) + _TINY):
                small += 1
                if small == 3:
                    return float(total)
            else:
                small = 0
    else:
        for term in chain((first,), terms):
            term = np.asarray(term, dtype=float)
            total = total + term
            if (abs(term) < REL_TOL * (abs(total) + _TINY)).all():
                small += 1
                if small == 3:
                    return total if total.ndim else float(total)
            else:
                small = 0
    raise NonConvergenceError(
        f"Jackson integral did not settle within {budget} terms at q={q!r}")


def q_integral_zero(f: QFunction, x: float, q: float):
    """Jackson integral over [0, x]: (1-q) * sum_n x q^n f(x q^n), one f call per point.

    A float f(s) stays a Python float; any other value (an array, a list,
    an int) is read by np.asarray as floats.
    """
    _check_q(q)
    if not 0.0 <= x < math.inf:
        raise ValueError(f"q-integral needs a finite x >= 0, got x={x}")
    if x == 0.0:
        return 0.0
    terms = (s * (v if isinstance(v := f(s), float) else np.asarray(v, dtype=float))
             for s in _lattice(x, q))
    return (1.0 - q) * _lattice_sum(terms, q)


def q_integral(f: QFunction, a: float, b: float, q: float):
    """q-integral over (a, b) as the difference of two Jackson integrals."""
    if not 0.0 <= a <= b < math.inf:
        raise ValueError(f"q-integral needs finite 0 <= a <= b, got a={a}, b={b}")
    return q_integral_zero(f, b, q) - q_integral_zero(f, a, q)


def q_derivative(f: QFunction, t: float, q: float):
    """D_q f(t) = (f(qt) - f(t)) / ((q-1) t); at t = 0, the lattice limit.

    The limit is probed along 1, q, q^2, ... until two consecutive
    difference quotients agree to REL_TOL times the largest quotient seen,
    entry by entry for an array f.  The probe fails once a quotient is not
    finite or the point underflows to 0.
    """
    _check_q(q)
    if not 0.0 <= t < math.inf:
        raise ValueError(f"q-derivative needs a finite t >= 0, got t={t}")
    if t > 0.0:
        return (f(q * t) - f(t)) / ((q - 1.0) * t)
    budget = _budget(q)
    f0 = np.asarray(f(0.0), dtype=float)
    point, prev, size = 1.0, None, 0.0
    for _ in range(budget):
        value = np.asarray(f(point), dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):   # refused below
            quot = (value - f0) / point
        if not np.all(np.isfinite(quot)):
            break
        size = np.maximum(size, abs(quot))
        if prev is not None and np.all(abs(quot - prev) <= REL_TOL * size):
            return float(quot) if quot.ndim == 0 else quot
        prev, point = quot, point * q
        if point == 0.0:
            break
    raise NonConvergenceError(
        f"q-derivative limit at t=0 did not settle at q={q!r}: the probe "
        f"stopped at the point {point!r} (last quotient {quot}, budget {budget})")


def _iterated_coefficients(n: int, q: float) -> np.ndarray:
    """Coefficients a_j with D_q^n f(t) = t^(-n) * sum_j a_j f(q^j t), t > 0."""
    a = np.array([1.0 / (1.0 - q), -1.0 / (1.0 - q)])
    for m in range(1, n):
        a = (np.concatenate(([0.0], a)) * q ** (-m)
             - np.concatenate((a, [0.0]))) / (q - 1.0)
    return a


def q_derivative_n(f: QFunction, t: float, q: float, n: int):
    """n-fold q-derivative.

    For t > 0 the exact combination of f at q^j t, j = 0..n, over t^n,
    refused where t^n is subnormal or 0.  At t = 0 only n = 1, the lattice
    limit of :func:`q_derivative`; n >= 2 would nest two limits.
    """
    _check_q(q)
    if n < 1:
        raise ValueError(f"derivative order must be >= 1, got {n}")
    if not 0.0 <= t < math.inf:
        raise ValueError(f"q-derivative needs a finite t >= 0, got t={t}")
    if t == 0.0:
        if n == 1:
            return q_derivative(f, 0.0, q)
        raise ValueError(f"q-derivative of order n={n} >= 2 is not taken at t=0")
    if t ** n < _TINY:    # the least normal double: a subnormal t^n has lost digits
        raise ValueError(f"q-derivative of order n={n} at t={t!r}: t^{n} is subnormal or 0")
    coeff = _iterated_coefficients(n, q)
    total = None
    point = float(t)
    for a_j in coeff:
        term = a_j * np.asarray(f(point), dtype=float)
        total = term if total is None else total + term
        point *= q
    out = total / t ** n
    return float(out) if out.ndim == 0 else out


def q_beta(alpha: float, beta: float, q: float) -> float:
    """B_q(alpha, beta) = int_0^1 t^(alpha-1) (1 - q t)^(beta-1) d_q t.

    The Jackson sum (1-q) sum_n q^(n alpha) (1 - q^(n+1))^(beta-1): its
    first term, (q;q)_inf/(q^beta;q)_inf, is Gamma_q(r) (1-q)^(r-1)
    prod_(i<m) (1 - q^(r+i)) at beta = m + r, 0 < r <= 1, finite where
    Gamma_q(beta) overflows, and term n+1 is term n times
    q^alpha (1 - q^(n+beta))/(1 - q^(n+1)), each 1 - q^x formed by expm1.
    The terms decay like q^(n c), c = min(alpha, 1), so the sum stops at
    the first term within REL_TOL (1 - q^c) of the total, on the budget
    of the scale q^c.  It agrees with
    Gamma_q(alpha) Gamma_q(beta) / Gamma_q(alpha+beta).
    """
    _check_q(q)
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not math.isfinite(value):
            raise ValueError(f"q-beta needs a finite {name}, got {name}={value}")
    if alpha <= 0.0 or beta <= 0.0:
        raise ValueError(f"q-beta needs alpha, beta > 0, got {alpha}, {beta}")
    decay = q ** min(alpha, 1.0)
    budget = _budget(decay)
    band = REL_TOL * (1.0 - decay)
    qa, ln_q = q ** alpha, math.log(q)
    r = beta - (m := math.ceil(beta) - 1)
    term = q_gamma(r, q) * (1.0 - q) ** (r - 1.0)    # n = 0
    term *= math.prod(-math.expm1((r + i) * ln_q) for i in range(m))
    total = 0.0
    for n in range(budget):
        total += term
        if term <= band * total:
            return (1.0 - q) * total
        term *= qa * math.expm1((n + beta) * ln_q) / math.expm1((n + 1) * ln_q)
    raise NonConvergenceError(
        f"q-beta sum did not settle within {budget} terms at q={q!r}")
