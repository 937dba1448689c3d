"""q-calculus primitives on geometric time scales.

Everything is parameterized by a scale index 0 < q < 1.  The module
provides the q-bracket and q-factorial, the q-shifted factorial
(t - s)^(a) (finite product for integer a >= 0, truncated infinite
product ratio otherwise), the q-gamma and q-beta functions, Jackson's
q-integral and the q-derivative with its iterated closed form.

All values are plain doubles.  Truncation of the infinite sums and
products is governed by :class:`SeriesControl`; the operations are pure
functions and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"scale index q must be in (0, 1), got {self.q}")
        if not self.b > 0.0:
            raise ValueError(f"horizon b must be positive, got {self.b}")


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for the infinite series and products."""

    rel_tol: float = 1e-14
    max_terms: int = 10_000

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError(f"rel_tol must be in (0, 1), got {self.rel_tol}")
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms}")


DEFAULT_CONTROL = SeriesControl()

_TINY = np.finfo(float).tiny


def _check_q(q: float) -> None:
    if not 0.0 < q < 1.0:
        raise ValueError(f"scale index q must be in (0, 1), got {q}")


def q_bracket(alpha: float, q: float) -> float:
    """[alpha]_q = (1 - q^alpha)/(1 - q)."""
    _check_q(q)
    return (1.0 - q ** alpha) / (1.0 - q)


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


def shifted_factorial_real(t: float, s: float, alpha: float, q: float,
                           ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """(t - s)^(alpha) for real alpha, 0 <= s <= t, t > 0.

    Nonnegative integer alpha routes to the exact finite product; other
    orders (including the negative ones used by the fractional kernels)
    use the truncated product

        t^alpha * prod_{i>=0} (t - q^i s)/(t - q^(alpha+i) s),

    stopped at the first factor within rel_tol*(1-q) of 1.  Factors
    approach 1 geometrically at rate q, so the dropped tail contributes a
    relative error of order rel_tol.
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
    band = ctl.rel_tol * (1.0 - q)
    prod = 1.0
    qi = 1.0            # q^i
    qai = q ** alpha    # q^(alpha+i)
    for _ in range(ctl.max_terms):
        den = t - qai * s
        if den == 0.0:
            raise SingularKernelError(
                f"(t-s)^(alpha) product factor denominator vanished "
                f"(t={t!r}, s={s!r}, alpha={alpha!r}, q={q!r})")
        factor = (t - qi * s) / den
        prod *= factor
        if -band < factor - 1.0 < band:
            return t ** alpha * prod
        qi *= q
        qai *= q
    raise NonConvergenceError(
        f"shifted factorial product did not settle within {ctl.max_terms} factors")


def q_gamma(alpha: float, q: float, ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """q-gamma function, Gamma_q(alpha) = (1 - q)^(alpha-1) * (1 - q)^(1-alpha).

    The first factor is the q-shifted factorial (t - s)^(alpha-1) read with
    t = 1, s = q, i.e. (q; q)_inf / (q^alpha; q)_inf; the second is an
    ordinary power.  This reading makes Gamma_q(n+1) = [n]_q! hold exactly
    for integer n (checked in tests).
    """
    _check_q(q)
    if not math.isfinite(alpha):
        raise ValueError(f"q-gamma needs a finite alpha, got alpha={alpha}")
    if alpha == math.floor(alpha) and alpha <= 0.0:
        raise PoleError(f"q-gamma has a pole at alpha={alpha}")
    return shifted_factorial_real(1.0, q, alpha - 1.0, q, ctl) * (1.0 - q) ** (1.0 - alpha)


def q_integral_zero(f: QFunction, x: float, q: float,
                    ctl: SeriesControl = DEFAULT_CONTROL):
    """Jackson integral over [0, x]: (1-q) * sum_n x q^n f(x q^n).

    Stops once three consecutive terms fall below rel_tol times the
    running sum (guarding against f vanishing at isolated lattice
    points).
    """
    _check_q(q)
    if x < 0.0:
        raise ValueError(f"q-integral needs x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    total = None
    point = float(x)
    small = 0
    for _ in range(ctl.max_terms):
        term = point * np.asarray(f(point), dtype=float)
        total = term if total is None else total + term
        if float(np.max(np.abs(term))) < ctl.rel_tol * (float(np.max(np.abs(total))) + _TINY):
            small += 1
            if small == 3:
                out = (1.0 - q) * total
                return float(out) if out.ndim == 0 else out
        else:
            small = 0
        point *= q
    raise NonConvergenceError(
        f"Jackson integral did not settle within {ctl.max_terms} terms")


def q_integral(f: QFunction, a: float, b: float, q: float,
               ctl: SeriesControl = DEFAULT_CONTROL):
    """q-integral over (a, b) as the difference of two Jackson integrals."""
    if a < 0.0 or a > b:
        raise ValueError(f"q-integral needs 0 <= a <= b, got a={a}, b={b}")
    return q_integral_zero(f, b, q, ctl) - q_integral_zero(f, a, q, ctl)


def q_derivative(f: QFunction, t: float, q: float,
                 ctl: SeriesControl = DEFAULT_CONTROL):
    """D_q f(t) = (f(qt) - f(t)) / ((q-1) t); at t = 0, the lattice limit.

    The limit is probed along 1, q, q^2, ... until two consecutive
    difference quotients agree to rel_tol.
    """
    _check_q(q)
    if t < 0.0:
        raise ValueError(f"q-derivative needs t >= 0, got {t}")
    if t > 0.0:
        return (f(q * t) - f(t)) / ((q - 1.0) * t)
    f0 = np.asarray(f(0.0), dtype=float)
    point = 1.0
    prev = None
    for _ in range(ctl.max_terms):
        quot = (np.asarray(f(point), dtype=float) - f0) / point
        if prev is not None:
            gap = float(np.max(np.abs(quot - prev)))
            if gap < ctl.rel_tol * (1.0 + float(np.max(np.abs(quot)))):
                return float(quot) if quot.ndim == 0 else quot
        prev = quot
        point *= q
    raise NonConvergenceError(
        f"q-derivative limit at t=0 did not settle within {ctl.max_terms} probes")


def _iterated_coefficients(n: int, q: float) -> np.ndarray:
    """Coefficients a_j with D_q^n f(t) = t^(-n) * sum_j a_j f(q^j t), t > 0."""
    a = np.array([1.0 / (1.0 - q), -1.0 / (1.0 - q)])
    for m in range(1, n):
        a = (np.concatenate(([0.0], a)) * q ** (-m)
             - np.concatenate((a, [0.0]))) / (q - 1.0)
    return a


def q_derivative_n(f: QFunction, t: float, q: float, n: int,
                   ctl: SeriesControl = DEFAULT_CONTROL):
    """n-fold q-derivative.

    For t > 0 this is the exact finite combination of f at q^j t,
    j = 0..n (never nested limits); at t = 0 it falls back to the limit
    of the (n-1)-fold derivative along the lattice.
    """
    _check_q(q)
    if n < 1:
        raise ValueError(f"derivative order must be >= 1, got {n}")
    if t < 0.0:
        raise ValueError(f"q-derivative needs t >= 0, got {t}")
    if t == 0.0:
        if n == 1:
            return q_derivative(f, 0.0, q, ctl)
        inner = lambda u: q_derivative_n(f, u, q, n - 1, ctl)
        return q_derivative(inner, 0.0, q, ctl)
    coeff = _iterated_coefficients(n, q)
    total = None
    point = float(t)
    for a_j in coeff:
        term = a_j * np.asarray(f(point), dtype=float)
        total = term if total is None else total + term
        point *= q
    out = total / t ** n
    return float(out) if out.ndim == 0 else out


def q_beta(alpha: float, beta: float, q: float,
           ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """B_q(alpha, beta) = int_0^1 t^(alpha-1) (1 - q t)^(beta-1) d_q t.

    Thin convenience over the q-integral and the shifted factorial; it
    agrees with Gamma_q(alpha) Gamma_q(beta) / Gamma_q(alpha+beta).
    """
    if alpha <= 0.0 or beta <= 0.0:
        raise ValueError(f"q-beta needs alpha, beta > 0, got {alpha}, {beta}")

    def integrand(u: float) -> float:
        return u ** (alpha - 1.0) * shifted_factorial_real(1.0, q * u, beta - 1.0, q, ctl)

    return q_integral_zero(integrand, 1.0, q, ctl)
