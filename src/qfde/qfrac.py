"""Fractional q-integral and fractional q-derivatives (orders 0 < alpha < 1).

All three operators start at the lower limit 0, the only one the
difference scheme uses.  The fractional integral is the Jackson
quadrature from :mod:`qfde.qcore` of the kernel (t - qs)^(alpha-1),
sampled exactly at the lattice points s = t q^j, never through
interpolation.  For 0 < alpha < 1 the kernel there is t^(alpha-1) G(j),
with G the q-Pochhammer ratio of the kept (q, 1-alpha) weight table of
:mod:`qfde.l1q`; higher orders take the shifted factorial.  Both
derivatives are built from the integral (Annaby & Mansour,
*q-Fractional Calculus and Equations*, LNM 2056, 2012): the Caputo
derivative is I^(1-alpha) D_q f and the Riemann-Liouville derivative is
D_q I^(1-alpha) f.  The Caputo derivative of order alpha reads the
(q, alpha) table that a solve reads, not one keyed on 1 - (1 - alpha),
which rounds away from alpha for 29% of alpha in [0.05, 0.95].
"""

from __future__ import annotations

from .l1q import _table
from .qcore import (QFunction, _check_q, q_derivative, q_gamma,
                    q_integral_zero, shifted_factorial_real, tail_terms)


def frac_q_integral(f: QFunction, alpha: float, t: float, q: float):
    """Riemann-Liouville q-fractional integral of order alpha > 0 at t.

    (1/Gamma_q(alpha)) * int_0^t (t - qs)^(alpha-1) f(s) d_q s.
    f may return a float or an array; the result has its shape.
    """
    if alpha <= 0.0:
        raise ValueError(f"fractional integral needs alpha > 0, got {alpha}")
    if t < 0.0:
        raise ValueError(f"fractional integral needs t >= 0, got {t}")
    return _integral(f, alpha, 1.0 - alpha, t, q)


def _integral(f: QFunction, alpha: float, order: float, t: float, q: float):
    """frac_q_integral past its checks; order = 1 - alpha keys the kernel table."""
    if t == 0.0:
        return 0.0
    if 0.0 < order < 1.0:   # order rounds to 1 for alpha below 1.1e-16
        # The Jackson loop samples s = t q^j in order j = 0, 1, ...: the
        # kernel there is t^(alpha-1) G(j), and G(j) = 1 to REL_TOL past T(q).
        _check_q(q)
        kernel = iter(_table(q, order, tail_terms(q)).G.tolist())
        total = q_integral_zero(lambda s: next(kernel, 1.0) * f(s), t, q)
        return t ** (alpha - 1.0) * total / q_gamma(alpha, q)

    def integrand(s: float):
        return shifted_factorial_real(t, q * s, alpha - 1.0, q) * f(s)

    return q_integral_zero(integrand, t, q) / q_gamma(alpha, q)


def caputo_q_derivative(f: QFunction, alpha: float, t: float, q: float):
    """Caputo fractional q-derivative of order 0 < alpha < 1 at t.

    I^(1-alpha) D_q f, that is
    (1/Gamma_q(1-alpha)) * int_0^t (t - qs)^(-alpha) D_q f(s) d_q s.
    Orders alpha <= 0 route to the fractional integral of order -alpha.
    """
    if alpha >= 1.0:
        raise NotImplementedError("orders alpha >= 1 are out of scope")
    if alpha == 0.0:
        return f(t)
    if alpha < 0.0:
        return frac_q_integral(f, -alpha, t, q)
    if t < 0.0:
        raise ValueError(f"Caputo derivative needs t >= 0, got {t}")
    return _integral(lambda s: q_derivative(f, s, q), 1.0 - alpha, alpha, t, q)


def rl_q_derivative(f: QFunction, alpha: float, t: float, q: float):
    """Riemann-Liouville fractional q-derivative of order 0 < alpha < 1 at t.

    D_q I^(1-alpha) f, the q-derivative (a difference quotient at t > 0)
    of the order 1-alpha fractional integral of f.  Orders alpha <= 0
    route to the fractional integral of order -alpha.
    """
    if alpha >= 1.0:
        raise NotImplementedError("orders alpha >= 1 are out of scope")
    if alpha == 0.0:
        return f(t)
    if alpha < 0.0:
        return frac_q_integral(f, -alpha, t, q)
    if t <= 0.0:
        raise ValueError(f"RL derivative needs t > 0, got {t}")
    return q_derivative(lambda u: frac_q_integral(f, 1.0 - alpha, u, q), t, q)
