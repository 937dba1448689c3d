"""Fractional q-integral and fractional q-derivatives (orders 0 < alpha < 1).

All three operators start at the lower limit 0, the only one the
difference scheme uses.  The fractional integral is the Jackson
quadrature from :mod:`qfde.qcore` of the kernel (t - qs)^(alpha-1),
sampled exactly at the lattice points s = t q^n through the shifted
factorial, never through interpolation.  Both derivatives are built from
it (Annaby & Mansour, *q-Fractional Calculus and Equations*, LNM 2056,
2012): the Caputo derivative is I^(1-alpha) D_q f and the
Riemann-Liouville derivative is D_q I^(1-alpha) f.
"""

from __future__ import annotations

from .qcore import (QFunction, q_derivative, q_gamma, q_integral_zero,
                    shifted_factorial_real)


def frac_q_integral(f: QFunction, alpha: float, t: float, q: float):
    """Riemann-Liouville q-fractional integral of order alpha > 0 at t.

    (1/Gamma_q(alpha)) * int_0^t (t - qs)^(alpha-1) f(s) d_q s.
    """
    if alpha <= 0.0:
        raise ValueError(f"fractional integral needs alpha > 0, got {alpha}")
    if t < 0.0:
        raise ValueError(f"fractional integral needs t >= 0, got {t}")
    if t == 0.0:
        return 0.0

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
    return frac_q_integral(lambda s: q_derivative(f, s, q), 1.0 - alpha, t, q)


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
