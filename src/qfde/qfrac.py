"""Fractional q-integral and fractional q-derivatives (orders 0 < alpha < 1).

Built on the Jackson quadrature from :mod:`qfde.qcore`: the outer
q-integral samples the kernel (t - qs)^(-alpha) exactly at the lattice
points s = t q^n through the shifted factorial, never through
interpolation.  Only the lower limit a = 0 is supported; that is the
only case the difference scheme uses.
"""

from __future__ import annotations

from .qcore import (QFunction, q_derivative, q_gamma, q_integral_zero,
                    shifted_factorial_real)


def _require_zero_lower_limit(a: float) -> None:
    if a != 0.0:
        raise NotImplementedError(
            "fractional q-operators with lower limit a > 0 are not supported")


def frac_q_integral(f: QFunction, alpha: float, t: float, q: float, a: float = 0.0):
    """Riemann-Liouville q-fractional integral of order alpha > 0 at t.

    (1/Gamma_q(alpha)) * int_0^t (t - qs)^(alpha-1) f(s) d_q s.
    """
    _require_zero_lower_limit(a)
    if alpha <= 0.0:
        raise ValueError(f"fractional integral needs alpha > 0, got {alpha}")
    if t < 0.0:
        raise ValueError(f"fractional integral needs t >= 0, got {t}")
    if t == 0.0:
        return 0.0

    def integrand(s: float):
        return shifted_factorial_real(t, q * s, alpha - 1.0, q) * f(s)

    return q_integral_zero(integrand, t, q) / q_gamma(alpha, q)


def caputo_q_derivative(f: QFunction, alpha: float, t: float, q: float,
                        a: float = 0.0):
    """Caputo fractional q-derivative of order 0 < alpha < 1 at t.

    (1/Gamma_q(1-alpha)) * int_0^t (t - qs)^(-alpha) D_q f(s) d_q s.
    Orders alpha <= 0 route to the fractional integral of order -alpha.
    """
    _require_zero_lower_limit(a)
    if alpha >= 1.0:
        raise NotImplementedError("orders alpha >= 1 are out of scope")
    if alpha == 0.0:
        return f(t)
    if alpha < 0.0:
        return frac_q_integral(f, -alpha, t, q)
    if t < 0.0:
        raise ValueError(f"Caputo derivative needs t >= 0, got {t}")
    if t == 0.0:
        return 0.0

    def integrand(s: float):
        return shifted_factorial_real(t, q * s, -alpha, q) * q_derivative(f, s, q)

    return q_integral_zero(integrand, t, q) / q_gamma(1.0 - alpha, q)


def rl_q_derivative(f: QFunction, alpha: float, t: float, q: float, a: float = 0.0):
    """Riemann-Liouville fractional q-derivative of order 0 < alpha < 1 at t.

    D_q applied (by the difference quotient at t > 0) to the order
    1-alpha fractional integral of f.  Orders alpha <= 0 route to the
    fractional integral of order -alpha.
    """
    _require_zero_lower_limit(a)
    if alpha >= 1.0:
        raise NotImplementedError("orders alpha >= 1 are out of scope")
    if alpha == 0.0:
        return f(t)
    if alpha < 0.0:
        return frac_q_integral(f, -alpha, t, q)
    if t <= 0.0:
        raise ValueError(f"RL derivative needs t > 0, got {t}")
    upper = frac_q_integral(f, 1.0 - alpha, t, q)
    lower = frac_q_integral(f, 1.0 - alpha, q * t, q)
    return (lower - upper) / ((q - 1.0) * t)
