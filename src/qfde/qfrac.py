"""Fractional q-integral and fractional q-derivatives (orders 0 < alpha < 1).

All three start at the lower limit 0, the only one the scheme uses (Annaby
& Mansour, *q-Fractional Calculus and Equations*, LNM 2056).  Each is one
sum over the Jackson lattice s_j = t q^j, calling f once per point, whose
kernel (t - q s_j)^(-a) = t^(-a) G(j), D(j) = G(j-1) - G(j) and
Gamma_q(1-a) = G(0) (1-q)^a are read off the kept (q, a) table of
:mod:`qfde.l1q`.  With beta = m + r (0 < r <= 1), Gamma = Gamma_q(1-alpha),

    I^beta f(t)   = t^(beta-1) (1-q)/Gamma_q(beta) sum_j K(j) s_j f(s_j),
    cD^alpha f(t) = t^(-alpha)/Gamma sum_j G(j) (f(s_j) - f(s_(j+1))),
    D^alpha f(t)  = t^(-alpha)/Gamma (G(0) f(t) - sum_(j>=1) D(j) f(s_j)),

with K(j) = G(j) prod_(i<m) (1 - q^(j+r+i)) on the (q, 1-r) table (G = 1
when r = 1), and the (q, alpha) table a solve reads.  Regrouped by point,
D_q I^(1-alpha) f weighs f(s_j), j >= 1, by q^j (G(j) - q^(-alpha) G(j-1)),
which the recurrence of G makes -D(j), so no two integrals are subtracted.
Past T(q) entries G = 1 and D(j) = c q^j, c = q^(-alpha) - 1, to REL_TOL.
"""

from __future__ import annotations

import math
from itertools import chain, pairwise, repeat

from .l1q import _table
from .qcore import QFunction, _check_q, _lattice, _lattice_sum, q_gamma, tail_terms


def frac_q_integral(f: QFunction, alpha: float, t: float, q: float):
    """Riemann-Liouville q-fractional integral of order alpha > 0 at t.

    (1/Gamma_q(alpha)) * int_0^t (t - qs)^(alpha-1) f(s) d_q s.
    f may return a float or an array; the result has its shape.
    """
    if alpha <= 0.0:
        raise ValueError(f"fractional integral needs alpha > 0, got {alpha}")
    _check_q(q)
    if not 0.0 <= t < math.inf:
        raise ValueError(f"fractional integral needs a finite t >= 0, got t={t}")
    if t == 0.0:
        return 0.0
    gamma = q_gamma(alpha, q)    # SingularKernelError once 1 - alpha rounds to 1
    r = alpha - (m := math.ceil(alpha) - 1)    # alpha = m + r, 0 < r <= 1
    G = _table(q, 1.0 - r, T := tail_terms(q)).G[:T].tolist() if r < 1.0 else []
    kernel = chain(G, repeat(1.0))    # G = 1 past T(q) entries, to REL_TOL
    if m:
        kernel = (g * math.prod(1.0 - q ** (j + r + i) for i in range(m))
                  for j, g in enumerate(kernel))
    total = _lattice_sum((s * (k * f(s)) for k, s in zip(kernel, _lattice(t, q))), q)
    return t ** (alpha - 1.0) * ((1.0 - q) * total) / gamma


def caputo_q_derivative(f: QFunction, alpha: float, t: float, q: float):
    """Caputo fractional q-derivative of order 0 < alpha < 1 at t.

    I^(1-alpha) D_q f, that is
    (1/Gamma_q(1-alpha)) * int_0^t (t - qs)^(-alpha) D_q f(s) d_q s.
    Orders alpha <= 0 route to the fractional integral of order -alpha.
    """
    if alpha >= 1.0:
        raise NotImplementedError("orders alpha >= 1 are out of scope")
    _check_q(q)
    if not 0.0 <= t < math.inf:
        raise ValueError(f"Caputo derivative needs a finite t >= 0, got t={t}")
    if alpha == 0.0:
        return f(t)
    if alpha < 0.0:
        return frac_q_integral(f, -alpha, t, q)
    if t == 0.0:
        return 0.0
    table = _table(q, alpha, T := tail_terms(q))
    kernel = chain(table.G[:T].tolist(), repeat(1.0))
    steps = pairwise(map(f, _lattice(t, q)))    # (f(s_j), f(s_(j+1)))
    total = _lattice_sum((g * (a - b) for g, (a, b) in zip(kernel, steps)), q)
    return t ** -alpha * total / table.gamma


def rl_q_derivative(f: QFunction, alpha: float, t: float, q: float):
    """Riemann-Liouville fractional q-derivative of order 0 < alpha < 1 at t.

    D_q I^(1-alpha) f.  Orders alpha <= 0 route to the fractional integral
    of order -alpha.
    """
    if alpha >= 1.0:
        raise NotImplementedError("orders alpha >= 1 are out of scope")
    _check_q(q)
    if not (0.0 < t < math.inf or t == 0.0 and alpha <= 0.0):
        raise ValueError(f"RL derivative needs a finite t > 0 (t >= 0 at "
                         f"orders alpha <= 0), got t={t}")
    if alpha == 0.0:
        return f(t)
    if alpha < 0.0:
        return frac_q_integral(f, -alpha, t, q)
    table = _table(q, alpha, T := tail_terms(q))
    tail = -math.expm1(-alpha * math.log(q)) * q ** T    # -D(j) = -c q^j
    weights = chain(table.G[:1].tolist(), (-table.D[1:T]).tolist(), _lattice(tail, q))
    total = _lattice_sum((w * f(s) for w, s in zip(weights, _lattice(t, q))), q)
    return t ** -alpha * total / table.gamma
