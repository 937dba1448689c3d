"""Extended-precision reference implementations (mpmath) for the tests.

Deliberately independent of the package: plain partial products and
brute-force Jackson summation at 40 significant digits, no shared code
paths.  Only tests import this module.
"""

import mpmath as mp

mp.mp.dps = 40


def _stop():
    """Cut for series and products: q^i below the working precision.

    A fixed cut would leave a relative error of its size in differences
    such as t^a - (t - s)^(a), however small s is, so it follows
    ``mp.workdps``.
    """
    return mp.mpf(10) ** -(mp.mp.dps + 2)


def mp_shifted_real(t, s, alpha, q, terms=3000):
    """(t - s)^(alpha) by straight partial products."""
    t, s, alpha, q = map(mp.mpf, (t, s, alpha, q))
    prod, stop = mp.mpf(1), _stop()
    for i in range(terms):
        prod *= (t - q ** i * s) / (t - q ** (alpha + i) * s)
        if q ** i < stop:
            break
    return t ** alpha * prod


def mp_qgamma(alpha, q, terms=3000):
    alpha, q = mp.mpf(alpha), mp.mpf(q)
    prod, stop = mp.mpf(1), _stop()
    for i in range(terms):
        prod *= (1 - q ** (i + 1)) / (1 - q ** (alpha + i))
        if q ** i < stop:
            break
    return prod * (1 - q) ** (1 - alpha)


def mp_jackson0(f, x, q, terms=3000):
    """Brute-force Jackson integral over [0, x]."""
    x, q = mp.mpf(x), mp.mpf(q)
    if x == 0:
        return mp.mpf(0)
    total, stop = mp.mpf(0), _stop()
    for n in range(terms):
        point = x * q ** n
        total += point * f(point)
        if q ** n < stop:
            break
    return (1 - q) * total


def mp_frac_integral(f, alpha, t, q):
    """Fractional q-integral of order alpha at t via brute-force summation."""
    t, q, alpha = mp.mpf(t), mp.mpf(q), mp.mpf(alpha)
    kern = lambda s: mp_shifted_real(t, q * s, alpha - 1, q, terms=600) * f(s)
    return mp_jackson0(kern, t, q) / mp_qgamma(alpha, q)


def mp_caputo(f, alpha, t, q):
    """Caputo fractional q-derivative at t via brute-force summation."""
    t, q, alpha = mp.mpf(t), mp.mpf(q), mp.mpf(alpha)

    def dqf(s):
        return (f(q * s) - f(s)) / ((q - 1) * s)

    kern = lambda s: mp_shifted_real(t, q * s, -alpha, q, terms=600) * dqf(s)
    return mp_jackson0(kern, t, q) / mp_qgamma(1 - alpha, q)


def mp_b1(t_n, t_1, alpha, q, terms=3000):
    """First difference weight by brute-force series."""
    t_n, t_1, alpha, q = map(mp.mpf, (t_n, t_1, alpha, q))
    total, stop = mp.mpf(0), _stop()
    for i in range(terms):
        total += q ** i * mp_shifted_real(t_n, q ** (i + 1) * t_1, -alpha, q, terms=600)
        if q ** i < stop:
            break
    return (1 - q) * total


def mp_b1_telescoped(t_n, t_1, alpha, q):
    """First difference weight from the telescoped Jackson integral.

    D_{q,s} (t - s)^(1-alpha) = -[1-alpha]_q (t - qs)^(-alpha) turns the
    series of :func:`mp_b1` into
        (t_n^(1-alpha) - (t_n - t_1)^(1-alpha)) / ([1-alpha]_q t_1),
    one q-shifted power instead of one per series term.
    """
    t_n, t_1, alpha, q = map(mp.mpf, (t_n, t_1, alpha, q))
    bracket = (1 - q ** (1 - alpha)) / (1 - q)
    return ((t_n ** (1 - alpha) - mp_shifted_real(t_n, t_1, 1 - alpha, q))
            / (bracket * t_1))


def mp_closed_b1(t_n, t_1, alpha, q):
    """(t_n - q t_1)^(-alpha): the k >= 2 closed form applied to k = 1.

    Not the first weight of the scheme -- the closed form needs
    t_{k-1} = q t_k, and t_0 = 0 differs from q t_1 -- but the weight
    that the recorded table for ``example1`` was computed with.
    """
    return mp_shifted_real(t_n, mp.mpf(q) * t_1, -alpha, q)


def _l1q_step(t, xs, n, alpha, q, b1):
    """The known part and the lead weight of step n of the L1,q scheme.

    Step n reads  b_n x^n = known + Gamma_q(1-alpha) f(t_n, x^n)  with
    known = b_1 x^0 + sum_{k<n} (b_{k+1} - b_k) x^k, b_k = (t_n - q t_k)^(-alpha)
    for k >= 2 and b_1 from ``b1(t_n, t_1, alpha, q)``.
    """
    w = [b1(t[n], t[1], alpha, q)]
    w += [mp_shifted_real(t[n], q * t[k], -alpha, q) for k in range(2, n + 1)]
    known = w[0] * xs[0] + sum((w[k] - w[k - 1]) * xs[k] for k in range(1, n))
    return known, w[-1]


def mp_l1q_march(q, alpha, N, f, x0, perturbation, b1=mp_b1_telescoped):
    """March the implicit L1,q scheme on t_k = q^(N-k) at 40 digits.

    Each step solves
        b_n x^n = b_1 x^0 + sum_{k<n} (b_{k+1} - b_k) x^k
                  + Gamma_q(1-alpha) f(t_n, x^n)
    for scalar x, with b_k = (t_n - q t_k)^(-alpha) for k >= 2 and b_1
    from ``b1(t_n, t_1, alpha, q)``.  The Picard iteration starts from
    x^{n-1} (1 + perturbation) + perturbation, just above the previous
    state, and runs until an update moves x by at most 1e-35 (1 + |x|).
    ``f(t, x)`` takes and returns mpf.  Returns the nodes [t_0, ..., t_N]
    and the states [x^0, ..., x^N].
    """
    q, alpha = mp.mpf(q), mp.mpf(alpha)
    pert = mp.mpf(perturbation)
    t = [mp.mpf(0)] + [q ** (N - k) for k in range(1, N + 1)]
    gamma = mp_qgamma(1 - alpha, q)
    tol = mp.mpf(10) ** -35
    xs = [mp.mpf(x0)]
    for n in range(1, N + 1):
        known, lead = _l1q_step(t, xs, n, alpha, q, b1)
        x = xs[-1] * (1 + pert) + pert
        for _ in range(2000):
            x_new = (known + gamma * f(t[n], x)) / lead
            done = abs(x_new - x) <= tol * (1 + abs(x_new))
            x = x_new
            if done:
                break
        else:
            raise ArithmeticError(f"Picard iteration stalled at step n={n}")
        xs.append(x)
    return t, xs


def mp_l1q_residuals(q, alpha, f, states, b1=mp_b1_telescoped):
    """How far given states are from solving each step of the scheme.

    For states x^0 .. x^N on t_k = q^(N-k) (scalars, taken as exact),
    returns |x^n - (known + Gamma_q(1-alpha) f(t_n, x^n)) / b_n| for
    n = 1 .. N, with the weights of :func:`mp_l1q_march`.  Unlike the
    march, this needs no iteration, so it checks a step whose map does
    not contract.
    """
    q, alpha = mp.mpf(q), mp.mpf(alpha)
    xs = [mp.mpf(x) for x in states]
    N = len(xs) - 1
    t = [mp.mpf(0)] + [q ** (N - k) for k in range(1, N + 1)]
    gamma = mp_qgamma(1 - alpha, q)
    residuals = []
    for n in range(1, N + 1):
        known, lead = _l1q_step(t, xs, n, alpha, q, b1)
        residuals.append(abs(xs[n] - (known + gamma * f(t[n], xs[n])) / lead))
    return residuals
