"""Unit tests for the q-calculus primitives."""

import math
import time
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfde import (
    NonConvergenceError,
    PoleError,
    QScale,
    SingularKernelError,
    q_beta,
    q_bracket,
    q_derivative,
    q_derivative_n,
    q_factorial,
    q_gamma,
    q_integral,
    q_integral_zero,
    shifted_factorial_int,
    shifted_factorial_real,
)
from qfde import l1q, qcore, weight_table
from qfde.qcore import tail_terms

from oracles import mp_qgamma, mp_shifted_real


def test_q_bracket_values():
    assert q_bracket(1, 0.5) == 1.0
    assert q_bracket(0, 0.7) == 0.0
    assert q_bracket(2, 0.5) == pytest.approx(1.5, rel=1e-15)
    # formed by expm1, [alpha]_q keeps its digits next to alpha = 0, where
    # 1 - q^alpha loses them (5.2e-3 relative here)
    ref = float((1 - mp.mpf(0.99) ** mp.mpf(1e-12)) / (1 - mp.mpf(0.99)))
    assert q_bracket(1e-12, 0.99) == pytest.approx(ref, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("q", [0.0, 1.0, -0.2, 1.3])
def test_q_bracket_domain(q):
    with pytest.raises(ValueError):
        q_bracket(1.0, q)


def test_q_factorial_values():
    assert q_factorial(0, 0.5) == 1.0
    assert q_factorial(2, 0.5) == pytest.approx(1.5, rel=1e-15)
    assert q_factorial(3, 0.5) == pytest.approx(2.625, rel=1e-15)
    with pytest.raises(ValueError):
        q_factorial(-1, 0.5)


def test_shifted_factorial_int_values():
    assert shifted_factorial_int(1.0, 0.5, 0, 0.5) == 1.0
    assert shifted_factorial_int(1.0, 0.5, 2, 0.5) == pytest.approx(0.375, rel=1e-15)
    assert shifted_factorial_int(2.0, 0.0, 3, 0.3) == pytest.approx(8.0, rel=1e-15)
    with pytest.raises(ValueError):
        shifted_factorial_int(1.0, 0.5, -1, 0.5)


def test_shifted_factorial_real_s_zero_closed_form():
    assert shifted_factorial_real(2.0, 0.0, 0.7, 0.5) == pytest.approx(
        2.0 ** 0.7, rel=1e-13)
    for t, alpha, q in [(0.3, -0.4, 0.6), (1.7, 2.5, 0.3), (5.0, -1.2, 0.8)]:
        assert shifted_factorial_real(t, 0.0, alpha, q) == pytest.approx(
            t ** alpha, rel=1e-13)


def test_shifted_factorial_real_oracle_values():
    # frozen from the 40-digit partial-product oracle
    assert shifted_factorial_real(1.0, 0.5, -0.5, 0.5) == pytest.approx(
        2.223190001301364, rel=1e-12)
    # s = t makes the first factor vanish
    assert shifted_factorial_real(1.0, 1.0, -0.5, 0.5) == 0.0
    live = float(mp_shifted_real(0.9, 0.4, -0.75, 0.7))
    assert shifted_factorial_real(0.9, 0.4, -0.75, 0.7) == pytest.approx(
        live, rel=1e-12)


def test_shifted_factorial_real_integer_routing():
    # integer orders must agree with the finite product exactly
    assert shifted_factorial_real(1.0, 0.5, 2.0, 0.5) == shifted_factorial_int(
        1.0, 0.5, 2, 0.5)
    assert shifted_factorial_real(2.0, 1.0, 0.0, 0.4) == 1.0


def test_shifted_factorial_real_domain(monkeypatch):
    with pytest.raises(ValueError):
        shifted_factorial_real(1.0, 1.5, 0.5, 0.5)   # s > t
    with pytest.raises(ValueError):
        shifted_factorial_real(0.0, 0.0, 0.5, 0.5)   # t <= 0
    with monkeypatch.context() as patch:
        patch.setattr(qcore, "_budget", lambda q: 3)
        with pytest.raises(NonConvergenceError):
            shifted_factorial_real(1.0, 0.9, -0.5, 0.9)
    # alpha = -2 puts q^(alpha+i) through 1 exactly at i=2, so with s = t
    # the denominator t - s vanishes
    with pytest.raises(SingularKernelError):
        shifted_factorial_real(1.0, 1.0, -2.0, 0.5)
    for bad in (math.inf, -math.inf, math.nan):
        for name, args in (("alpha", (1.0, 0.5, bad)), ("t", (bad, 0.5, -0.5)),
                           ("s", (1.0, bad, -0.5))):
            with pytest.raises(ValueError, match=f"finite {name}"):
                shifted_factorial_real(*args, 0.5)
        with pytest.raises(ValueError, match="finite alpha"):
            q_gamma(bad, 0.5)


@settings(max_examples=60, deadline=None)
@given(t=st.floats(0.05, 3.0), j=st.integers(1, 60), q=st.floats(0.15, 0.95),
       alpha=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True).filter(
           lambda a: abs(a) >= 1e-3 and 1.0 + a >= 1e-3))
def test_shifted_factorial_real_matches_oracle_on_lattice(t, j, q, alpha):
    # the lattice arguments s = t q^j of the fractional operators.  At j = 1
    # the factor t - q^alpha s = t (1 - q^(1+alpha)) has its pole at
    # alpha = -1, with condition number about 1/((1+alpha) ln(1/q)); the
    # filter keeps 1 + alpha >= 1e-3, like the one on |alpha|, and the pole
    # itself is pinned below.  Each denominator is formed as
    # (t - q^i s) - q^i s (q^alpha - 1), so the rounding of q^alpha no longer
    # reaches it: at j = 1, 1 + alpha < 5e-3 and q > 0.93, a corner the draws
    # rarely reach, the worst of 300 draws went 3.2e-12 -> 2.1e-13 (pinned
    # below as well)
    s = t * q ** j
    with mp.workdps(40):
        ref = float(mp_shifted_real(t, s, alpha, q))
    assert abs(shifted_factorial_real(t, s, alpha, q) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("t, q, alpha", [(1.45, 0.945, -0.99886), (0.56, 0.948, -0.99886),
                                         (1.21, 0.936, -0.99892)])
def test_shifted_factorial_real_next_to_alpha_minus_one(t, q, alpha):
    # s = t q puts the first denominator at t (1 - q^(1+alpha)); formed from
    # a rounded q^alpha it lost its digits (2.6e-12, 2.6e-12 and 2.2e-12 here)
    s = t * q
    with mp.workdps(40):
        ref = float(mp_shifted_real(t, s, alpha, q))
    assert abs(shifted_factorial_real(t, s, alpha, q) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("q", [0.5, 0.75])
def test_shifted_factorial_real_next_to_the_pole(q):
    # alpha = -1 + 2^-52 with s = t q: condition number about 1e16, so no
    # double algorithm has a digit to offer; a named error or a finite value
    try:
        value = shifted_factorial_real(1.0, q, -1.0 + 2.0 ** -52, q)
    except SingularKernelError:
        return
    assert math.isfinite(value)


def test_q_gamma_values():
    assert q_gamma(1.0, 0.5) == 1.0
    assert q_gamma(3.0, 0.5) == pytest.approx(1.5, rel=1e-15)
    assert q_gamma(0.5, 0.5) == pytest.approx(1.5720327257863239, rel=1e-12)


def test_q_gamma_matches_q_factorial():
    # at the integers q_gamma is q_factorial (checked bit for bit below)
    for q in (0.3, 0.5, 2.0 / 3.0):
        for n in range(1, 7):
            assert q_gamma(n + 1.0, q) == pytest.approx(
                q_factorial(n, q), rel=1e-13)


def test_q_gamma_recurrence_spot():
    rng = np.random.default_rng(11)
    for _ in range(40):
        alpha = rng.uniform(0.1, 5.0)
        q = rng.uniform(0.1, 0.9)
        lhs = q_gamma(alpha + 1.0, q)
        rhs = q_bracket(alpha, q) * q_gamma(alpha, q)
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


GAMMA_GRID = [-3.7, -2.5, -1.3, -0.5, -0.05, 0.05, 0.3, 0.5, 2.0 / 3.0, 0.9, 0.95,
              1.5, 7.0 / 3.0, 2.5, 3.0, 4.2, 7.5, 9.9, 10.0]


@pytest.mark.parametrize("q, xs", [(0.25, GAMMA_GRID), (0.5, GAMMA_GRID),
                                   (2.0 / 3.0, GAMMA_GRID), (0.9, GAMMA_GRID),
                                   (0.99, [-3.7, 0.05, 9.9])],
                         ids=["1/4", "1/2", "2/3", "0.9", "0.99"])
def test_q_gamma_matches_oracle(q, xs):
    # G(0) (1-q)^(1-r) of a fresh table, then the brackets [x]_q formed as
    # expm1(x ln q)/(q - 1): worst 1.1e-15 over the grid at these q (the
    # product it replaced reached 2.4e-15 at q = 1/4 and 2.1e-13 at 0.99).
    # The 40-digit oracle needs about 10,000 factors at q = 0.99, so that
    # row checks three points
    for x in xs:
        ref = mp_qgamma(x, q, terms=12_000)
        assert abs(q_gamma(x, q) - ref) <= 2e-15 * abs(ref), x
    for n in range(1, 11):
        assert q_gamma(float(n), q) == q_factorial(n - 1, q)


def test_q_gamma_keeps_the_tables_of_the_solves(monkeypatch):
    # q_gamma builds its own size-1 table, so no call of it can evict a
    # table that a solve or a lattice operator keeps
    monkeypatch.setattr(l1q, "_tables", {})
    for alpha in (0.3, 0.7, 0.5, 0.9):
        l1q._table(0.9, alpha, 40)
    keys = list(l1q._tables)
    for x in (0.25, -1.6, 3.3, 0.7, 1.0 - 1e-13):
        q_gamma.__wrapped__(x, 0.9)     # past the cache
    assert list(l1q._tables) == keys


def test_q_gamma_next_to_its_pole_at_zero():
    # 1 - r rounds to 1 (or r to 1) within 5.6e-17 of 0, and the table of
    # order 1 - r does not exist; a step down by [x]_q = 0 would divide by 0
    for x in (1e-17, -1e-17):
        with pytest.raises(SingularKernelError, match="pole at 0"):
            q_gamma(x, 0.5)
    # at -1e-16, Gamma_q(r) of r = 1 - 1e-16 is 1 to an ulp, and the step
    # down divides by [x]_q = expm1(x ln q)/(q - 1), which keeps its digits
    assert q_gamma(-1e-16, 0.5) == pytest.approx(float(mp_qgamma(-1e-16, 0.5)), rel=1e-15)


def test_tiny_orders_have_a_weight_table():
    # q^-alpha - 1 rounds to 0 once alpha ln(1/q) < 1.1e-16; formed as
    # expm1(-alpha ln q) it keeps the gaps D positive
    table = weight_table(0.999, 1e-13, 10)
    assert np.all(table.D[1:] > 0.0) and np.all(table.S[1:] > 1.0)
    # Gamma_q(1 - delta) = 1 - delta psi_q(1) + O(delta^2), with
    # psi_q(1) = -ln(1-q) + ln q sum_k q^k/(1 - q^k) (-0.577 at q = 0.999)
    q, delta = 0.999, 1e-13
    psi = -math.log1p(-q) + math.log(q) * math.fsum(
        q ** k / (1.0 - q ** k) for k in range(1, 45_000))
    assert q_gamma(1.0 - delta, q) == pytest.approx(1.0 - delta * psi, rel=1e-15, abs=0.0)


def test_q_gamma_poles():
    for bad in (0.0, -1.0, -2.0):
        with pytest.raises(PoleError):
            q_gamma(bad, 0.5)
    # negative non-integer arguments are fine
    assert q_gamma(-0.5, 0.5) == pytest.approx(float(mp_qgamma(-0.5, 0.5)), rel=1e-11)


def test_q_integral_zero_values():
    assert q_integral_zero(lambda t: 1.0, 1.0, 0.5) == pytest.approx(1.0, rel=1e-13)
    assert q_integral_zero(lambda t: t, 1.0, 0.5) == pytest.approx(2.0 / 3.0, rel=1e-13)
    assert q_integral_zero(lambda t: t * t, 0.0, 0.7) == 0.0
    with pytest.raises(ValueError):
        q_integral_zero(lambda t: t, -1.0, 0.5)


def test_q_integral_values():
    assert q_integral(lambda t: 1.0, 0.7, 0.7, 0.5) == 0.0
    assert q_integral(lambda t: 1.0, 0.5, 1.0, 0.5) == pytest.approx(0.5, rel=1e-13)
    # primitive of t is t^2/(1+q)
    assert q_integral(lambda t: t, 0.25, 1.0, 0.5) == pytest.approx(
        0.625, rel=1e-13)
    with pytest.raises(ValueError):
        q_integral(lambda t: t, 1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        q_integral(lambda t: t, -0.1, 0.5, 0.5)


def test_q_derivative_values():
    assert q_derivative(lambda t: 3.0, 2.0, 0.5) == 0.0
    # D_q t^2 = (1+q) t
    assert q_derivative(lambda t: t * t, 2.0, 0.5) == pytest.approx(3.0, rel=1e-15)
    assert q_derivative(lambda t: t * t, 0.0, 0.5) == pytest.approx(0.0, abs=1e-13)
    assert q_derivative(lambda t: t, 0.0, 0.5) == pytest.approx(1.0, rel=1e-13)
    with pytest.raises(ValueError):
        q_derivative(lambda t: t, -1.0, 0.5)


def test_q_derivative_n_values():
    assert q_derivative_n(lambda t: t, 1.0, 0.5, 2) == pytest.approx(0.0, abs=1e-13)
    assert q_derivative_n(lambda t: t * t, 1.0, 0.5, 2) == pytest.approx(
        1.5, rel=1e-13)
    # nested-quotient reference for t^3: D_q(D_q t^3) = [3]_q [2]_q t
    q = 0.5

    def dq(f, t):
        return (f(q * t) - f(t)) / ((q - 1.0) * t)

    nested = dq(lambda u: dq(lambda v: v ** 3, u), 1.0)
    assert q_derivative_n(lambda t: t ** 3, 1.0, q, 2) == pytest.approx(
        nested, rel=1e-12)
    with pytest.raises(ValueError):
        q_derivative_n(lambda t: t, 1.0, 0.5, 0)


def test_q_derivative_at_zero_settles_each_entry_on_its_own():
    # the probe compares two quotients entry by entry, so the 1e-6 entry
    # does not stop on the scale of the 1e6 entry
    small = lambda s: 1e-6 * (s + s ** 1.5)
    got = q_derivative(lambda s: np.array([1e6 * s, small(s)]), 0.0, 0.5)
    assert got[1] == pytest.approx(q_derivative(small, 0.0, 0.5), rel=1e-12)


def test_q_derivative_at_zero_stops_relative_to_the_quotients():
    # D_q f(0) = 1e-6 exactly; the s^1.5 part's quotients must fall to
    # REL_TOL of 1e-6, not of 1
    got = q_derivative(lambda s: 1e-6 * (s + s ** 1.5), 0.0, 0.5)
    assert got == pytest.approx(1e-6, rel=1e-12, abs=0.0)


def test_q_derivative_at_zero_fails_once_the_probe_cannot_settle():
    calls = []

    def root(s):
        calls.append(s)
        return s ** 0.5

    # the quotients of s^0.5 grow until the probe point underflows to 0
    # (538 probes at q = 1/4); a 0/0 quotient there would warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergenceError, match="point 0.0"):
            q_derivative(root, 0.0, 0.25)
    assert len(calls) <= 600

    def spike(s):
        calls.append(s)
        return math.inf if 0.0 < s < 1e-3 else s ** 0.5

    # an infinite quotient is never taken for a settled one
    calls.clear()
    with pytest.raises(NonConvergenceError, match="last quotient inf"):
        q_derivative(spike, 0.0, 0.25)
    assert len(calls) <= 10


def test_q_derivative_n_at_zero():
    # n = 1 at the origin is the lattice limit of q_derivative
    assert q_derivative_n(lambda t: t * t + t, 0.0, 0.5, 1) == pytest.approx(
        1.0, rel=1e-13)
    # n >= 2 would nest two limits, and that of s^3 + s^2 (exact value
    # 1 + q) never settles; it is refused by name before f is called
    calls = []
    with pytest.raises(ValueError, match="order n=2 >= 2 is not taken at t=0"):
        q_derivative_n(lambda s: calls.append(s) or s ** 3 + s * s, 0.0, 0.5, 2)
    assert calls == []


def test_q_derivative_n_refuses_a_t_whose_power_underflows():
    # t^2 = 1e-340 underflows to 0, and t^2 = 1e-320 is subnormal: the
    # closed form would divide by it (s gave 7.9e143, not 0, at t = 1e-160)
    for t in (1e-170, 1e-160):
        calls = []
        with pytest.raises(ValueError, match=r"t\^2 is subnormal or 0"):
            q_derivative_n(lambda s: calls.append(s) or s * s, t, 0.25, 2)
        assert calls == []


def test_limit_and_series_non_convergence(monkeypatch):
    wobble = lambda t: t * math.sin(1.0 / t) if t > 0.0 else 0.0
    monkeypatch.setattr(qcore, "_budget", lambda q: 50)
    with pytest.raises(NonConvergenceError):
        q_derivative(wobble, 0.0, 0.5)
    monkeypatch.setattr(qcore, "_budget", lambda q: 10)
    with pytest.raises(NonConvergenceError):
        q_integral_zero(lambda t: 1.0, 1.0, 0.5)


def test_q_beta_gamma_identity():
    # the last two used to fail: a bare OverflowError from t^(alpha-1) at
    # tiny lattice points, and a budget of 10,000 terms where the sum
    # needs T(q)/alpha = 16,040
    cases = [(alpha, beta, q) for q in (0.3, 0.5, 0.8)
             for alpha in (0.5, 1.0, 1.5, 2.5) for beta in (0.5, 1.0, 1.5, 2.5)]
    for alpha, beta, q in cases + [(0.01, 0.5, 0.5), (0.2, 1.0, 0.99)]:
        lhs = q_beta(alpha, beta, q)
        rhs = q_gamma(alpha, q) * q_gamma(beta, q) / q_gamma(alpha + beta, q)
        assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


@pytest.mark.parametrize("q, beta", [(0.999, 103.5), (0.999, 110.0), (0.99, 170.0),
                                     (0.5, 1100.0)])
def test_q_beta_at_large_beta(q, beta):
    # B_q(1, beta) = 1/[beta]_q.  A first term formed as
    # Gamma_q(beta) (1-q)^(beta-1) lost digits to a subnormal factor at
    # (0.999, 103.5), read 0.0 at (0.999, 110) and (0.99, 170), and
    # overflowed at (0.5, 1100); worst measured now 7e-14
    assert q_beta(1.0, beta, q) == pytest.approx(1.0 / q_bracket(beta, q), rel=2e-13)


def test_q_beta_refuses_beta_rounding_onto_the_pole():
    with pytest.raises(SingularKernelError, match="pole"):
        q_beta(1.0, 1e-17, 0.5)


def test_q_beta_rejects_non_finite_orders():
    # inf used to return 1.1116 and nan to run 10,000 terms into
    # NonConvergenceError
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite alpha"):
            q_beta(bad, 0.5, 0.5)
        with pytest.raises(ValueError, match="finite beta"):
            q_beta(0.5, bad, 0.5)


def test_integration_by_parts_both_forms():
    # for polynomial pairs: int_a^b g D_qf = (fg)(b)-(fg)(a) - int_a^b f(qt) D_qg
    # and the twin with the roles of the q-shift swapped
    rng = np.random.default_rng(3)
    for q in (0.4, 0.7):
        for _ in range(4):
            cf = rng.uniform(-1, 1, 5)
            cg = rng.uniform(-1, 1, 5)
            f = lambda t, c=cf: sum(ci * t ** i for i, ci in enumerate(c))
            g = lambda t, c=cg: sum(ci * t ** i for i, ci in enumerate(c))
            dqf = lambda t: q_derivative(f, t, q)
            dqg = lambda t: q_derivative(g, t, q)
            a, b = 0.3, 0.9
            boundary = f(b) * g(b) - f(a) * g(a)
            lhs1 = q_integral(lambda t: g(t) * dqf(t), a, b, q)
            rhs1 = boundary - q_integral(lambda t: f(q * t) * dqg(t), a, b, q)
            assert abs(lhs1 - rhs1) <= 1e-8 * (1.0 + abs(rhs1))
            lhs2 = q_integral(lambda t: g(q * t) * dqf(t), a, b, q)
            rhs2 = boundary - q_integral(lambda t: f(t) * dqg(t), a, b, q)
            assert abs(lhs2 - rhs2) <= 1e-8 * (1.0 + abs(rhs2))


def test_product_rule():
    rng = np.random.default_rng(5)
    f = lambda t: t ** 3 - 2.0 * t
    g = lambda t: t * t + 0.5
    for q in (0.3, 0.6, 0.9):
        for t in rng.uniform(0.05, 2.0, 10):
            lhs = q_derivative(lambda u: f(u) * g(u), t, q)
            rhs = g(t) * q_derivative(f, t, q) + f(q * t) * q_derivative(g, t, q)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


@settings(max_examples=50, deadline=None)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3), t=st.floats(0.01, 2.0),
       q=st.floats(0.15, 0.9))
def test_q_derivative_linearity(a, b, t, q):
    f = lambda u: u * u
    g = lambda u: u ** 3 - u
    lhs = q_derivative(lambda u: a * f(u) + b * g(u), t, q)
    rhs = a * q_derivative(f, t, q) + b * q_derivative(g, t, q)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


@settings(max_examples=50, deadline=None)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3), x=st.floats(0.0, 2.0),
       q=st.floats(0.15, 0.9))
def test_q_integral_linearity(a, b, x, q):
    f = lambda u: u * u
    g = lambda u: 1.0 - u
    lhs = q_integral_zero(lambda u: a * f(u) + b * g(u), x, q)
    rhs = a * q_integral_zero(f, x, q) + b * q_integral_zero(g, x, q)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


@settings(max_examples=50, deadline=None)
@given(data=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       q=st.floats(0.15, 0.9))
def test_q_integral_additivity(data, q):
    a, c, b = sorted(data)
    f = lambda u: u * u - 0.3 * u
    whole = q_integral(f, a, b, q)
    split = q_integral(f, a, c, q) + q_integral(f, c, b, q)
    assert abs(whole - split) <= 1e-12 * (1.0 + abs(whole))


def test_q_integral_modulus_bound():
    rng = np.random.default_rng(9)
    for q in (0.3, 0.6, 0.85):
        for _ in range(5):
            c = rng.uniform(-2, 2, 4)
            f = lambda t, c=c: sum(ci * t ** i for i, ci in enumerate(c)) - 0.5
            lhs = abs(q_integral_zero(f, 1.0, q))
            rhs = q_integral_zero(lambda t: abs(f(t)), 1.0, q)
            assert lhs <= rhs * (1.0 + 1e-12)


def test_validation_types():
    with pytest.raises(ValueError):
        QScale(q=1.2)
    with pytest.raises(ValueError):
        QScale(q=0.5, b=0.0)


@pytest.mark.parametrize("b", [math.inf, math.nan])
def test_horizon_must_be_finite(b):
    # an infinite horizon would give a mesh of inf and NaN nodes
    with pytest.raises(ValueError, match="horizon b must be positive and finite"):
        QScale(q=0.5, b=b)


@pytest.mark.parametrize("q", [0.999, 0.9999])
def test_q_gamma_near_one(q):
    # the table of the fractional part runs T(q) = 32,221 and 322,346
    # entries here, past the 10,000 floor of the budget; the tolerance
    # allows T(q) eps
    tol = tail_terms(q) * np.finfo(float).eps
    for n in (1, 2, 5):
        assert q_gamma(n + 1.0, q) == pytest.approx(q_factorial(n, q), rel=tol)
    for x in (0.5, 1.3, 2.25):
        assert q_gamma(x + 1.0, q) == pytest.approx(
            q_bracket(x, q) * q_gamma(x, q), rel=tol)


def test_q_past_the_tail_limit_is_refused_at_once():
    q = 1.0 - 1e-6      # T(q) = 32,236,176 terms, over MAX_TAIL
    start = time.perf_counter()
    for call in (lambda: tail_terms(q), lambda: q_gamma(0.5, q),
                 lambda: shifted_factorial_real(1.0, 0.5, -0.5, q),
                 lambda: q_integral_zero(lambda t: 1.0, 1.0, q),
                 lambda: q_derivative(lambda t: t, 0.0, q)):
        with pytest.raises(NonConvergenceError, match=r"q=0\.99999.* over the limit"):
            call()
    assert time.perf_counter() - start < 0.1
