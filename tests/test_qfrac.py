"""Unit tests for the fractional q-operators."""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from qfde import (
    NonConvergenceError,
    QScale,
    SingularKernelError,
    build_mesh,
    caputo_q_derivative,
    frac_q_integral,
    l1q,
    make_problem,
    q_derivative,
    q_derivative_n,
    q_gamma,
    q_integral_zero,
    qcore,
    rl_q_derivative,
    solve_ivp,
)
from qfde.qcore import REL_TOL, tail_terms

from oracles import mp_caputo, mp_frac_integral, mp_qgamma


def test_frac_integral_values():
    assert frac_q_integral(lambda t: t, 0.5, 0.0, 0.5) == 0.0
    # order 1 reduces to the plain q-integral: int_0^x 1 = x
    for x in (0.3, 0.7, 1.0):
        assert frac_q_integral(lambda t: 1.0, 1.0, x, 0.5) == pytest.approx(
            x, rel=1e-13)
    # frozen from the brute-force summation oracle
    assert frac_q_integral(lambda t: t, 0.5, 1.0, 0.5) == pytest.approx(
        0.83991714635367646, rel=1e-12)


def test_frac_integral_domain():
    with pytest.raises(ValueError):
        frac_q_integral(lambda t: t, 0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        frac_q_integral(lambda t: t, 0.5, -1.0, 0.5)


def test_caputo_vanishes_on_constants():
    for q in (0.3, 0.5, 0.8):
        assert abs(caputo_q_derivative(lambda t: 4.2, 0.5, 1.0, q)) <= 1e-12


def test_caputo_power_rule_confirmed_by_quadrature():
    # derivative of t^beta must equal
    # Gamma_q(beta+1)/Gamma_q(beta+1-alpha) * t^(beta-alpha);
    # confirm against the independent high-precision quadrature before
    # trusting the closed form anywhere else
    for (q, alpha, beta, t) in [(0.25, 0.5, 2.0, 0.7),
                                (2.0 / 3.0, 2.0 / 3.0, 2.0, 0.9),
                                (0.5, 0.75, 1.0, 0.4)]:
        oracle = float(mp_caputo(lambda s: s ** beta, alpha, t, q))
        closed = (q_gamma(beta + 1.0, q) / q_gamma(beta + 1.0 - alpha, q)
                  * t ** (beta - alpha))
        assert oracle == pytest.approx(closed, rel=1e-10)
        ours = caputo_q_derivative(lambda s: s ** beta, alpha, t, q)
        assert ours == pytest.approx(oracle, rel=1e-10)


def test_caputo_quadratic_closed_form():
    # f = t^2 + 1 at order 2/3: (1+q)/Gamma_q(7/3) * t^(4/3)
    for q in (0.4, 2.0 / 3.0):
        c = (1.0 + q) / q_gamma(7.0 / 3.0, q)
        for t in (0.3, 0.8, 1.0):
            got = caputo_q_derivative(lambda s: s * s + 1.0, 2.0 / 3.0, t, q)
            assert got == pytest.approx(c * t ** (4.0 / 3.0), rel=1e-8)


def test_caputo_of_linear_matches_frac_integral():
    # D_q t = 1, so the Caputo derivative is the fractional integral of 1
    got = caputo_q_derivative(lambda t: t, 0.5, 1.0, 0.5)
    ref = frac_q_integral(lambda t: 1.0, 0.5, 1.0, 0.5)
    assert got == pytest.approx(ref, rel=1e-12)
    assert got == pytest.approx(1.0859231828858144, rel=1e-12)  # frozen oracle


def test_caputo_linearity():
    q, alpha, t = 0.6, 0.3, 0.9
    f = lambda s: s * s
    g = lambda s: s ** 3 + 2.0
    lhs = caputo_q_derivative(lambda s: 2.0 * f(s) - 0.5 * g(s), alpha, t, q)
    rhs = (2.0 * caputo_q_derivative(f, alpha, t, q)
           - 0.5 * caputo_q_derivative(g, alpha, t, q))
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


def test_caputo_rl_relation():
    # cD^a f = D^a f - t^(-a) f(0) / Gamma_q(1-a)  for 0 < a < 1
    funcs = [lambda t: t + 2.0,
             lambda t: t * t + 1.0,
             lambda t: 0.5 * t ** 3 - t + 3.0]
    for q in (0.3, 0.5, 0.8):
        for alpha in (0.25, 0.5, 0.75):
            for f in funcs:
                for t in (q * q, q, 1.0):
                    cap = caputo_q_derivative(f, alpha, t, q)
                    rl = rl_q_derivative(f, alpha, t, q)
                    shift = t ** (-alpha) * f(0.0) / q_gamma(1.0 - alpha, q)
                    assert abs(cap - (rl - shift)) <= 1e-7 * (1.0 + abs(cap))


def test_rl_values():
    assert rl_q_derivative(lambda t: 0.0, 0.5, 1.0, 0.5) == 0.0
    # for f = 1 the Caputo side vanishes, leaving the initial-value term
    got = rl_q_derivative(lambda t: 1.0, 0.5, 1.0, 0.5)
    assert got == pytest.approx(1.0 / q_gamma(0.5, 0.5), rel=1e-8)
    # f(0) = 0 makes both derivatives agree
    cap = caputo_q_derivative(lambda t: t * t, 0.5, 1.0, 0.5)
    rl = rl_q_derivative(lambda t: t * t, 0.5, 1.0, 0.5)
    assert rl == pytest.approx(cap, rel=1e-9)


def test_nonpositive_order_routing():
    # orders <= 0 route to the fractional integral
    f = lambda t: t + 1.0
    got = caputo_q_derivative(f, -0.5, 0.8, 0.5)
    assert got == pytest.approx(frac_q_integral(f, 0.5, 0.8, 0.5), rel=1e-13)
    assert caputo_q_derivative(f, 0.0, 0.8, 0.5) == f(0.8)
    got = rl_q_derivative(f, -0.5, 0.8, 0.5)
    assert got == pytest.approx(frac_q_integral(f, 0.5, 0.8, 0.5), rel=1e-13)


def test_out_of_scope_orders_and_limits():
    for op in (caputo_q_derivative, rl_q_derivative):
        with pytest.raises(NotImplementedError):
            op(lambda t: t, 1.0, 1.0, 0.5)


def test_frac_integral_against_live_oracle():
    got = frac_q_integral(lambda t: t * t, 0.3, 0.9, 0.6)
    ref = float(mp_frac_integral(lambda s: s * s, mp.mpf("0.3"), 0.9, 0.6))
    assert got == pytest.approx(ref, rel=1e-11)


def test_orders_below_one_read_the_kernel_off_the_table(monkeypatch):
    # every order reads its kernel and Gamma_q off a weight table, and so
    # does the solver: no truncated product runs on any of these paths
    calls = []
    product = qcore.shifted_factorial_real

    def counted(*args):
        calls.append(args)
        return product(*args)

    monkeypatch.setattr(qcore, "shifted_factorial_real", counted)
    f = lambda s: s * s + 1.0
    for order in (0.4, 1.0, 1.5, 2.7):
        frac_q_integral(f, order, 0.9, 0.7)
        caputo_q_derivative(f, -order, 0.9, 0.7)
        rl_q_derivative(f, -order, 0.9, 0.7)
    for order in (0.4, 0.7):
        caputo_q_derivative(f, order, 0.9, 0.7)
        rl_q_derivative(f, order, 0.9, 0.7)
    for x in (0.4, 1.0, 1.5, 2.7, -0.6):
        q_gamma.__wrapped__(x, 0.7)     # past the cache
    solve_ivp(make_problem("example2", 0.7), QScale(0.7, 1.0), 20)
    assert calls == []
    for x in (0.3, 1.0):
        assert frac_q_integral(f, 1.0, x, 0.5) == pytest.approx(
            q_integral_zero(f, x, 0.5), rel=1e-15)
    # the patch is live: a call written in qcore reaches the counter
    qcore.shifted_factorial_real(1.0, 0.7, 0.5, 0.7)
    assert len(calls) == 1


@pytest.mark.parametrize("q, tol", [(0.25, 1.5e-15), (0.5, 4e-15), (2.0 / 3.0, 1e-14),
                                    (0.9, 1e-13)], ids=["1/4", "1/2", "2/3", "0.9"])
def test_frac_integral_power_rule(q, tol):
    # I^beta s^p = Gamma_q(p+1)/Gamma_q(p+1+beta) t^(p+beta), the Gamma_q
    # values at 40 digits.  Orders >= 1 multiply the kernel of the fractional
    # part by prod_(i<m) (1 - q^(j+r+i)).  Worst measured 5.5e-16, 2.7e-15,
    # 8.2e-15 and 7.3e-14 (of which 7.2e-14 is the stop rule's tail at
    # q = 0.9); the product route reached 3.1e-15, 4.1e-15 and 1.0e-14
    t = 0.8
    for p in (0.0, 0.5, 2.0):
        gamma = mp_qgamma(p + 1, q)
        for beta in (0.3, 0.7, 1.0, 1.25, 1.5, 2.0, 2.7, 3.25):
            ref = gamma / mp_qgamma(p + 1 + beta, q) * mp.mpf(t) ** (p + beta)
            got = frac_q_integral(lambda s: s ** p, beta, t, q)
            assert abs(got - ref) <= tol * abs(ref), (p, beta)


def test_frac_integral_of_order_above_one_near_q_one():
    # the kernel is a table read and one product of m factors per point, not
    # a truncated product of T(q) factors (0.72 s a call at q = 0.99 before)
    q = 0.99
    start = time.perf_counter()
    got = frac_q_integral(lambda s: s ** 0.5, 1.5, 1.0, q)
    assert time.perf_counter() - start < 0.2
    assert got == pytest.approx(q_gamma(1.5, q) / q_gamma(3.0, q), rel=1e-12)


def test_orders_below_rounding_fail_by_name():
    # below 1.1e-16, 1 - beta rounds to 1: the kernel (t - qs)^(beta-1)
    # would be read off a table of order 1, which does not exist
    for call in (lambda: frac_q_integral(lambda s: s, 1e-17, 1.0, 0.5),
                 lambda: caputo_q_derivative(lambda s: s, -1e-17, 1.0, 0.5),
                 lambda: rl_q_derivative(lambda s: s, -1e-17, 1.0, 0.5)):
        with pytest.raises(SingularKernelError):
            call()


def test_caputo_of_a_tiny_order():
    # alpha ln(1/q) = 1e-16: q^-alpha - 1 no longer rounds to 0 in the table.
    # D^alpha s = t^(1-alpha)/Gamma_q(2-alpha); at q = 0.999 the stop rule
    # leaves a tail of about REL_TOL q/(1-q) = 1e-11
    q, alpha = 0.999, 1e-13
    got = caputo_q_derivative(lambda s: s, alpha, 1.0, q)
    assert got == pytest.approx(1.0 / q_gamma(2.0 - alpha, q), rel=2e-11)


@pytest.mark.parametrize("op", [caputo_q_derivative, rl_q_derivative],
                         ids=lambda op: op.__name__)
def test_caputo_reads_the_table_a_solve_reads(op, monkeypatch):
    # 1 - (1 - 0.1) = 0.09999999999999998: a derivative keyed on it would
    # keep a second table beside the solve's (0.9, 0.1)
    monkeypatch.setattr(l1q, "_tables", {})
    op(lambda s: s * s, 0.1, 0.5, 0.9)
    solve_ivp(make_problem("manufactured-quadratic", 0.9, alpha=0.1),
              QScale(0.9, 1.0), 10)
    assert list(l1q._tables) == [(0.9, 0.1)]


@pytest.mark.parametrize("op, alpha", [(frac_q_integral, 0.3), (frac_q_integral, 1.5),
                                       (caputo_q_derivative, 0.7), (rl_q_derivative, 0.7)],
                         ids=["integral", "integral-order-1.5", "caputo", "rl"])
def test_each_operator_calls_f_once_per_lattice_point(op, alpha):
    # one sum over s = t q^j: no D_q quotient or difference of two
    # integrals evaluates f twice at a point
    calls = []
    op(lambda s: calls.append(s) or s * s + 1.0, alpha, 1.0, 0.5)
    assert len(calls) == len(set(calls))
    assert calls == [0.5 ** j for j in range(len(calls))]


RL_POWERS = {"2": [(2.0, 0.0)], "2-s+s^3": [(2.0, 0.0), (-1.0, 1.0), (1.0, 3.0)],
             "s^0.5": [(1.0, 0.5)]}


@pytest.mark.parametrize("q", [0.25, 0.5, 2.0 / 3.0, 0.9])
@pytest.mark.parametrize("name", list(RL_POWERS))
def test_rl_power_rule(name, q):
    # D^a s^b = Gamma_q(b+1)/Gamma_q(b+1-a) t^(b-a), the Gamma_q values
    # from mpmath at 30 digits
    powers = RL_POWERS[name]
    f = lambda s: sum(c * s ** b for c, b in powers)
    with mp.workdps(30):
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            for t in (1.0, 0.7, q ** 5, q ** 15):
                ref = float(sum(c * mp.qgamma(b + 1, q) / mp.qgamma(b + 1 - alpha, q)
                                * mp.mpf(t) ** (b - alpha) for c, b in powers))
                got = rl_q_derivative(f, alpha, t, q)
                assert got == pytest.approx(ref, rel=1e-12, abs=0.0), (alpha, t)


def test_rl_of_a_singular_power_reads_the_kernel_past_the_table():
    # the terms D(j) f(s_j) of s^(-0.45) fall like q^(0.55 j), well past the
    # T(q) entries of the table, where D(j) = c q^j; dropping them errs by 1e-7
    for q in (0.5, 0.9):
        with mp.workdps(30):
            ref = float(mp.qgamma(0.55, q) / mp.qgamma(0.05, q))
        got = rl_q_derivative(lambda s: s ** -0.45, 0.5, 1.0, q)
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_frac_integral_rejects_a_bad_scale_index():
    for q in (0.0, 1.0, 1.5, float("nan")):
        for alpha in (0.5, 1.5):
            with pytest.raises(ValueError):
                frac_q_integral(lambda s: s, alpha, 1.0, q)


@pytest.mark.parametrize("alpha, t, q", [
    (0.5, 0.0, 5.0), (0.5, 0.0, -1.0), (0.5, 0.0, float("nan")),
    (0.0, 1.0, 5.0), (0.0, 1.0, -1.0), (0.0, 1.0, float("nan")),
    (0.0, float("nan"), 0.5)])
@pytest.mark.parametrize("op", [caputo_q_derivative, rl_q_derivative, frac_q_integral])
def test_q_and_t_are_checked_before_the_early_returns(op, alpha, t, q):
    # t = 0 and alpha = 0 have closed answers (0 and f(t)); neither may be
    # given for an invalid q or a non-finite t
    calls = []
    f = lambda s: calls.append(s) or 1.0 + s
    with pytest.raises(ValueError):
        op(f, alpha, t, q)
    assert calls == []


def test_caputo_of_square_root_near_q_one():
    # D^(1/2) s^(1/2) = Gamma_q(3/2) at t = 1.  The Jackson terms of
    # D_q s^(1/2) fall like q^(j/2), so the loop stops at term j = 2 T(q)
    # and leaves a tail of REL_TOL q^(1/2)/(1 - q^(1/2)) = 2.0e-12 relative
    # (measured 2.03e-12); the stop rule, not the kernel, sets the tolerance
    q = 0.99
    ref = float(mp_qgamma(1.5, q, terms=20_000))
    got = caputo_q_derivative(lambda s: s ** 0.5, 0.5, 1.0, q)
    tail = REL_TOL * q ** 0.5 / (1.0 - q ** 0.5)
    assert got == pytest.approx(ref, rel=1e-12 + tail)


@pytest.mark.parametrize("op, alpha", [(frac_q_integral, 0.3), (frac_q_integral, 1.5),
                                       (caputo_q_derivative, 0.7), (rl_q_derivative, 0.7)])
def test_vector_valued_f_matches_componentwise_calls(op, alpha):
    parts = (lambda s: s * s + 1.0, lambda s: 3.0 * s ** 0.5)
    q, t = 2.0 / 3.0, 0.8
    got = op(lambda s: np.array([part(s) for part in parts]), alpha, t, q)
    assert got.shape == (2,)
    # each entry of the vector loop settles on its own value, but the loop
    # runs until every entry has, so a part may sum a few terms past its
    # scalar call; at q = 2/3 the stop rule's tail, REL_TOL r/(1 - r) with
    # r = q^(1/2), is 4.5e-14 of the part
    for value, part in zip(got, parts):
        assert value == pytest.approx(op(part, alpha, t, q), rel=1e-13)


@pytest.mark.parametrize("op", [
    lambda f, q: frac_q_integral(f, 0.3, 0.8, q),
    lambda f, q: frac_q_integral(f, 1.5, 0.8, q),
    lambda f, q: caputo_q_derivative(f, 0.7, 0.8, q),
    lambda f, q: rl_q_derivative(f, 0.7, 0.8, q),
    lambda f, q: q_integral_zero(f, 0.8, q),
], ids=["integral", "integral-order-1.5", "caputo", "rl", "q_integral_zero"])
def test_scalar_f_is_summed_in_floats_bit_for_bit(op):
    # a float f(s) is summed as Python floats, any other value through
    # numpy; both add the same terms in the same order and stop alike
    g = lambda s: 2.0 - s + s ** 0.5
    for q in (0.25, 2.0 / 3.0, 0.9):
        got = op(g, q)
        assert type(got) is float
        zero_d = op(lambda s: np.asarray(g(s)), q)
        assert type(zero_d) is float and zero_d == got
        assert op(lambda s: np.array([g(s)]), q).tolist() == [got]
    nan = float("nan")
    for f in (lambda s: nan, lambda s: np.asarray(nan), lambda s: np.array([nan])):
        with pytest.raises(NonConvergenceError):
            op(f, 0.5)


@pytest.mark.parametrize("op", [
    lambda f, q: frac_q_integral(f, 0.5, 1.0, q),
    lambda f, q: frac_q_integral(f, 1.5, 1.0, q),
    lambda f, q: caputo_q_derivative(f, 0.5, 1.0, q),
    lambda f, q: rl_q_derivative(f, 0.5, 1.0, q),
    lambda f, q: q_integral_zero(f, 1.0, q),
], ids=["integral", "integral-order-1.5", "caputo", "rl", "q_integral_zero"])
def test_each_entry_of_a_vector_sum_stops_on_its_own_value(op):
    # one entry 1e-6 of the other: each entry settles on its own value, so
    # a part sums at least as far as its scalar call, and the two differ by
    # at most that call's tail (6.4e-13 measured)
    parts = (lambda s: 1.0 + s * s, lambda s: 1e-6 * s ** 0.5)
    got = op(lambda s: np.array([part(s) for part in parts]), 0.99)
    for value, part in zip(got, parts):
        assert value == pytest.approx(op(part, 0.99), rel=1e-12)


@pytest.mark.parametrize("point", [float("nan"), float("inf")])
@pytest.mark.parametrize("op", [
    lambda f, t: q_derivative(f, t, 0.5),
    lambda f, t: q_derivative_n(f, t, 0.5, 2),
    lambda f, t: q_integral_zero(f, t, 0.5),
    lambda f, t: frac_q_integral(f, 0.5, t, 0.5),
    lambda f, t: caputo_q_derivative(f, 0.5, t, 0.5),
    lambda f, t: rl_q_derivative(f, 0.5, t, 0.5),
], ids=["q_derivative", "q_derivative_n", "q_integral_zero", "integral", "caputo",
        "rl"])
def test_a_non_finite_point_is_refused_before_f_is_called(op, point):
    # nan fails every comparison, so each point check must be a range check;
    # a Jackson sum at nan or inf would call f until its budget runs out
    calls = []
    f = lambda s: calls.append(s) or s * s + s
    with pytest.raises(ValueError, match=str(point)):
        op(f, point)
    assert calls == []


def _reference_operator(name, f, alpha, t, q):
    """A lattice operator summed term by term in a plain loop.

    Each term is formed by the formula of the operator over s_j = t q^j,
    each s_(j+1) = s_j q, and the running total stops by the rule of the
    Jackson sums: three consecutive terms below REL_TOL (|total| + tiny),
    tested entry by entry, within the budget of q.
    """
    T = tail_terms(q)
    if name == "integral":
        r = alpha - (m := math.ceil(alpha) - 1)
        G = l1q._table(q, 1.0 - r, T).G[:T].tolist() if r < 1.0 else []
    else:
        table = l1q._table(q, alpha, T)
        G, D = table.G[:T].tolist(), (-table.D[:T]).tolist()
        w = -math.expm1(-alpha * math.log(q)) * q ** T    # -D(T)
    tiny = np.finfo(float).tiny
    total, small, s = None, 0, float(t)
    f_s = f(s)
    for j in range(qcore._budget(q)):
        g = G[j] if j < T else 1.0
        if name == "integral":
            if m:
                g *= math.prod(1.0 - q ** (j + r + i) for i in range(m))
            term = s * (g * f_s)
        elif name == "caputo":
            f_next = f(s * q)
            term = g * (f_s - f_next)
        else:
            if j >= T:
                weight, w = w, w * q
            else:
                weight = G[0] if j == 0 else D[j]
            term = weight * f_s
        if not isinstance(term, float):
            term = np.asarray(term, dtype=float)
        total = term if total is None else total + term
        small = small + 1 if np.all(abs(term) < REL_TOL * (abs(total) + tiny)) else 0
        if small == 3:
            break
        s *= q
        f_s = f_next if name == "caputo" else f(s)
    else:
        raise NonConvergenceError("reference sum did not settle")
    if name == "integral":
        return t ** (alpha - 1.0) * ((1.0 - q) * total) / q_gamma(alpha, q)
    return t ** -alpha * total / table.gamma


def _horner(c):
    def f(s):
        acc = 0.0
        for a in reversed(c):
            acc = acc * s + a
        return acc
    return f


@pytest.mark.parametrize("q", [0.25, 2.0 / 3.0, 0.9])
def test_lattice_operators_match_a_plain_loop_bit_for_bit(q):
    # the operators build their terms from map chains over the lattice;
    # each term takes the same float operations in the same order as the
    # plain loop, so every value agrees exactly, not to a tolerance
    rng = np.random.default_rng(31)
    polys = [_horner(rng.uniform(-2.0, 2.0, degree + 1)) for degree in (1, 2, 3)]
    nodes = build_mesh(QScale(q), 20).nodes[1:].tolist()
    ops = {"caputo": caputo_q_derivative, "rl": rl_q_derivative, "integral": frac_q_integral}
    cases = [(name, alpha) for alpha in (0.1, 0.45, 0.85) for name in ops]
    cases += [("integral", 0.5), ("integral", 1.5)]
    for name, alpha in cases:
        for f in polys:
            for t in nodes:
                got = ops[name](f, alpha, t, q)
                assert type(got) is float
                assert got == _reference_operator(name, f, alpha, t, q), (name, alpha, t)


@pytest.mark.parametrize("name, op, alpha", [
    ("caputo", caputo_q_derivative, 0.7), ("rl", rl_q_derivative, 0.7),
    ("integral", frac_q_integral, 0.5), ("integral", frac_q_integral, 1.5)])
def test_vector_lattice_operators_match_a_plain_loop_bit_for_bit(name, op, alpha):
    f = lambda s: np.array([1.0 + s * (0.5 - s), 3.0 * s ** 0.5])
    got = op(f, alpha, 0.8, 2.0 / 3.0)
    ref = _reference_operator(name, f, alpha, 0.8, 2.0 / 3.0)
    assert got.shape == (2,) and got.tolist() == ref.tolist()
