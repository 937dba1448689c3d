"""Unit tests for the fractional q-operators."""

import mpmath as mp
import pytest

from qfde import (
    caputo_q_derivative,
    frac_q_integral,
    q_gamma,
    rl_q_derivative,
)

from oracles import mp_caputo, mp_frac_integral


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
