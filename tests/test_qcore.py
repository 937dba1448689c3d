"""Unit tests for the q-calculus primitives."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfde import (
    NonConvergenceError,
    PoleError,
    QScale,
    SeriesControl,
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

from oracles import mp_qgamma, mp_shifted_real


def test_q_bracket_values():
    assert q_bracket(1, 0.5) == 1.0
    assert q_bracket(0, 0.7) == 0.0
    assert q_bracket(2, 0.5) == pytest.approx(1.5, rel=1e-15)


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


def test_shifted_factorial_real_domain():
    with pytest.raises(ValueError):
        shifted_factorial_real(1.0, 1.5, 0.5, 0.5)   # s > t
    with pytest.raises(ValueError):
        shifted_factorial_real(0.0, 0.0, 0.5, 0.5)   # t <= 0
    with pytest.raises(NonConvergenceError):
        shifted_factorial_real(1.0, 0.9, -0.5, 0.9,
                               SeriesControl(rel_tol=1e-14, max_terms=3))
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
           lambda a: abs(a) >= 1e-3))
def test_shifted_factorial_real_matches_oracle_on_lattice(t, j, q, alpha):
    # the lattice arguments s = t q^j of the fractional operators
    s = t * q ** j
    with mp.workdps(40):
        ref = float(mp_shifted_real(t, s, alpha, q))
    assert abs(shifted_factorial_real(t, s, alpha, q) - ref) <= 1e-12 * abs(ref)


def test_q_gamma_values():
    assert q_gamma(1.0, 0.5) == 1.0
    assert q_gamma(3.0, 0.5) == pytest.approx(1.5, rel=1e-15)
    assert q_gamma(0.5, 0.5) == pytest.approx(1.5720327257863239, rel=1e-12)


def test_q_gamma_matches_q_factorial():
    # acceptance gate for the (t=1, s=q) reading of the defining product
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


def test_q_derivative_n_at_zero():
    # second derivative of t^2 is (1+q) everywhere, including the origin
    assert q_derivative_n(lambda t: t * t, 0.0, 0.5, 2) == pytest.approx(
        1.5, rel=1e-6)


def test_limit_and_series_non_convergence():
    wobble = lambda t: t * math.sin(1.0 / t) if t > 0.0 else 0.0
    with pytest.raises(NonConvergenceError):
        q_derivative(wobble, 0.0, 0.5, SeriesControl(max_terms=50))
    with pytest.raises(NonConvergenceError):
        q_integral_zero(lambda t: 1.0, 1.0, 0.5, SeriesControl(max_terms=10))


def test_q_beta_gamma_identity():
    for q in (0.3, 0.5, 0.8):
        for alpha in (0.5, 1.0, 1.5, 2.5):
            for beta in (0.5, 1.0, 1.5, 2.5):
                lhs = q_beta(alpha, beta, q)
                rhs = q_gamma(alpha, q) * q_gamma(beta, q) / q_gamma(alpha + beta, q)
                assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


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
    with pytest.raises(ValueError):
        SeriesControl(rel_tol=0.0)
    with pytest.raises(ValueError):
        SeriesControl(max_terms=0)
