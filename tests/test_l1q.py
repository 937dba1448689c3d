"""Unit tests for the geometric mesh and the difference-formula weights."""

import math

import mpmath as mp
import numpy as np
import pytest

from qfde import (
    QScale,
    build_mesh,
    caputo_q_derivative,
    coefficients,
    l1q_apply,
    q_bracket,
    q_derivative,
    q_gamma,
    q_integral,
    rearranged_step_weights,
    shifted_factorial_real,
    truncation_bound,
    weight_table,
)
from qfde._kernels import b1_weight

from oracles import mp_b1, mp_b1_telescoped, mp_shifted_real


def test_build_mesh_small():
    mesh = build_mesh(QScale(0.5, 1.0), 2)
    assert np.allclose(mesh.nodes, [0.0, 0.5, 1.0])
    assert np.allclose(mesh.steps, [0.5, 0.5])
    assert mesh.nodes[0] == 0.0


def test_build_mesh_node_columns():
    mesh = build_mesh(QScale(0.25, 1.0), 10)
    assert mesh.nodes[1] == pytest.approx(0.25 ** 9, rel=1e-15)
    assert mesh.nodes[10] == 1.0
    mesh = build_mesh(QScale(2.0 / 3.0, 1.0), 10)
    assert mesh.nodes[9] == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert mesh.nodes[10] == 1.0


def test_build_mesh_invariants():
    # steps increase strictly from k=2 on (ratio 1/q); the first step
    # joins the chain only when q < 1/2, since dt_1/dt_2 = q/(1-q)
    for q, N in [(0.3, 7), (0.8, 12)]:
        mesh = build_mesh(QScale(q, 2.0), N)
        assert np.all(mesh.steps > 0.0)
        assert np.all(np.diff(mesh.steps[1:]) > 0.0)
        assert (mesh.steps[0] < mesh.steps[1]) == (q < 0.5)
        assert mesh.steps[-1] == pytest.approx((1.0 - q) * 2.0, rel=1e-14)
        for k in range(2, N + 1):
            assert mesh.nodes[k - 1] == pytest.approx(q * mesh.nodes[k], rel=1e-14)
    with pytest.raises(ValueError):
        build_mesh(QScale(0.5, 1.0), 0)


def test_build_mesh_underflow_limit():
    # t_1 = 4^-537 = 2^-1074 is the smallest positive double; one more
    # node would underflow to a repeated zero
    mesh = build_mesh(QScale(0.25, 1.0), 538)
    assert mesh.nodes[1] == 2.0 ** -1074
    assert np.all(mesh.steps > 0.0)
    with pytest.raises(ValueError, match=r"N=539 exceeds the limit N <= 538"):
        build_mesh(QScale(0.25, 1.0), 539)


def test_single_weight_identity():
    # at n=1 the series collapses analytically to t_1^(-alpha)/[1-alpha]_q
    for q, alpha in [(0.5, 0.5), (2.0 / 3.0, 2.0 / 3.0), (0.3, 0.25)]:
        mesh = build_mesh(QScale(q, 1.0), 6)
        c = coefficients(mesh, 1, alpha)
        t1 = mesh.nodes[1]
        assert c.weights.shape == (1,)
        assert c.weights[0] > t1 ** (-alpha)
        assert c.weights[0] == pytest.approx(
            t1 ** (-alpha) / q_bracket(1.0 - alpha, q), rel=1e-12)


def test_b3_closed_form_value():
    mesh = build_mesh(QScale(0.5, 1.0), 3)
    c = coefficients(mesh, 3, 0.5)
    # b_3 = (1 - 0.5)^(-0.5); frozen from the partial-product oracle
    assert c.weights[2] == pytest.approx(2.223190001301364, rel=1e-12)
    assert c.weights[2] == pytest.approx(
        shifted_factorial_real(1.0, 0.5, -0.5, 0.5), rel=1e-15)


def test_b2_closed_form_vs_quadrature():
    mesh = build_mesh(QScale(0.5, 1.0), 3)
    c = coefficients(mesh, 3, 0.5)
    q, t = 0.5, mesh.nodes
    kern = lambda s: shifted_factorial_real(t[3], q * s, -0.5, q)
    quad = q_integral(kern, t[1], t[2], q) / mesh.steps[1]
    assert c.weights[1] == pytest.approx(quad, rel=1e-10)


def test_b1_series_vs_quadrature_and_oracle():
    mesh = build_mesh(QScale(2.0 / 3.0, 1.0), 5)
    alpha, q, t = 0.75, 2.0 / 3.0, mesh.nodes
    c = coefficients(mesh, 4, alpha)
    kern = lambda s: shifted_factorial_real(t[4], q * s, -alpha, q)
    quad = q_integral(kern, 0.0, t[1], q) / mesh.steps[0]
    assert c.weights[0] == pytest.approx(quad, rel=1e-10)
    assert c.weights[0] == pytest.approx(
        float(mp_b1(t[4], t[1], alpha, q)), rel=1e-12)


def test_b1_telescoped_oracle_matches_series_oracle():
    # the march oracle of the acceptance suite takes b_1 from the
    # telescoped Jackson integral; check it against the brute-force series
    for q, alpha, N, n in [(0.25, 0.5, 10, 1), (0.25, 0.75, 10, 7),
                           (0.3, 2.0 / 3.0, 6, 4)]:
        t_n, t_1 = mp.mpf(q) ** (N - n), mp.mpf(q) ** (N - 1)
        series = mp_b1(t_n, t_1, alpha, q)
        assert abs(mp_b1_telescoped(t_n, t_1, alpha, q) - series) <= 1e-30 * series


def test_monotone_chain():
    for q in (0.3, 0.5, 2.0 / 3.0):
        mesh = build_mesh(QScale(q, 1.0), 8)
        for alpha in (0.25, 0.5, 0.75):
            for n in range(1, 9):
                c = coefficients(mesh, n, alpha)
                floor = mesh.nodes[n] ** (-alpha)
                assert floor < c.weights[0]
                assert np.all(np.diff(c.weights) > 0.0)


def test_coefficients_validation():
    mesh = build_mesh(QScale(0.5, 1.0), 4)
    with pytest.raises(ValueError):
        coefficients(mesh, 0, 0.5)
    with pytest.raises(ValueError):
        coefficients(mesh, 5, 0.5)
    with pytest.raises(ValueError):
        coefficients(mesh, 2, 1.5)


def test_l1q_apply_constant_and_lengths():
    mesh = build_mesh(QScale(0.5, 1.0), 4)
    c = coefficients(mesh, 4, 0.5)
    assert l1q_apply(np.full(5, 3.7), c, 0.5, 0.5) == 0.0
    with pytest.raises(ValueError):
        l1q_apply(np.ones(4), c, 0.5, 0.5)


def test_l1q_apply_exact_on_affine():
    # zero interpolation remainder on affine data
    for q, alpha in [(0.5, 0.5), (0.3, 0.75), (2.0 / 3.0, 0.25)]:
        mesh = build_mesh(QScale(q, 1.0), 8)
        x = 0.7 + 1.3 * mesh.nodes
        for n in (1, 4, 8):
            c = coefficients(mesh, n, alpha)
            got = l1q_apply(x[:n + 1], c, q, alpha)
            ref = caputo_q_derivative(lambda t: 0.7 + 1.3 * t, alpha,
                                      float(mesh.nodes[n]), q)
            assert got == pytest.approx(ref, rel=1e-10)


def test_l1q_apply_quadratic_within_bound():
    q = alpha = 2.0 / 3.0
    mesh = build_mesh(QScale(q, 1.0), 10)
    x = mesh.nodes ** 2 + 1.0
    c = coefficients(mesh, 10, alpha)
    got = l1q_apply(x, c, q, alpha)
    exact = (1.0 + q) / q_gamma(7.0 / 3.0, q)
    assert abs(got - exact) <= truncation_bound(mesh, 10, alpha, m2=1.0 + q).value


def test_l1q_apply_componentwise():
    mesh = build_mesh(QScale(0.5, 1.0), 3)
    c = coefficients(mesh, 3, 0.5)
    xs = np.stack([mesh.nodes, mesh.nodes ** 2 + 1.0], axis=1)
    out = l1q_apply(xs, c, 0.5, 0.5)
    assert out.shape == (2,)
    assert out[0] == pytest.approx(l1q_apply(xs[:, 0], c, 0.5, 0.5), rel=1e-15)
    assert out[1] == pytest.approx(l1q_apply(xs[:, 1], c, 0.5, 0.5), rel=1e-15)


def test_rearranged_step_weights():
    mesh = build_mesh(QScale(0.5, 1.0), 6)
    lead, hist, init = rearranged_step_weights(coefficients(mesh, 1, 0.5))
    assert hist.size == 0
    assert lead == init
    lead, hist, init = rearranged_step_weights(coefficients(mesh, 2, 0.5))
    assert hist.shape == (1,) and hist[0] > 0.0
    lead, hist, init = rearranged_step_weights(coefficients(mesh, 5, 0.5))
    assert hist.shape == (4,) and np.all(hist > 0.0)
    assert lead > init > 0.0


def test_truncation_bound_formula():
    mesh = build_mesh(QScale(0.5, 1.0), 10)
    assert truncation_bound(mesh, 10, 0.5, m2=0.0).value == 0.0
    got = truncation_bound(mesh, 10, 0.5, m2=1.5)
    q, t_n, dt = 0.5, mesh.nodes[10], mesh.steps[9]
    manual = 1.5 * t_n ** -0.5 * dt * dt / (
        4.0 * q_gamma(0.5, q) * (1.0 - q * q) * (q ** 0.5 - q))
    assert got.value == pytest.approx(manual, rel=1e-14)
    with pytest.raises(ValueError):
        truncation_bound(mesh, 10, 0.5, m2=-1.0)


def test_truncation_dominance_spot():
    # observed |L1q - Caputo| never exceeds the remainder bound (x = t^2 + 1)
    for q, alpha, N in [(0.5, 0.5, 8), (0.3, 0.75, 6)]:
        mesh = build_mesh(QScale(q, 1.0), N)
        x = mesh.nodes ** 2 + 1.0
        for n in range(1, N + 1):
            c = coefficients(mesh, n, alpha)
            got = l1q_apply(x[:n + 1], c, q, alpha)
            exact = caputo_q_derivative(lambda t: t * t + 1.0, alpha,
                                        float(mesh.nodes[n]), q)
            assert abs(got - exact) <= truncation_bound(mesh, n, alpha,
                                                        m2=1.0 + q).value


def test_kernel_derivative_identity():
    # D_q (t-s)^(-a) in s equals -[-a]_q (t-qs)^(-a-1) on the lattice
    t = 1.0
    for q, alpha in [(0.5, 0.5), (0.7, 0.25), (0.4, 0.75)]:
        for j in range(0, 12):
            s = t * q ** j
            F = lambda u: shifted_factorial_real(t, u, -alpha, q)
            lhs = (F(q * s) - F(s)) / ((q - 1.0) * s)
            rhs = -q_bracket(-alpha, q) * shifted_factorial_real(
                t, q * s, -alpha - 1.0, q)
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))


def test_kernel_bound():
    # |(t-qs)^(-a-1)| <= t^(-a-1) / ((1-q^a)(1-q^(1-a))) on the lattice
    t = 1.0
    for q, alpha in [(0.5, 0.5), (0.7, 0.25), (0.4, 0.75)]:
        cap = t ** (-alpha - 1.0) / ((1.0 - q ** alpha) * (1.0 - q ** (1.0 - alpha)))
        for j in range(0, 31):
            s = t * q ** j
            val = abs(shifted_factorial_real(t, q * s, -alpha - 1.0, q))
            assert val <= cap * (1.0 + 1e-12)


def test_q_derivative_matches_step_slope_on_lattice():
    # on the geometric mesh the interpolant slope equals D_q x at the
    # right endpoint, which is what makes the rectangle reading exact
    mesh = build_mesh(QScale(0.5, 1.0), 6)
    x = lambda t: t ** 2 + 1.0
    for k in range(2, 7):
        slope = (x(mesh.nodes[k]) - x(mesh.nodes[k - 1])) / mesh.steps[k - 1]
        assert q_derivative(x, float(mesh.nodes[k]), 0.5) == pytest.approx(
            slope, rel=1e-13)


def _oracle_G(m, alpha, q):
    return mp_shifted_real(1, mp.mpf(q) ** (m + 1), -alpha, q)


def _oracle_S(n, alpha, q):
    return mp_b1_telescoped(1, mp.mpf(q) ** (n - 1), alpha, q)


def _digits(m, q):
    # working precision that survives the cancellation in the oracles:
    # G(m-1) - G(m) and the telescoped b_1 at t_1 = q^(n-1) both lose
    # about m*log10(1/q) digits
    return 45 + 2 * math.ceil((m + 1) * math.log10(1.0 / q))


@pytest.mark.parametrize("q, alpha", [(0.25, 0.5), (2.0 / 3.0, 2.0 / 3.0),
                                      (0.9, 0.3)])
def test_weight_table_matches_oracle(q, alpha):
    # G(m), D(m) = G(m-1) - G(m) and S(n) = t_n^alpha b_1(n) to 1e-13
    # relative at distances up to 120, and R(n) = G(n-2) - S(n) up to
    # n = 200, far past where q^m drops below the rounding of G(m) ~ 1
    table = weight_table(q, alpha, 201)
    for m in (1, 2, 5, 20, 75, 100, 120):
        with mp.workdps(_digits(m, q)):
            G, G_prev = _oracle_G(m, alpha, q), _oracle_G(m - 1, alpha, q)
            S = _oracle_S(m + 1, alpha, q)
            assert abs(table.G[m] - G) <= 1e-13 * G
            assert abs(table.D[m] - (G_prev - G)) <= 1e-13 * (G_prev - G)
            assert abs(table.S[m + 1] - S) <= 1e-13 * S
    for n in (2, 30, 60, 101, 200):
        with mp.workdps(_digits(n, q)):
            R = _oracle_G(n - 2, alpha, q) - _oracle_S(n, alpha, q)
            assert abs(table.R[n] - R) <= 1e-13 * R
    assert abs(table.G[0] - _oracle_G(0, alpha, q)) <= 1e-13 * table.G[0]
    assert abs(table.S[1] * q_bracket(1.0 - alpha, q) - 1.0) <= 1e-14


@pytest.mark.parametrize("q, alpha, n", [(0.25, 0.5, 7), (2.0 / 3.0, 2.0 / 3.0, 30),
                                         (0.9, 0.3, 60), (0.9, 0.9, 1)])
def test_b1_series_matches_weight_table(q, alpha, n):
    # the Jackson series kept in qfde._kernels against the live S(n)
    t_n = 0.7
    t_1 = t_n * q ** (n - 1)
    series = b1_weight(t_n, t_1, alpha, q, 1e-14, 10_000)
    table = t_n ** -alpha * weight_table(q, alpha, n).S[n]
    assert abs(series - table) <= 5e-13 * table


def test_history_weights_match_oracle_far_from_target():
    # b_{k+1} - b_k at distance n - k up to 98; differencing the weights
    # loses up to 1e-2 relative here, the closed form D does not
    q = alpha = 2.0 / 3.0
    mesh = build_mesh(QScale(q, 1.0), 100)
    c = coefficients(mesh, 100, alpha)
    lead, hist, init = rearranged_step_weights(c)
    assert hist.shape == (99,) and np.all(hist > 0.0)
    scale = mesh.nodes[100] ** (-alpha)
    for k in (1, 2, 10, 25, 40, 50, 99):
        m = 100 - k
        with mp.workdps(_digits(m, q)):
            if k == 1:
                ref = _oracle_G(98, alpha, q) - _oracle_S(100, alpha, q)
            else:
                ref = _oracle_G(m - 1, alpha, q) - _oracle_G(m, alpha, q)
            assert abs(hist[k - 1] - scale * ref) <= 1e-13 * scale * ref
    assert lead == c.weights[-1] and init == c.weights[0]


def test_coefficients_past_the_rounding_of_g():
    # G(m) and S(n) round to 1 once q^m < eps, so far-apart weights
    # compare equal in double precision, but the gaps stay positive
    for q, N in [(0.25, 40), (2.0 / 3.0, 100), (0.9, 300)]:
        mesh = build_mesh(QScale(q, 1.0), N)
        c = coefficients(mesh, N, 2.0 / 3.0)
        assert c.weights[0] >= mesh.nodes[N] ** (-2.0 / 3.0)
        assert np.all(np.diff(c.weights) >= 0.0)
        assert np.all(c.gaps > 0.0)
