"""Unit tests for the geometric mesh and the difference-formula weights."""

import math
import random
import sys
import threading
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from qfde import (
    QScale,
    l1q,
    build_mesh,
    caputo_q_derivative,
    coefficients,
    frac_q_integral,
    l1q_apply,
    make_problem,
    q_bracket,
    q_derivative,
    q_gamma,
    q_integral,
    rl_q_derivative,
    shifted_factorial_real,
    solve_ivp,
    truncation_bound,
    weight_table,
)
from qfde._kernels import b1_weight
from qfde.qcore import tail_terms

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
        assert c.shape == (1,)
        assert c[0] > t1 ** (-alpha)
        assert c[0] == pytest.approx(
            t1 ** (-alpha) / q_bracket(1.0 - alpha, q), rel=1e-12)


def test_b3_closed_form_value():
    mesh = build_mesh(QScale(0.5, 1.0), 3)
    c = coefficients(mesh, 3, 0.5)
    # b_3 = (1 - 0.5)^(-0.5); frozen from the partial-product oracle
    assert c[2] == pytest.approx(2.223190001301364, rel=1e-12)
    assert c[2] == pytest.approx(
        shifted_factorial_real(1.0, 0.5, -0.5, 0.5), rel=1e-15)


def test_b2_closed_form_vs_quadrature():
    mesh = build_mesh(QScale(0.5, 1.0), 3)
    c = coefficients(mesh, 3, 0.5)
    q, t = 0.5, mesh.nodes
    kern = lambda s: shifted_factorial_real(t[3], q * s, -0.5, q)
    quad = q_integral(kern, t[1], t[2], q) / mesh.steps[1]
    assert c[1] == pytest.approx(quad, rel=1e-10)


def test_b1_series_vs_quadrature_and_oracle():
    mesh = build_mesh(QScale(2.0 / 3.0, 1.0), 5)
    alpha, q, t = 0.75, 2.0 / 3.0, mesh.nodes
    c = coefficients(mesh, 4, alpha)
    kern = lambda s: shifted_factorial_real(t[4], q * s, -alpha, q)
    quad = q_integral(kern, 0.0, t[1], q) / mesh.steps[0]
    assert c[0] == pytest.approx(quad, rel=1e-10)
    assert c[0] == pytest.approx(
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
                assert floor < c[0]
                assert np.all(np.diff(c) > 0.0)


def test_coefficients_validation():
    mesh = build_mesh(QScale(0.5, 1.0), 4)
    with pytest.raises(ValueError):
        coefficients(mesh, 0, 0.5)
    with pytest.raises(ValueError):
        coefficients(mesh, 5, 0.5)
    with pytest.raises(ValueError):
        coefficients(mesh, 2, 1.5)


def test_l1q_apply_constant_and_lengths():
    # the target node is n = len(samples) - 1, which must be a node 1..N
    mesh = build_mesh(QScale(0.5, 1.0), 4)
    assert l1q_apply(np.full(5, 3.7), mesh, 0.5) == 0.0
    for length in (1, 6):
        with pytest.raises(ValueError, match="1 <= n <= 4"):
            l1q_apply(np.ones(length), mesh, 0.5)


def test_l1q_apply_exact_on_affine():
    # zero interpolation remainder on affine data
    for q, alpha in [(0.5, 0.5), (0.3, 0.75), (2.0 / 3.0, 0.25)]:
        mesh = build_mesh(QScale(q, 1.0), 8)
        x = 0.7 + 1.3 * mesh.nodes
        for n in (1, 4, 8):
            got = l1q_apply(x[:n + 1], mesh, alpha)
            ref = caputo_q_derivative(lambda t: 0.7 + 1.3 * t, alpha,
                                      float(mesh.nodes[n]), q)
            assert got == pytest.approx(ref, rel=1e-10)


def test_l1q_apply_quadratic_within_bound():
    q = alpha = 2.0 / 3.0
    mesh = build_mesh(QScale(q, 1.0), 10)
    x = mesh.nodes ** 2 + 1.0
    got = l1q_apply(x, mesh, alpha)
    exact = (1.0 + q) / q_gamma(7.0 / 3.0, q)
    assert abs(got - exact) <= truncation_bound(mesh, 10, alpha, m2=1.0 + q)


def test_l1q_apply_componentwise():
    mesh = build_mesh(QScale(0.5, 1.0), 3)
    xs = np.stack([mesh.nodes, mesh.nodes ** 2 + 1.0], axis=1)
    out = l1q_apply(xs, mesh, 0.5)
    assert out.shape == (2,)
    assert out[0] == pytest.approx(l1q_apply(xs[:, 0], mesh, 0.5), rel=1e-15)
    assert out[1] == pytest.approx(l1q_apply(xs[:, 1], mesh, 0.5), rel=1e-15)


@pytest.mark.parametrize("q, N", [(0.25, 20), (0.5, 20), (0.9, 60)])
def test_l1q_apply_is_the_caputo_derivative_of_the_path_linear_below_t1(q, N):
    # on this mesh D_q x(t_k) = (x^k - x^(k-1))/dt_k, and every Jackson point
    # of the kernel above t_1 is a node, so the formula is exact for the
    # path that is x above t_1 and linear on [0, t_1] (7.4e-14 measured).
    # x(0) = 0 keeps out the cancellation of the Caputo sum near t = 0
    # (1.2e-8 with e^s in place of expm1(s), at n = 1, q = 1/4, alpha = 0.9)
    x = lambda s: math.expm1(s) + s ** 0.7
    mesh = build_mesh(QScale(q), N)
    t1 = float(mesh.nodes[1])
    path = lambda s: x(s) if s >= t1 else x(t1) * s / t1
    samples = np.array([x(float(t)) for t in mesh.nodes])
    for alpha in (0.1, 0.5, 0.9):
        for n in range(1, N + 1):
            got = l1q_apply(samples[:n + 1], mesh, alpha)
            ref = caputo_q_derivative(path, alpha, float(mesh.nodes[n]), q)
            assert got == pytest.approx(ref, rel=1e-12)


def test_coefficient_weights():
    mesh = build_mesh(QScale(0.5, 1.0), 6)
    c = coefficients(mesh, 1, 0.5)
    assert c.shape == (1,)
    c = coefficients(mesh, 2, 0.5)
    assert c[1] > c[0]
    c = coefficients(mesh, 5, 0.5)
    assert np.all(np.diff(c) > 0.0)
    assert c[-1] > c[0] > 0.0


def test_truncation_bound_formula():
    mesh = build_mesh(QScale(0.5, 1.0), 10)
    assert truncation_bound(mesh, 10, 0.5, m2=0.0) == 0.0
    got = truncation_bound(mesh, 10, 0.5, m2=1.5)
    q, t_n, dt = 0.5, mesh.nodes[10], mesh.steps[9]
    manual = 1.5 * t_n ** -0.5 * dt * dt / (
        4.0 * q_gamma(0.5, q) * (1.0 - q * q) * (q ** 0.5 - q))
    assert got == pytest.approx(manual, rel=1e-14)
    with pytest.raises(ValueError):
        truncation_bound(mesh, 10, 0.5, m2=-1.0)
    with pytest.raises(ValueError, match="m2 must not be NaN"):
        truncation_bound(build_mesh(QScale(0.5), 4), 4, 0.5, m2=math.nan)


def test_truncation_dominance_spot():
    # observed |L1q - Caputo| never exceeds the remainder bound (x = t^2 + 1)
    for q, alpha, N in [(0.5, 0.5, 8), (0.3, 0.75, 6)]:
        mesh = build_mesh(QScale(q, 1.0), N)
        x = mesh.nodes ** 2 + 1.0
        for n in range(1, N + 1):
            got = l1q_apply(x[:n + 1], mesh, alpha)
            exact = caputo_q_derivative(lambda t: t * t + 1.0, alpha,
                                        float(mesh.nodes[n]), q)
            assert abs(got - exact) <= truncation_bound(mesh, n, alpha,
                                                        m2=1.0 + q)


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
    # relative at distances up to 120, far past where q^m drops below the
    # rounding of G(m) ~ 1
    table = weight_table(q, alpha, 201)
    for m in (1, 2, 5, 20, 75, 100, 120):
        with mp.workdps(_digits(m, q)):
            G, G_prev = _oracle_G(m, alpha, q), _oracle_G(m - 1, alpha, q)
            S = _oracle_S(m + 1, alpha, q)
            assert abs(table.G[m] - G) <= 1e-13 * G
            assert abs(table.D[m] - (G_prev - G)) <= 1e-13 * (G_prev - G)
            assert abs(table.S[m + 1] - S) <= 1e-13 * S
    assert abs(table.G[0] - _oracle_G(0, alpha, q)) <= 1e-13 * table.G[0]
    assert abs(table.S[1] * q_bracket(1.0 - alpha, q) - 1.0) <= 1e-14


def test_weight_table_near_q_one():
    # the downward pass starts T(0.999) = 32,221 terms out, past the
    # 10,000 floor of the series budget; the telescoped b_1 at n = 1
    # gives S(1) = 1/[1-alpha]_q exactly
    q, alpha = 0.999, 0.5
    table = weight_table(q, alpha, 100)
    tol = tail_terms(q) * np.finfo(float).eps
    assert abs(table.S[1] * q_bracket(1.0 - alpha, q) - 1.0) <= tol
    assert np.all(table.D[1:] > 0.0) and np.all(table.S[2:] < table.G[:-1])
    assert np.all(np.diff(table.G) < 0.0)


def test_weight_table_memory_follows_size():
    # the pass keeps the 100 entries it returns, not T(0.999) = 32,221 of
    # each recurrence (a 6.1 MB peak when it did)
    tracemalloc.start()
    try:
        weight_table(0.999, 0.5, 100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    # past T(0.99) = 3,208 the recurrences are written into the arrays
    # returned: peak/nbytes is 1.7 here, and 5.8 when the entries kept
    # pass through Python float lists
    tracemalloc.start()
    try:
        table = weight_table(0.99, 0.5, 20_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * sum(getattr(table, name).nbytes for name in "GDS")


@pytest.mark.parametrize("q, alpha, small, big", [
    (0.25, 2.0 / 3.0, 32, 60), (0.25, 0.5, 30, 538), (2.0 / 3.0, 2.0 / 3.0, 85, 200),
    (0.9, 0.3, 300, 400), (0.9, 0.3, 311, 612), (0.5, 0.1, 48, 52),
    (0.9, 0.5, 10, 40)])
def test_weight_table_slice_equals_smaller_build(q, alpha, small, big):
    # T(q) = 24, 80, 306 and 47: the sizes fall on both sides of it, so
    # the downward passes start at different tail indices
    sliced, fresh = weight_table(q, alpha, big), weight_table(q, alpha, small)
    for name in "GDS":
        want = getattr(fresh, name)
        assert np.array_equal(getattr(sliced, name)[:len(want)], want), name


def test_coefficients_do_not_depend_on_the_kept_table(monkeypatch):
    # coefficients() reads the process's kept table of (q, alpha): a table
    # built for n alone and one grown far past T(0.9) = 306 give the same bits
    mesh = build_mesh(QScale(0.9, 1.0), 700)
    alone = {}
    for n in (2, 300, 306, 311):
        monkeypatch.setattr(l1q, "_tables", {})
        alone[n] = coefficients(mesh, n, 0.3)
        assert len(l1q._tables[(0.9, 0.3)].G) == n
    coefficients(mesh, 700, 0.3)
    assert len(l1q._tables[(0.9, 0.3)].G) == 700
    for n, c in alone.items():
        again = coefficients(mesh, n, 0.3)
        assert np.array_equal(again, c)


@pytest.mark.parametrize("q", [0.25, 0.9])
@pytest.mark.parametrize("op, order, key_alpha", [
    pytest.param(frac_q_integral, 0.4, 0.6, id="integral-0.4"),
    pytest.param(frac_q_integral, 1.5, 0.5, id="integral-1.5"),
    pytest.param(caputo_q_derivative, 0.3, 0.3, id="caputo"),
    pytest.param(rl_q_derivative, 0.3, 0.3, id="rl"),
])
def test_lattice_operators_do_not_depend_on_the_kept_table(monkeypatch, op, order,
                                                           key_alpha, q):
    # an operator reads the first T(q) entries of the kept (q, key_alpha)
    # table and the closed tail past them: a table grown to 4 T(q), or one
    # that a solve at q = 1/4 and N = 100 left at 100 > T(1/4) = 24 entries,
    # gives the bits of an emptied store
    f = lambda s: 1.0 + s + s * s
    T = tail_terms(q)
    monkeypatch.setattr(l1q, "_tables", {})
    kept = lambda: [(key, len(table.G)) for key, table in l1q._tables.items()]
    fresh = op(f, order, 1.0, q)
    assert kept() == [((q, key_alpha), T)]
    l1q._table(q, key_alpha, 4 * T)
    assert op(f, order, 1.0, q) == fresh
    assert kept() == [((q, key_alpha), 4 * T)]
    monkeypatch.setattr(l1q, "_tables", {})
    solve_ivp(make_problem("manufactured-quadratic", 0.25, alpha=0.3), QScale(0.25), 100)
    assert op(f, order, 1.0, q) == fresh


def test_kept_tables_under_concurrent_use(monkeypatch):
    # more threads than cores, switching often, over more keys than are
    # kept: every read equals a fresh build and the store stays bounded
    monkeypatch.setattr(l1q, "_tables", {})
    keys = [(q, a) for q in (0.25, 0.5, 2.0 / 3.0) for a in (0.3, 0.6)]
    want = {key: weight_table(*key, 64) for key in keys}
    errors = []

    def work(seed):
        rng = random.Random(seed)
        try:
            for _ in range(200):
                key, size = rng.choice(keys), rng.randint(1, 64)
                table = l1q._table(*key, size)
                assert np.array_equal(table.G[:size], want[key].G[:size])
                assert np.array_equal(table.S[:size + 1], want[key].S[:size + 1])
        except Exception as exc:    # collected for the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(l1q._tables) == l1q.TABLES_KEPT


@pytest.mark.parametrize("q, alpha, n", [(0.25, 0.5, 7), (2.0 / 3.0, 2.0 / 3.0, 30),
                                         (0.9, 0.3, 60), (0.9, 0.9, 1)])
def test_b1_series_matches_weight_table(q, alpha, n):
    # the Jackson series kept in qfde._kernels against the live S(n)
    t_n = 0.7
    t_1 = t_n * q ** (n - 1)
    series = b1_weight(t_n, t_1, alpha, q, 1e-14, 10_000)
    table = t_n ** -alpha * weight_table(q, alpha, n).S[n]
    assert abs(series - table) <= 5e-13 * table


def test_coefficients_past_the_rounding_of_g():
    # G(m) and S(n) round to 1 once q^m < eps, so far-apart weights
    # compare equal in double precision, but the gaps D stay positive
    for q, N in [(0.25, 40), (2.0 / 3.0, 100), (0.9, 300)]:
        mesh = build_mesh(QScale(q, 1.0), N)
        c = coefficients(mesh, N, 2.0 / 3.0)
        assert c[0] >= mesh.nodes[N] ** (-2.0 / 3.0)
        assert np.all(np.diff(c) >= 0.0)
        assert np.all(weight_table(q, 2.0 / 3.0, N).D[1:] > 0.0)
