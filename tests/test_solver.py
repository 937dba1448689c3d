"""Unit tests for the implicit stepping scheme and its bound evaluators."""

import math
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfde import (
    FixedPointError,
    l1q,
    IVProblem,
    QScale,
    build_mesh,
    caputo_q_derivative,
    coefficients,
    contraction_constant,
    error_bound,
    make_problem,
    q_gamma,
    solve_ivp,
    solve_linear_history,
    stability_bound,
    truncation_bound,
)
from qfde import solver
from qfde.qcore import tail_terms
from qfde.solver import STALL_UPDATES, rate_constants

from oracles import mp_l1q_march, mp_l1q_residuals


def _lipschitz(L, alpha=0.5, x0=0.0, f0=0.0):
    """A scalar problem f(t, x) = f0 + L sin x with Lipschitz constant L."""
    return IVProblem(f=lambda t, x: f0 + L * np.sin(x), alpha=alpha,
                     x0=np.array([x0]), lipschitz_L=L)


def test_contraction_constant():
    scale = QScale(0.5, 1.0)
    assert contraction_constant(_lipschitz(0.0), scale) == 0.0
    assert contraction_constant(_lipschitz(1.0), scale) == pytest.approx(
        1.5720327257863239, rel=1e-12)  # Gamma_q(1/2) at q=1/2, frozen oracle
    # L is checked where it enters, by IVProblem
    with pytest.raises(ValueError):
        _lipschitz(-1.0)
    with pytest.raises(ValueError, match="Lipschitz constant must be >= 0"):
        _lipschitz(math.nan)
    with pytest.raises(ValueError, match="^the problem has no Lipschitz constant; "
                                         "the bounds need one$"):
        contraction_constant(make_problem("example2", q=0.5), scale)


@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.3])
def test_bounds_read_gamma_off_the_solve_table(alpha):
    # Gamma_q(1-alpha) of the bounds is that of the solver's gains, bit for
    # bit; q_gamma(1 - alpha) keys a table on 1 - (1 - alpha), which at
    # these orders differs from alpha (0.1 -> 0.09999999999999998) and
    # moved the last bit
    q = 0.9
    gamma = l1q._table(q, alpha, 1).gamma
    assert contraction_constant(_lipschitz(1.0, alpha), QScale(q, 1.0)) == gamma
    mesh = build_mesh(QScale(q, 1.0), 1)   # t_1 = dt_1 = 1
    assert stability_bound(_lipschitz(0.0, alpha, f0=1.0), mesh) == gamma
    assert truncation_bound(mesh, 1, alpha, m2=1.0) == (
        1.0 / (4.0 * gamma * (1.0 - q * q) * (q ** alpha - q)))


def test_constant_problem_one_iteration_per_step():
    problem = make_problem("constant", q=0.5, alpha=0.5)
    trace = solve_ivp(problem, QScale(0.5, 1.0), 6)
    assert np.all(trace.states == 1.0)
    assert np.all(trace.fp_iterations == 1)
    assert trace.states[0, 0] == 1.0


def test_zero_rhs_keeps_any_initial_value():
    problem = IVProblem(f=lambda t, x: np.zeros(1), alpha=0.3,
                        x0=np.array([-2.5]), lipschitz_L=0.0)
    trace = solve_ivp(problem, QScale(0.7, 1.0), 5)
    assert np.allclose(trace.states, -2.5, rtol=0, atol=1e-13)


def test_unconditional_stability_randomized():
    # |x^n| <= |x^0| + Gamma_q(1-a) t_n^a max_k |f^k| for given forcing data
    rng = np.random.default_rng(42)
    for _ in range(50):
        q = rng.uniform(0.2, 0.85)
        alpha = rng.uniform(0.1, 0.9)
        N = int(rng.integers(2, 11))
        x0 = rng.uniform(-5, 5)
        fs = rng.uniform(-3, 3, N)
        scale = QScale(q, 1.0)
        trace = solve_linear_history(fs, x0, alpha, scale)
        gamma = q_gamma(1.0 - alpha, q)
        for n in range(1, N + 1):
            cap = (abs(x0) + gamma * trace.mesh.nodes[n] ** alpha
                   * np.max(np.abs(fs[:n])))
            assert abs(trace.states[n, 0]) <= cap * (1.0 + 1e-12)


def _recording(f):
    """f, and a dict from each t to the first component of every x f received there."""
    calls: dict = {}

    def recording_f(t, x):
        calls.setdefault(t, []).append(float(x[0]))
        return f(t, x)

    return recording_f, calls


def test_fixed_point_increments_contract():
    # f Lipschitz in x with L1 < 1: each update moves the iterate L1 times
    # closer to x^n.  An update calls f once at t_n, so the x values f
    # receives there are the step's iterates; for this affine f the
    # increment |g(x) - x| = |1 - s| |x - x^n| is their distance to x^n
    L = 0.4
    f, calls = _recording(lambda t, x: L * x + t)
    problem = IVProblem(f=f, alpha=0.5, x0=np.array([1.0]), lipschitz_L=L)
    scale = QScale(0.5, 1.0)
    trace = solve_ivp(problem, scale, 8)
    L1 = contraction_constant(problem, scale)
    assert L1 == pytest.approx(L * q_gamma(0.5, 0.5), rel=1e-12)
    assert 0.0 < L1 < 1.0
    for t_n, x_n in zip(trace.mesh.nodes[1:].tolist(), trace.states[1:, 0].tolist()):
        errors = [abs(x - x_n) for x in calls[t_n]]
        for prev, nxt in zip(errors, errors[1:]):
            assert nxt <= L1 * prev + 1e-14


def test_step_limit_unique_for_lipschitz(monkeypatch):
    L = 0.4
    problem = IVProblem(f=lambda t, x: L * x + t, alpha=0.5,
                        x0=np.array([1.0]), lipschitz_L=L)
    scale = QScale(0.5, 1.0)
    base = solve_ivp(problem, scale, 8)
    monkeypatch.setattr(solver, "START_PERTURBATION", 1e-7)
    wide = solve_ivp(problem, scale, 8)
    assert np.max(np.abs(base.states - wide.states)) <= 1e-13 * 10


def test_solve_linear_history_manufactured():
    # forcing sampled from the exact Caputo derivative of t^2 reproduces
    # x = t^2 within the stability estimate applied to the remainder
    q, alpha, N = 0.5, 0.5, 8
    scale = QScale(q, 1.0)
    mesh = build_mesh(scale, N)
    fs = np.array([caputo_q_derivative(lambda s: s * s, alpha,
                                       float(t), q) for t in mesh.nodes[1:]])
    trace = solve_linear_history(fs, 0.0, alpha, scale)
    gamma = q_gamma(1.0 - alpha, q)
    for n in range(1, N + 1):
        rbound = max(truncation_bound(mesh, k, alpha, m2=1.0 + q)
                     for k in range(1, n + 1))
        err = abs(trace.states[n, 0] - mesh.nodes[n] ** 2)
        assert err <= gamma * mesh.nodes[n] ** alpha * rbound * (1.0 + 1e-10)


def test_solve_linear_history_validation():
    scale = QScale(0.5, 1.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"forcing sample f\^2 is not finite"):
            solve_linear_history([1.0, bad, 2.0, bad], 0.0, 0.5, scale)
        with pytest.raises(ValueError, match=r"forcing sample f\^3 is not finite"):
            solve_linear_history([[1.0, 1.0], [2.0, 2.0], [3.0, bad]],
                                 [0.0, 0.0], 0.5, scale)
        with pytest.raises(ValueError, match="x0 must be finite"):
            solve_linear_history([1.0, 2.0, 3.0], [0.0, bad], 0.5, scale)


def test_solve_linear_history_reports_its_steps():
    # f^n does not depend on x, so each step solves on its first update,
    # and a second update at most confirms it
    rng = np.random.default_rng(5)
    for q, N, d in [(0.25, 12, 1), (2.0 / 3.0, 40, 1), (0.9, 200, 2)]:
        fs = rng.normal(size=(N, d))
        trace = solve_linear_history(fs, rng.normal(size=d), 0.5, QScale(q, 1.0))
        assert np.all(trace.fp_iterations == 1)
        caps = solver.FP_TOL * (1.0 + np.max(np.abs(trace.states[1:]), axis=1))
        assert np.all(trace.residuals <= caps)


def test_solve_linear_history_refuses_a_width_that_fits_neither():
    # two columns fit neither a scalar x0 nor one of three components, and
    # a sample is one row; one column is one value over every component
    scale = QScale(0.5, 1.0)
    for fs, x0, shapes in ((np.ones((4, 2)), 0.0, r"\(4, 2\) .* \(1,\)"),
                           (np.ones((4, 2)), np.zeros(3), r"\(4, 2\) .* \(3,\)"),
                           (np.ones((4, 1, 3)), np.zeros(3), r"\(4, 1, 3\) .* \(3,\)")):
        with pytest.raises(ValueError, match=rf"forcing samples of shape {shapes} nor"):
            solve_linear_history(fs, x0, 0.5, scale)
    wide = solve_linear_history(np.ones((4, 1)), np.zeros(3), 0.5, scale).states
    assert np.array_equal(wide, solve_linear_history(np.ones((4, 3)), np.zeros(3), 0.5,
                                                     scale).states)


def test_solve_linear_history_overflow_fails_by_name():
    # finite data whose first state overflows: a named failure, not the
    # states [1.7e308, inf, nan, nan, nan]
    with pytest.raises(FixedPointError, match="non-finite value at step n=1"):
        solve_linear_history([1.7e308] * 4, 1.7e308, 0.5, QScale(0.5))


@pytest.mark.parametrize("q", [0.25, 0.9])
@pytest.mark.parametrize("N", [1, 2, 300])
def test_solve_linear_history_matches_plain_increment_form(q, N):
    # the increment form  sum_k b_k(n) dx^k = Gamma_q(1-alpha) f^n, solved
    # for dx^n in plain floats with the weights of l1q.coefficients; N = 2
    # has an empty G(n-k) part, so step 2 reads only the S(n)/G(0) slot
    alpha = 0.4
    scale = QScale(q, 1.3)
    mesh = build_mesh(scale, N)
    fs = np.random.default_rng(N).uniform(0.5, 1.5, (N, 2))
    x0 = [1.0, 2.0]
    gamma = q_gamma(1.0 - alpha, q)
    dx = [[0.0, 0.0]]
    states = [x0]
    for n in range(1, N + 1):
        b = coefficients(mesh, n, alpha).tolist()
        dx.append([(gamma * fs[n - 1, i] - sum(b[k - 1] * dx[k][i] for k in range(1, n)))
                   / b[n - 1] for i in range(2)])
        states.append([states[-1][i] + dx[n][i] for i in range(2)])
    got = solve_linear_history(fs, x0, alpha, scale).states
    assert np.max(np.abs(got / np.array(states) - 1.0)) <= 1e-14


def test_rhs_may_return_float_list_or_broadcast_value():
    # f may return a Python float, a list, a 0-d value broadcast over the
    # d components, or shape (d,); each gives the states of the last form
    q, alpha, N = 0.5, 0.5, 12

    def solve(f, d):
        return solve_ivp(IVProblem(f=f, alpha=alpha, x0=np.ones(d)), QScale(q, 1.0), N)

    def scalar(t, x):
        v = float(x[0])
        return t - 0.5 * v * v

    for d in (1, 3):
        ref = solve(lambda t, x: t - 0.5 * x * x, d)
        forms = [solve(lambda t, x: [t - 0.5 * v * v for v in x], d)]
        if d == 1:
            forms.append(solve(scalar, d))
        for trace in forms:
            assert np.array_equal(trace.states, ref.states)
            assert np.array_equal(trace.fp_iterations, ref.fp_iterations)
    ref = solve(lambda t, x: np.full(3, t), 3)
    for f in (lambda t, x: t, lambda t, x: np.float64(t), lambda t, x: np.array(t)):
        assert np.array_equal(solve(f, 3).states, ref.states)


def test_rhs_receives_t_as_float():
    # a scalar solve carries its state as a float, but f still gets an array x
    for d in (1, 3):
        seen = set()

        def f(t, x):
            seen.add((type(t), type(x), x.dtype, x.shape))
            return t - x

        solve_ivp(IVProblem(f=f, alpha=0.5, x0=np.ones(d)), QScale(0.5, 1.0), 10)
        assert seen == {(float, np.ndarray, np.dtype(np.float64), (d,))}


@pytest.mark.parametrize("name, q, N", [("example2", 0.25, 32),
                                        ("example2", 2.0 / 3.0, 70),
                                        ("manufactured-quadratic", 0.9, 260)])
def test_scalar_solve_matches_stacked_vector_solve(name, q, N):
    # the float state of a d = 1 solve and the array state of d = 2 give
    # the same bits: each component of the stacked solve is the scalar one
    base = make_problem(name, q=q, alpha=2.0 / 3.0)
    scale = QScale(q, 1.0)
    scalar = solve_ivp(base, scale, N)
    stacked = solve_ivp(IVProblem(f=base.f, alpha=base.alpha, x0=np.ones(2)), scale, N)
    for i in range(2):
        assert np.array_equal(stacked.states[:, i], scalar.states[:, 0])
    assert np.array_equal(stacked.fp_iterations, scalar.fp_iterations)


def test_stability_bound_values():
    mesh = build_mesh(QScale(0.5, 1.0), 4)
    gamma = q_gamma(0.5, 0.5)
    assert stability_bound(_lipschitz(0.0), mesh) == 0.0
    # L1 = 0 reduces to the linear-case estimate
    got = stability_bound(_lipschitz(0.0, x0=2.0, f0=3.0), mesh)
    assert got == pytest.approx(2.0 + gamma * 3.0, rel=1e-13)
    half = _lipschitz(0.5 / gamma, x0=2.0, f0=3.0)    # L1 = 1/2
    assert stability_bound(half, mesh) == pytest.approx(
        2.0 * (2.0 + gamma * 3.0), rel=1e-13)
    with pytest.raises(ValueError, match="contraction constant"):
        stability_bound(_lipschitz(1.0), mesh)    # L1 = Gamma_q(1/2) = 1.57
    with pytest.raises(ValueError, match="fmax must be >= 0"):
        stability_bound(_lipschitz(0.0, f0=math.nan), mesh)
    # a NaN at a later node only (t_N = 1) is refused too, not skipped
    late_nan = IVProblem(f=lambda t, x: np.array([math.nan if t > 0.5 else 1.0]),
                         alpha=0.5, x0=np.zeros(1), lipschitz_L=0.1)
    with pytest.raises(ValueError, match="fmax must be >= 0"):
        stability_bound(late_nan, mesh)
    # fmax is max_n |f(t_n, 0)| over the nodes, and t^alpha is b^alpha:
    # here both are read at t_N = b = 2
    rising = IVProblem(f=lambda t, x: np.array([-t]), alpha=0.5, x0=np.zeros(1),
                       lipschitz_L=0.0)
    assert stability_bound(rising, build_mesh(QScale(0.5, 2.0), 4)) == pytest.approx(
        gamma * 2.0 ** 0.5 * 2.0, rel=1e-13)


def test_stability_bound_dominates_example1_run():
    problem = make_problem("example1", q=0.25)
    scale = QScale(0.25, 1.0)
    trace = solve_ivp(problem, scale, 10)
    cap = stability_bound(problem, trace.mesh)
    assert float(np.max(np.abs(trace.states))) <= cap


def _node_errors(trace, problem):
    """Max-norm errors |x(t_n) - x^n| at n = 1 .. N, one exact call per node."""
    exact = np.array([np.atleast_1d(problem.exact(t)) for t in trace.mesh.nodes[1:]])
    return np.max(np.abs(exact - trace.states[1:]), axis=1)


@pytest.mark.parametrize("q, alpha, L1", [(0.25, 0.5, 0.0), (0.5, 0.3, 0.4),
                                          (2.0 / 3.0, 2.0 / 3.0, 0.9),
                                          (0.9, 0.7, 0.0)])
def test_error_bound_is_the_truncation_bound_over_the_stability_factor(q, alpha, L1):
    # Theorem 5: the error bound at node n is the remainder bound times
    # Gamma_q(1-alpha) t_n^alpha, over 1 - L1
    mesh = build_mesh(QScale(q, 1.0), 12)
    gamma = l1q._table(q, alpha, 1).gamma
    problem = _lipschitz(L1 / gamma, alpha)
    assert contraction_constant(problem, mesh.scale) == pytest.approx(L1, rel=1e-15)
    bound = error_bound(problem, mesh, 1.5)
    for n in range(1, 13):
        expect = (gamma * mesh.nodes[n] ** alpha
                  * truncation_bound(mesh, n, alpha, 1.5) / (1.0 - L1))
        assert bound[n - 1] == pytest.approx(expect, rel=1e-14)
    with pytest.raises(ValueError, match="m2 must not be NaN or negative"):
        error_bound(problem, mesh, math.nan)
    with pytest.raises(ValueError, match="m2 must not be NaN or negative"):
        error_bound(problem, mesh, -1.0)
    with pytest.raises(ValueError, match="m2 must be finite"):
        error_bound(problem, mesh, math.inf)
    L = 1.0 / gamma    # the least L with L1 = 1 is refused
    while L * gamma < 1.0:
        L = math.nextafter(L, 2.0)
    with pytest.raises(ValueError, match=r"contraction constant must be in \[0, 1\), got 1.0$"):
        error_bound(_lipschitz(L, alpha), mesh, 1.5)


def test_error_report_theorem5_dominance():
    # linear-in-x problems: errors stay under the a-priori estimate
    for name, q, alpha in [("example1", 0.25, 0.5),
                           ("manufactured-quadratic", 0.5, 0.5),
                           ("manufactured-quadratic", 2.0 / 3.0, 2.0 / 3.0),
                           ("manufactured-linear", 0.7, 0.3)]:
        problem = make_problem(name, q=q, alpha=alpha)
        scale = QScale(q, 1.0)
        trace = solve_ivp(problem, scale, 10)
        bound = error_bound(problem, trace.mesh, m2=1.0 + q)
        assert np.all(_node_errors(trace, problem) <= bound + 1e-12)


def test_error_report_rate_constants():
    problem = make_problem("manufactured-quadratic", q=0.5, alpha=0.5)
    trace = solve_ivp(problem, QScale(0.5, 1.0), 5)
    abs_err = _node_errors(trace, problem)
    got = rate_constants(abs_err, 0.5)
    q, N = 0.5, 5
    for n in range(1, N + 1):
        expect = abs_err[n - 1] / q ** (2 * (N - n))
        assert got[n - 1] == pytest.approx(expect, rel=1e-13)


def test_rate_constants_past_the_underflow_of_q_power():
    # q^(2(N-n)) underflows to 0 at n = 1 for q = 1/8, N = 181; the
    # quotient is 0 for an exact-zero error, inf past the double range
    # and finite in between
    q, N = 0.125, 181
    problem = make_problem("manufactured-quadratic", q=q, alpha=0.5)
    abs_err = _node_errors(solve_ivp(problem, QScale(q, 1.0), N), problem)
    constants = rate_constants(abs_err, q)
    assert np.all(constants[abs_err == 0.0] == 0.0)
    assert np.all(np.isfinite(constants))
    errs = np.full(N, 1e-16)
    errs[:4] = [5e-324, 0.0, 1e-300, 1.0]
    got = rate_constants(errs, q)
    for n in range(1, N + 1):
        ref = mp.mpf(errs[n - 1]) / mp.mpf(q) ** (2 * (N - n))
        if ref > sys.float_info.max:
            assert got[n - 1] == np.inf
        else:
            assert abs(got[n - 1] - ref) <= 1e-12 * ref
    assert got[1] == 0.0 and got[3] == np.inf


def test_error_report_rejects_nan_m2():
    # a NaN m2 would make every bound NaN and every node a violation
    problem = make_problem("manufactured-linear", q=0.5)
    trace = solve_ivp(problem, QScale(0.5, 1.0), 3)
    with pytest.raises(ValueError, match="m2 must not be NaN"):
        error_bound(problem, trace.mesh, m2=math.nan)


def test_fixed_point_failure_carries_partial_trace(monkeypatch):
    problem = make_problem("example2", q=2.0 / 3.0)
    monkeypatch.setattr(solver, "MAX_FP_ITERS", 3)
    with pytest.raises(FixedPointError) as info:
        solve_ivp(problem, QScale(2.0 / 3.0, 1.0), 10)
    err = info.value
    assert err.step == 1
    assert err.trace.states.shape[0] == err.step  # nodes before the failure
    assert len(err.trace.fp_iterations) == len(err.trace.residuals) == err.step - 1


def test_determinism_bit_identical():
    problem = make_problem("example2", q=2.0 / 3.0)
    scale = QScale(2.0 / 3.0, 1.0)
    a = solve_ivp(problem, scale, 10)
    b = solve_ivp(problem, scale, 10)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.fp_iterations, b.fp_iterations)
    assert np.array_equal(a.residuals, b.residuals)


@pytest.mark.parametrize("q, N", [(0.5, 30), (0.9, 100)])
def test_a_longer_horizon_only_adds_steps(q, N):
    # the mesh (N, b) is the first N nodes of the mesh (N+1, b/q): both
    # have the same t_1, and every weight depends only on n - k and t_n,
    # so the longer solve repeats the shorter one.  At q = 1/2 the nodes
    # are the same doubles; at q = 0.9, b/q is rounded, so the nodes and
    # the states agree to rounding (3.7e-16 relative)
    problem = IVProblem(f=lambda t, x: np.sin(x) + t, alpha=0.4, x0=np.array([0.3]))
    short = solve_ivp(problem, QScale(q, 1.0), N)
    long = solve_ivp(problem, QScale(q, 1.0 / q), N + 1)
    assert long.mesh.nodes[1] == short.mesh.nodes[1]
    if q == 0.5:
        assert np.array_equal(long.mesh.nodes[:N + 1], short.mesh.nodes)
        assert np.array_equal(long.states[:N + 1], short.states)
    else:
        assert np.max(np.abs(long.states[:N + 1] / short.states - 1.0)) <= 1e-15
    assert np.array_equal(long.fp_iterations[:N], short.fp_iterations)


def test_solve_unchanged_by_a_larger_solve_before_it(monkeypatch):
    # the N = 400 solve grows the kept weight table of (q, alpha) past
    # T(0.9) = 306, and the N = 40 solve after it reads a slice of that
    monkeypatch.setattr(l1q, "_tables", {})
    problem = make_problem("example2", q=0.9)
    scale = QScale(0.9, 1.0)
    before = solve_ivp(problem, scale, 40)
    solve_ivp(problem, scale, 400)
    assert len(l1q._tables[(0.9, 2.0 / 3.0)].G) >= 400
    after = solve_ivp(problem, scale, 40)
    for name in ("states", "fp_iterations", "residuals"):
        assert np.array_equal(getattr(after, name), getattr(before, name))


def test_kept_weight_tables_are_bounded(monkeypatch):
    monkeypatch.setattr(l1q, "_tables", {})
    scale = QScale(0.5, 1.0)
    alphas = np.linspace(0.1, 0.9, l1q.TABLES_KEPT + 3).tolist()
    for alpha in alphas:
        solve_ivp(make_problem("manufactured-linear", q=0.5, alpha=alpha), scale, 20)
    assert list(l1q._tables) == [(0.5, a) for a in alphas[-l1q.TABLES_KEPT:]]


def test_kept_weight_table_follows_N_not_the_tail(monkeypatch):
    # the pass runs down from T(0.9999) = 322,346, but the solve keeps only
    # the entries it reads
    monkeypatch.setattr(l1q, "_tables", {})
    solve_ivp(make_problem("manufactured-quadratic", q=0.9999, alpha=0.5),
              QScale(0.9999, 1.0), 10)
    assert len(l1q._tables[(0.9999, 0.5)].G) < 64


def test_vector_problem_componentwise():
    # decoupled 2-component system: exact [1 + 2t, t^2 + 1]
    q, alpha = 0.5, 0.5
    c1 = 2.0 / q_gamma(1.5, q)
    c2 = (1.0 + q) / q_gamma(2.5, q)

    def f(t, x):
        return np.array([c1 * t ** 0.5, c2 * t ** 1.5])

    problem = IVProblem(f=f, alpha=alpha, x0=np.array([1.0, 1.0]),
                        lipschitz_L=0.0,
                        exact=lambda t: np.array([1.0 + 2.0 * t, t * t + 1.0]))
    trace = solve_ivp(problem, QScale(q, 1.0), 8)
    assert trace.states.shape == (9, 2)
    bound = error_bound(problem, trace.mesh, m2=1.0 + q)
    assert np.all(_node_errors(trace, problem) <= bound + 1e-12)
    # affine component is reproduced almost exactly
    errs_affine = [abs(trace.states[n, 0] - (1.0 + 2.0 * trace.mesh.nodes[n]))
                   for n in range(9)]
    assert max(errs_affine) <= 1e-10


def test_ivproblem_validation():
    with pytest.raises(ValueError):
        IVProblem(f=lambda t, x: x, alpha=1.2, x0=np.array([1.0]))
    with pytest.raises(ValueError, match="1-D"):
        IVProblem(f=lambda t, x: x, alpha=0.5, x0=np.ones((2, 2)))
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="Lipschitz constant must be >= 0"):
            IVProblem(f=lambda t, x: x, alpha=0.5, x0=np.ones(1), lipschitz_L=bad)
    # d is worked out from x0, never passed
    assert IVProblem(f=lambda t, x: x, alpha=0.5, x0=np.ones(3)).d == 3
    with pytest.raises(TypeError):
        IVProblem(f=lambda t, x: x, alpha=0.5, x0=np.ones(2), d=2)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_initial_value_rejected_at_once(bad):
    with pytest.raises(ValueError, match="initial value x0 must be finite"):
        IVProblem(f=lambda t, x: x, alpha=0.5, x0=[1.0, bad])


@pytest.mark.parametrize("q, N", [(0.25, 32), (2.0 / 3.0, 85), (0.9, 300),
                                  (0.25, 538), (0.9, 7049), (2.0 / 3.0, 1835)])
def test_manufactured_quadratic_large_N(q, N):
    # past the N where the weight chain used to be rejected in rounding,
    # up to the underflow limit of the mesh: t_1 = 2^-1074 at q = 1/4,
    # 3e-323 at q = 0.9 and 1e-323 at q = 2/3
    problem = make_problem("manufactured-quadratic", q=q, alpha=0.5)
    trace = solve_ivp(problem, QScale(q, 1.0), N)
    exact = trace.mesh.nodes ** 2 + 1.0
    assert np.max(np.abs(trace.states[:, 0] - exact)) <= 1e-13


@pytest.mark.parametrize("q", [0.99, 0.999])
def test_manufactured_quadratic_near_q_one(q):
    # N = 20000 puts t_1 at 1e-87 and 2e-9; at q = 0.999 the weight tables
    # behind the Gamma_q of the forcing and the scheme run T(q) = 32,221
    # entries, past the 10,000 floor of the series budget; the tolerance
    # allows T(q) eps
    problem = make_problem("manufactured-quadratic", q=q, alpha=0.5)
    trace = solve_ivp(problem, QScale(q, 1.0), 20000)
    exact = np.array([problem.exact(t)[0] for t in trace.mesh.nodes])
    tol = tail_terms(q) * np.finfo(float).eps
    assert np.max(np.abs(trace.states[:, 0] - exact)) <= tol


@pytest.mark.parametrize("q, alpha", [(0.999, 1e-13), (0.5, 1e-17)])
def test_tiny_orders_solve(q, alpha):
    # alpha ln(1/q) below 1.1e-16 once rounded q^-alpha - 1 to 0 in the
    # weight table, which then refused the chain b_1 < b_2 < ...; the
    # scheme is exact on the affine solution 1 + 2t
    problem = make_problem("manufactured-linear", q=q, alpha=alpha)
    trace = solve_ivp(problem, QScale(q, 1.0), 20)
    exact = 1.0 + 2.0 * trace.mesh.nodes
    assert np.max(np.abs(trace.states[:, 0] - exact)) <= 1e-13


@pytest.mark.parametrize("bad, d", [pytest.param(np.nan, 1, id="nan"),
                                    pytest.param(np.inf, 1, id="inf"),
                                    pytest.param(np.nan, 3, id="nan-last-of-3")])
def test_non_finite_rhs_stops_at_once(bad, d):
    # a NaN in the last component must not hide behind the max-norm
    calls = []

    def f(t, x):
        calls.append(t)
        return np.array([1.0] * (d - 1) + [bad if t > 0.3 else 1.0])

    problem = IVProblem(f=f, alpha=0.5, x0=np.ones(d))
    with pytest.raises(FixedPointError, match=r"non-finite value at step n=5 "
                                              r"\(t=0\.5\) on update 1") as info:
        solve_ivp(problem, QScale(0.5, 1.0), 6)
    err = info.value
    assert err.step == 5
    assert err.trace.states.shape == (5, d)
    assert len(err.trace.fp_iterations) == len(err.trace.residuals) == err.step - 1
    assert np.all(np.isfinite(err.trace.states))
    # one call from the predicted start, one from the nudged retry
    assert sum(t > 0.3 for t in calls) == 2


@settings(max_examples=40, deadline=None)
@given(q=st.floats(0.1, 0.95), alpha=st.floats(0.05, 0.95),
       N=st.integers(1, 300))
def test_manufactured_solutions_property(q, alpha, N):
    # affine solutions are reproduced to rounding; quadratic ones stay
    # under the a-priori error bound
    scale = QScale(q, 1.0)
    linear = make_problem("manufactured-linear", q=q, alpha=alpha)
    trace = solve_ivp(linear, scale, N)
    assert np.max(np.abs(trace.states[:, 0] - (1.0 + 2.0 * trace.mesh.nodes))) <= 1e-12
    quadratic = make_problem("manufactured-quadratic", q=q, alpha=alpha)
    trace = solve_ivp(quadratic, scale, N)
    abs_err = _node_errors(trace, quadratic)
    assert np.all(abs_err <= error_bound(quadratic, trace.mesh, m2=1.0 + q) + 1e-12)
    assert not np.any(np.isnan(rate_constants(abs_err, q)))


@pytest.mark.parametrize("q, alpha, L, N", [(0.7, 0.5, 1.5, 12),
                                            (2.0 / 3.0, 2.0 / 3.0, 2.0, 12)])
def test_accelerated_solve_matches_march_past_contraction(q, alpha, L, N):
    # L1 = 2.5 and 4.8: the step map g contracts only near its root, where
    # plain Picard updates need up to ~100 iterations or never settle;
    # the mixed updates reach the 40-digit march in a few
    problem = IVProblem(f=lambda t, x: L * np.sin(x) + t, alpha=alpha,
                        x0=np.array([1.0]), lipschitz_L=L)
    trace = solve_ivp(problem, QScale(q, 1.0), N)
    _, ref = mp_l1q_march(q, alpha, N, lambda t, x: L * mp.sin(x) + t,
                          1.0, 1e-8)
    assert np.max(np.abs(trace.states[:, 0] - np.array(ref, dtype=float))) <= 1e-12


@pytest.mark.parametrize("q, N, budget", [(2.0 / 3.0, 40, 300), (0.9, 100, 600),
                                         (2.0 / 3.0, 40, 100)])
def test_example2_update_count(q, N, budget):
    # plain Picard needs 741 and 1230 updates here (g'(x*) = 2/3 at step 1);
    # Anderson mixing from the nudged previous state 207 and 410, and the
    # predicted start brings q = 2/3 within the third budget
    trace = solve_ivp(make_problem("example2", q=q), QScale(q, 1.0), N)
    assert int(np.sum(trace.fp_iterations)) <= budget


def test_example2_large_N_keeps_nontrivial_branch():
    # the mixed updates must not extrapolate back to the repelling root
    # x = 1 that the start perturbation steps away from
    q, N = 0.9, 260
    trace = solve_ivp(make_problem("example2", q=q), QScale(q, 1.0), N)
    exact = trace.mesh.nodes ** 2 + 1.0
    assert np.max(np.abs(trace.states[:, 0] - exact)) <= 1e-6


def test_fallback_start_solves_where_the_prediction_fails():
    # L1 = 1.96: from the extrapolated start the last step cycles; it gives
    # way after at least STALL_UPDATES updates, the re-solve from the
    # nudged previous state converges, and fp_iterations counts the updates
    # of both attempts.  Each update calls f once at t_N, so the nudged
    # start is found among the x values f receives there.
    # mp_l1q_march cannot serve as the oracle: its plain Picard iteration
    # stalls at n = 40, so every step's equation is checked instead.
    q, alpha, L, N = 0.125, 0.5, 1.5, 40
    f, calls = _recording(lambda t, x: L * np.sin(x) + t)
    problem = IVProblem(f=f, alpha=alpha, x0=np.array([1.0]), lipschitz_L=L)
    trace = solve_ivp(problem, QScale(q, 1.0), N)
    assert contraction_constant(problem, QScale(q, 1.0)) == pytest.approx(1.96, abs=5e-3)
    last = calls[trace.mesh.nodes[N].item()]
    pert = solver.START_PERTURBATION
    start = last.index(trace.states[N - 1, 0].item() * (1.0 + pert) + pert)
    assert start >= STALL_UPDATES                       # predicted attempt first
    assert len(last) - 1 - start < 20                   # nudged attempt converged
    assert trace.residuals[-1] <= solver.FP_TOL * 10.0
    assert trace.fp_iterations[-1] == len(last) - 1 < solver.MAX_FP_ITERS // 5
    residuals = mp_l1q_residuals(q, alpha, lambda t, x: L * mp.sin(x) + t,
                                 trace.states[:, 0])
    assert max(residuals) <= 1e-12


def test_a_solve_keeps_per_step_records():
    # the returned trace holds the nodes, the steps, the states and one
    # update count and one residual per step, about 5 x states.nbytes here;
    # a list of every update's increment per step held about 23 x.  The
    # solve runs once untraced first, so that the weight table it reads
    # is already kept
    q, N = 0.99, 10_000
    problem = make_problem("manufactured-quadratic", q=q)
    solve_ivp(problem, QScale(q, 1.0), N)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = solve_ivp(problem, QScale(q, 1.0), N)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 6 * trace.states.nbytes


def test_damped_vector_solve_about_one_update_per_step():
    # the warm benchmark's smooth case: the prediction is within rounding
    # of the step's solution, so one update almost always confirms it
    q, N, d = 0.9, 260, 8
    base = make_problem("manufactured-quadratic", q=q, alpha=2.0 / 3.0)
    lam = np.random.default_rng(5).random(d)
    problem = IVProblem(f=lambda t, x: base.f(t, x) - lam * (x - base.exact(t)),
                        alpha=2.0 / 3.0, x0=np.ones(d), exact=base.exact)
    trace = solve_ivp(problem, QScale(q, 1.0), N)
    assert np.sum(trace.fp_iterations) <= 1.3 * N
    assert np.max(np.abs(trace.states - (trace.mesh.nodes ** 2 + 1.0)[:, None])) <= 1e-13


def test_resting_component_keeps_the_nudged_start():
    # component 0 has example2's right-hand side, switched on after t_4:
    # until then it rests exactly on the repelling root x = 1, so its
    # prediction would be that root.  Started from the nudged state it
    # leaves the root, while the moving component 1 is predicted.
    q, alpha = 0.5, 2.0 / 3.0
    c0 = (1.0 + q) / q_gamma(7.0 / 3.0, q)
    c1 = 2.0 / q_gamma(2.0 - alpha, q)

    def f(t, x):
        return np.array([c0 * np.cbrt(x[0] - 1.0) ** 2 if t > 0.1 else 0.0,
                         c1 * t ** (1.0 - alpha)])

    trace = solve_ivp(IVProblem(f=f, alpha=alpha, x0=np.ones(2)), QScale(q, 1.0), 8)
    assert np.all(trace.states[:5, 0] == 1.0)
    assert np.all(np.diff(trace.states[4:, 0]) > 1e-3)
    assert np.max(np.abs(trace.states[:, 1] - (1.0 + 2.0 * trace.mesh.nodes))) <= 1e-12


@pytest.mark.parametrize("sqrt", [pytest.param(np.sqrt, id="nan"),
                                  pytest.param(np.vectorize(math.sqrt), id="raises")])
@pytest.mark.parametrize("N", [4, 40])
def test_prediction_outside_the_domain_falls_back(sqrt, N):
    # on the t^alpha-like rise of f = sqrt(x)/2 the q = 1/8 weights
    # (512, -584, 73) predict about 1 - 25 sqrt(t_n) at the last steps,
    # below zero, where np.sqrt gives NaN and math.sqrt raises; the
    # nudged start converges there as it does without a prediction
    q, alpha = 0.125, 0.5
    problem = IVProblem(f=lambda t, x: 0.5 * sqrt(x), alpha=alpha, x0=np.array([1.0]))
    with np.errstate(invalid="ignore"):
        trace = solve_ivp(problem, QScale(q, 1.0), N)
    _, ref = mp_l1q_march(q, alpha, N, lambda t, x: mp.sqrt(x) / 2, 1.0, 1e-8)
    assert np.max(np.abs(trace.states[:, 0] - np.array(ref, dtype=float))) <= 1e-12
