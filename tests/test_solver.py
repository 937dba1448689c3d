"""Unit tests for the implicit stepping scheme and its bound evaluators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfde import (
    FixedPointError,
    IVProblem,
    QScale,
    SolverConfig,
    build_mesh,
    caputo_q_derivative,
    contraction_constant,
    error_report,
    make_problem,
    q_gamma,
    solve_ivp,
    solve_linear_history,
    stability_bound,
    truncation_bound,
)


def test_contraction_constant():
    scale = QScale(0.5, 1.0)
    assert contraction_constant(0.0, 0.5, scale) == 0.0
    assert contraction_constant(1.0, 0.5, scale) == pytest.approx(
        1.5720327257863239, rel=1e-12)  # Gamma_q(1/2) at q=1/2, frozen oracle
    with pytest.raises(ValueError):
        contraction_constant(-1.0, 0.5, scale)


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
        trace = solve_linear_history(fs, x0, alpha, scale, N)
        gamma = q_gamma(1.0 - alpha, q)
        for n in range(1, N + 1):
            cap = (abs(x0) + gamma * trace.mesh.nodes[n] ** alpha
                   * np.max(np.abs(fs[:n])))
            assert abs(trace.states[n, 0]) <= cap * (1.0 + 1e-12)


def test_fixed_point_increments_contract():
    # f Lipschitz in x with L1 < 1: consecutive increments shrink by L1
    L = 0.4
    problem = IVProblem(f=lambda t, x: L * x + t, alpha=0.5,
                        x0=np.array([1.0]), lipschitz_L=L)
    scale = QScale(0.5, 1.0)
    trace = solve_ivp(problem, scale, 8)
    L1 = trace.contraction_L1
    assert L1 == pytest.approx(L * q_gamma(0.5, 0.5), rel=1e-12)
    assert 0.0 < L1 < 1.0
    for incs in trace.fp_increment_history:
        for prev, nxt in zip(incs, incs[1:]):
            assert nxt <= L1 * prev + 1e-14


def test_step_limit_unique_for_lipschitz():
    L = 0.4
    problem = IVProblem(f=lambda t, x: L * x + t, alpha=0.5,
                        x0=np.array([1.0]), lipschitz_L=L)
    scale = QScale(0.5, 1.0)
    base = solve_ivp(problem, scale, 8, SolverConfig())
    wide = solve_ivp(problem, scale, 8,
                     SolverConfig(start_perturbation=1e-7))
    assert np.max(np.abs(base.states - wide.states)) <= 1e-13 * 10


def test_solve_linear_history_manufactured():
    # forcing sampled from the exact Caputo derivative of t^2 reproduces
    # x = t^2 within the stability estimate applied to the remainder
    q, alpha, N = 0.5, 0.5, 8
    scale = QScale(q, 1.0)
    mesh = build_mesh(scale, N)
    fs = np.array([caputo_q_derivative(lambda s: s * s, alpha,
                                       float(t), q) for t in mesh.nodes[1:]])
    trace = solve_linear_history(fs, 0.0, alpha, scale, N)
    gamma = q_gamma(1.0 - alpha, q)
    for n in range(1, N + 1):
        rbound = max(truncation_bound(mesh, k, alpha, m2=1.0 + q).value
                     for k in range(1, n + 1))
        err = abs(trace.states[n, 0] - mesh.nodes[n] ** 2)
        assert err <= gamma * mesh.nodes[n] ** alpha * rbound * (1.0 + 1e-10)


def test_solve_linear_history_validation():
    with pytest.raises(ValueError):
        solve_linear_history(np.zeros(3), 0.0, 0.5, QScale(0.5, 1.0), 4)


def test_stability_bound_values():
    assert stability_bound(np.zeros(1), 0.0, 1.0, 0.5, 0.5, 0.0) == 0.0
    # L1 = 0 reduces to the linear-case estimate
    got = stability_bound(np.array([2.0]), 3.0, 1.0, 0.5, 0.5, 0.0)
    assert got == pytest.approx(2.0 + q_gamma(0.5, 0.5) * 3.0, rel=1e-13)
    assert stability_bound(np.array([2.0]), 3.0, 1.0, 0.5, 0.5, 0.5) == pytest.approx(
        2.0 * (2.0 + q_gamma(0.5, 0.5) * 3.0), rel=1e-13)
    with pytest.raises(ValueError):
        stability_bound(np.zeros(1), 1.0, 1.0, 0.5, 0.5, 1.0)


def test_stability_bound_dominates_example1_run():
    problem = make_problem("example1", q=0.25)
    scale = QScale(0.25, 1.0)
    trace = solve_ivp(problem, scale, 10)
    fmax = max(float(np.max(np.abs(problem.f(float(t), np.zeros(1)))))
               for t in trace.mesh.nodes[1:])
    cap = stability_bound(problem.x0, fmax, 1.0, 0.5, 0.25, 0.0)
    assert float(np.max(np.abs(trace.states))) <= cap


def test_error_report_exact_states():
    problem = make_problem("manufactured-quadratic", q=0.5, alpha=0.5)
    scale = QScale(0.5, 1.0)
    trace = solve_ivp(problem, scale, 6)
    # feeding the exact solution back gives zero errors
    for n in range(7):
        trace.states[n] = problem.exact(float(trace.mesh.nodes[n]))
    report = error_report(trace, problem, m2=1.5, L1=0.0)
    assert np.all(report.abs_err == 0.0)
    assert np.all(report.bound >= 0.0)


def test_error_report_theorem5_dominance():
    # linear-in-x problems: errors stay under the a-priori estimate
    for name, q, alpha in [("example1", 0.25, 0.5),
                           ("manufactured-quadratic", 0.5, 0.5),
                           ("manufactured-quadratic", 2.0 / 3.0, 2.0 / 3.0),
                           ("manufactured-linear", 0.7, 0.3)]:
        problem = make_problem(name, q=q, alpha=alpha)
        scale = QScale(q, 1.0)
        trace = solve_ivp(problem, scale, 10)
        report = error_report(trace, problem, m2=1.0 + q, L1=0.0)
        assert np.all(report.abs_err <= report.bound + 1e-12)


def test_error_report_rate_constants():
    problem = make_problem("manufactured-quadratic", q=0.5, alpha=0.5)
    trace = solve_ivp(problem, QScale(0.5, 1.0), 5)
    report = error_report(trace, problem, m2=1.5, L1=0.0)
    q, N = 0.5, 5
    for n in range(1, N + 1):
        expect = report.abs_err[n - 1] / q ** (2 * (N - n))
        assert report.rate_constants[n - 1] == pytest.approx(expect, rel=1e-13)


def test_error_report_requires_exact():
    problem = IVProblem(f=lambda t, x: np.zeros(1), alpha=0.5,
                        x0=np.array([1.0]))
    trace = solve_ivp(problem, QScale(0.5, 1.0), 3)
    with pytest.raises(ValueError):
        error_report(trace, problem, m2=1.0)


def test_fixed_point_failure_carries_partial_trace():
    problem = make_problem("example2", q=2.0 / 3.0)
    with pytest.raises(FixedPointError) as info:
        solve_ivp(problem, QScale(2.0 / 3.0, 1.0), 10,
                  SolverConfig(max_fp_iters=3))
    err = info.value
    assert err.step == 1
    assert err.trace.states.shape[0] == err.step  # nodes before the failure


def test_determinism_bit_identical():
    problem = make_problem("example2", q=2.0 / 3.0)
    scale = QScale(2.0 / 3.0, 1.0)
    a = solve_ivp(problem, scale, 10)
    b = solve_ivp(problem, scale, 10)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.fp_iterations, b.fp_iterations)
    assert np.array_equal(a.residuals, b.residuals)


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
    report = error_report(trace, problem, m2=1.0 + q, L1=0.0)
    assert np.all(report.abs_err <= report.bound + 1e-12)
    # affine component is reproduced almost exactly
    errs_affine = [abs(trace.states[n, 0] - (1.0 + 2.0 * trace.mesh.nodes[n]))
                   for n in range(9)]
    assert max(errs_affine) <= 1e-10


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(fp_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_fp_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(start_perturbation=-1e-9)
    with pytest.raises(ValueError):
        IVProblem(f=lambda t, x: x, alpha=1.2, x0=np.array([1.0]))


@pytest.mark.parametrize("q, N", [(0.25, 32), (2.0 / 3.0, 85), (0.9, 300),
                                  (0.25, 538)])
def test_manufactured_quadratic_large_N(q, N):
    # past the N where the weight chain used to be rejected in rounding,
    # up to the underflow limit of the mesh at q = 1/4 (t_1 = 2^-1074)
    problem = make_problem("manufactured-quadratic", q=q, alpha=0.5)
    trace = solve_ivp(problem, QScale(q, 1.0), N)
    exact = trace.mesh.nodes ** 2 + 1.0
    assert np.max(np.abs(trace.states[:, 0] - exact)) <= 1e-13


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_rhs_stops_at_once(bad):
    calls = []

    def f(t, x):
        calls.append(t)
        return np.array([bad if t > 0.3 else 1.0])

    problem = IVProblem(f=f, alpha=0.5, x0=np.array([1.0]))
    with pytest.raises(FixedPointError, match=r"non-finite value at step n=5 "
                                              r"\(t=0\.5\) on update 1") as info:
        solve_ivp(problem, QScale(0.5, 1.0), 6)
    err = info.value
    assert err.step == 5
    assert err.trace.states.shape == (5, 1)
    assert np.all(np.isfinite(err.trace.states))
    assert sum(t > 0.3 for t in calls) == 1


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
    # the rate constants |e_n| / q^(2(N-n)) of the report divide by an
    # underflowed power at large N; only the bound is checked here
    with np.errstate(divide="ignore", invalid="ignore"):
        report = error_report(trace, quadratic, m2=1.0 + q, L1=0.0)
    assert np.all(report.abs_err <= report.bound + 1e-12)
