"""Registry problems: construction, forcing terms, exact solutions."""

import numpy as np
import pytest

from qfde import QScale, build_mesh, caputo_q_derivative, make_problem, problem_names, q_gamma


def test_registry_names():
    assert problem_names() == ["constant", "example1", "example2",
                               "manufactured-linear", "manufactured-quadratic"]
    with pytest.raises(KeyError):
        make_problem("nope", q=0.5)


@pytest.mark.parametrize("name", problem_names())
@pytest.mark.parametrize("q", [0.25, 2.0 / 3.0, 0.9])
def test_every_registry_problem_has_an_exact_solution(name, q):
    # qfde solve, converge and bounds compare with it without checking for
    # it, calling it once on the node array, whose shape it keeps
    problem = make_problem(name, q)
    nodes = build_mesh(QScale(q), 40).nodes
    exact = np.asarray(problem.exact(nodes), dtype=float)
    assert exact.shape == nodes.shape and np.all(np.isfinite(exact))


def test_example1_forcing_is_the_derivative_of_the_exact_solution():
    # the t^(3/2) coefficient must carry Gamma_q(5/2); cross-check the
    # assembled forcing against the quadrature of the exact solution
    q = 0.25
    problem = make_problem("example1", q=q)
    assert problem.lipschitz_L == 0.0
    for t in (0.25, 0.5, 1.0):
        ref = caputo_q_derivative(lambda s: s * s + s + 1.0, 0.5, t, q)
        got = float(problem.f(t, problem.x0)[0])
        assert got == pytest.approx(ref, rel=1e-9)
    with pytest.raises(ValueError):
        make_problem("example1", q=q, alpha=0.7)


def test_example2_forcing_matches_exact_branch():
    q = 2.0 / 3.0
    problem = make_problem("example2", q=q)
    assert problem.lipschitz_L is None
    c = (1.0 + q) / q_gamma(7.0 / 3.0, q)
    for t in (0.3, 1.0):
        x = np.array([t * t + 1.0])
        assert float(problem.f(t, x)[0]) == pytest.approx(
            c * t ** (4.0 / 3.0), rel=1e-12)
        ref = caputo_q_derivative(lambda s: s * s + 1.0, 2.0 / 3.0, t, q)
        assert float(problem.f(t, x)[0]) == pytest.approx(ref, rel=1e-8)
    # trivial branch: the right-hand side vanishes at the initial value
    assert float(problem.f(0.5, problem.x0)[0]) == 0.0
    with pytest.raises(ValueError):
        make_problem("example2", q=q, alpha=0.5)


def test_manufactured_problems_satisfy_power_rule():
    for name, exact, beta_term in [
            ("manufactured-linear", lambda t: 1.0 + 2.0 * t, 1),
            ("manufactured-quadratic", lambda t: t * t + 1.0, 2)]:
        for q, alpha in [(0.5, 0.5), (0.7, 0.3)]:
            problem = make_problem(name, q=q, alpha=alpha)
            for t in (0.4, 0.9):
                ref = caputo_q_derivative(exact, alpha, t, q)
                assert float(problem.f(t, problem.x0)[0]) == pytest.approx(
                    ref, rel=1e-9)
            assert float(problem.exact(0.0)[0]) == float(problem.x0[0])


def test_constant_problem():
    problem = make_problem("constant", q=0.5, alpha=0.3)
    assert float(problem.f(0.7, np.array([5.0]))[0]) == 0.0
    assert float(problem.exact(0.9)[0]) == 1.0


@pytest.mark.parametrize("name", ["manufactured-linear", "manufactured-quadratic",
                                  "example1", "example2", "constant"])
def test_registry_closures_take_float_numpy_scalar_or_array_t(name):
    # the solver passes a float; numpy scalars and arrays of t still work
    problem = make_problem(name, q=0.5, alpha=None if name.startswith("example") else 0.5)
    ts = np.array([0.25, 0.5, 1.0])
    x = problem.exact(ts)
    assert x.shape == ts.shape
    for i, t in enumerate(ts):
        for arg in (float(t), t, np.array(t)):
            exact, rhs = problem.exact(arg), problem.f(arg, x[i:i + 1])
            assert exact.shape == rhs.shape == (1,)
            assert exact[0] == x[i]
            assert rhs[0] == pytest.approx(problem.f(ts, x)[i], rel=1e-15)
