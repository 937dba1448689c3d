"""Registry of benchmark initial value problems.

Each factory receives the run parameters (q, b, alpha) and returns a
fully assembled :class:`IVProblem`.  Forcing terms built from exact
solutions use the power rule

    D^alpha t^beta  =  Gamma_q(beta+1) / Gamma_q(beta+1-alpha) * t^(beta-alpha),

which the test suite confirms against direct quadrature before anything
relies on it.
"""

from __future__ import annotations

import numpy as np

from .qcore import q_gamma
from .solver import IVProblem


def _vector(v):
    """v as a 1-element array for a scalar t; an array t keeps its shape.

    The solver calls f with a float t on every update, and np.array([v])
    is about half the cost of np.atleast_1d(v) there.
    """
    return np.array([v]) if isinstance(v, float) else np.atleast_1d(v)


def _example1(q: float, b: float, alpha: float) -> IVProblem:
    """Linear problem with exact solution x(t) = t^2 + t + 1 at alpha = 1/2.

    The forcing is the order-1/2 derivative of the exact solution:
    (1+q)/Gamma_q(5/2) * t^(3/2) + (1/Gamma_q(3/2)) * sqrt(t).  Note the
    Gamma_q(5/2) in the quadratic term: the power rule forces it, and
    the quadrature cross-check in the tests confirms it.
    """
    if not abs(alpha - 0.5) <= 1e-12:     # also rejects NaN
        raise ValueError("problem 'example1' is defined for alpha = 1/2")
    c2 = (1.0 + q) / q_gamma(2.5, q)
    c1 = 1.0 / q_gamma(1.5, q)

    def f(t, x):
        return _vector(c2 * t ** 1.5 + c1 * np.sqrt(t))

    return IVProblem(f=f, alpha=0.5, x0=np.array([1.0]), lipschitz_L=0.0,
                     exact=lambda t: _vector(t * t + t + 1.0))


def _example2(q: float, b: float, alpha: float) -> IVProblem:
    """Nonlinear problem  D^(2/3) x = (1+q)/Gamma_q(7/3) * (x-1)^(2/3),  x(0)=1.

    x(t) = t^2 + 1 solves it, but so does x = 1 (both sides vanish at
    the initial value), and the right-hand side is not Lipschitz there;
    the solver's start perturbation selects the nontrivial branch.
    """
    if abs(alpha - 2.0 / 3.0) > 1e-12:
        raise ValueError("problem 'example2' is defined for alpha = 2/3")
    c = (1.0 + q) / q_gamma(7.0 / 3.0, q)

    def f(t, x):
        return c * np.cbrt(np.asarray(x) - 1.0) ** 2

    return IVProblem(f=f, alpha=alpha, x0=np.array([1.0]), lipschitz_L=None,
                     exact=lambda t: _vector(t * t + 1.0))


def _constant(q: float, b: float, alpha: float) -> IVProblem:
    """f = 0 with x0 = 1; the solution stays constant."""
    return IVProblem(f=lambda t, x: _vector(0.0 * t), alpha=alpha,
                     x0=np.array([1.0]), lipschitz_L=0.0,
                     exact=lambda t: _vector(1.0 + 0.0 * t))


def _manufactured_linear(q: float, b: float, alpha: float) -> IVProblem:
    """Exact solution x(t) = 1 + 2t at any order; forcing from the power rule."""
    def f(t, x):
        return _vector(c * t ** (1.0 - alpha))

    # IVProblem checks alpha before Gamma_q(2 - alpha) can meet a pole or overflow
    problem = IVProblem(f=f, alpha=alpha, x0=np.array([1.0]), lipschitz_L=0.0,
                        exact=lambda t: _vector(1.0 + 2.0 * t))
    c = 2.0 / q_gamma(2.0 - alpha, q)
    return problem


def _manufactured_quadratic(q: float, b: float, alpha: float) -> IVProblem:
    """Exact solution x(t) = t^2 + 1 at any order; forcing from the power rule."""
    def f(t, x):
        return _vector(c * t ** (2.0 - alpha))

    # IVProblem checks alpha before Gamma_q(3 - alpha) can meet a pole or overflow
    problem = IVProblem(f=f, alpha=alpha, x0=np.array([1.0]), lipschitz_L=0.0,
                        exact=lambda t: _vector(t * t + 1.0))
    c = (1.0 + q) / q_gamma(3.0 - alpha, q)
    return problem


_REGISTRY = {
    "example1": _example1,
    "example2": _example2,
    "constant": _constant,
    "manufactured-linear": _manufactured_linear,
    "manufactured-quadratic": _manufactured_quadratic,
}

DEFAULT_ALPHA = {"example1": 0.5, "example2": 2.0 / 3.0}   # 1/2 for the others


def problem_names():
    return sorted(_REGISTRY)


def make_problem(name: str, q: float, b: float = 1.0,
                 alpha: float | None = None) -> IVProblem:
    """Resolve a registry problem for the given run parameters."""
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown problem {name!r}; available: {', '.join(problem_names())}")
    if alpha is None:
        alpha = DEFAULT_ALPHA.get(name, 0.5)
    return _REGISTRY[name](q, b, alpha)
