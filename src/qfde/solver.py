"""Implicit time stepping for the q-fractional initial value problem.

With the weights b_k(n) = t_n^(-alpha) G(n-k) (k >= 2) and
b_1(n) = t_n^(-alpha) S(n) read off the process's kept
:class:`~qfde.l1q.WeightTable` of (q, alpha), step n solves the increment
form

    lead_n dx^n = Gamma_q(1-alpha) t_n^alpha f(t_n, x^n) - hist_n,
    hist_n = S(n) dx^1 + sum_{k=2}^{n-1} G(n-k) dx^k,

for dx^n = x^n - x^{n-1}, with lead_1 = S(1) and lead_n = G(0) after.
Everything that does not change from step to step is built once per
solve: the gains Gamma_q(1-alpha) t_n^alpha / lead_n in one array
operation (Gamma_q = G(0) (1-q)^alpha), the nodes as Python floats (f
receives t as a float), and one reversed buffer of the history weights
G(m)/G(0).  Step n writes S(n)/G(0) into the slot just before its G
part, so hist_n / lead_n is a single dot product over dx^1 .. dx^{n-1},
and puts the slot back after.
A step then costs that dot product, the start, and per update one call
of f and a few operations on the state.

:func:`solve_ivp` runs the one step loop.  :func:`solve_linear_history`
is :func:`solve_ivp` on given forcing samples f^1 .. f^N: its f returns
f^n at t_n, so the first update of each step is the step's solution.

The state is a Python float when d = 1 and an array of shape (d,)
otherwise, chosen once per solve from d: the one step loop is written
over the few operations that differ (the call of f, the norm, the inner
product and the start); for d = 1 it reads and writes the one column
of the states and increments as 1-D views.  f
still receives x as a fresh float64 array of shape (d,) and t as a
float, and for d = 1 its value is read back as one float.  Each float
operation rounds as numpy's does on one component.

A nonlinear step solves the fixed-point equation x = g(x) =
base + gain f(t_n, x) by Picard updates x <- g(x) with depth-1 Anderson
mixing (Walker & Ni, SIAM J. Numer. Anal. 49, 2011): while the residuals
r = g(x) - x shrink, the update is g(x_k) - gamma (g(x_k) - g(x_{k-1}))
with gamma = <dr, r_k>/<dr, dr>, dr = r_k - r_{k-1}, which for d = 1 is
the secant method on g(x) - x.  When a residual grows, the plain update
is kept.

Step n > 1 starts from the extrapolation of the last states to t_n (a
predictor-corrector start, Diethelm, Ford & Freed, Nonlinear Dyn. 29,
2002): the quadratic through x^{n-3}, x^{n-2}, x^{n-1}, through
t_0 = 0 at n = 3, and the line through (0, x^0), (t_1, x^1) at n = 2.
Since t_{n-k} = t_n q^k, its weights depend on q alone and are built once
per solve, never from the nodes, which underflow near t_1.  Step 1, and
every component whose last increment dx^{n-1} is exactly zero, start
instead from x^{n-1} nudged by a small relative perturbation: problems
whose right-hand side vanishes at the initial value (the nonlinear
registry problem does) make the constant continuation a spurious
repelling fixed point, and starting exactly on it, where the prediction
of a resting component lands, would freeze the iteration there.  Near
that point the residuals grow, so the plain updates carry the iterate
away from it before any secant step could extrapolate back; for regular
Lipschitz problems the nudge is absorbed in the first update.

A step that fails from the prediction, by exhausting MAX_FP_ITERS,
going STALL_UPDATES updates in a row without a new least residual (it
cycles), meeting a non-finite value or an ArithmeticError or ValueError
raised by f (a prediction may leave f's domain), is solved once more
from the nudged start, which has the whole MAX_FP_ITERS budget, before
:class:`FixedPointError` is raised; its fp_iterations then counts the
updates of both attempts.  A non-finite value ends an attempt at once:
a right-hand side non-finite at t_n costs one call per start.

f(t, x) may return a Python float, a list, a 0-d value broadcast over
the d components, or an array of shape (d,).
Each input is checked once, where it enters: q and b by QScale, N by
build_mesh (N = len(fsamples) for :func:`solve_linear_history`, which
also checks its samples), alpha, x0 and L by :class:`IVProblem`.  The
a-priori bounds take that problem with its scale or mesh, and refuse L1 >= 1.

Norms are max-norms throughout.  A single solve is sequential in n;
distinct solves share only read-only weight tables, and may run
concurrently.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import FixedPointError
from .l1q import QMesh, _check_m2, _table, build_mesh
from .qcore import QFunction, QScale

# The fixed-point iteration of each step; solve_ivp reads these at each
# call.  An update is accepted once |g(x) - x| <= FP_TOL (1 + |g(x)|).
FP_TOL = 1e-13
# Updates an attempt may take before it fails.
MAX_FP_ITERS = 200
# Relative nudge of x^{n-1} that starts step 1, every component whose
# last increment is exactly zero, and the re-solve of a step that fails
# from the predicted start.
START_PERTURBATION = 1e-8
# Updates in a row without a new least residual after which the attempt
# from the predicted start gives way to the nudged one; the nudged
# attempt has the whole MAX_FP_ITERS budget.
STALL_UPDATES = 8


@dataclass
class IVProblem:
    """Initial value problem  D^alpha x = f(t, x),  x(0) = x0,  on [0, b]."""

    f: Callable[[float, np.ndarray], np.ndarray]
    alpha: float
    x0: np.ndarray
    lipschitz_L: Optional[float] = None
    exact: Optional[QFunction] = None
    d: int = field(init=False)    # len(x0)

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"fractional order must be in (0, 1), got {self.alpha}")
        if self.lipschitz_L is not None and not self.lipschitz_L >= 0.0:
            raise ValueError(f"Lipschitz constant must be >= 0, got {self.lipschitz_L}")
        x0 = self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if x0.ndim != 1:
            raise ValueError(f"x0 must be 1-D, got shape {x0.shape}")
        if not np.all(np.isfinite(x0)):
            raise ValueError(f"initial value x0 must be finite, got {x0}")
        self.d = x0.shape[0]


@dataclass
class SolveTrace:
    """Per-step record of a solve, up to the last step solved if it failed."""

    mesh: QMesh
    states: np.ndarray            # shape (N+1, d); states[0] = x0 exactly
    fp_iterations: np.ndarray     # per-step fixed-point updates (confirming update excluded;
                                  # both attempts when the step falls back to the nudged start)
    residuals: np.ndarray         # per-step final fixed-point increment (max-norm)


def contraction_constant(problem: IVProblem, scale: QScale) -> float:
    """L_1 = L Gamma_q(1-alpha) b^alpha, Gamma_q the kept table's; contracts iff < 1."""
    if (L := problem.lipschitz_L) is None:
        raise ValueError("the problem has no Lipschitz constant; the bounds need one")
    return L * _table(scale.q, problem.alpha, 1).gamma * scale.b ** problem.alpha


def _contracting(problem: IVProblem, scale: QScale) -> float:
    """The contraction constant L1, refused unless < 1, as both bounds need."""
    L1 = contraction_constant(problem, scale)
    if not L1 < 1.0:
        raise ValueError(f"contraction constant must be in [0, 1), got {L1}")
    return L1


def _norm(v: np.ndarray) -> float:
    """Max-norm of a 1-d array, not finite if any component is not.

    Python floats beat a numpy reduction on the few components of a
    state.  The plain max would skip a NaN after the first component,
    but the sum of the components is NaN exactly when one of them is NaN
    or +inf and -inf both occur, and that NaN is returned.
    """
    values = v.tolist()
    total = sum(values)
    return total if total != total else max(map(abs, values))


def _single(v: float) -> list:
    return [v]


def solve_ivp(problem: IVProblem, scale: QScale, N: int) -> SolveTrace:
    """March the implicit scheme over the N-node geometric mesh.

    Raises :class:`FixedPointError` (carrying the partial trace) if a
    step exhausts MAX_FP_ITERS or meets a non-finite value from the
    nudged start, tried after any failure of the predicted one (see the
    module docstring).
    """
    mesh = build_mesh(scale, N)
    alpha = problem.alpha
    table = _table(scale.q, alpha, N)
    G, S = table.G[:N], table.S[:N + 1]
    lead = np.full(N + 1, G[0])
    lead[1] = S[1]
    gains = (table.gamma * mesh.nodes ** alpha / lead).tolist()
    nodes = mesh.nodes.tolist()
    # weights[N-1-m] = G(m)/G(0), so hist_n / lead_n = weights[N-n:N-1] @ dx[1:n]
    # once slot N-n, which holds G(n-1)/G(0), holds S(n)/G(0) instead.
    weights = G[::-1] / G[0]
    first = (S / G[0]).tolist()

    states = np.zeros((N + 1, problem.d))
    states[0] = problem.x0
    dx = np.zeros_like(states)
    iters = np.zeros(N, dtype=int)
    residuals = np.zeros(N)

    f, fp_tol, max_iters, pert = problem.f, FP_TOL, MAX_FP_ITERS, START_PERTURBATION
    q = scale.q
    c = 1.0 + q + q * q
    # Extrapolation weights to t_n from the last three states (two at
    # n = 2, through t_0 = 0 at n <= 3); they depend on q alone because
    # t_{n-k} = t_n q^k.
    extrapolation = (None, None,
                     np.array([-(1.0 - q) / q, 1.0 / q]),
                     np.array([(1.0 - q) * (1.0 - q * q) / q ** 3,
                               -1.0 / q ** 3, (1.0 + q) / q ** 2]),
                     np.array([q ** -3, -c / q ** 3, c / q ** 2]))

    if problem.d == 1:
        # A scalar state is a Python float, and the states and increments
        # are read as 1-D views; f still receives x as a fresh array of
        # shape (1,), and its value is read back as one float.
        def rhs(t, x):
            v = f(t, np.array([x]))
            return v if type(v) is float else np.asarray(v, dtype=float).item()

        norm, inner, state, components = abs, operator.mul, float, _single
        path, dx = states[:, 0], dx[:, 0]
    else:
        def rhs(t, x):
            return np.asarray(f(t, x), dtype=float)

        norm, inner, state, components = _norm, operator.matmul, np.asarray, np.ndarray.tolist
        path = states
    prev, last = state(path[0]), dx[0]

    def attempt(n, t_n, base, gain, x, increments, start, patience):
        """Update from x until converged; return (g(x), None) or (None, failure).

        Gives up once patience updates in a row find no new least residual.
        """
        best, since = math.inf, 0
        for k in range(max_iters + 1):
            gx = base + gain * rhs(t_n, x)
            r = gx - x
            inc = norm(r)
            increments.append(inc)
            if not math.isfinite(inc):
                return None, (f"non-finite value at step n={n} (t={t_n:.6g}) "
                              f"on update {k + 1} from the {start} start")
            if inc <= fp_tol * (1.0 + norm(gx)):
                return gx, None
            if inc < best:
                best, since = inc, 0
            else:
                since += 1
                if since == patience:
                    return None, (f"fixed-point iteration at step n={n} (t={t_n:.6g}) "
                                  f"stalled for {patience} updates from the {start} "
                                  f"start")
            x = gx
            # depth-1 Anderson mixing, only while the residuals shrink
            if k > 0 and inc < increments[-2]:
                dr = r - r_prev
                dr2 = inner(dr, dr)
                if dr2 > 0.0:
                    x = gx - (inner(dr, r) / dr2) * (gx - gx_prev)
            r_prev, gx_prev = r, gx
        return None, (f"fixed-point iteration at step n={n} (t={t_n:.6g}) did not "
                      f"converge within {max_iters} updates from the {start} start")

    for n in range(1, N + 1):
        # x^n = g(x^n) = base + gain f(t_n, x^n), base = x^{n-1} - hist_n / lead_n
        k = N - n
        slot, weights[k] = weights[k], first[n]
        base = prev - state(weights[k:N - 1] @ dx[1:n])
        weights[k] = slot
        t_n, gain = nodes[n], gains[n]
        increments: list = []
        moved = components(last)
        x, after = None, ""
        if any(moved):
            predicted = state(extrapolation[min(n, 4)] @ path[max(n - 3, 0):n])
            if 0.0 in moved:
                predicted = np.where(last != 0.0, predicted, prev * (1.0 + pert) + pert)
            after = ", after the predicted start failed"
            try:
                x, _ = attempt(n, t_n, base, gain, predicted, increments, "predicted",
                               STALL_UPDATES)
            except (ArithmeticError, ValueError):
                pass    # f raised outside its domain, as math.sqrt does
        if x is None:
            x, failure = attempt(n, t_n, base, gain, prev * (1.0 + pert) + pert,
                                 increments, "nudged", max_iters + 1)
            if x is None:
                trace = SolveTrace(mesh, states[:n], iters[:n - 1], residuals[:n - 1])
                raise FixedPointError(failure + after, step=n, trace=trace)
        iters[n - 1] = max(len(increments) - 1, 1)
        residuals[n - 1] = increments[-1]
        path[n] = x
        last = x - prev
        dx[n] = last
        prev = x
    return SolveTrace(mesh=mesh, states=states, fp_iterations=iters, residuals=residuals)


def solve_linear_history(fsamples: np.ndarray, x0: np.ndarray, alpha: float,
                         scale: QScale) -> SolveTrace:
    """:func:`solve_ivp` when f^1 .. f^N are given data: f(t_n, x) = f^n.

    f does not depend on x, so the first update of each step is its
    solution, and a second at most confirms it.  Raises ValueError if the
    samples' width is neither len(x0) nor 1, or, naming the first bad
    sample, if any forcing sample is not finite.
    """
    fsamples = np.atleast_1d(np.asarray(fsamples, dtype=float))
    if fsamples.ndim == 1:
        fsamples = fsamples[:, None]
    problem = IVProblem(f=lambda t, x: forcing[t], alpha=alpha, x0=x0)
    if fsamples.ndim != 2 or fsamples.shape[1] not in (1, problem.d):
        raise ValueError(f"forcing samples of shape {fsamples.shape} fit neither "
                         f"x0 of shape {problem.x0.shape} nor width 1")
    bad = ~np.all(np.isfinite(fsamples), axis=1)
    if bad.any():
        n = int(np.argmax(bad)) + 1
        raise ValueError(f"forcing sample f^{n} is not finite: {fsamples[n - 1]}")
    # solve_ivp passes f exactly these floats, which build_mesh keeps distinct
    forcing = dict(zip(build_mesh(scale, len(fsamples)).nodes[1:].tolist(), fsamples))
    return solve_ivp(problem, scale, len(fsamples))


def stability_bound(problem: IVProblem, mesh: QMesh) -> float:
    """A-priori bound (1/(1-L1)) [|x0| + Gamma_q(1-alpha) b^alpha fmax] on max_n |x^n|,
    fmax = max_n |f(t_n, 0)| over t_1 .. t_N; kept Gamma_q."""
    L1 = _contracting(problem, mesh.scale)
    fmax = float(np.max([np.max(np.abs(problem.f(float(t), np.zeros(problem.d))))
                         for t in mesh.nodes[1:]]))
    if not fmax >= 0.0:
        raise ValueError(f"fmax must be >= 0, got {fmax}")
    q, b, alpha = mesh.scale.q, mesh.scale.b, problem.alpha
    return (_norm(problem.x0) + _table(q, alpha, 1).gamma * b ** alpha * fmax) / (1.0 - L1)


def error_bound(problem: IVProblem, mesh: QMesh, m2: float) -> np.ndarray:
    """A-priori bound m2 dt_n^2 / (4 (1 - L1) (1 - q^2) (q^alpha - q)) on the max-norm
    error |x(t_n) - x^n| at nodes n = 1 .. N, where m2 bounds |D_q^2 x|."""
    _check_m2(m2)
    L1 = _contracting(problem, mesh.scale)
    q = mesh.scale.q
    return m2 * mesh.steps ** 2 / (4.0 * (1.0 - L1) * (1.0 - q * q) * (q ** problem.alpha - q))


def rate_constants(abs_err: np.ndarray, q: float) -> np.ndarray:
    """|e_n| / q^(2(N-n)) for the errors e_1 .. e_N of an N-node solve.

    Taken in log space: q^(2(N-n)) underflows (q = 1/8, N = 181) long
    before the quotient leaves the double range.  An exact-zero error
    gives 0 and a quotient past the double range gives inf.
    """
    abs_err = np.asarray(abs_err, dtype=float)
    powers = 2.0 * np.arange(abs_err.size - 1, -1, -1)
    with np.errstate(divide="ignore", over="ignore"):
        return np.exp(np.log(abs_err) - powers * math.log(q))
