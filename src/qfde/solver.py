"""Implicit time stepping for the q-fractional initial value problem.

With the weights b_k(n) = t_n^(-alpha) G(n-k) (k >= 2) and
b_1(n) = t_n^(-alpha) S(n) of one :class:`~qfde.l1q.WeightTable` per
solve, step n solves the increment form

    lead_n dx^n = Gamma_q(1-alpha) t_n^alpha f(t_n, x^n) - hist_n,
    hist_n = S(n) dx^1 + sum_{k=2}^{n-1} G(n-k) dx^k,

for dx^n = x^n - x^{n-1}, with lead_1 = S(1) and lead_n = G(0) after.
A nonlinear step solves the fixed-point equation x = g(x) =
base + gain f(t_n, x) by Picard updates x <- g(x) with depth-1 Anderson
mixing (Walker & Ni, SIAM J. Numer. Anal. 49, 2011): while the residuals
r = g(x) - x shrink, the update is g(x_k) - gamma (g(x_k) - g(x_{k-1}))
with gamma = <dr, r_k>/<dr, dr>, dr = r_k - r_{k-1}, which for d = 1 is
the secant method on g(x) - x.  When a residual grows, the plain update
is kept.  The starting iterate is x^{n-1} nudged by a small relative
perturbation: problems whose right-hand side vanishes at the initial
value (the nonlinear registry problem does) make the constant
continuation a spurious repelling fixed point, and starting exactly on
it would freeze the iteration there.  Near that point the residuals
grow, so the plain updates carry the iterate away from it before any
secant step could extrapolate back; for regular Lipschitz problems the
nudge is absorbed in the first update.

Norms are max-norms throughout.  A single solve is sequential in n;
distinct solves share no mutable state and may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import FixedPointError
from .l1q import QMesh, build_mesh, weight_table
from .qcore import DEFAULT_CONTROL, QFunction, QScale, SeriesControl, q_gamma


@dataclass
class IVProblem:
    """Initial value problem  D^alpha x = f(t, x),  x(0) = x0,  on [0, b]."""

    f: Callable[[float, np.ndarray], np.ndarray]
    alpha: float
    x0: np.ndarray
    d: int = 0
    lipschitz_L: Optional[float] = None
    exact: Optional[QFunction] = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"fractional order must be in (0, 1), got {self.alpha}")
        self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if self.d == 0:
            self.d = self.x0.shape[0]
        if self.x0.shape != (self.d,):
            raise ValueError(f"x0 must have shape ({self.d},), got {self.x0.shape}")


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-point iteration policy for the implicit step."""

    fp_tol: float = 1e-13
    max_fp_iters: int = 200
    start_perturbation: float = 1e-8
    series: SeriesControl = field(default_factory=SeriesControl)

    def __post_init__(self):
        if self.fp_tol <= 0.0:
            raise ValueError(f"fp_tol must be positive, got {self.fp_tol}")
        if self.max_fp_iters < 1:
            raise ValueError(f"max_fp_iters must be >= 1, got {self.max_fp_iters}")
        if self.start_perturbation < 0.0:
            raise ValueError(
                f"start_perturbation must be >= 0, got {self.start_perturbation}")


@dataclass
class SolveTrace:
    """Per-step record of a solve."""

    mesh: QMesh
    states: np.ndarray            # shape (N+1, d); states[0] = x0 exactly
    fp_iterations: np.ndarray     # per-step fixed-point updates (confirming update excluded)
    residuals: np.ndarray         # per-step final fixed-point increment (max-norm)
    contraction_L1: Optional[float] = None
    fp_increment_history: list = field(default_factory=list)


@dataclass
class ErrorReport:
    """Observed errors vs. the a-priori bound, per node."""

    abs_err: np.ndarray           # max-norm |x(t_n) - x^n|
    bound: np.ndarray             # per-node error-estimate value
    rate_constants: np.ndarray    # |e_n| / q^(2(N-n))


def contraction_constant(L: float, alpha: float, scale: QScale,
                         ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """L_1 = L * Gamma_q(1-alpha) * b^alpha; the step map contracts iff < 1."""
    if L < 0.0:
        raise ValueError(f"Lipschitz constant must be >= 0, got {L}")
    return L * q_gamma(1.0 - alpha, scale.q, ctl) * scale.b ** alpha


def _norm(v: np.ndarray) -> float:
    return float(np.abs(v).max())


def _march(mesh: QMesh, alpha: float, states: np.ndarray, ctl: SeriesControl,
           step: Callable[[int, float, np.ndarray, float], np.ndarray]) -> None:
    """Fill states[1:] by the increment form of the scheme.

    step(n, t_n, base, gain) returns x^n = base + gain * f^n for the
    caller's f^n, where base = x^{n-1} - hist_n / lead_n and
    gain = Gamma_q(1-alpha) t_n^alpha / lead_n.
    """
    table = weight_table(mesh.scale.q, alpha, mesh.N, ctl)
    gamma = q_gamma(1.0 - alpha, mesh.scale.q, ctl)
    dx = np.zeros_like(states)
    G, S = table.G, table.S
    for n in range(1, mesh.N + 1):
        t_n = mesh.nodes[n]
        if n == 1:
            lead, hist = S[1], 0.0
        else:
            lead, hist = G[0], S[n] * dx[1] + G[n - 2:0:-1] @ dx[2:n]
        x = step(n, t_n, states[n - 1] - hist / lead, gamma * t_n ** alpha / lead)
        states[n] = x
        dx[n] = states[n] - states[n - 1]


def solve_ivp(problem: IVProblem, scale: QScale, N: int,
              config: SolverConfig = SolverConfig()) -> SolveTrace:
    """March the implicit scheme over the N-node geometric mesh.

    Raises :class:`FixedPointError` (carrying the partial trace) if any
    step exhausts max_fp_iters or meets a non-finite value.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    mesh = build_mesh(scale, N)
    ctl = config.series
    alpha = problem.alpha

    states = np.zeros((N + 1, problem.d))
    states[0] = problem.x0
    iters = np.zeros(N, dtype=int)
    residuals = np.zeros(N)
    history: list = []
    L1 = None
    if problem.lipschitz_L is not None:
        L1 = contraction_constant(problem.lipschitz_L, alpha, scale, ctl)

    trace = SolveTrace(mesh=mesh, states=states, fp_iterations=iters,
                       residuals=residuals, contraction_L1=L1,
                       fp_increment_history=history)

    pert = config.start_perturbation

    def fixed_point(n, t_n, base, gain):
        x = states[n - 1] * (1.0 + pert) + pert
        increments: list = []
        history.append(increments)
        for _ in range(config.max_fp_iters + 1):
            gx = base + gain * np.asarray(problem.f(t_n, x), dtype=float)
            r = gx - x
            inc = _norm(r)
            increments.append(inc)
            if not math.isfinite(inc):
                trace.states = states[:n]
                raise FixedPointError(
                    f"non-finite value at step n={n} (t={t_n:.6g}) on update "
                    f"{len(increments)}", step=n, trace=trace)
            if inc <= config.fp_tol * (1.0 + _norm(gx)):
                iters[n - 1] = max(len(increments) - 1, 1)
                residuals[n - 1] = inc
                return gx
            x = gx
            # depth-1 Anderson mixing, only while the residuals shrink
            if len(increments) > 1 and inc < increments[-2]:
                dr = r - r_prev
                dr2 = dr @ dr
                if dr2 > 0.0:
                    x = gx - (dr @ r / dr2) * (gx - gx_prev)
            r_prev, gx_prev = r, gx
        trace.states = states[:n]
        raise FixedPointError(
            f"fixed-point iteration at step n={n} (t={t_n:.6g}) did not "
            f"converge within {config.max_fp_iters} updates", step=n, trace=trace)

    _march(mesh, alpha, states, ctl, fixed_point)
    return trace


def solve_linear_history(fsamples: np.ndarray, x0: np.ndarray, alpha: float,
                         scale: QScale, N: int,
                         ctl: SeriesControl = DEFAULT_CONTROL) -> SolveTrace:
    """Explicit forward recurrence when f^1 .. f^N are given data.

    One exact pass per step; no inner iteration.
    """
    fsamples = np.atleast_1d(np.asarray(fsamples, dtype=float))
    if fsamples.ndim == 1:
        fsamples = fsamples[:, None]
    if fsamples.shape[0] != N:
        raise ValueError(f"need N={N} forcing samples, got {fsamples.shape[0]}")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    mesh = build_mesh(scale, N)

    states = np.zeros((N + 1, x0.shape[0]))
    states[0] = x0
    _march(mesh, alpha, states, ctl,
           lambda n, t_n, base, gain: base + gain * fsamples[n - 1])
    return SolveTrace(mesh=mesh, states=states,
                      fp_iterations=np.ones(N, dtype=int),
                      residuals=np.zeros(N))


def stability_bound(x0: np.ndarray, fmax: float, t_n: float, alpha: float,
                    q: float, L1: float,
                    ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """A-priori solution bound (1/(1-L1)) [|x0| + Gamma_q(1-alpha) t_n^alpha fmax]."""
    if not 0.0 <= L1 < 1.0:
        raise ValueError(f"contraction constant must be in [0, 1), got {L1}")
    if fmax < 0.0:
        raise ValueError(f"fmax must be >= 0, got {fmax}")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    return (_norm(x0) + q_gamma(1.0 - alpha, q, ctl) * t_n ** alpha * fmax) / (1.0 - L1)


def error_report(trace: SolveTrace, problem: IVProblem, m2: float,
                 L1: float = 0.0,
                 ctl: SeriesControl = DEFAULT_CONTROL) -> ErrorReport:
    """Per-node errors against the exact solution, with the a-priori bound.

    The bound at node n is
        (1/(1-L1)) * (1/4) * dt_n^2 * m2 / ((1 - q^2) (q^alpha - q)),
    and the rate constants are |e_n| / q^(2(N-n)).
    """
    if problem.exact is None:
        raise ValueError("error report needs a problem with an exact solution")
    if not 0.0 <= L1 < 1.0:
        raise ValueError(f"contraction constant must be in [0, 1), got {L1}")
    mesh = trace.mesh
    q = mesh.scale.q
    alpha = problem.alpha
    N = mesh.N
    abs_err = np.array([
        _norm(np.atleast_1d(np.asarray(problem.exact(mesh.nodes[n]), dtype=float))
              - trace.states[n])
        for n in range(1, N + 1)])
    bound = np.array([
        m2 * mesh.steps[n - 1] ** 2
        / (4.0 * (1.0 - L1) * (1.0 - q * q) * (q ** alpha - q))
        for n in range(1, N + 1)])
    return ErrorReport(abs_err=abs_err, bound=bound,
                       rate_constants=rate_constants(abs_err, q))


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
