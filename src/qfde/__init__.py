"""q-calculus, Caputo q-fractional operators, and the implicit L1,q solver
for nonlinear q-fractional initial value problems on geometric time scales.
"""

from .errors import (
    FixedPointError,
    MonotonicityError,
    NonConvergenceError,
    PoleError,
    QCalculusError,
    SingularKernelError,
)
from .l1q import (
    L1qCoefficients,
    QMesh,
    TruncationBound,
    WeightTable,
    build_mesh,
    coefficients,
    l1q_apply,
    rearranged_step_weights,
    truncation_bound,
    weight_table,
)
from .problems import make_problem, problem_names
from .qcore import (
    QScale,
    SeriesControl,
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
from .qfrac import caputo_q_derivative, frac_q_integral, rl_q_derivative
from .solver import (
    ErrorReport,
    IVProblem,
    SolveTrace,
    SolverConfig,
    contraction_constant,
    error_report,
    solve_ivp,
    solve_linear_history,
    stability_bound,
)

__version__ = "0.1.0"

__all__ = [
    "FixedPointError", "MonotonicityError", "NonConvergenceError", "PoleError",
    "QCalculusError", "SingularKernelError",
    "QScale", "SeriesControl", "QMesh", "L1qCoefficients", "TruncationBound",
    "WeightTable",
    "IVProblem", "SolverConfig", "SolveTrace", "ErrorReport",
    "q_bracket", "q_factorial", "shifted_factorial_int", "shifted_factorial_real",
    "q_gamma", "q_beta", "q_integral", "q_integral_zero", "q_derivative",
    "q_derivative_n",
    "frac_q_integral", "caputo_q_derivative", "rl_q_derivative",
    "build_mesh", "coefficients", "l1q_apply", "rearranged_step_weights",
    "truncation_bound", "weight_table",
    "solve_ivp", "solve_linear_history", "contraction_constant",
    "stability_bound", "error_report",
    "make_problem", "problem_names",
    "__version__",
]
