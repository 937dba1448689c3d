"""The Jackson series for the first difference weight b_1.

Nothing in the package calls this any more: solves read b_1 off
``l1q.weight_table`` (S).  The module stays only because the benchmark's
tracer (``perfbench/tracing.py``) looks up ``qfde._kernels.b1_weight`` when
it installs its spans, and fails without it.  Delete it together with that
entry at the next change to the benchmark.
"""

import sys

from .errors import NonConvergenceError
from .qcore import SeriesControl, shifted_factorial_real

_TINY = sys.float_info.min


def b1_weight(t_n, t_1, alpha, q, rel_tol, max_terms):
    """First difference weight b_1 = (1-q) * sum_i q^i (t_n - q^(i+1) t_1)^(-alpha).

    The first subinterval starts at 0, so, unlike the later weights, b_1
    has no closed form and keeps the full Jackson series.  Terms decay at
    rate q; stop after three consecutive terms below tolerance.
    """
    ctl = SeriesControl(rel_tol, max_terms)
    total = 0.0
    qi = 1.0
    s = q * t_1
    small = 0
    for _ in range(max_terms):
        term = qi * shifted_factorial_real(t_n, s, -alpha, q, ctl)
        total += term
        if term < rel_tol * (total + _TINY):
            small += 1
            if small == 3:
                return (1.0 - q) * total
        else:
            small = 0
        qi *= q
        s *= q
    raise NonConvergenceError(
        f"b_1 series did not settle within {max_terms} terms")
