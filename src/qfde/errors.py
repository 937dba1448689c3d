"""Exception types shared across the package."""


class QCalculusError(Exception):
    """Base class for numerical failures in q-calculus evaluations."""


class NonConvergenceError(QCalculusError):
    """A truncated series/product hit its term cap before meeting tolerance."""


class PoleError(QCalculusError):
    """Evaluation requested at a pole (q-gamma at a nonpositive integer)."""


class SingularKernelError(QCalculusError):
    """A kernel or Gamma_q meets its pole.

    A shifted-factorial product factor has a vanishing denominator, or an
    order rounds onto the pole of Gamma_q at 0, in :func:`~qfde.qcore.q_gamma`
    and so in the fractional integral (and the derivatives of negative order).
    """


class MonotonicityError(QCalculusError):
    """Computed difference weights violate the strict monotone chain."""


class FixedPointError(QCalculusError):
    """The implicit step's fixed-point iteration did not converge.

    Carries the failing step index and the partial trace so callers can
    still report the nodes that did converge.
    """

    def __init__(self, message, step, trace):
        super().__init__(message)
        self.step = step
        self.trace = trace
