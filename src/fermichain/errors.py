"""Exception types shared across the library.

Validation problems (bad parameters, out-of-domain inputs) derive from
ValueError; numerical failures (quadrature, eigensolver, fits) derive from
RuntimeError. The CLI maps the former to exit code 1 and the latter to 2.
"""


class DomainError(ValueError):
    """Input outside the documented domain of an operation."""


class DegenerateGroundStateError(ValueError):
    """A finite-chain mode energy coincides with the chemical potential."""


class AccuracyError(RuntimeError):
    """A numerical routine could not reach its accuracy target."""

    def __init__(self, message, achieved=None, target=None):
        super().__init__(message)
        self.achieved = achieved
        self.target = target


class QuadratureError(AccuracyError):
    """A quadrature missed its accuracy target; carries the achieved bound."""


class EigenConvergenceError(RuntimeError):
    """The tridiagonal eigensolver ran out of sweeps with off-diagonal
    entries left nonzero."""

    def __init__(self, size, unconverged):
        super().__init__(
            f"eigensolver did not converge for a {size}x{size} tridiagonal: "
            f"{unconverged} off-diagonal entries left nonzero")
        self.size = size
        self.unconverged = unconverged


class FitRejectedError(RuntimeError):
    """Scaling fit residual too large: grid outside the asymptotic regime."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual
