"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to converge or stabilize."""


class ModelViolationError(RuntimeError):
    """A model admissibility condition (positivity of the rho denominator,
    hypothesis inequalities, ...) was violated."""


class StepError(NumericalError):
    """A time step's fixed-point solve did not converge.

    ``iterations`` is the number of fixed-point evaluations made and
    ``residual`` the last convergence measure the solve tested against its
    tolerance; both are repeated in the message.
    """

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(f"{message} ({iterations} iterations, last residual "
                         f"{residual:.3g})")
        self.iterations = iterations
        self.residual = residual
