"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A scalar argument is outside its admissible range."""


class ContractError(ValueError):
    """An input violates a documented operation contract (meshes not
    nested, nonzero boundary values, mismatched shapes, ...)."""


class PreconditionError(ValueError):
    """A mathematical admissibility condition fails (e.g. initial datum
    supported too close to the degenerate boundary)."""

    def __init__(self, message, support_distance=None):
        super().__init__(message)
        self.support_distance = support_distance


class DegenerateObservationError(ArithmeticError):
    """The observed boundary flux is numerically zero, so an
    energy/observation ratio is undefined."""


class EigensolverError(RuntimeError):
    """The iterative eigensolver failed to converge."""
