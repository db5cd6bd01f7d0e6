"""Exception types shared across the package."""


class CstarPinvError(Exception):
    """Base class for all errors raised by this package."""


class ConformabilityError(CstarPinvError):
    """Shapes or algebra signatures of the operands do not match."""


class StructureError(CstarPinvError):
    """A complex matrix is not (close enough to) an algebra-linear operator."""


class InvalidDecompositionError(CstarPinvError):
    """A supplied operator violates the projection invariants."""


class DegenerateDecompositionError(CstarPinvError):
    """A block decomposition was requested for an operator without one."""


class FactorizationError(CstarPinvError):
    """An SVD did not converge."""


class SizeLimitError(CstarPinvError):
    """An operator's block matrices would exceed the supported size."""


class GenerationError(CstarPinvError):
    """Structured instance generation exhausted its retry budget."""


class OperatorFileError(CstarPinvError):
    """An operator file is malformed; ``field`` names the first offender."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")
