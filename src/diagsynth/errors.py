"""Exception types shared across the package."""


class DiagSynthError(Exception):
    """Base class for all package-specific errors."""


class LengthMismatch(DiagSynthError, ValueError):
    """Binary vectors or matrices of incompatible lengths were combined."""


class CommutationViolation(DiagSynthError, ValueError):
    """X- and Z-stabilizer bases fail the orthogonality requirement."""


class BudgetExceeded(DiagSynthError, RuntimeError):
    """An exact enumeration would exceed the configured budget.

    ``required_log2`` is the log2 of the enumeration size that was requested.
    """

    def __init__(self, message: str, required_log2: int | None = None):
        super().__init__(message)
        self.required_log2 = required_log2


class NotPreserved(DiagSynthError, RuntimeError):
    """An operation requiring a code-preserving gate was called on a pair
    that does not preserve the code."""


class OddComponent(DiagSynthError, ValueError):
    """A qubit-graph component has odd size, so no sign-balanced character
    vector exists."""


class InadmissibleStep(DiagSynthError, RuntimeError):
    """A pipeline running in strict mode hit an inadmissible operation."""

    def __init__(self, message: str, step=None):
        super().__init__(message)
        self.step = step
