"""Exception types shared across the package."""


class QuadclassError(Exception):
    """Base class for all package-specific errors."""


class InputError(QuadclassError, ValueError):
    """A caller-supplied value violates an operation's preconditions."""


class ResourceCapError(QuadclassError, RuntimeError):
    """A configured work or size limit was exceeded before the computation finished.

    ``detail`` carries the offending quantity (an unfactored cofactor, an
    oversized discriminant, ...) so callers can report or retry with a
    bigger budget.
    """

    def __init__(self, message: str, detail=None):
        super().__init__(message)
        self.detail = detail


class InconsistencyError(QuadclassError, RuntimeError):
    """An internal invariant failed, or data the package reads back failed
    its check: a damaged shipped class-number table, or a cached class
    number that disagrees with the table or fails the genus rule.  Indicates
    a bug or damaged data, not bad input."""
