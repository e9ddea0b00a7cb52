"""Semantic exception hierarchy shared across the package."""


class NoninvError(ValueError):
    """Base class for all errors raised by this package."""


class EmptySetError(NoninvError):
    """A function was given an empty domain or codomain."""


class LengthMismatchError(NoninvError):
    """The image sequence does not have exactly domain_size entries."""


class OutOfRangeImageError(NoninvError):
    """An image entry is not an integer in [0, codomain_size)."""


class SizeMismatchError(NoninvError):
    """Two functions were combined whose sizes are incompatible."""


class InvalidExponentError(NoninvError):
    """A fiber-power exponent below 1 was requested."""


class NegativePartError(NoninvError):
    """A multinomial part was negative."""


class BudgetExceededError(NoninvError):
    """An enumeration or a sampler would do more work than its budget or
    cap allows."""


class InvalidSizeError(NoninvError):
    """A size parameter is outside the range an operation supports."""


class FunctionFileError(NoninvError):
    """A function file could not be parsed.

    Carries the 1-based line and column of the offending token so CLI
    messages can point at the problem.
    """

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
