"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A parameter is outside its documented range."""


class PhysicalityError(ArithmeticError):
    """A covariance-matrix quantity violates physicality beyond tolerance."""


class RecordFormatError(ValueError):
    """A data file could not be parsed; carries the first offending line
    numbers (at most 20) in ``lines`` and how many there are in ``count``."""

    def __init__(self, message: str, lines: list[int] | None = None, count: int | None = None):
        super().__init__(message)
        self.lines = lines or []
        self.count = len(self.lines) if count is None else count


class DegenerateDataError(ValueError):
    """A statistic is undefined for the given data (singular or degenerate)."""


class UnitError(ValueError):
    """Records are in the wrong or mismatched units for the requested operation."""
