"""Exception hierarchy shared by all modules, and the one check of a seed.

Data-shaped problems (bad input files, invariant violations, empty inputs)
derive from DataError; problems with model construction or use derive from
ModelError. The CLI maps these to distinct exit codes.
"""


class AtRiskError(Exception):
    """Base class for all errors raised by this package."""


class DataError(AtRiskError):
    """Input data is malformed, inconsistent, or unusable."""


class ParseError(DataError):
    """A line of an input file could not be parsed."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class ValidationError(DataError):
    """Parsed records violate a cohort invariant."""


class SchemaError(DataError):
    """A numeric vector does not match the declared column schema."""


class EmptyInputError(DataError):
    """An operation that needs data received none."""


class InsufficientDataError(DataError):
    """Not enough rows/observations to run the requested fit."""


class CalibrationError(DataError):
    """The synthetic generator could not hit its target dropout rate."""


class ModelError(AtRiskError):
    """Model training or prediction failed."""


class DegenerateDataError(ModelError):
    """Training data contains a single class or is otherwise unlearnable."""


def check_seed(seed: int) -> None:
    if seed < 0:
        raise ValidationError("seed must be non-negative")
