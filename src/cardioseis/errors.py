"""Exception hierarchy shared across the pipeline.

Exit-code mapping (see cli): InputError -> 2, DegenerateAnalysisError -> 3,
anything else -> 4.
"""


class CardioseisError(Exception):
    """Base class for all library errors."""


class InputError(CardioseisError):
    """Bad input data or configuration (file parsing, missing columns, ...)."""


class DegenerateAnalysisError(CardioseisError):
    """Analysis cannot proceed: empty group, zero-RMS average, constant signal."""
