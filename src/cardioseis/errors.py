"""Exception hierarchy shared across the pipeline; cli maps each to its
exit code."""

from contextlib import contextmanager
from pathlib import Path


class CardioseisError(Exception):
    """Base class for all library errors."""


class InputError(CardioseisError):
    """Bad input data or configuration (file parsing, missing columns, ...)."""


class DegenerateAnalysisError(CardioseisError):
    """Analysis cannot proceed: empty group, zero-RMS average, constant signal."""


@contextmanager
def input_file(path, what: str):
    """Raise an InputError naming the file `path` (as `what` if it is not
    found) unless it exists and the block decodes it as UTF-8."""
    if not Path(path).is_file():
        raise InputError(f"{what} not found: {path}")
    try:
        yield
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None
