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
    found) unless it exists and the block decodes it as UTF-8; a decode
    error names the file's first undecodable line."""
    if not Path(path).is_file():
        raise InputError(f"{what} not found: {path}")
    try:
        yield
    except UnicodeDecodeError as exc:
        # b"\n" is in no UTF-8 multibyte sequence: the first bad line holds the fault
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as bad:
                    raise InputError(f"{path}:{lineno}: not UTF-8 text ({bad.reason})") from None
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None
