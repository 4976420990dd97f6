"""Pipeline configuration: defaults and flat key=value config files."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import InputError, input_file
from .event_detection import MIN_TEMPLATE_SAMPLES
from .signal_core import _lowpass_taps, _rate_ratio


@dataclass(frozen=True)
class PipelineConfig:
    inputs: tuple[str, ...] = ()
    acquisition_fs: float = 10000.0
    analysis_fs: float = 320.0
    template_start_s: float = 0.0
    template_length_s: float = 0.25
    out_dir: str = "out"

    @property
    def lowpass_cutoff_hz(self) -> float:
        """100 Hz, or 0.4 x analysis_fs where that is lower (below Nyquist)."""
        return min(100.0, 0.4 * self.analysis_fs)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise InputError(f"{f.name} must be finite, got {value}")
        if self.acquisition_fs <= 0:
            raise InputError(f"acquisition_fs must be > 0, got {self.acquisition_fs}")
        if not 0 < self.analysis_fs <= self.acquisition_fs:
            raise InputError(f"analysis_fs must be in (0, acquisition_fs = "
                             f"{self.acquisition_fs:g}], got {self.analysis_fs}")
        if self.template_start_s < 0:
            raise InputError(f"template_start_s must be >= 0, got {self.template_start_s}")
        n_template = round(self.template_length_s * self.analysis_fs)
        if n_template < MIN_TEMPLATE_SAMPLES:
            raise InputError(f"template_length_s must span >= {MIN_TEMPLATE_SAMPLES} samples at "
                             f"analysis_fs = {self.analysis_fs:g}, got {self.template_length_s} "
                             f"({n_template} samples)")
        try:
            # checked here, before any input is read; the lowpass stage reuses the design
            _rate_ratio(self.analysis_fs / self.acquisition_fs)
            _lowpass_taps(self.lowpass_cutoff_hz, float(self.analysis_fs))
        except InputError as exc:
            raise InputError(f"analysis_fs = {self.analysis_fs:g}: {exc}") from None


# `#` starts a comment at the start of a line or after whitespace, so values may contain it
_COMMENT = re.compile(r"(?:^|(?<=\s))#")

# config-file key -> (field name, parser): the key is the field name, but
# `input` for inputs; the parser follows the type of the field's default,
# and reads a tuple from a comma-separated list
_KEYS = {"input" if f.name == "inputs" else f.name:
         (f.name, type(f.default) if not isinstance(f.default, tuple)
          else lambda v: tuple(s.strip() for s in v.split(",") if s.strip()))
         for f in fields(PipelineConfig)}


def load_config(path) -> PipelineConfig:
    """Parse a flat `key = value` config file. Unknown or repeated keys are errors."""
    with input_file(path, "config file"):
        text = Path(path).read_text(encoding="utf-8")
    return parse_config(text, path)


def parse_config(text: str, path) -> PipelineConfig:
    """Parse config-file text; errors name `path` and the line."""
    values: dict = {}
    set_on: dict = {}  # key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise InputError(f"{path}:{lineno}: unknown key {key!r}")
        if key in set_on:
            raise InputError(f"{path}:{lineno}: repeated key {key!r} "
                             f"(first set on line {set_on[key]})")
        set_on[key] = lineno
        name, parse = _KEYS[key]
        try:
            values[name] = parse(value)
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    try:
        return PipelineConfig(**values)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None

