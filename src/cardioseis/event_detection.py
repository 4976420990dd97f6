"""Matched-filter heartbeat detection on the conditioned SCG channel.

The filter is the time-reversed user template; its output envelope is
peak-picked with a relative threshold, and fixed-length windows are cut
around each mapped peak.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateAnalysisError, InputError
from .respiration import FlowPhase, VolumePhase
from .signal_core import Channel, hilbert_envelope

DEFAULT_THRESHOLD_FRAC = 0.5
DEFAULT_MIN_SEPARATION_S = 0.4


@dataclass(frozen=True)
class Template:
    """A manually designated SCG event used to build the matched filter."""

    samples: np.ndarray
    fs: float

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", arr)
        if arr.size < 8:
            raise InputError(f"template too short: {arr.size} samples (need >= 8)")
        if np.ptp(arr) == 0:
            raise DegenerateAnalysisError("template is constant")

    @property
    def length(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class ScgEvent:
    """One detected heartbeat window.

    ref_index is the mapped envelope-peak sample in the conditioned SCG
    channel; window is the template-length cut centered on it
    (start = ref - L//2). The phase labels are filled by the label stage.
    """

    ref_index: int
    window: np.ndarray
    flow_phase: Optional[FlowPhase] = None
    volume_phase: Optional[VolumePhase] = None


def template_from_channel(ch: Channel, start_s: float, length_s: float) -> Template:
    """Cut a template out of a conditioned channel by time span."""
    start = int(round(start_s * ch.fs))
    length = int(round(length_s * ch.fs))
    if start < 0 or start + length > len(ch):
        raise InputError(f"template span [{start_s}s + {length_s}s] outside recording")
    return Template(ch.samples[start:start + length].copy(), ch.fs)


def build_matched_filter(tpl: Template) -> np.ndarray:
    """Time-reversed template: w[t] = l[L - t + 1]."""
    return tpl.samples[::-1].copy()


def matched_filter_output(x, w) -> np.ndarray:
    """Full linear convolution of the signal with the matched filter.

    A template occurrence starting at sample p peaks at full-convolution
    index p + L - 1; detect_events undoes that offset (plus the envelope's
    own bias, calibrated on the template itself) when mapping peaks back
    to channel indices.
    """
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    if len(x) < len(w):
        raise InputError("signal shorter than template")
    return np.convolve(x, w, mode="full")


def _peak_offset(tpl: Template) -> int:
    """Envelope-peak index minus the ideal reference, measured on the
    template's own matched response. Calibrates the peak-to-event mapping."""
    y = matched_filter_output(tpl.samples, build_matched_filter(tpl))
    env = hilbert_envelope(y)
    return int(np.argmax(env)) - tpl.length // 2


def detect_events(
    ch: Channel,
    tpl: Template,
    threshold_frac: float = DEFAULT_THRESHOLD_FRAC,
    min_separation_s: float = DEFAULT_MIN_SEPARATION_S,
) -> list[ScgEvent]:
    """Detect heartbeat events in a conditioned channel.

    Peaks of the Hilbert envelope of the matched-filter output above
    threshold_frac times the envelope's 95th percentile, separated by at
    least min_separation_s, become events. Windows of template length are
    cut around each mapped peak; peaks too close to either end to fit a
    window are dropped. The threshold is relative, so detection is
    invariant to amplitude scaling of the channel.
    """
    from scipy.signal import find_peaks
    if not (0 < threshold_frac < 1):
        raise InputError(f"threshold_frac must be in (0,1), got {threshold_frac}")
    if tpl.fs != ch.fs:
        raise InputError("channel rate mismatch")
    w = build_matched_filter(tpl)
    y = matched_filter_output(ch.samples, w)
    env = hilbert_envelope(y)
    thr = threshold_frac * float(np.percentile(env, 95))
    if thr <= 0:
        return []
    distance = max(1, int(round(min_separation_s * ch.fs)))
    peaks, _ = find_peaks(env, height=thr, distance=distance)
    offset = _peak_offset(tpl)
    length = tpl.length
    events = []
    for k in peaks:
        ref = int(k) - offset
        start = ref - length // 2
        if start < 0 or start + length > len(ch):
            continue
        events.append(ScgEvent(ref_index=ref, window=ch.samples[start:start + length].copy()))
    return events
