"""Matched-filter heartbeat detection on the conditioned SCG channel.

The filter is the time-reversed user template; its output envelope is
peak-picked with a relative threshold, and fixed-length windows are cut
around each mapped peak.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .config import PipelineConfig
from .errors import DegenerateAnalysisError, InputError
from .signal_core import Channel, hilbert_envelope

if TYPE_CHECKING:  # respiration labels events, so it imports this module
    from .respiration import FlowPhase, VolumePhase


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


def _find_peaks(x, height: float, distance: int) -> np.ndarray:
    """Local maxima of x at or above height, at least distance samples apart:
    scipy.signal.find_peaks(x, height=height, distance=distance)[0].

    A flat top is one peak, at its middle sample (rounded down); a flat top
    that runs into either end of x is no peak. Where peaks lie closer than
    distance, the higher one is kept, taking them in the order of
    np.argsort of their heights, as scipy does.
    """
    # every sample of a peak's flat top is >= height and lies inside x
    at = np.flatnonzero(x[1:-1] >= height) + 1
    rises = at[x[at - 1] < x[at]]
    ends = at[x[at + 1] != x[at]]
    # the flat top from each rise runs to the next end; a top that runs
    # into the last sample has no end
    k = np.searchsorted(ends, rises)
    rises, k = rises[k < len(ends)], k[k < len(ends)]
    falls = x[ends[k] + 1] < x[ends[k]]
    peaks = (rises[falls] + ends[k[falls]]) // 2
    if len(peaks) > 1 and np.diff(peaks).min() < distance:
        lo = np.searchsorted(peaks, peaks - distance, side="right")
        hi = np.searchsorted(peaks, peaks + distance, side="left")
        keep = np.ones(len(peaks), dtype=bool)
        for j in np.argsort(x[peaks])[::-1]:
            if keep[j]:
                keep[lo[j]:j] = False
                keep[j + 1:hi[j]] = False
        peaks = peaks[keep]
    return peaks


def detect_events(
    ch: Channel,
    tpl: Template,
    threshold_frac: float = PipelineConfig.threshold_frac,
    min_separation_s: float = PipelineConfig.min_separation_s,
) -> list[ScgEvent]:
    """Detect heartbeat events in a conditioned channel.

    Peaks of the Hilbert envelope of the matched-filter output above
    threshold_frac times the envelope's 95th percentile, separated by at
    least min_separation_s, become events. Windows of template length are
    cut around each mapped peak; peaks too close to either end to fit a
    window are dropped. The threshold is relative, so detection is
    invariant to amplitude scaling of the channel.
    """
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
    peaks = _find_peaks(env, thr, distance)
    length = tpl.length
    refs = peaks - _peak_offset(tpl)
    starts = refs - length // 2
    fits = (starts >= 0) & (starts + length <= len(ch))
    windows = ch.samples[starts[fits, None] + np.arange(length)]
    return [ScgEvent(ref_index=ref, window=window)
            for ref, window in zip(refs[fits].tolist(), windows)]
