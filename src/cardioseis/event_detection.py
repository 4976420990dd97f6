"""Matched-filter heartbeat detection on the conditioned SCG channel.

The filter is the time-reversed user template; its output envelope is
peak-picked with a relative threshold. An event is its ref index, the
mapped peak sample; its window is the template-length cut around it, which
cut_windows makes wherever a stage needs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAnalysisError, InputError
from .signal_core import Channel, hilbert_envelope

THRESHOLD_FRAC = 0.5
MIN_SEPARATION_S = 0.4
MIN_TEMPLATE_SAMPLES = 8


@dataclass(frozen=True)
class Template:
    """A manually designated SCG event used to build the matched filter."""

    samples: np.ndarray
    fs: float

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", arr)
        if arr.size < MIN_TEMPLATE_SAMPLES:
            raise InputError(f"template too short: {arr.size} samples (need >= "
                             f"{MIN_TEMPLATE_SAMPLES})")
        if np.ptp(arr) == 0:
            raise DegenerateAnalysisError("template is constant")

    @property
    def length(self) -> int:
        return len(self.samples)


def cut_windows(samples, refs, length: int) -> np.ndarray:
    """The (n, length) windows of the events at refs: row i is
    samples[refs[i] - length//2:][:length]. Every ref must lie within
    ref_bounds. The rows are gathered from a view of every window, which
    copies only the windows taken."""
    step = samples.strides[0]
    windows = np.lib.stride_tricks.as_strided(samples, (len(samples) - length + 1, length),
                                              (step, step), writeable=False)
    return windows[np.asarray(refs) - length // 2]


def ref_bounds(n: int, length: int) -> tuple[int, int]:
    """The first and last ref whose length-sample window fits in n samples."""
    return length // 2, n - length + length // 2


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


def _matched_envelope(x, tpl: Template) -> np.ndarray:
    """The detection statistic: the Hilbert envelope of x's matched-filter
    output for the template."""
    return hilbert_envelope(matched_filter_output(x, build_matched_filter(tpl)))


def _peak_offset(tpl: Template) -> int:
    """Envelope-peak index minus the ideal reference, measured on the
    template's own matched response. Calibrates the peak-to-event mapping."""
    return int(np.argmax(_matched_envelope(tpl.samples, tpl))) - tpl.length // 2


def _percentile(x, q: float) -> float:
    """np.percentile(x, q) of a non-empty array of finite values, bit for
    bit: numpy's 'linear' rule from one partition, where numpy partitions
    at four places. Of the two values around the point (n - 1) * q / 100,
    the lower is the partition's and the upper the least of those above
    it; numpy's lerp takes the nearer as its base."""
    at = (len(x) - 1) * (q / 100)
    k = int(at)
    g = at - k
    part = np.partition(x, k)
    a = float(part[k])
    b = float(part[k + 1:].min()) if k + 1 < len(x) else a
    return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g


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


def detect_events(ch: Channel, tpl: Template, counts=None) -> np.ndarray:
    """Detect heartbeat events in a conditioned channel; returns their ref
    indices, in ascending order.

    Peaks of the Hilbert envelope of the matched-filter output at or above
    THRESHOLD_FRAC times the envelope's 95th percentile, separated by at
    least MIN_SEPARATION_S, become events. Peaks too close to either end to
    fit a template-length window around their ref are dropped. The
    threshold is relative, so detection is invariant to amplitude scaling
    of the channel. Counts the peaks, those dropped and the threshold in
    counts["peaks"], ["edge_peaks"] and ["envelope_threshold"].
    """
    if tpl.fs != ch.fs:
        raise InputError("channel rate mismatch")
    env = _matched_envelope(ch.samples, tpl)
    thr = THRESHOLD_FRAC * _percentile(env, 95)
    distance = max(1, int(round(MIN_SEPARATION_S * ch.fs)))
    peaks = _find_peaks(env, thr, distance) if thr > 0 else np.empty(0, dtype=int)
    refs = peaks - _peak_offset(tpl)
    first, last = ref_bounds(len(ch), tpl.length)
    kept = refs[(refs >= first) & (refs <= last)]
    if counts is not None:
        counts.update(peaks=len(peaks), edge_peaks=len(refs) - len(kept), envelope_threshold=thr)
    return kept
