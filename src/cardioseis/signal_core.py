"""Sampled-signal container and the DSP primitives the pipeline is built on.

Everything here is a pure function of its inputs. Channels are treated as
immutable once built; operations return new arrays/channels. scipy is
imported inside the functions that use it, so importing this module (and
the CLI) does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DegenerateAnalysisError, InputError, InternalError


@dataclass(frozen=True)
class Channel:
    """A uniformly sampled real-valued waveform.

    samples: the data (m/s^2, L/s, L, or dimensionless)
    fs: sampling rate in Hz, > 0
    label: free-text channel name
    """

    samples: np.ndarray
    fs: float
    label: str = ""

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", arr)
        if self.fs <= 0:
            raise InputError(f"channel {self.label!r}: fs must be > 0, got {self.fs}")
        if arr.ndim != 1:
            raise InputError(f"channel {self.label!r}: samples must be 1-D")
        if arr.size and not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise InputError(f"channel {self.label!r}: non-finite sample at index {bad}")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.fs

    def with_samples(self, samples, fs=None) -> "Channel":
        return Channel(np.asarray(samples, dtype=float), self.fs if fs is None else fs, self.label)


@dataclass(frozen=True)
class Recording:
    """A bundle of synchronized channels of equal duration."""

    channels: dict[str, Channel]
    recording_id: str = "recording"

    def __getitem__(self, name: str) -> Channel:
        try:
            return self.channels[name]
        except KeyError:
            raise InputError(f"missing channel: {name}") from None


def rms(x) -> float:
    """Root-mean-square of a waveform. Errors on empty input."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise InputError("empty waveform")
    return float(np.sqrt(np.mean(np.square(x))))


@lru_cache(maxsize=32)
def _lowpass_taps(cutoff_hz: float, fs: float) -> np.ndarray:
    """Smallest odd-length Hamming windowed-sinc kernel meeting the band specs.

    Passband: within +/-0.5 dB below 0.8*cutoff.  Stopband: >= 40 dB above
    1.5*cutoff.  Grown in steps until a frequency-response probe passes.
    """
    from scipy import signal as sps
    pass_edge = 0.8 * cutoff_hz
    stop_edge = 1.5 * cutoff_hz
    for numtaps in range(11, 4097, 2):
        taps = sps.firwin(numtaps, cutoff_hz, window="hamming", fs=fs)
        w, h = sps.freqz(taps, worN=2048, fs=fs)
        mag = np.abs(h)
        pb = mag[w <= pass_edge]
        sb = mag[w >= min(stop_edge, 0.999 * fs / 2)]
        pb_ok = pb.size == 0 or (np.all(pb >= 10 ** (-0.5 / 20)) and np.all(pb <= 10 ** (0.5 / 20)))
        sb_ok = sb.size == 0 or np.all(sb <= 10 ** (-40 / 20))
        if pb_ok and sb_ok:
            return taps
    raise InternalError("lowpass design did not converge")  # pragma: no cover


def lowpass(ch: Channel, cutoff_hz: float) -> Channel:
    """Zero-phase FIR low-pass. Same length and fs as the input.

    Linear-phase odd-length kernel applied after reflect-padding by half the
    kernel length, so edges carry no startup transient and there is no group
    delay in the output.
    """
    if cutoff_hz <= 0 or cutoff_hz >= ch.fs / 2:
        raise InputError("cutoff above Nyquist")
    taps = _lowpass_taps(float(cutoff_hz), float(ch.fs))
    half = len(taps) // 2
    x = ch.samples
    if x.size == 0:
        return ch.with_samples(x)
    pad = min(half, x.size - 1)
    padded = np.pad(x, pad, mode="reflect")
    y = np.convolve(padded, taps, mode="same")
    return ch.with_samples(y[pad:pad + x.size] if pad else y)


def resample(ch: Channel, target_fs: float) -> Channel:
    """Rational polyphase resampling with anti-aliasing.

    The anti-alias cutoff sits at 0.9x the limiting Nyquist (10% guard band),
    so tones below 0.4x the target Nyquist pass essentially untouched.
    Output length is round(n * target_fs / fs).
    """
    if target_fs <= 0:
        raise InputError("target_fs must be > 0")
    if target_fs == ch.fs:
        return ch.with_samples(ch.samples.copy())
    from scipy import signal as sps
    frac = Fraction(target_fs / ch.fs).limit_denominator(10000)
    up, down = frac.numerator, frac.denominator
    m = max(up, down)
    taps = sps.firwin(20 * m + 1, 0.9 / m, window="hamming")
    y = sps.resample_poly(ch.samples, up, down, window=taps)
    n_out = int(round(len(ch.samples) * target_fs / ch.fs))
    if len(y) > n_out:
        y = y[:n_out]
    elif len(y) < n_out:  # pragma: no cover - resample_poly uses ceil
        y = np.pad(y, (0, n_out - len(y)), mode="edge")
    return Channel(y, float(target_fs), ch.label)


def hilbert_envelope(x) -> np.ndarray:
    """Magnitude of the analytic signal, same length as the input.

    FFT length is padded to a fast size internally; accuracy guarantees hold
    on the interior of the signal (edges show the usual Hilbert roll-off).
    """
    from scipy import signal as sps
    from scipy.fft import next_fast_len
    x = np.asarray(x, dtype=float)
    if x.size < 4:
        raise InputError("waveform too short for envelope")
    n = next_fast_len(x.size)
    analytic = sps.hilbert(x, N=n)[: x.size]
    return np.abs(analytic)


def best_lag(x, y, max_lag: int):
    """Lag maximizing Pearson-normalized cross-correlation of x against y.

    A positive result means y is a delayed copy of x: y[i + lag] lines up
    with x[i]. Ties break toward smaller |lag|, then toward negative lag.
    Each waveform is mean-subtracted and the correlation is normalized by
    the product of the full-segment norms, so amplitude differences do not
    bias the alignment and shrinking the overlap cannot inflate the score
    (which would let alignment lock onto a neighboring carrier cycle).
    Lags whose overlap is shorter than 2 samples are not considered.

    y is one waveform or an (n, L) stack of them. For one waveform the lag
    is returned as an int, and a degenerate correlation (a constant input
    or no usable lag) raises DegenerateCorrelation. For a stack, the lags
    of all rows come back as an int array from one pass over the lags; a
    row whose correlation is degenerate gets lag 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if max_lag < 0:
        raise InputError("max_lag must be >= 0")
    if x.ndim != 1 or y.ndim not in (1, 2):
        raise InputError("best_lag needs a waveform x and a waveform or (n, L) stack y")
    if x.size == 0 or y.shape[-1] == 0:
        raise InputError("empty waveform")
    rows = np.atleast_2d(y)
    lx, ly = len(x), rows.shape[1]
    xc = x - x.mean()
    yc = rows - rows.mean(axis=1, keepdims=True)
    denom = np.linalg.norm(xc) * np.linalg.norm(yc, axis=1)
    degenerate = (np.ptp(rows, axis=1) == 0) | (denom == 0) | (np.ptp(x) == 0)
    denom[degenerate] = 1.0
    # lags outside [2 - lx, ly - 2] overlap by fewer than 2 samples
    usable = range(max(-max_lag, 2 - lx), min(max_lag, ly - 2) + 1) if min(lx, ly) >= 2 else ()
    if not usable:
        degenerate[:] = True
    best_r = np.full(len(rows), -np.inf)
    lags = np.zeros(len(rows), dtype=int)
    for lag in sorted(usable, key=lambda l: (abs(l), l)):
        if lag >= 0:
            n = min(lx, ly - lag)
            xs, ys = xc[:n], yc[:, lag:lag + n]
        else:
            n = min(lx + lag, ly)
            xs, ys = xc[-lag:-lag + n], yc[:, :n]
        r = (ys @ xs) / denom
        better = r > best_r + 1e-15
        best_r[better] = r[better]
        lags[better] = lag
    lags[degenerate] = 0
    if y.ndim == 1:
        if degenerate[0]:
            raise DegenerateCorrelation()
        return int(lags[0])
    return lags


class DegenerateCorrelation(DegenerateAnalysisError):
    def __init__(self):
        super().__init__("degenerate correlation")
