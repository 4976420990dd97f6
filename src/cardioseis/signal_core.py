"""Sampled-signal container and the DSP primitives the pipeline is built on.

Everything here is a pure function of its inputs. Channels are treated as
immutable once built; operations return new arrays/channels. The filter
design, polyphase resampling and analytic signal are written in numpy and
follow scipy.signal's order of operations, so they give bit-identical
results without loading scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InputError


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

    def with_samples(self, samples) -> "Channel":
        return Channel(np.asarray(samples, dtype=float), self.fs, self.label)


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


def _firwin(numtaps: int, cutoff: float) -> np.ndarray:
    """Hamming-windowed sinc low-pass, cutoff relative to Nyquist, scaled to
    unit gain at DC: scipy.signal.firwin(numtaps, cutoff), in its order of
    operations."""
    m = np.arange(0, numtaps, dtype=float) - 0.5 * (numtaps - 1)
    h = cutoff * np.sinc(cutoff * m)
    # scipy's general_cosine window with coefficients [0.54, 1 - 0.54]
    h *= 0.54 + (1 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, numtaps))
    return h / np.sum(h)


def _freqz(taps, fs: float):
    """Frequency response of an FIR kernel at 2048 frequencies in [0, fs/2):
    scipy.signal.freqz(taps, worN=2048, fs=fs) for up to 4096 taps."""
    w = np.linspace(0, np.pi, 2048, endpoint=False) * (fs / (2 * np.pi))
    return w, np.fft.rfft(taps, 4096)[:2048]


@lru_cache(maxsize=32)
def _lowpass_taps(cutoff_hz: float, fs: float) -> np.ndarray:
    """Smallest odd-length Hamming windowed-sinc kernel meeting the band specs.

    Passband: within +/-0.5 dB below 0.8*cutoff.  Stopband: >= 40 dB above
    1.5*cutoff.  Grown in steps until a frequency-response probe passes;
    a cutoff that needs more than 4095 taps is an InputError.
    """
    pass_edge = 0.8 * cutoff_hz
    stop_edge = 1.5 * cutoff_hz
    for numtaps in range(11, 4097, 2):
        taps = _firwin(numtaps, cutoff_hz / (0.5 * fs))
        w, h = _freqz(taps, fs)
        mag = np.abs(h)
        pb = mag[w <= pass_edge]
        sb = mag[w >= min(stop_edge, 0.999 * fs / 2)]
        pb_ok = pb.size == 0 or (np.all(pb >= 10 ** (-0.5 / 20)) and np.all(pb <= 10 ** (0.5 / 20)))
        sb_ok = sb.size == 0 or np.all(sb <= 10 ** (-40 / 20))
        if pb_ok and sb_ok:
            return taps
    raise InputError(f"no low-pass kernel of at most 4095 taps meets the band specs "
                     f"for a {cutoff_hz:g} Hz cutoff at {fs:g} Hz")


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
    frac = Fraction(target_fs / ch.fs).limit_denominator(10000)
    up, down = frac.numerator, frac.denominator
    m = max(up, down)
    n_out = int(round(len(ch.samples) * target_fs / ch.fs))
    y = _resample_poly(ch.samples, _firwin(20 * m + 1, 0.9 / m), up, down, n_out)
    return Channel(y, float(target_fs), ch.label)


def _resample_poly(x, h, up: int, down: int, n_out: int) -> np.ndarray:
    """The first n_out samples of scipy.signal.resample_poly(x, up, down,
    window=h), bit for bit, for coprime up and down; past its
    ceil(n * up / down) samples the input continues as zeros.

    Output sample i = q*up + p is the sum over a phase of taps h[t_p + k*up]
    against the inputs that end at x[q*down + (p*down)//up]. As in scipy's
    upfirdn, the products are added one at a time, oldest input first, so
    the loop runs over the taps of a phase and each pass adds one
    (up, n_out/up) block of products.
    """
    if up == down:
        y = np.zeros(n_out)
        y[:min(n_out, len(x))] = x[:n_out]
        return y
    h = np.asarray(h, dtype=float) * up
    half_len = (len(h) - 1) // 2
    n_pre_pad = down - half_len % down
    n_pre_remove = (half_len + n_pre_pad) // down
    # zero-pad the taps to a whole number of phases
    per_phase = -(-(n_pre_pad + len(h)) // up)
    h = np.concatenate((np.zeros(n_pre_pad), h, np.zeros(per_phase * up - n_pre_pad - len(h))))
    # one row per phase, the tap for its oldest input first
    phase_taps = h.reshape(per_phase, up).T[:, ::-1]
    p = np.arange(up)
    coeffs = phase_taps[p * down % up]             # (up, per_phase)
    first = p * down // up                         # newest input of output p, less q*down
    # output i reads x[q*down + first_p - per_phase + 1 + j], j < per_phase,
    # which is padded[q*down + first_p + j]
    n_blocks = -(-(n_pre_remove + n_out) // up)
    rows = n_blocks + (first[-1] + per_phase) // down + 1
    padded = np.zeros(rows * down)
    padded[per_phase - 1:per_phase - 1 + len(x)] = x[:rows * down - per_phase + 1]
    # padded[r*down + c] = by_col[c, r]; a row of by_col holds the inputs
    # that one tap multiplies in successive output blocks
    by_col = np.ascontiguousarray(padded.reshape(rows, down).T)
    runs = np.lib.stride_tricks.sliding_window_view(by_col, n_blocks, axis=1)
    acc = np.zeros((up, n_blocks))
    for j in range(per_phase):
        shift, col = np.divmod(first + j, down)
        acc += runs[col, shift] * coeffs[:, j, None]
    return acc.T.ravel()[n_pre_remove:n_pre_remove + n_out]


def _next_fast_len(n: int) -> int:
    """Smallest 2, 3, 5, 7, 11-smooth integer >= n, as scipy.fft.next_fast_len."""
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def hilbert_envelope(x) -> np.ndarray:
    """Magnitude of the analytic signal, same length as the input.

    FFT length is padded to a fast size internally; accuracy guarantees hold
    on the interior of the signal (edges show the usual Hilbert roll-off).
    Bit-identical to abs(scipy.signal.hilbert(x, N)[:n]) at that size.
    """
    x = np.asarray(x, dtype=float)
    if x.size < 4:
        raise InputError("waveform too short for envelope")
    n = _next_fast_len(x.size)
    spectrum = np.fft.rfft(x, n)
    spectrum[1:(n + 1) // 2] *= 2
    return np.abs(np.fft.ifft(spectrum, n)[:x.size])


# a lag's score must beat the best so far by more than this to replace it
_TIE_MARGIN = 1e-15


@lru_cache(maxsize=64)
def _lag_order(lo: int, hi: int) -> np.ndarray:
    """The lags lo..hi in tie-break order: by |lag|, then negative first."""
    lags = np.array(sorted(range(lo, hi + 1), key=lambda l: (abs(l), l)), dtype=int)
    lags.flags.writeable = False
    return lags


def _pick_columns(scores) -> np.ndarray:
    """Per row of an (n, K) score matrix whose columns are in tie-break
    order, the column that a sequential scan keeps: a column replaces the
    best so far only if it beats it by more than _TIE_MARGIN.

    Scores lie in [-1, 1], where the rounding of best + _TIE_MARGIN is far
    below the margin. So on a row with no score within twice the margin
    below the row maximum, the scan keeps the first maximum, which is
    np.argmax; only the other rows are scanned.
    """
    picks = np.argmax(scores, axis=1)
    top = scores[np.arange(len(scores)), picks][:, None]
    near = ((scores < top) & (scores >= top - 2 * _TIE_MARGIN)).any(axis=1)
    for i in np.flatnonzero(near):
        best = -np.inf
        for k, r in enumerate(scores[i].tolist()):
            if r > best + _TIE_MARGIN:
                best, picks[i] = r, k
    return picks


def best_lag(x, y, max_lag: int):
    """Lag maximizing Pearson-normalized cross-correlation of x against y.

    A positive result means y is a delayed copy of x: y[i + lag] lines up
    with x[i]. Ties break toward smaller |lag|, then toward negative lag.
    Each waveform is mean-subtracted and the correlation is normalized by
    the product of the full-segment norms, so amplitude differences do not
    bias the alignment and shrinking the overlap cannot inflate the score
    (which would let alignment lock onto a neighboring carrier cycle).
    Lags whose overlap is shorter than 2 samples are not considered.

    y is an (n, L) stack of waveforms; L may differ from len(x). The scores
    of all rows at all lags come from one (n, L) @ (L, K) product, where
    column k holds the zero-padded target shifted by the k-th lag in
    tie-break order; _pick_columns resolves near-ties. A row whose
    correlation is degenerate (a constant input or no usable lag) gets
    lag 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if max_lag < 0:
        raise InputError("max_lag must be >= 0")
    if x.ndim != 1 or y.ndim != 2:
        raise InputError("best_lag needs a waveform x and an (n, L) stack y")
    if x.size == 0 or y.shape[1] == 0:
        raise InputError("empty waveform")
    lx, ly = len(x), y.shape[1]
    # lags outside [2 - lx, ly - 2] overlap by fewer than 2 samples
    lo, hi = max(-max_lag, 2 - lx), min(max_lag, ly - 2)
    if lo > hi:
        return np.zeros(len(y), dtype=int)
    x_spread, y_spread = np.ptp(x), np.ptp(y, axis=1)
    xc = _unit_scale(x - x.mean(), x_spread)
    yc = _unit_scale(y - y.mean(axis=1, keepdims=True), y_spread[:, None])
    denom = np.linalg.norm(xc) * np.linalg.norm(yc, axis=1)
    degenerate = (y_spread == 0) | (denom == 0) | (x_spread == 0)
    denom[degenerate] = 1.0
    lags = _lag_order(lo, hi)
    # column k is xc delayed by lags[k] along y's axis, zero where it has no sample
    padded = np.concatenate((np.zeros(ly), xc, np.zeros(ly)))
    shifted = padded[np.arange(ly)[:, None] + (ly - lags)]
    lags = lags[_pick_columns((yc @ shifted) / denom[:, None])]
    lags[degenerate] = 0
    return lags


def _unit_scale(centred, spread):
    """Scale a centred waveform by the power of two that brings its
    peak-to-peak spread into [0.5, 1). The scaling is exact, so the lags do
    not change; it keeps the squares in the norms from underflowing or
    overflowing, which would make a correlation degenerate at one
    amplitude and not at another."""
    return np.ldexp(centred, -np.frexp(spread)[1])
