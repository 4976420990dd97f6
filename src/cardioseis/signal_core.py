"""Sampled-signal container and the DSP primitives the pipeline is built on.

Everything here but a Resampler is a pure function of its inputs.
Channels are treated as immutable once built; operations return new
arrays/channels, or the input itself where they would not change it. A
Resampler's parts are fed its input in blocks and write its output into
one room, a shared mapping that forked processes write into too. The filter
design, polyphase resampling and analytic signal are written in numpy and
follow scipy.signal's order of operations, so they give bit-identical
results without loading scipy.
"""

from __future__ import annotations

import copy
import math
import mmap
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class Channel:
    """A uniformly sampled real-valued waveform.

    samples: the data (m/s^2, L/s, L, or dimensionless)
    fs: sampling rate in Hz, finite and > 0
    label: free-text channel name
    """

    samples: np.ndarray
    fs: float
    label: str = ""

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", arr)
        if not 0 < self.fs < math.inf:  # NaN included
            raise InputError(f"channel {self.label!r}: fs must be finite and > 0, got {self.fs}")
        if arr.ndim != 1:
            raise InputError(f"channel {self.label!r}: samples must be 1-D")
        if arr.size and not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise InputError(f"channel {self.label!r}: non-finite sample at index {bad}")

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class Recording:
    """A bundle of synchronized channels of equal duration.

    ecg_beats: the sample indices at which the recording's ECG spikes, one
    per beat, in place of a dense ECG channel; empty where the recording
    has no ECG, as one that ingest_csv reads.
    """

    channels: dict[str, Channel]
    recording_id: str = "recording"
    ecg_beats: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))

    def __getitem__(self, name: str) -> Channel:
        try:
            return self.channels[name]
        except KeyError:
            raise InputError(f"missing channel: {name}") from None


def rms(x):
    """Root-mean-square over the last axis, like np.mean(..., axis=-1): one
    value for a waveform, one per row for an (n, L) stack. Errors if empty."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise InputError("empty waveform")
    return np.sqrt(np.mean(np.square(x), axis=-1))


def _firwin(numtaps: int, cutoff: float) -> np.ndarray:
    """Hamming-windowed sinc low-pass, cutoff relative to Nyquist, scaled to
    unit gain at DC: scipy.signal.firwin(numtaps, cutoff), in its order of
    operations. Each step runs in place, so it holds at most two arrays of
    numtaps at once."""
    # y = pi * cutoff * m, m the tap's offset from the centre
    y = np.arange(0, numtaps, dtype=float)
    y -= 0.5 * (numtaps - 1)
    y *= cutoff
    y *= np.pi
    # np.sinc: the centre tap, where y is 0, gets sin(eps) / eps, which is 1
    y[y == 0] = np.finfo(float).eps
    h = np.sin(y)
    h /= y
    h *= cutoff
    del y
    # scipy's general_cosine window with coefficients [0.54, 1 - 0.54]
    window = np.linspace(-np.pi, np.pi, numtaps)
    np.cos(window, out=window)
    window *= 1 - 0.54
    window += 0.54
    h *= window
    h /= np.sum(h)
    return h


def _freqz(taps, fs: float):
    """Frequency response of an FIR kernel at 2048 frequencies in [0, fs/2):
    scipy.signal.freqz(taps, worN=2048, fs=fs) for up to 4096 taps."""
    w = np.linspace(0, np.pi, 2048, endpoint=False) * (fs / (2 * np.pi))
    return w, np.fft.rfft(taps, 4096)[:2048]


@lru_cache(maxsize=32)
def _lowpass_taps(cutoff_hz: float, fs: float) -> np.ndarray:
    """Smallest odd-length Hamming windowed-sinc kernel meeting the band specs.

    Passband: within +/-0.5 dB below 0.8*cutoff.  Stopband: >= 40 dB above
    1.5*cutoff.  Grown in steps until a frequency-response probe passes. A
    cutoff outside (0, fs/2) or needing over 4095 taps is an InputError.
    """
    if not 0 < cutoff_hz < fs / 2:
        raise InputError(f"cutoff {cutoff_hz:g} Hz is outside (0, fs/2) = (0, {fs / 2:g}) "
                         "Hz, the band from zero to Nyquist")
    pass_edge, stop_edge = 0.8 * cutoff_hz, min(1.5 * cutoff_hz, 0.999 * fs / 2)
    lo, hi, floor = 10 ** (-0.5 / 20), 10 ** (0.5 / 20), 10 ** (-40 / 20)
    for numtaps in range(11, 4097, 2):
        taps = _firwin(numtaps, cutoff_hz / (0.5 * fs))
        w, h = _freqz(taps, fs)
        mag = np.abs(h)
        pb = mag[w <= pass_edge]
        sb = mag[w >= stop_edge]
        if np.all(pb >= lo) and np.all(pb <= hi) and np.all(sb <= floor):
            # |H| at both edges, which the grid can miss, is |sum h cos(w k)| for symmetric taps
            wk = np.outer([pass_edge, stop_edge], np.arange(numtaps) - numtaps // 2) * (2 * np.pi / fs)
            at_pass, at_stop = np.abs(np.sum(np.cos(wk) * taps, axis=1))
            if lo <= at_pass <= hi and at_stop <= floor:
                return taps
    raise InputError(f"no low-pass kernel of at most 4095 taps meets the band specs "
                     f"for a {cutoff_hz:g} Hz cutoff at {fs:g} Hz")


def lowpass(ch: Channel, cutoff_hz: float) -> Channel:
    """Zero-phase FIR low-pass. Same length and fs as the input.

    Linear-phase odd-length kernel applied after reflect-padding by half the
    kernel length, so edges carry no startup transient and there is no group
    delay in the output.
    """
    taps = _lowpass_taps(float(cutoff_hz), float(ch.fs))
    half = len(taps) // 2
    x = ch.samples
    if x.size == 0:
        return ch
    pad = min(half, x.size - 1)
    padded = np.pad(x, pad, mode="reflect")
    # the "same" part of the full convolution, centred on padded even when
    # the taps are the longer operand
    return Channel(np.convolve(padded, taps)[half + pad:half + pad + x.size], ch.fs, ch.label)


def resample(ch: Channel, target_fs: float) -> Channel:
    """Rational polyphase resampling with anti-aliasing: the channel fed to
    a Resampler as one block, as one range of ingest_csv. Output length is
    round(n * target_fs / fs); where target_fs is fs the output is ch."""
    if target_fs == ch.fs:
        return ch
    n = len(ch)
    out = Resampler(ch.fs, target_fs, n)
    part = out.at(0)
    part.feed(ch.samples[:, None])
    part.finish(n)
    return Channel(out.result(round(n * target_fs / ch.fs))[0], float(target_fs), ch.label)


def _rate_ratio(x: float, max_den: int = 10000) -> tuple[int, int]:
    """The fraction up/down nearest x with down at most max_den, in lowest
    terms, the smaller down on a tie: Fraction(x).limit_denominator(max_den)
    as CPython computes it, on the continued fraction of x."""
    n, den = x.as_integer_ratio()
    if den <= max_den:
        return n, den
    p0, q0, p1, q1, d = 0, 1, 1, 0, den
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > max_den:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (max_den - q0) // q1
    # p1/q1 is d / (q1 * den) from x, and the two bounds 1 / (q1 * (q0 + k*q1)) apart
    if 2 * d * (q0 + k * q1) <= den:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


# inputs per span of a Resampler's output blocks, which bounds its
# by-column buffer
_RESAMPLE_SPAN = 1 << 18


class Resampler:
    """Rational polyphase resampling with anti-aliasing of `channels`
    signals sampled at fs, at most max_len rows in all, fed as (k, channels)
    blocks of rows to the parts that at() makes, each in order from its row.

    The ratio up/down is target_fs / fs within a denominator of 10000. The
    kernel h is a 20 * max(up, down) + 1 tap low-pass whose cutoff sits at
    0.9x the limiting Nyquist (10% guard band), so tones below 0.4x the
    target Nyquist pass essentially untouched. Each channel comes out as
    scipy.signal.resample_poly(x, up, down, window=h), bit for bit, however
    x is split into blocks; past its ceil(n * up / down) samples the input
    continues as zeros. With up == down, as in scipy, the output is the
    input, unfiltered.

    Output sample i = q*up + p is the sum over a phase of taps
    h[t_p + k*up] against the inputs that end at x[q*down + (p*down)//up].
    As in scipy's upfirdn, the products are added one tap at a time, oldest
    input first, so the loop runs over the taps of a phase and each pass
    adds one (up, channels, blocks) block of products into the output.
    The products are phase-major so that numpy's inner loop runs over the
    blocks of every channel at once: numpy buffers a broadcast operand, here
    the tap, on inner loops of at most 4,096 elements, which multiply about
    twice as slowly, and a span of one channel at 10 kHz → 320 Hz is 2,097
    blocks. The output blocks are taken a span of about _RESAMPLE_SPAN
    inputs at a time, as soon as a span's inputs are in: a by-column buffer
    holds them and the `reach` rows of down inputs past them that the
    span's last taps read, which then move to its front. Besides the
    output, that buffer is all it holds, however long the input.

    The output is room for max_len rows in an anonymous shared mapping,
    made at once, which takes memory only for the pages written. Input is
    fed only to the resamplers that at() makes, in this process or in
    forked ones; each adds up the output blocks of its own rows into the
    room, and result() reads it once every part is finished.
    """

    def __init__(self, fs: float, target_fs: float, max_len: int, channels: int = 1):
        if not 0 < target_fs < math.inf:  # NaN included
            raise InputError(f"target_fs must be finite and > 0, got {target_fs}")
        self._channels = channels
        up, down = self._up, self._down = _rate_ratio(target_fs / fs)
        self._pre, self._per_phase, self._last = 0, 1, 0  # where up == down
        if up != down:
            m = max(up, down)
            numtaps = 20 * m + 1
            half_len = (numtaps - 1) // 2
            n_pre_pad = down - half_len % down
            self._pre = (half_len + n_pre_pad) // down  # outputs that scipy drops at the start
            # the taps zero-padded to a whole number of phases. The design
            # keeps the coefficients and two int16 index tables, per_phase * up
            # entries each (1.62 MiB at 215/6719, 31 KiB at 4/125); no step
            # holds more than three arrays of the kernel's length at once
            per_phase = self._per_phase = -(-(n_pre_pad + numtaps) // up)
            h = np.zeros(per_phase * up)
            h[n_pre_pad:n_pre_pad + numtaps] = _firwin(numtaps, 0.9 / m)
            h *= up
            p = np.arange(up)
            # coeffs[j, p] is tap j of output p's phase, its oldest input first
            coeffs = h.reshape(per_phase, up)[::-1].take(p * down % up, axis=1)
            del h
            first = p * down // up                         # newest input of output p, less q*down
            self._last = int(first[-1])
            # output i reads x[q*down + first_p - per_phase + 1 + j], j < per_phase,
            # which is padded[q*down + first_p + j], padded being x behind
            # per_phase - 1 zeros and ahead of more; tap j of output block q reads
            # padded[(q + shift_j)*down + col_j]; first_p + j reaches 210,000 at
            # 1/10000, but the column is below 10000 and the shift at most 21
            shift = first + np.arange(per_phase)[:, None]  # (per_phase, up)
            col = (shift % down).astype(np.int16)
            shift //= down
            self._taps = (shift.astype(np.int16), col, coeffs)
            # output blocks per span; an input shorter than a span gets one
            # as long as itself
            self._span = max(1, min(_RESAMPLE_SPAN, max_len) // down)
            # rows of padded that a span reads past it
            self._reach = (first[-1] + per_phase - 1) // down
        size = self._block(max_len) * up
        room = mmap.mmap(-1, max(8 * channels * size, 1))
        self._y = np.ndarray((channels, size), dtype=float, buffer=room)

    def _block(self, row: int) -> int:
        """The first output block whose oldest input is row `row` or later; 0 for row 0."""
        return -(-(row + self._per_phase - 1) // self._down) if row else 0

    def at(self, row0: int) -> "Resampler":
        """A resampler into this one's output, fed from input row `row0` on, that adds
        up the output blocks whose oldest input is that row or later."""
        part = copy.copy(self)
        part._n, part._q = row0, self._block(row0)  # the input row fed and output block added next
        # samples of padded in buf, from its start; below 0, the rows before
        # the first one that block q reads, which are not kept
        part._filled = row0 + self._per_phase - 1 - part._q * self._down
        if self._up != self._down:
            # buf[c, col, r] = padded[(q + r)*down + col] of channel c; a row of
            # buf[c] holds the inputs that one tap multiplies in successive blocks
            part._buf = np.zeros((self._channels, self._down, self._span + self._reach))
        return part

    def feed(self, rows) -> None:
        """Take the next len(rows) samples of each channel, a column of rows each."""
        k = len(rows)
        if self._up == self._down:
            self._y[:, self._n:self._n + k] = rows.T
        else:
            skip = min(k, max(0, -self._filled))
            rows, self._filled = rows[skip:], self._filled + skip
            size = self._buf[0].size
            at = 0
            while at < len(rows):
                take = min(size - self._filled, len(rows) - at)
                self._put(rows[at:at + take])
                at += take
                if self._filled == size:
                    self._pass(self._span)
                    self._drop(self._span)
        self._n += k

    def wants(self, stop: int) -> int:
        """The rows still to feed before finish(stop) reads no zeros in their place."""
        return max(0, (self._block(stop) - 1) * self._down + self._last + 1 - self._n)

    def _put(self, rows) -> None:
        """Write rows into buf, from its first free sample of padded on:
        the rest of that row of down, then whole rows, then what is left."""
        padded = self._buf.transpose(0, 2, 1)          # (channels, rows, down)
        down, k = self._down, len(rows)
        r, c = divmod(self._filled, down)
        head = min(down - c, k)
        padded[:, r, c:c + head] = rows[:head].T
        whole = (k - head) // down
        padded[:, r + 1:r + 1 + whole] = \
            rows[head:head + whole * down].reshape(whole, down, len(padded)).transpose(2, 0, 1)
        tail = rows[head + whole * down:]
        if len(tail):
            padded[:, r + 1 + whole, :len(tail)] = tail.T
        self._filled += k

    def _pass(self, blocks: int) -> None:
        """Add up the next `blocks` output blocks from the front of buf."""
        # runs[col, shift, c, b] = padded[(shift + b)*down + col] of channel c
        runs = np.lib.stride_tricks.sliding_window_view(self._buf, blocks, axis=2)
        runs = runs.transpose(1, 2, 0, 3)
        channels, up = len(self._buf), self._up
        acc = np.zeros((up, channels, blocks))
        for shift_j, col_j, tap in zip(*self._taps):
            acc += runs[col_j, shift_j] * tap[:, None, None]
        q = self._q
        self._y[:, q * up:(q + blocks) * up] = acc.transpose(1, 2, 0).reshape(channels, -1)
        self._q += blocks

    def _drop(self, blocks: int) -> None:
        """Move the rows of buf that the blocks after the next `blocks` read
        to its front."""
        self._buf[:, :, :-blocks] = self._buf[:, :, blocks:]
        self._filled -= blocks * self._down

    def finish(self, stop: int) -> None:
        """Add up the output blocks up to the first whose oldest input is
        input row `stop` or later, the input continuing as zeros past the
        rows fed."""
        end = self._block(stop)
        if self._up == self._down or self._q >= end:
            return
        padded = self._buf.transpose(0, 2, 1)
        r, c = divmod(self._filled, self._down)
        padded[:, r, c:] = 0
        padded[:, r + 1:] = 0
        while self._q < end:
            blocks = min(self._span, end - self._q)
            self._pass(blocks)
            if self._q < end:
                self._drop(blocks)
                self._buf[:, :, -blocks:] = 0

    def result(self, n_out: int) -> np.ndarray:
        """The first n_out output samples of each channel, a row each, once
        every part that at() made is finished."""
        y = self._y[:, self._pre:self._pre + n_out]  # zeros past the input, as the room starts
        if y.shape[1] < n_out:  # past the room
            y = np.concatenate((y, np.zeros((len(y), n_out - y.shape[1]))), axis=1)
        return y


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

    The analytic signal is built in one complex buffer of the FFT length,
    zero past the spectrum in its front, and inverted in place. Besides
    its input it holds that buffer and the envelope: 0.88 MB traced at
    38,479 samples (120 s at 320 Hz).
    """
    x = np.asarray(x, dtype=float)
    if x.size < 4:
        raise InputError("waveform too short for envelope")
    n = _next_fast_len(x.size)
    analytic = np.zeros(n, dtype=complex)
    np.fft.rfft(x, n, out=analytic[:n // 2 + 1])
    analytic[1:(n + 1) // 2] *= 2
    np.fft.ifft(analytic, out=analytic)
    return np.abs(analytic[:x.size])


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
