"""The numpy DSP primitives against the scipy.signal calls they replace,
and the resampler's rate ratio against fractions.Fraction.

Each one follows scipy's order of operations, so the comparisons are bit
for bit. scipy is needed only by these tests.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps
from scipy.fft import next_fast_len

from cardioseis import signal_core
from cardioseis.event_detection import _find_peaks
from cardioseis.signal_core import (Channel, Resampler, _firwin, _freqz, _lowpass_taps,
                                    _next_fast_len, _rate_ratio, hilbert_envelope, lowpass)

# up/down ratios: 10 kHz to 320 Hz, rates beyond 6 significant digits,
# and upsampling
RATIOS = [(4, 125), (8, 25), (1, 5), (3, 7), (215, 6719), (320, 333),
          (25, 8), (125, 4), (6719, 215), (1, 1)]

ORACLE = settings(max_examples=40, deadline=None)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def signal(seed, n):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * 10.0 ** rng.uniform(-5, 5)


@ORACLE
@given(numtaps=st.integers(1, 3001), cutoff=st.floats(1e-4, 0.999))
def test_firwin(numtaps, cutoff):
    # even lengths too: a low-pass filter may have any length
    assert same_bits(_firwin(numtaps, cutoff), sps.firwin(numtaps, cutoff, window="hamming"))


@pytest.mark.parametrize("numtaps,cutoff", [(2501, 0.9 / 125), (134381, 0.9 / 6719)])
def test_firwin_resample_kernels(numtaps, cutoff):
    assert same_bits(_firwin(numtaps, cutoff), sps.firwin(numtaps, cutoff, window="hamming"))


@ORACLE
@given(numtaps=st.integers(1, 2048).map(lambda k: 2 * k - 1), cutoff=st.floats(1e-3, 0.999),
       fs=st.sampled_from([100.5, 150.0, 320.0, 1000.0, 10000.37]))
def test_freqz_probe(numtaps, cutoff, fs):
    taps = _firwin(numtaps, cutoff)
    w, h = _freqz(taps, fs)
    w_ref, h_ref = sps.freqz(taps, worN=2048, fs=fs)
    assert same_bits(w, w_ref)
    # the two FFTs may disagree on the sign of a zero, never on a value
    assert h.dtype == h_ref.dtype and np.array_equal(h, h_ref)


def reference_lowpass_taps(cutoff_hz, fs):
    """The kernel design loop as written on scipy.signal."""
    pass_edge, stop_edge = 0.8 * cutoff_hz, min(1.5 * cutoff_hz, 0.999 * fs / 2)
    for numtaps in range(11, 4097, 2):
        taps = sps.firwin(numtaps, cutoff_hz, window="hamming", fs=fs)
        w, h = sps.freqz(taps, worN=2048, fs=fs)
        at_pass, at_stop = np.abs(sps.freqz(taps, worN=[pass_edge, stop_edge], fs=fs)[1])
        pb = np.append(np.abs(h[w <= pass_edge]), at_pass)
        sb = np.append(np.abs(h[w >= stop_edge]), at_stop)
        if (np.all(pb >= 10 ** (-0.5 / 20)) and np.all(pb <= 10 ** (0.5 / 20))
                and np.all(sb <= 10 ** (-40 / 20))):
            return taps
    return None


@pytest.mark.parametrize("cutoff_hz,fs", [(100.0, 320.0), (128.0, 320.0), (60.0, 150.0),
                                          (40.2, 100.5), (5.0, 320.0), (155.0, 320.0),
                                          (1.0, 320.0), (100.0, 2000.0), (100.0, 10000.0)])
def test_lowpass_taps(cutoff_hz, fs):
    assert same_bits(_lowpass_taps(cutoff_hz, fs), reference_lowpass_taps(cutoff_hz, fs))


@pytest.mark.parametrize("cutoff_hz,fs", [(100.0, 320.0), (5.0, 320.0), (1.0, 320.0),
                                          (100.0, 2000.0), (100.0, 10000.0), (100.0, 50000.0)])
def test_lowpass_taps_meet_the_band_specs_between_probes(cutoff_hz, fs):
    # a dense grid up to the pass edge and from the stop edge to Nyquist;
    # at the edges only rounding may pass the limits
    taps = _lowpass_taps(cutoff_hz, fs)
    stop_edge = min(1.5 * cutoff_hz, 0.999 * fs / 2)
    passband = np.abs(sps.freqz(taps, worN=np.linspace(0, 0.8 * cutoff_hz, 4001), fs=fs)[1])
    stopband = np.abs(sps.freqz(taps, worN=np.linspace(stop_edge, fs / 2, 20001), fs=fs)[1])
    assert np.max(np.abs(20 * np.log10(passband))) <= 0.5 + 1e-9
    assert np.max(20 * np.log10(stopband)) <= -40 + 1e-9


@pytest.mark.parametrize("cutoff_hz", [100.0, 1.0])  # 19 and 1775 taps at 320 Hz
def test_lowpass_short_and_long_channels(cutoff_hz):
    # channels shorter than the kernel too, where the taps are the longer operand
    taps = _lowpass_taps(cutoff_hz, 320.0)
    for n in [*range(1, 60), 480, 543, 544, 545, 600, 5000]:
        x = np.random.default_rng(n).standard_normal(n)
        pad = min(len(taps) // 2, n - 1)
        want = sps.convolve(np.pad(x, pad, mode="reflect"), taps, mode="same")[pad:pad + n]
        got = lowpass(Channel(x, 320.0), cutoff_hz).samples
        assert got.shape == want.shape, n
        assert np.max(np.abs(got - want)) < 1e-13, n


def limit_denominator(x):
    frac = Fraction(x).limit_denominator(10000)
    return frac.numerator, frac.denominator


@settings(max_examples=2000, deadline=None)
@given(x=st.floats(1e-4, 1e4))
def test_rate_ratio(x):
    assert _rate_ratio(x) == limit_denominator(x)


# the rates behind RATIOS, as the resampler tests pass them, and the
# acquisition and analysis rates of the CLI runs
@pytest.mark.parametrize("fs, target_fs", [*((float(down), float(up)) for up, down in RATIOS),
                                           (10_000.0, 320.0), (10_000.37, 320.0),
                                           (320.0, 10_000.37)])
def test_rate_ratio_of_the_tested_rates(fs, target_fs):
    assert _rate_ratio(target_fs / fs) == limit_denominator(target_fs / fs)


def resampled(x, up, down, edges, n_out):
    """x resampled by up/down, fed to one part of a Resampler in the blocks
    that the sorted `edges` cut it into."""
    out = Resampler(float(down), float(up), len(x))
    part = out.at(0)
    for start, stop in zip([0, *edges], [*edges, len(x)]):
        part.feed(x[start:stop, None])
    part.finish(len(x))
    return out.result(n_out)[0]


@ORACLE
@given(ratio=st.sampled_from(RATIOS), n=st.integers(1, 5000), pad=st.integers(0, 300),
       extra=st.integers(-5, 5), seed=st.integers(0, 2**32 - 1),
       cuts=st.lists(st.integers(0, 5000), max_size=40),
       span=st.sampled_from([1, 500, signal_core._RESAMPLE_SPAN]))
def test_resample_poly(ratio, n, pad, extra, seed, cuts, span):
    # past ceil(n * up / down) samples the input continues as zeros; the
    # bits do not depend on the blocks that x is fed in, nor on the span
    up, down = ratio
    m = max(up, down)
    taps = sps.firwin(20 * m + 1, 0.9 / m, window="hamming")
    x = signal(seed, n)
    want = sps.resample_poly(np.concatenate([x, np.zeros(pad)]), up, down, window=taps)
    n_out = max(0, min(len(want), math.ceil(n * up / down) + extra))
    edges = sorted(min(cut, n) for cut in cuts)
    with mock.patch.object(signal_core, "_RESAMPLE_SPAN", span):
        assert same_bits(resampled(x, up, down, edges, n_out), want[:n_out])


@pytest.mark.parametrize("ratio", RATIOS)
def test_resample_poly_one_sample_blocks(ratio):
    # spans of one output block, so most blocks land in a span's reach
    up, down = ratio
    m = max(up, down)
    taps = sps.firwin(20 * m + 1, 0.9 / m, window="hamming")
    x = signal(1, 3 * down + 7)
    want = sps.resample_poly(x, up, down, window=taps)
    with mock.patch.object(signal_core, "_RESAMPLE_SPAN", 1):
        assert same_bits(resampled(x, up, down, range(1, len(x)), len(want)), want)


@pytest.mark.parametrize("ratio", [(4, 125), (215, 6719)])
def test_resample_poly_long_channel(ratio):
    # a 120 s channel at 10 kHz, to 320 Hz, fed in blocks of 65,536 samples
    up, down = ratio
    taps = sps.firwin(20 * down + 1, 0.9 / down, window="hamming")
    x = signal(0, 1_200_000)
    want = sps.resample_poly(x, up, down, window=taps)
    edges = range(65_536, len(x), 65_536)
    assert same_bits(resampled(x, up, down, edges, len(want)), want)


def test_next_fast_len():
    for n in list(range(1, 3000)) + [38_400, 38_479, 1_200_000, 1_200_013]:
        assert _next_fast_len(n) == next_fast_len(n), n


@ORACLE
@given(n=st.integers(4, 20000), seed=st.integers(0, 2**32 - 1))
def test_hilbert_envelope(n, seed):
    x = signal(seed, n)
    want = np.abs(sps.hilbert(x, N=next_fast_len(n))[:n])
    assert same_bits(hilbert_envelope(x), want)


def reference_peaks(x, height, distance):
    return sps.find_peaks(x, height=height, distance=distance)[0]


@ORACLE
@given(n=st.integers(0, 400), height=st.integers(-1, 3), distance=st.integers(1, 10),
       seed=st.integers(0, 2**32 - 1))
def test_find_peaks_plateaus_and_ties(n, height, distance, seed):
    # four levels make flat tops and equal heights common; with more than
    # 16 peaks np.argsort no longer keeps ties in order, and which of two
    # tied peaks too close together survives follows its order
    x = np.random.default_rng(seed).integers(0, 4, n).astype(float)
    assert same_bits(_find_peaks(x, height, distance), reference_peaks(x, height, distance))


@ORACLE
@given(n=st.integers(0, 3000), height=st.floats(-1.0, 2.0), distance=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
def test_find_peaks_floats(n, height, distance, seed):
    x = np.random.default_rng(seed).standard_normal(n)
    assert same_bits(_find_peaks(x, height, distance), reference_peaks(x, height, distance))


@pytest.mark.parametrize("x", [
    [2, 2, 1, 0, 1, 0],         # flat top at the start
    [0, 1, 0, 1, 2, 2],         # flat top at the end
    [2, 2, 2, 2],               # one flat run
    [0, 2, 2, 2, 1, 2, 2, 0],   # two flat tops, one sample apart
    [1, 0, 1],
    [0, 1], [1], [],
])
def test_find_peaks_edges(x):
    x = np.array(x, dtype=float)
    for height in (0.0, 1.0, 2.0):
        for distance in (1, 2, 5):
            assert same_bits(_find_peaks(x, height, distance),
                             reference_peaks(x, height, distance))
