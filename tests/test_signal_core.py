import numpy as np
import pytest

from cardioseis import signal_core
from cardioseis.signal_core import (Channel, Resampler, best_lag, hilbert_envelope, lowpass,
                                    resample, rms)
from cardioseis.errors import InputError

from conftest import traced_held, traced_peak


def tone(freq, fs, duration, amp=1.0):
    t = np.arange(int(round(duration * fs))) / fs
    return amp * np.sin(2 * np.pi * freq * t)


def db(ratio):
    return 20 * np.log10(ratio)


class TestRms:
    def test_all_zero(self):
        assert rms([0, 0, 0]) == 0

    @pytest.mark.parametrize("c", [1.0, -2.5, 7])
    def test_constant(self, c):
        assert rms([c] * 4) == pytest.approx(abs(c))

    def test_hand_case(self):
        # sqrt((9+16)/2)
        assert rms([3, 4]) == pytest.approx(3.5355, abs=1e-4)

    def test_empty_errors(self):
        with pytest.raises(InputError, match="empty"):
            rms([])

    def test_absolute_homogeneity(self, rng):
        x = rng.normal(size=200)
        for k in (-3.0, 0.5, 2.0):
            assert rms(k * x) == pytest.approx(abs(k) * rms(x), rel=1e-9)


class TestLowpass:
    def test_dc_passes(self):
        ch = Channel(np.ones(500), 320.0, "dc")
        out = lowpass(ch, 100.0)
        assert len(out) == 500 and out.fs == 320.0
        assert np.allclose(out.samples[10:-10], 1.0, atol=1e-6)

    def test_passband_tone(self):
        ch = Channel(tone(20, 320, 5), 320.0)
        out = lowpass(ch, 100.0)
        ratio = rms(out.samples[160:-160]) / rms(ch.samples[160:-160])
        assert abs(db(ratio)) < 0.5

    def test_stopband_tone(self):
        ch = Channel(tone(150, 320, 5), 320.0)
        out = lowpass(ch, 100.0)
        ratio = rms(out.samples) / rms(ch.samples)
        assert db(ratio) <= -40

    def test_empty_channel_is_the_input(self):
        ch = Channel(np.empty(0), 320.0, "scg")
        assert lowpass(ch, 100.0) is ch

    def test_cutoff_above_nyquist(self):
        with pytest.raises(InputError, match="Nyquist"):
            lowpass(Channel(np.ones(100), 320.0), 200.0)

    @pytest.mark.parametrize("cutoff", [-5.0, 0.0])
    def test_cutoff_below_band_names_the_range(self, cutoff):
        with pytest.raises(InputError, match=r"outside \(0, fs/2\) = \(0, 160\) Hz"):
            lowpass(Channel(np.ones(100), 320.0), cutoff)

    @pytest.mark.parametrize("cutoff", [160.0, 200.0])
    def test_cutoff_above_band_names_the_range(self, cutoff):
        with pytest.raises(InputError, match=r"outside \(0, fs/2\) = \(0, 160\) Hz"):
            lowpass(Channel(np.ones(100), 320.0), cutoff)

    def test_linearity(self, rng):
        x = Channel(rng.normal(size=800), 320.0)
        y = Channel(rng.normal(size=800), 320.0)
        a, b = 2.0, -0.7
        combo = lowpass(Channel(a * x.samples + b * y.samples, 320.0), 100.0)
        parts = a * lowpass(x, 100.0).samples + b * lowpass(y, 100.0).samples
        assert np.allclose(combo.samples, parts, rtol=1e-6, atol=1e-9)

    def test_double_application_in_band(self):
        ch = Channel(tone(20, 320, 5), 320.0)
        once = lowpass(ch, 100.0)
        twice = lowpass(once, 100.0)
        ratio = rms(twice.samples[160:-160]) / rms(once.samples[160:-160])
        assert abs(db(ratio)) < 1.0

    def test_zero_phase(self):
        # a low-frequency tone must come out with no shift
        ch = Channel(tone(10, 320, 4), 320.0)
        out = lowpass(ch, 100.0)
        lag = best_lag(ch.samples[100:-100], out.samples[100:-100][None], 10)[0]
        assert lag == 0


class TestResample:
    def test_identity_rate(self):
        ch = Channel(np.sin(np.arange(100)), 320.0)
        assert resample(ch, 320.0) is ch

    def test_ratio_that_reduces_to_one(self):
        # 320/320.01 reduces to 1/1: the first round(n * 320 / 320.01) samples, unfiltered
        ch = Channel(np.sin(np.arange(100000)), 320.01)
        out = resample(ch, 320.0)
        assert out.fs == 320.0
        assert out.samples.tobytes() == ch.samples[:99997].tobytes()

    def test_tone_10k_to_320(self):
        ch = Channel(tone(5, 10000, 10), 10000.0)
        out = resample(ch, 320.0)
        assert out.fs == 320.0
        interior = out.samples[160:-160]
        assert rms(interior) == pytest.approx(1 / np.sqrt(2), rel=0.01)

    def test_length_arithmetic(self):
        ch = Channel(np.zeros(100000), 10000.0)
        out = resample(ch, 320.0)
        assert len(out) == 3200

    def test_round_trip_in_band_tone(self):
        ch = Channel(tone(10, 1000, 4), 1000.0)
        down = resample(ch, 320.0)
        back = resample(down, 1000.0)
        interior = slice(200, -200)
        assert rms(back.samples[interior]) == pytest.approx(rms(ch.samples[interior]), rel=0.02)

    @pytest.mark.parametrize("rate", [-1.0, np.nan, np.inf])
    def test_bad_rate(self, rate):
        with pytest.raises(InputError, match="target_fs must be finite and > 0"):
            resample(Channel(np.zeros(10), 320.0), rate)


class TestHilbertEnvelope:
    def test_all_zero(self):
        assert np.allclose(hilbert_envelope(np.zeros(64)), 0.0)

    def test_pure_tone_flat(self):
        fs, dur, amp = 320, 10, 2.5
        x = tone(10, fs, dur, amp)
        env = hilbert_envelope(x)
        n = len(x)
        interior = env[n // 10: -n // 10]
        assert np.all(np.abs(interior - amp) < 0.01 * amp)

    def test_modulated_tone(self):
        fs, dur = 320, 10
        t = np.arange(int(fs * dur)) / fs
        g = 1.0 + 0.5 * np.sin(2 * np.pi * 0.3 * t)
        x = g * np.sin(2 * np.pi * 10 * t)
        env = hilbert_envelope(x)
        n = len(x)
        interior = slice(n // 10, -n // 10)
        assert np.all(np.abs(env[interior] - g[interior]) < 0.03 * g[interior])

    def test_bound_from_below(self, rng):
        x = rng.normal(size=512)
        env = hilbert_envelope(x)
        assert np.all(env >= np.abs(x) - 1e-9)

    def test_homogeneity(self, rng):
        x = rng.normal(size=256)
        assert np.allclose(hilbert_envelope(-3 * x), 3 * hilbert_envelope(x), rtol=1e-6)

    def test_too_short(self):
        with pytest.raises(InputError):
            hilbert_envelope([1.0, 2.0])

    def test_peak_is_one_fft_buffer_and_the_envelope(self):
        # 120 s at 320 Hz, whose FFT length 38,500 is longer than the input;
        # a first call primes what numpy keeps between transforms of one
        # length. A spectrum apart from the complex buffer, or its
        # zero-padded copy, would break the bound
        x = np.random.default_rng(0).standard_normal(38_479)
        n = signal_core._next_fast_len(len(x))
        hilbert_envelope(x)
        peak, env = traced_peak(hilbert_envelope, x)
        assert peak < 16 * n + env.nbytes + 2**14, peak


class TestBestLag:
    def test_self_alignment(self, rng):
        x = rng.normal(size=128)
        assert best_lag(x, x[None], 10)[0] == 0

    def test_pure_shift_sign_convention(self, rng):
        mother = rng.normal(size=200)
        x = mother[20:120]
        y = mother[17:117]  # y is x delayed by 3 samples
        assert best_lag(x, y[None], 10)[0] == 3

    def test_noisy_shift(self, rng):
        mother = rng.normal(size=400)
        x = mother[50:250]
        y = mother[45:245].copy()
        y += rng.normal(scale=0.1 * np.std(y), size=y.size)  # SNR 20 dB
        assert best_lag(x, y[None], 16)[0] == 5

    def test_all_shifts_recovered(self, rng):
        mother = rng.normal(size=600)
        x = mother[100:300]
        for n in range(-8, 9):
            y = mother[100 - n:300 - n]
            assert best_lag(x, y[None], 8)[0] == n


class TestChannel:
    def test_rejects_nan(self):
        with pytest.raises(InputError, match="non-finite"):
            Channel(np.array([1.0, np.nan]), 320.0)

    @pytest.mark.parametrize("fs", [0.0, np.nan, np.inf])
    def test_rejects_bad_fs(self, fs):
        with pytest.raises(InputError, match="fs must be finite and > 0"):
            Channel(np.zeros(4), fs)


def split_resampled(x, up, down, cut):
    """x resampled by up/down as two processes of ingest_csv do: rows
    before `cut` and rows from it on each go to their own at() resampler,
    fed the rows past their end that wants() asks for, into one shared
    output."""
    out = Resampler(float(down), float(up), len(x), 2)
    for start, stop in ((0, cut), (cut, len(x))):
        part = out.at(start)
        part.feed(x[start:stop])
        part.feed(x[stop:stop + part.wants(stop)])
        part.finish(stop)
    return out.result(int(round(len(x) * up / down)))


# (up, down, per_phase): a block's oldest input is row q*down - per_phase + 1,
# so cuts at every offset around a multiple of down put each row of a block
# on either side of the cut
@pytest.mark.parametrize("up, down, per_phase, offsets", [
    (4, 125, 657, range(125)), (215, 6719, 657, [-2, -1, 0, 1, 2, 3]), (1, 1, 1, range(3))])
def test_resamplers_from_any_row_meet_bit_for_bit(up, down, per_phase, offsets):
    m = per_phase // down + 2  # the first block whose oldest input is past row 0, and one more
    x = np.random.default_rng(5).standard_normal(((m + 3) * down, 2))
    whole = Resampler(float(down), float(up), len(x), 2)
    part = whole.at(0)
    part.feed(x)
    part.finish(len(x))
    want = whole.result(int(round(len(x) * up / down)))
    for offset in offsets:
        cut = m * down - per_phase + 1 + offset
        assert split_resampled(x, up, down, cut).tobytes() == want.tobytes(), cut


@pytest.mark.parametrize("up, down", [(4, 125), (215, 6719)])
def test_a_part_buffer_is_one_span_and_its_reach(up, down):
    # two channels, as ingest feeds, and an input of many spans
    part = Resampler(float(down), float(up), 10 * signal_core._RESAMPLE_SPAN, 2).at(0)
    bound = 2 * 8 * (signal_core._RESAMPLE_SPAN + (part._reach + 1) * down)
    assert part._buf.nbytes <= bound, (part._buf.nbytes, bound)


# 10,000.37 Hz and 10 kHz to 320 Hz: 215/6719, a 134,381-tap kernel in 657
# phases of 215 outputs, and 4/125, 2,501 taps in 657 phases of 4
@pytest.mark.parametrize("fs, table_bytes", [(10_000.37, 8 + 2 + 2), (10_000.0, 0)])
def test_resampler_design_holds_its_tables_and_little_more(fs, table_bytes):
    # once made, a resampler holds its float coefficient table and its two
    # int16 index tables, of per_phase * up entries each, and little more:
    # the tables at 4/125 fit in the 64 KiB besides; per-tap views of them,
    # or index tables of int64, would break the bound
    held, out = traced_held(Resampler, fs, 320.0, round(120 * fs), 2)
    bound = table_bytes * out._up * out._per_phase + 2**16
    assert held < bound, (held, bound)


@pytest.mark.parametrize("up, down", [(1, 10_000), (3, 10_000), (10_000, 1), (9_999, 10_000)])
def test_resampler_index_tables_fit_int16(up, down):
    # the extreme ratios of a denominator of at most 10,000, where the
    # newest input of a tap, first_p + j, reaches 210,000: the stored tables
    # are the shift and column of that input computed in int64
    out = Resampler(float(down), float(up), 10, 1)
    assert (out._up, out._down) == (up, down)
    shift, col, coeffs = out._taps
    assert shift.dtype == col.dtype == np.int16
    assert coeffs.shape == shift.shape == col.shape == (out._per_phase, up)
    p = np.arange(up, dtype=np.int64)
    wide = p * down // up + np.arange(out._per_phase, dtype=np.int64)[:, None]
    assert np.array_equal(shift, wide // down) and np.array_equal(col, wide % down)
