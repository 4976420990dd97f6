from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardioseis.errors import DegenerateAnalysisError, InputError
from cardioseis.event_detection import (Template, _percentile, build_matched_filter,
                                        cut_windows, detect_events, matched_filter_output,
                                        template_from_channel)
from cardioseis.signal_core import Channel, lowpass, rms
from cardioseis.synth import Coupling, SynthConfig, default_morphologies, gen_recording

from conftest import BURST, detection_scores


def brute_force_convolution(x, w):
    """O(N*L) reference convolution, the oracle for matched_filter_output."""
    x, w = np.asarray(x, float), np.asarray(w, float)
    out = np.zeros(len(x) + len(w) - 1)
    for i, xi in enumerate(x):
        for j, wj in enumerate(w):
            out[i + j] += xi * wj
    return out


def make_template(samples):
    return Template(np.asarray(samples, float), 320.0)


@lru_cache(maxsize=None)
def synth_scg(coupling, seed):
    """The conditioned SCG of a 30 s synthetic recording, and a template
    cut around its first beat."""
    cfg = SynthConfig(coupling=coupling, seed=seed, duration_s=30.0)
    rec, truth = gen_recording(cfg)
    scg = lowpass(rec["scg"], 100.0)
    length = len(default_morphologies(cfg.fs)[0])
    start = truth.beat_indices[0] - length // 2
    return scg, template_from_channel(scg, start / cfg.fs, length / cfg.fs)


class TestBuildMatchedFilter:
    def test_reversal(self):
        tpl = make_template(list(range(8)))
        assert list(build_matched_filter(tpl)) == list(range(7, -1, -1))

    def test_palindrome_fixed_point(self):
        pal = [1, 2, 3, 4, 4, 3, 2, 1]
        assert list(build_matched_filter(make_template(pal))) == pal

    def test_involution(self):
        tpl = make_template(BURST)
        w = build_matched_filter(tpl)
        again = build_matched_filter(Template(w, 320.0))
        assert np.array_equal(again, tpl.samples)


class TestMatchedFilterOutput:
    def test_spec_micro_example(self):
        # w = [2,1] built from l = [1,2]; full convolution with [0,1,2,0]
        out = matched_filter_output([0, 1, 2, 0], [2, 1])
        assert np.allclose(out, [0, 2, 5, 2, 0])
        assert np.allclose(out, brute_force_convolution([0, 1, 2, 0], [2, 1]))

    def test_self_match_peak_is_energy(self):
        w = build_matched_filter(make_template(BURST))
        y = matched_filter_output(BURST, w)
        assert np.max(y) == pytest.approx(np.sum(BURST ** 2), rel=1e-12)
        assert np.argmax(y) == len(BURST) - 1

    def test_zero_signal(self):
        assert np.allclose(matched_filter_output(np.zeros(100), BURST[:20]), 0.0)

    def test_signal_shorter_than_template(self):
        with pytest.raises(InputError, match="shorter"):
            matched_filter_output(np.zeros(5), np.zeros(10))

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(25):
            n = int(rng.integers(16, 512))
            length = int(rng.integers(2, min(n, 64)))
            x = rng.normal(size=n)
            w = rng.normal(size=length)
            fast = matched_filter_output(x, w)
            slow = brute_force_convolution(x, w)
            assert np.allclose(fast, slow, rtol=1e-9, atol=1e-12)


class TestDetectEvents:
    def _planted_channel(self, offsets, snr_db=20.0, seed=0, n=4000):
        rng = np.random.default_rng(seed)
        x = np.zeros(n)
        for p in offsets:
            x[p:p + len(BURST)] += BURST
        noise = rng.normal(scale=rms(x) * 10 ** (-snr_db / 20), size=n)
        return Channel(x + noise, 320.0)

    def test_three_planted_events(self):
        offsets = [500, 1200, 2500]
        ch = self._planted_channel(offsets)
        refs = detect_events(ch, make_template(BURST))
        assert len(refs) == 3
        expected = [p + len(BURST) // 2 for p in offsets]
        for ref, want in zip(refs, expected):
            assert abs(ref - want) <= 2
        assert cut_windows(ch.samples, refs, len(BURST)).shape == (3, len(BURST))

    def test_all_zero_signal(self):
        ch = Channel(np.zeros(2000), 320.0)
        assert detect_events(ch, make_template(BURST)).tolist() == []

    def test_collision_keeps_larger_peak(self):
        n = 3000
        x = np.zeros(n)
        x[1000:1000 + len(BURST)] += 1.0 * BURST
        x[1050:1050 + len(BURST)] += 0.6 * BURST  # closer than 0.4 s = 128 samples
        ch = Channel(x, 320.0)
        refs = detect_events(ch, make_template(BURST))
        assert len(refs) == 1
        assert abs(refs[0] - (1000 + len(BURST) // 2)) <= 2

    def test_amplitude_scale_invariance(self):
        ch = self._planted_channel([400, 1300, 2200], seed=3)
        tpl = make_template(BURST)
        refs = detect_events(ch, tpl).tolist()
        scaled = Channel(7.5 * ch.samples, 320.0)
        assert detect_events(scaled, tpl).tolist() == refs

    @settings(max_examples=60, deadline=None)
    @given(coupling=st.sampled_from(list(Coupling)), seed=st.integers(0, 7),
           k=st.sampled_from([1e-3, 1e4]) | st.floats(1e-3, 1e4))
    def test_amplitude_scale_invariance_property(self, coupling, seed, k):
        scg, tpl = synth_scg(coupling, seed)
        refs = detect_events(scg, tpl).tolist()
        assert refs
        scaled = Channel(k * scg.samples, scg.fs)
        assert detect_events(scaled, tpl).tolist() == refs

    def test_pairwise_separation(self, rng):
        offsets = sorted(rng.choice(np.arange(200, 3600, 200), size=8, replace=False))
        ch = self._planted_channel(list(offsets), seed=5)
        refs = detect_events(ch, make_template(BURST)).tolist()
        assert all(b - a >= 0.4 * 320 for a, b in zip(refs, refs[1:]))

    def test_degenerate_template(self):
        with pytest.raises(DegenerateAnalysisError):
            make_template(np.ones(16))

    def test_edge_events_dropped(self):
        x = np.zeros(300)
        x[0:len(BURST)] += BURST  # too close to the start for a centered window
        ch = Channel(x, 320.0)
        refs = detect_events(ch, make_template(BURST))
        assert all(ref - len(BURST) // 2 >= 0 for ref in refs)


def same_percentile(x):
    """_percentile(x, 95) and np.percentile(x, 95) are the same float, bit for bit."""
    x = np.asarray(x, dtype=float)
    return _percentile(x, 95).hex() == float(np.percentile(x, 95)).hex()


class TestPercentile:
    @pytest.mark.parametrize("x", [[2.5], [1.0, 3.0], [3.0, 1.0], [0.0, 0.0], [4.0] * 7,
                                   [1.0, 2.0] + [5.0] * 30, [0.0] * 30 + [1.0, 9.0],
                                   list(range(21)), [7.0, 1e-300, 1e300],
                                   # the point halfway, 9.5, where numpy's lerp
                                   # rounds from the upper value
                                   [0.0] * 9 + [8.6, 0.3]])
    def test_small_and_plateaus(self, x):
        assert same_percentile(x)

    # values on a coarse grid repeat, so the two values around the point
    # are often equal, and lengths from 1 put that point at every fraction
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 6).map(lambda v: v / 4)
                    | st.floats(0, 1e6, allow_subnormal=False), min_size=1, max_size=300))
    def test_equals_numpy(self, x):
        assert same_percentile(x)

    def test_the_envelope_of_a_recording(self, rng):
        assert same_percentile(np.abs(rng.standard_normal(40_000)).round(2))


class TestSyntheticAccuracy:
    def test_detection_recall_precision(self):
        from conftest import run_synth_analysis
        _, refs, truth, _ = run_synth_analysis(Coupling.VOLUME, seed=11)
        recall, precision, max_err = detection_scores(refs, truth, tol=2)
        assert recall >= 0.99
        assert precision >= 0.99
        assert max_err <= 2


class TestTemplateFromChannel:
    def test_span_cut(self):
        ch = Channel(np.concatenate([np.zeros(100), BURST, np.zeros(100)]), 320.0)
        tpl = template_from_channel(ch, 100 / 320, 80 / 320)
        assert np.allclose(tpl.samples, BURST)

    def test_span_outside(self):
        ch = Channel(np.zeros(100), 320.0)
        with pytest.raises(InputError):
            template_from_channel(ch, 0.2, 0.25)

    def test_short_span_named_too_short(self):
        ch = Channel(np.concatenate([np.zeros(100), BURST, np.zeros(100)]), 320.0)
        with pytest.raises(InputError, match="template too short: 6 samples"):
            template_from_channel(ch, 100 / 320, 0.02)
