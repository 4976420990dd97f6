import json
import math

import numpy as np
import pytest

from cardioseis.errors import InputError
from cardioseis.respiration import integrate_flow, label_events, phases
from cardioseis.signal_core import rms
from cardioseis.synth import (_RESP_FREQ, Coupling, SynthConfig, default_morphologies,
                              gen_recording, gen_respiration)


class TestGenRespiration:
    def test_volume_extremes_at_flow_zero_crossings(self):
        cfg = SynthConfig(duration_s=20)
        flow, volume = gen_respiration(cfg)
        hi = int(np.argmax(volume.samples))
        assert abs(flow.samples[hi]) < 0.02 * 0.5  # peak flow is 0.5 L/s

    def test_integral_matches_closed_form(self):
        # the trapezoids of a sine at theta radians a sample add up to its
        # closed-form integral times (theta / 2) / tan(theta / 2); the offset
        # correction takes away the line from 0 to that sum at the last sample
        cfg = SynthConfig(duration_s=20)
        flow, volume = gen_respiration(cfg)
        half = np.pi * _RESP_FREQ / cfg.fs
        raw = volume.samples * (half / np.tan(half))
        expected = raw - np.arange(len(raw)) * raw[-1] / (len(raw) - 1)
        assert np.max(np.abs(integrate_flow(flow) - expected)) < 1e-12


class TestGenRecording:
    def test_determinism(self):
        cfg = SynthConfig(seed=7, duration_s=30)
        rec1, truth1 = gen_recording(cfg)
        rec2, truth2 = gen_recording(cfg)
        assert np.array_equal(rec1["scg"].samples, rec2["scg"].samples)
        assert truth1.beat_indices == truth2.beat_indices
        assert truth1.alpha == truth2.alpha

    def test_uncoupled_noiseless_beats_identical(self):
        cfg = SynthConfig(coupling=Coupling.NONE, snr_db=math.inf, duration_s=30)
        rec, truth = gen_recording(cfg)
        m_low, _ = default_morphologies(cfg.fs)
        length = len(m_low)
        windows = [rec["scg"].samples[b - length // 2: b - length // 2 + length]
                   for b in truth.beat_indices]
        for w in windows[1:]:
            assert np.allclose(w, windows[0], atol=1e-12)

    def test_volume_coupling_endpoints(self):
        cfg = SynthConfig(coupling=Coupling.VOLUME, snr_db=math.inf, duration_s=60)
        rec, truth = gen_recording(cfg)
        m_low, m_high = default_morphologies(cfg.fs)
        length = len(m_low)
        alphas = np.array(truth.alpha)
        for which, proto in ((np.argmin(alphas), m_low), (np.argmax(alphas), m_high)):
            b = truth.beat_indices[int(which)]
            window = rec["scg"].samples[b - length // 2: b - length // 2 + length]
            alpha = alphas[int(which)]
            expected = (1 - alpha) * m_low + alpha * m_high
            assert np.allclose(window, expected, atol=1e-9)

    def test_snr_hit(self):
        cfg = SynthConfig(coupling=Coupling.NONE, snr_db=20.0, duration_s=60, seed=3)
        rec, _ = gen_recording(cfg)
        clean, _ = gen_recording(SynthConfig(coupling=Coupling.NONE, snr_db=math.inf,
                                             duration_s=60, seed=3))
        noise = rec["scg"].samples - clean["scg"].samples
        got = 20 * np.log10(rms(clean["scg"].samples) / rms(noise))
        assert got == pytest.approx(20.0, abs=0.5)

    def test_ecg_spikes_at_beats(self):
        cfg = SynthConfig(duration_s=30)
        rec, truth = gen_recording(cfg)
        spikes = np.flatnonzero(rec["ecg"].samples)
        assert list(spikes) == truth.beat_indices

    def test_beat_overlap_error(self):
        # at 8 Hz the 8-sample morphology outlasts a 66 bpm heart period
        with pytest.raises(InputError, match="beat overlap"):
            gen_recording(SynthConfig(fs=8.0, duration_s=10))

    def test_truth_labels_consistent_with_respiration_module(self):
        cfg = SynthConfig(duration_s=60, seed=9)
        rec, truth = gen_recording(cfg)
        volume = integrate_flow(rec["flow"])
        agree = 0
        flow, volume = phases(*label_events(truth.beat_indices, rec["flow"].samples, volume))
        for i, (flow_phase, volume_phase) in enumerate(zip(flow, volume)):
            agree += (flow_phase is truth.flow_phase[i]
                      and volume_phase is truth.volume_phase[i])
        assert agree / len(truth.beat_indices) >= 0.99

    def test_ground_truth_round_trip(self, tmp_path):
        cfg = SynthConfig(duration_s=30)
        _, truth = gen_recording(cfg)
        path = tmp_path / "truth.json"
        truth.to_json(path)
        with open(path) as fh:
            loaded = json.load(fh)
        assert loaded == {"beat_indices": truth.beat_indices, "alpha": truth.alpha,
                          "flow_phase": [p.value for p in truth.flow_phase],
                          "volume_phase": [p.value for p in truth.volume_phase]}


class TestSynthConfigValidation:
    def test_bad_duration(self):
        with pytest.raises(InputError):
            SynthConfig(duration_s=0)

    @pytest.mark.parametrize("field", ["duration_s", "fs"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_duration_or_rate(self, field, value):
        with pytest.raises(InputError, match=f"{field} must be finite"):
            SynthConfig(**{field: value})

    def test_minus_inf_snr(self):
        # only +inf means noiseless
        with pytest.raises(InputError, match="snr_db"):
            SynthConfig(snr_db=-math.inf)

    def test_negative_seed(self):
        with pytest.raises(InputError, match="seed must be >= 0, got -1"):
            SynthConfig(seed=-1)
