import json
import math

import numpy as np
import pytest

from cardioseis.errors import InputError
from cardioseis.event_detection import ScgEvent
from cardioseis.respiration import integrate_flow, label_events
from cardioseis.signal_core import rms
from cardioseis.synth import (Coupling, SynthConfig, default_morphologies,
                              gen_recording, gen_respiration)


class TestGenRespiration:
    def test_volume_extremes_at_flow_zero_crossings(self):
        cfg = SynthConfig(duration_s=20)
        flow, volume = gen_respiration(cfg)
        hi = int(np.argmax(volume.samples))
        assert abs(flow.samples[hi]) < 0.02 * 0.5  # peak flow is 0.5 L/s

    def test_integral_matches_closed_form(self):
        cfg = SynthConfig(duration_s=20)
        flow, volume = gen_respiration(cfg)
        trace = integrate_flow(flow, detrend=False)
        err = rms(trace.volume.samples - volume.samples) / rms(volume.samples)
        assert err < 0.01


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
        cfg = SynthConfig(coupling=Coupling.VOLUME, coupling_strength=1.0,
                          snr_db=math.inf, duration_s=60)
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
        trace = integrate_flow(rec["flow"], detrend=True)
        agree = 0
        labeled = label_events([ScgEvent(ref_index=b, window=np.zeros(8))
                                for b in truth.beat_indices], trace)
        for i, ev in enumerate(labeled):
            agree += (ev.flow_phase is truth.flow_phase[i]
                      and ev.volume_phase is truth.volume_phase[i])
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

    def test_bad_strength(self):
        with pytest.raises(InputError):
            SynthConfig(coupling_strength=1.5)
