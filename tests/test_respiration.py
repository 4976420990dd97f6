import numpy as np
import pytest

from cardioseis.errors import InputError
from cardioseis.event_detection import ScgEvent
from cardioseis.respiration import FlowPhase, VolumePhase, integrate_flow, label_events
from cardioseis.signal_core import Channel, rms
from cardioseis.synth import Coupling, SynthConfig, gen_recording


def sine_flow(amp=1.0, freq=0.25, fs=320.0, duration=20.0):
    t = np.arange(int(round(duration * fs))) / fs
    return Channel(amp * np.sin(2 * np.pi * freq * t), fs, "flow")


class TestIntegrateFlow:
    def test_trapezoid_by_hand(self):
        flow = Channel(np.array([0.0, 1, 1, 0]), 1.0, "flow")
        trace = integrate_flow(flow, detrend=False)
        assert np.allclose(trace.volume.samples, [0, 0.5, 1.5, 2.0])

    def test_zero_flow(self):
        trace = integrate_flow(Channel(np.zeros(100), 320.0), detrend=False)
        assert np.allclose(trace.volume.samples, 0.0)
        assert trace.mean_volume == 0.0

    def test_sine_closed_form(self):
        amp, freq, fs = 1.0, 0.25, 320.0
        flow = sine_flow(amp, freq, fs, 20.0)
        trace = integrate_flow(flow, detrend=False)
        t = np.arange(len(flow)) / fs
        expected = (amp / (2 * np.pi * freq)) * (1 - np.cos(2 * np.pi * freq * t))
        err = rms(trace.volume.samples - expected) / rms(expected)
        assert err < 0.01

    def test_linearity(self, rng):
        f = rng.normal(size=500)
        base = integrate_flow(Channel(f, 320.0), detrend=False)
        for k in (-2.0, 0.5, 3.0):
            scaled = integrate_flow(Channel(k * f, 320.0), detrend=False)
            assert np.allclose(scaled.volume.samples, k * base.volume.samples, rtol=1e-9,
                               atol=1e-12)

    def test_detrend_zero_net_drift(self, rng):
        f = rng.normal(size=2000) + 0.3  # spirometer offset
        trace = integrate_flow(Channel(f, 320.0), detrend=True)
        assert abs(trace.volume.samples[-1]) < 1e-9
        assert trace.volume.samples[0] == 0.0

    def test_mean_volume_invariant(self):
        trace = integrate_flow(sine_flow(), detrend=True)
        assert trace.mean_volume == pytest.approx(np.mean(trace.volume.samples))

    def test_empty_flow(self):
        with pytest.raises(InputError):
            integrate_flow(Channel(np.array([]), 320.0))

    @pytest.mark.parametrize("detrend", [False, True])
    def test_bitwise_equal_to_scipy(self, rng, detrend):
        from scipy.integrate import cumulative_trapezoid
        for n in (1, 2, 3, 17, 1000, 4999):
            for fs in (10.0, 320.0, 10000.37):
                f = rng.uniform(-1, 1, size=n) * 10.0 ** rng.uniform(-5, 5)
                got = integrate_flow(Channel(f, fs), detrend=detrend).volume.samples
                if detrend and n > 1:
                    f = f - np.trapezoid(f) / (n - 1)
                want = cumulative_trapezoid(f, dx=1.0 / fs, initial=0.0)
                assert got.tobytes() == want.tobytes(), (n, fs)


def labels_at(trace, index):
    """(flow phase, volume phase) that label_events gives an event at index."""
    (ev,) = label_events([ScgEvent(ref_index=index, window=np.zeros(8))], trace)
    return ev.flow_phase, ev.volume_phase


class TestPhaseLabels:
    def trace(self):
        flow = Channel(np.array([0.3, -0.3, 0.0, 0.1]), 1.0, "flow")
        return integrate_flow(flow, detrend=False)

    def test_positive_flow_is_inspiration(self):
        assert labels_at(self.trace(), 0)[0] is FlowPhase.INSPIRATION

    def test_negative_flow_is_expiration(self):
        assert labels_at(self.trace(), 1)[0] is FlowPhase.EXPIRATION

    def test_zero_flow_tiebreak(self):
        assert labels_at(self.trace(), 2)[0] is FlowPhase.EXPIRATION

    def test_out_of_range(self):
        with pytest.raises(InputError, match=r"index 99 out of range"):
            labels_at(self.trace(), 99)

    @pytest.mark.parametrize("index", [4, -1])
    def test_just_outside_the_trace(self, index):
        # the trace has 4 samples; -1 must not wrap around to the last one
        with pytest.raises(InputError, match=rf"index {index} out of range"):
            labels_at(self.trace(), index)

    def test_out_of_range_among_valid_refs(self):
        events = [ScgEvent(ref_index=i, window=np.zeros(8)) for i in (0, 3, 7, 2)]
        with pytest.raises(InputError, match=r"index 7 out of range"):
            label_events(events, self.trace())

    def test_volume_below_mean_is_llv(self):
        trace = integrate_flow(sine_flow(), detrend=False)
        lo = int(np.argmin(trace.volume.samples))
        hi = int(np.argmax(trace.volume.samples))
        assert labels_at(trace, lo)[1] is VolumePhase.LLV
        assert labels_at(trace, hi)[1] is VolumePhase.HLV

    def test_volume_equal_mean_tiebreak(self):
        flow = Channel(np.zeros(10), 1.0, "flow")
        trace = integrate_flow(flow, detrend=False)
        assert trace.volume.samples[5] == trace.mean_volume
        assert labels_at(trace, 5)[1] is VolumePhase.LLV

    def test_sine_phase_geometry(self):
        # Inspiration occupies positive half-cycles; HLV lags it by T/4
        fs, freq = 320.0, 0.25
        trace = integrate_flow(sine_flow(1.0, freq, fs, 20.0), detrend=False)
        n = len(trace.flow)
        period = fs / freq
        indices = range(1, n - 1)
        labeled = label_events([ScgEvent(ref_index=i, window=np.zeros(8)) for i in indices],
                               trace)
        for i, ev in zip(indices, labeled):
            expect_insp = (i % period) < period / 2
            got = ev.flow_phase is FlowPhase.INSPIRATION
            if min(i % (period / 2), period / 2 - i % (period / 2)) > 1:
                assert got == expect_insp


class TestLabelEvents:
    def test_composition(self):
        fs = 320.0
        flow = sine_flow(1.0, 0.25, fs, 20.0)
        trace = integrate_flow(flow, detrend=False)
        # early in the first breath: inhaling, volume still below mean
        ev = ScgEvent(ref_index=100, window=np.zeros(8))
        labeled = label_events([ev], trace)
        assert labeled[0].flow_phase is FlowPhase.INSPIRATION
        assert labeled[0].volume_phase is VolumePhase.LLV

    def test_empty_list(self):
        trace = integrate_flow(sine_flow())
        assert label_events([], trace) == []

    def test_partition_property(self):
        from conftest import run_synth_analysis
        _, events, _, scg = run_synth_analysis(Coupling.VOLUME, seed=21, screen=False)
        cfg = SynthConfig(coupling=Coupling.VOLUME, seed=21)
        rec, _ = gen_recording(cfg)
        labeled = label_events(events, integrate_flow(rec["flow"]))
        insp = sum(ev.flow_phase is FlowPhase.INSPIRATION for ev in labeled)
        exp = sum(ev.flow_phase is FlowPhase.EXPIRATION for ev in labeled)
        llv = sum(ev.volume_phase is VolumePhase.LLV for ev in labeled)
        hlv = sum(ev.volume_phase is VolumePhase.HLV for ev in labeled)
        assert insp + exp == len(labeled)
        assert llv + hlv == len(labeled)

    def test_labels_match_ground_truth(self):
        from conftest import run_synth_analysis
        _, events, truth, _ = run_synth_analysis(Coupling.VOLUME, seed=22, screen=False)
        cfg = SynthConfig(coupling=Coupling.VOLUME, seed=22)
        rec, _ = gen_recording(cfg)
        labeled = label_events(events, integrate_flow(rec["flow"]))
        beats = np.array(truth.beat_indices)
        ok = total = 0
        for ev in labeled:
            k = int(np.argmin(np.abs(beats - ev.ref_index)))
            if abs(beats[k] - ev.ref_index) > 2:
                continue
            total += 1
            ok += (ev.flow_phase is truth.flow_phase[k]
                   and ev.volume_phase is truth.volume_phase[k])
        assert total > 0
        assert ok / total >= 0.99
