import numpy as np
import pytest

from cardioseis.errors import InputError
from cardioseis.respiration import FlowPhase, VolumePhase, integrate_flow, label_events, phases
from cardioseis.signal_core import Channel
from cardioseis.synth import Coupling, SynthConfig, gen_recording

from conftest import traced_peak


def sine_flow(amp=1.0, freq=0.25, fs=320.0, duration=20.0):
    t = np.arange(int(round(duration * fs))) / fs
    return Channel(amp * np.sin(2 * np.pi * freq * t), fs, "flow")


def sine_volume(amp, freq, fs, n):
    """integrate_flow of n samples of amp * sin(2 pi freq t), in closed form.
    At theta radians a sample, the trapezoids up to sample k add up to
    amp * (1 - cos(k theta)) / (2 fs tan(theta / 2)); the offset correction
    takes away the line from 0 to that sum at the last sample."""
    theta = 2 * np.pi * freq / fs
    k = np.arange(n)
    raw = amp * (1 - np.cos(k * theta)) / (2 * fs * np.tan(theta / 2))
    return raw - k * raw[-1] / (n - 1)


class TestIntegrateFlow:
    def test_trapezoid_by_hand(self):
        # the trapezoid mean 2/3 comes off each sample: [-2/3, 1/3, 1/3, -2/3]
        flow = Channel(np.array([0.0, 1, 1, 0]), 1.0, "flow")
        assert np.allclose(integrate_flow(flow), [0, -1 / 6, 1 / 6, 0])

    def test_zero_flow(self):
        volume = integrate_flow(Channel(np.zeros(100), 320.0))
        assert volume.tolist() == [0.0] * 100

    def test_sine_closed_form(self):
        amp, freq, fs = 1.0, 0.25, 320.0
        flow = sine_flow(amp, freq, fs, 20.0)
        expected = sine_volume(amp, freq, fs, len(flow))
        assert np.max(np.abs(integrate_flow(flow) - expected)) < 1e-12

    def test_linearity(self, rng):
        # linear in the flow, and blind to a constant added to it
        f = rng.normal(size=500)
        base = integrate_flow(Channel(f, 320.0))
        for k in (-2.0, 0.5, 3.0):
            scaled = integrate_flow(Channel(k * f + 0.3, 320.0))
            assert np.allclose(scaled, k * base, rtol=1e-9, atol=1e-12)

    def test_detrend_zero_net_drift(self, rng):
        f = rng.normal(size=2000) + 0.3  # spirometer offset
        volume = integrate_flow(Channel(f, 320.0))
        assert abs(volume[-1]) < 1e-9
        assert volume[0] == 0.0

    def test_empty_flow(self):
        with pytest.raises(InputError):
            integrate_flow(Channel(np.array([]), 320.0))

    def test_peak_is_two_arrays(self):
        # 120 s at 320 Hz: the offset-corrected flow and the volume it
        # returns; a fresh array for any step after the offset breaks it
        flow = Channel(np.random.default_rng(0).standard_normal(38_400), 320.0)
        peak, volume = traced_peak(integrate_flow, flow)
        assert peak < 2 * volume.nbytes + 2**14, peak

    def test_bitwise_equal_to_scipy(self, rng):
        from scipy.integrate import cumulative_trapezoid
        for n in (1, 2, 3, 17, 1000, 4999):
            for fs in (10.0, 320.0, 10000.37):
                f = rng.uniform(-1, 1, size=n) * 10.0 ** rng.uniform(-5, 5)
                got = integrate_flow(Channel(f, fs))
                if n > 1:
                    f = f - np.trapezoid(f) / (n - 1)
                want = cumulative_trapezoid(f, dx=1.0 / fs, initial=0.0)
                assert got.tobytes() == want.tobytes(), (n, fs)


def labels_at(flow, volume, index):
    """(flow phase, volume phase) that label_events gives an event at index."""
    ((flow_phase,), (volume_phase,)) = phases(*label_events([index], flow, volume))
    return flow_phase, volume_phase


def flow_and_volume(flow: Channel):
    """The flow samples and their offset-corrected integral."""
    return flow.samples, integrate_flow(flow)


class TestPhaseLabels:
    def trace(self):
        return flow_and_volume(Channel(np.array([0.3, -0.3, 0.0, 0.1]), 1.0, "flow"))

    def test_positive_flow_is_inspiration(self):
        assert labels_at(*self.trace(), 0)[0] is FlowPhase.INSPIRATION

    def test_negative_flow_is_expiration(self):
        assert labels_at(*self.trace(), 1)[0] is FlowPhase.EXPIRATION

    def test_zero_flow_tiebreak(self):
        assert labels_at(*self.trace(), 2)[0] is FlowPhase.EXPIRATION

    def test_out_of_range(self):
        with pytest.raises(InputError, match=r"index 99 out of range"):
            labels_at(*self.trace(), 99)

    @pytest.mark.parametrize("index", [4, -1])
    def test_just_outside_the_trace(self, index):
        # the trace has 4 samples; -1 must not wrap around to the last one
        with pytest.raises(InputError, match=rf"index {index} out of range"):
            labels_at(*self.trace(), index)

    def test_out_of_range_among_valid_refs(self):
        with pytest.raises(InputError, match=r"index 7 out of range"):
            label_events(np.array([0, 3, 7, 2]), *self.trace())

    def test_volume_below_mean_is_llv(self):
        flow, volume = flow_and_volume(sine_flow())
        lo = int(np.argmin(volume))
        hi = int(np.argmax(volume))
        assert labels_at(flow, volume, lo)[1] is VolumePhase.LLV
        assert labels_at(flow, volume, hi)[1] is VolumePhase.HLV

    def test_volume_equal_mean_tiebreak(self):
        flow, volume = flow_and_volume(Channel(np.zeros(10), 1.0, "flow"))
        assert volume[5] == np.mean(volume)
        assert labels_at(flow, volume, 5)[1] is VolumePhase.LLV

    def test_sine_phase_geometry(self):
        # Inspiration occupies positive half-cycles; HLV lags it by T/4
        fs, freq = 320.0, 0.25
        flow, volume = flow_and_volume(sine_flow(1.0, freq, fs, 20.0))
        period = fs / freq
        indices = range(1, len(flow) - 1)
        flow, _ = phases(*label_events(np.array(indices), flow, volume))
        for i, phase in zip(indices, flow):
            expect_insp = (i % period) < period / 2
            got = phase is FlowPhase.INSPIRATION
            if min(i % (period / 2), period / 2 - i % (period / 2)) > 1:
                assert got == expect_insp


class TestLabelEvents:
    def test_composition(self):
        fs = 320.0
        flow, volume = flow_and_volume(sine_flow(1.0, 0.25, fs, 20.0))
        # early in the first breath: inhaling, volume still below mean
        inspiring, high_volume = label_events(np.array([100]), flow, volume)
        flow, volume = phases(inspiring, high_volume)
        assert inspiring.tolist() == [True] and high_volume.tolist() == [False]
        assert flow[0] is FlowPhase.INSPIRATION
        assert volume[0] is VolumePhase.LLV

    def test_empty_list(self):
        flow = sine_flow()
        inspiring, high_volume = label_events(np.array([], dtype=int), flow.samples,
                                              integrate_flow(flow))
        assert inspiring.tolist() == [] and high_volume.tolist() == []
        assert phases(inspiring, high_volume) == ([], [])

    def test_partition_property(self):
        from conftest import run_synth_analysis
        _, refs, _, scg = run_synth_analysis(Coupling.VOLUME, seed=21, screen=False)
        cfg = SynthConfig(coupling=Coupling.VOLUME, seed=21)
        rec, _ = gen_recording(cfg)
        flow, volume = phases(*label_events(refs, rec["flow"].samples,
                                            integrate_flow(rec["flow"])))
        insp = sum(phase is FlowPhase.INSPIRATION for phase in flow)
        exp = sum(phase is FlowPhase.EXPIRATION for phase in flow)
        llv = sum(phase is VolumePhase.LLV for phase in volume)
        hlv = sum(phase is VolumePhase.HLV for phase in volume)
        assert insp + exp == len(refs)
        assert llv + hlv == len(refs)

    def test_labels_match_ground_truth(self):
        from conftest import run_synth_analysis
        _, refs, truth, _ = run_synth_analysis(Coupling.VOLUME, seed=22, screen=False)
        cfg = SynthConfig(coupling=Coupling.VOLUME, seed=22)
        rec, _ = gen_recording(cfg)
        flow, volume = phases(*label_events(refs, rec["flow"].samples,
                                            integrate_flow(rec["flow"])))
        beats = np.array(truth.beat_indices)
        ok = total = 0
        for ref, flow_phase, volume_phase in zip(refs, flow, volume):
            k = int(np.argmin(np.abs(beats - ref)))
            if abs(beats[k] - ref) > 2:
                continue
            total += 1
            ok += (flow_phase is truth.flow_phase[k]
                   and volume_phase is truth.volume_phase[k])
        assert total > 0
        assert ok / total >= 0.99
