import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cardioseis.errors import InputError
from cardioseis.ingest import ingest_csv, write_recording_csv
from cardioseis.respiration import FlowPhase, integrate_flow, label_events, phases
from cardioseis.signal_core import Channel, Recording, rms
from cardioseis.synth import (_HEART_RATE_BPM, _HR_JITTER_PCT, _RESP_FREQ, GroundTruth,
                              Coupling, SynthConfig, default_morphologies, gen_recording,
                              gen_respiration)

from conftest import traced_peak


def reference_gen_recording(cfg: SynthConfig):
    """gen_recording as a loop over beats: one uniform draw, one blend and
    one ECG spike per beat. The reference for the array steps."""
    m_low, m_high = default_morphologies(cfg.fs)
    length = len(m_low)
    n = int(round(cfg.duration_s * cfg.fs))
    period = cfg.fs * 60.0 / _HEART_RATE_BPM
    jitter = _HR_JITTER_PCT / 100.0
    if period * (1 - jitter) < length:
        raise InputError("beat overlap: heart period shorter than morphology")
    if n < 3 * length:
        raise InputError(f"duration_s = {cfg.duration_s:g} is too short to hold one beat")

    rng = np.random.default_rng(cfg.seed)
    flow_ch, volume_ch = gen_respiration(cfg.duration_s, cfg.fs)

    starts = []
    pos = float(length)
    while pos + length <= n - length:
        starts.append(int(round(pos)))
        pos += period * (1.0 + rng.uniform(-jitter, jitter))
    beat_indices = [start + length // 2 for start in starts]
    flow_phase, volume_phase = phases(*label_events(beat_indices, flow_ch.samples,
                                                    volume_ch.samples))

    def alpha_at(index, phase):
        if cfg.coupling is Coupling.VOLUME:
            return float(0.5 * (1.0 - np.cos(2 * np.pi * _RESP_FREQ * (index / cfg.fs))))
        if cfg.coupling is Coupling.FLOW:
            return 1.0 if phase is FlowPhase.INSPIRATION else 0.0
        return 0.5

    scg = np.zeros(n)
    ecg = np.zeros(n)
    alphas = [alpha_at(center, phase) for center, phase in zip(beat_indices, flow_phase)]
    for start, center, alpha in zip(starts, beat_indices, alphas):
        scg[start:start + length] += (1 - alpha) * m_low + alpha * m_high
        ecg[center] = 1.0

    if math.isfinite(cfg.snr_db):
        noise_rms = rms(scg) * 10 ** (-cfg.snr_db / 20.0)
        scg = scg + rng.normal(0.0, noise_rms, size=n)

    channels = {"scg": Channel(scg, cfg.fs, "scg"), "flow": flow_ch}
    return (Recording(channels, f"synth-{cfg.coupling.value}-seed{cfg.seed}",
                      np.flatnonzero(ecg)),
            GroundTruth(beat_indices, alphas, flow_phase, volume_phase))


def ecg_spike_train(rec) -> np.ndarray:
    """The recording's ECG as a dense channel: 1.0 at its beats, 0.0 elsewhere."""
    ecg = np.zeros(len(rec["scg"]))
    ecg[rec.ecg_beats] = 1.0
    return ecg


def synth_digest(rec, truth) -> str:
    """SHA-256 of the scg, ecg and flow bytes and of every truth field; the
    ecg bytes are those of the spike train at the recording's beats."""
    h = hashlib.sha256()
    for samples in (rec["scg"].samples, ecg_spike_train(rec), rec["flow"].samples):
        h.update(samples.tobytes())
    h.update(json.dumps([truth.beat_indices, truth.alpha, [p.value for p in truth.flow_phase],
                         [p.value for p in truth.volume_phase]]).encode())
    return h.hexdigest()


# (seed, coupling, fs, duration_s, snr_db) -> synth_digest of gen_recording's
# output, as the per-beat loop wrote it
PINNED_SYNTH = {
    (0, "volume", 320.0, 20.0, 20.0):
        "400d0642dadace8ef13bd4792e4daa64f3766a5e5305bb4c59bdc3a1f9e61964",
    (0, "volume", 1000.0, 20.0, 20.0):
        "cc4b8d15c561551900dcbef1c8386af7c0feb6f0f884155001e5580a44dea94a",
    (0, "volume", 10000.37, 20.0, 20.0):
        "2281e2077f2de115b29beb09d4801d2c05229002c22df3b600fce4606fbbf1dd",
    (0, "flow", 320.0, 20.0, 20.0):
        "c7c3f0c2f6e6648aa4d86e83565c0295f236facf274bbaa7246c66ef8fcf0326",
    (0, "flow", 1000.0, 20.0, 20.0):
        "b24baa95682684cc00f3f3e8bcbd015ca988e61d36524171662643c9c758faf1",
    (0, "flow", 10000.37, 20.0, 20.0):
        "ba0fc5d366bb664193b784cda496d7433952b4dde50996caed51555379198bf6",
    (0, "none", 320.0, 20.0, 20.0):
        "1a13306008244922488e7c6481287c1411cc1738caa4856ab0143109982b486c",
    (0, "none", 1000.0, 20.0, 20.0):
        "2b1c8cabebe6a0ae9bb88752abc4376771c4ef0b22129ce8c7477fa4780b26f2",
    (0, "none", 10000.37, 20.0, 20.0):
        "7cc6f8358255e77274fc08bc1256c395a26595a027aa2be38565c33531160798",
    (7, "volume", 320.0, 20.0, 20.0):
        "aab170eca6bcc8d371fcca78c30ba0beb50e0f85c62be472b5d21f56eeac8091",
    (7, "volume", 1000.0, 20.0, 20.0):
        "ab1005b0d8ba43bd97cf0c62992012b62ef467eb123854f983f25f612283d9cf",
    (7, "volume", 10000.37, 20.0, 20.0):
        "1b7eb47b22498c4af240e4865b2b6e6c549f49b49556296a0013abe37b46d419",
    (7, "flow", 320.0, 20.0, 20.0):
        "3473d6f2936ba42411b53b70b2cf2fe269518631a800bbe582231efd91ab8c7f",
    (7, "flow", 1000.0, 20.0, 20.0):
        "8b797aa8c7ecff3e0b16f3c7802d271f8fa78413353431287b9642ba263c4d92",
    (7, "flow", 10000.37, 20.0, 20.0):
        "317e081ba894c27eea592a225ebe64b1738c36017fbfa99d394f24d168c9fe95",
    (7, "none", 320.0, 20.0, 20.0):
        "a761d3bdbfb95a8c64f9c5c850b18b3275b61f7decd741011676965736f7642c",
    (7, "none", 1000.0, 20.0, 20.0):
        "06fb5eafe0d97eaf935d10f1699077afbf8bb9666daa3b45819bfe5a4f769346",
    (7, "none", 10000.37, 20.0, 20.0):
        "1c75762e54bf78dea0c56ead4375635ef5af1b0e9cb5450f37aadaad262773d3",
    (3, "volume", 320.0, 20.0, math.inf):
        "d0775e6b99f55836d0bd4080826986214597cc2fc16176b1563ead47c26b62ba",
    (1, "flow", 320.0, 2.3, 20.0):
        "48e133b389e0ece9ca523687659ab07a209a95ecf71b4a82cdf4797d1376a9e3",
}


def outcome(generate, cfg):
    """synth_digest of generate(cfg), or the message of the InputError it raised."""
    try:
        return synth_digest(*generate(cfg))
    except InputError as exc:
        return str(exc)


class TestGenRespiration:
    def test_volume_extremes_at_flow_zero_crossings(self):
        cfg = SynthConfig(duration_s=20)
        flow, volume = gen_respiration(cfg.duration_s, cfg.fs)
        hi = int(np.argmax(volume.samples))
        assert abs(flow.samples[hi]) < 0.02 * 0.5  # peak flow is 0.5 L/s

    def test_integral_matches_closed_form(self):
        # the trapezoids of a sine at theta radians a sample add up to its
        # closed-form integral times (theta / 2) / tan(theta / 2); the offset
        # correction takes away the line from 0 to that sum at the last sample
        cfg = SynthConfig(duration_s=20)
        flow, volume = gen_respiration(cfg.duration_s, cfg.fs)
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

    def test_ecg_spikes_at_beats(self, tmp_path):
        cfg = SynthConfig(duration_s=30)
        rec, truth = gen_recording(cfg)
        write_recording_csv(rec, tmp_path / "rec.csv")
        ecg = np.loadtxt(tmp_path / "rec.csv", delimiter=",", skiprows=1)[:, 2]
        assert len(ecg) == len(rec["scg"])
        assert set(ecg.tolist()) == {0.0, 1.0}
        assert np.flatnonzero(ecg).tolist() == truth.beat_indices

    def test_channels_are_those_ingest_reads(self, tmp_path):
        """No dense ECG: the channels are the scg and flow that ingest_csv
        reads back from the CSV, and the beats are where its ECG spikes."""
        cfg = SynthConfig(duration_s=10)
        rec, truth = gen_recording(cfg)
        write_recording_csv(rec, tmp_path / "rec.csv")
        read = ingest_csv(tmp_path / "rec.csv", cfg.fs, cfg.fs)
        assert list(rec.channels) == list(read.channels) == ["scg", "flow"]
        assert rec.ecg_beats.tolist() == truth.beat_indices
        assert read.ecg_beats.size == 0

    def test_beat_overlap_error(self):
        # at 8 Hz the 8-sample morphology outlasts a 66 bpm heart period
        with pytest.raises(InputError, match="beat overlap"):
            gen_recording(SynthConfig(fs=8.0, duration_s=10))

    def test_too_short_fails_before_building_a_morphology(self):
        # at 10 MHz a morphology is 2.5 M samples, 20 MB each; 0.01 s cannot
        # hold one, and that is found before any is built
        def too_short():
            with pytest.raises(InputError, match="too short to hold one beat"):
                gen_recording(SynthConfig(fs=1e7, duration_s=0.01))
        peak, _ = traced_peak(too_short)
        assert peak < 2**20, peak

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


class TestArraySteps:
    @pytest.mark.parametrize("key", PINNED_SYNTH)
    def test_pinned_bytes(self, key):
        seed, coupling, fs, duration_s, snr_db = key
        cfg = SynthConfig(duration_s=duration_s, fs=fs, coupling=Coupling(coupling),
                          snr_db=snr_db, seed=seed)
        assert synth_digest(*gen_recording(cfg)) == PINNED_SYNTH[key]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), coupling=st.sampled_from(Coupling),
           # below 9.3 Hz the 8-sample morphology outlasts a beat period
           fs=st.one_of(st.floats(35.5, 20000.0), st.floats(1.0, 12.0)),
           # a beat needs 0.75 s, a second one 0.91 s more
           duration_s=st.one_of(st.floats(0.5, 3.0), st.floats(3.0, 60.0)),
           snr_db=st.sampled_from([20.0, math.inf, -3.0]))
    @example(seed=0, coupling=Coupling.FLOW, fs=320.0, duration_s=0.75, snr_db=20.0)
    @example(seed=0, coupling=Coupling.FLOW, fs=320.0, duration_s=0.74, snr_db=20.0)
    @example(seed=5, coupling=Coupling.VOLUME, fs=20000.0, duration_s=1.7, snr_db=-3.0)
    @example(seed=5, coupling=Coupling.NONE, fs=8.0, duration_s=10.0, snr_db=math.inf)
    def test_matches_the_per_beat_loop(self, seed, coupling, fs, duration_s, snr_db):
        cfg = SynthConfig(duration_s=duration_s, fs=fs, coupling=coupling, snr_db=snr_db,
                          seed=seed)
        assert outcome(gen_recording, cfg) == outcome(reference_gen_recording, cfg)

    def test_recordings_share_one_read_only_respiration(self):
        a, _ = gen_recording(SynthConfig(seed=0))
        b, _ = gen_recording(SynthConfig(seed=1, coupling=Coupling.FLOW))
        assert np.shares_memory(a["flow"].samples, b["flow"].samples)
        with pytest.raises(ValueError, match="read-only"):
            a["flow"].samples[0] = 1.0
        for fs in (321.0, 320):  # another rate, and the same rate as an int
            other, _ = gen_recording(SynthConfig(seed=0, fs=fs))
            assert not np.shares_memory(other["flow"].samples, a["flow"].samples)
            assert type(other["flow"].fs) is type(fs)
        flow, volume = gen_respiration(120.0, 320.0)
        assert not (flow.samples.flags.writeable or volume.samples.flags.writeable)
        assert np.shares_memory(flow.samples, gen_respiration(120.0, 320.0)[0].samples)


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
