"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest
from click.testing import CliRunner

from cardioseis.cli import main as cli_main
from cardioseis.event_detection import matched_filter_output
from cardioseis.grouping import (Winner, ensemble_average, mean_dissimilarity,
                                 normalized_dissim, relative_difference)
from cardioseis.respiration import integrate_flow
from cardioseis.signal_core import Channel, hilbert_envelope, rms
from cardioseis.synth import Coupling, SynthConfig, gen_recording

from conftest import DATA_DIR, detection_scores, run_synth_analysis


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({label}): PASS")


def test_criterion_1_table_arithmetic():
    with criterion(1, "reference table RD reproduction"):
        t0 = time.time()
        payload = json.loads((DATA_DIR / "reference_tables.json").read_text())
        checked = 0
        for row in payload["rows"]:
            for g in row["groups"]:
                rd = relative_difference(g["mean_dissim_same"], g["mean_dissim_alt"])
                assert rd == pytest.approx(g["rd"], abs=0.02), (row["recording_id"], g["group"])
                checked += 1
        assert checked == 28
        res = CliRunner().invoke(cli_main,
                                 ["report", "--check", str(DATA_DIR / "reference_tables.json")])
        assert res.exit_code == 0, res.output
        assert time.time() - t0 < 1.0


def test_criterion_2_headline_finding_100_seeds():
    with criterion(2, "lung volume groups better at desk scale"):
        t0 = time.time()
        wins = {"volume": 0, "flow": 0, "none": 0}
        for seed in range(100):
            cmp, _, _, _ = run_synth_analysis(Coupling.VOLUME, seed)
            if (cmp.winner_insp_llv is Winner.LUNG_VOLUME
                    and cmp.winner_exp_hlv is Winner.LUNG_VOLUME):
                wins["volume"] += 1
            cmp, _, _, _ = run_synth_analysis(Coupling.FLOW, seed)
            if (cmp.winner_insp_llv is Winner.FLOW_RATE
                    and cmp.winner_exp_hlv is Winner.FLOW_RATE):
                wins["flow"] += 1
            cmp, _, _, _ = run_synth_analysis(Coupling.NONE, seed)
            if all(abs(st.rd) < 5.0 for st in cmp.groups):
                wins["none"] += 1
        elapsed = time.time() - t0
        assert wins["volume"] >= 95, wins
        assert wins["flow"] >= 95, wins
        assert wins["none"] >= 90, wins
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_3_detection_accuracy():
    with criterion(3, "detection recall/precision and graceful degradation"):
        for seed in range(5):
            _, events, truth, _ = run_synth_analysis(Coupling.VOLUME, seed + 200)
            recall, precision, max_err = detection_scores(events, truth, tol=2)
            assert recall >= 0.99, (seed, recall)
            assert precision >= 0.99, (seed, precision)
            assert max_err <= 2
        for seed in range(5):
            _, events, truth, _ = run_synth_analysis(Coupling.VOLUME, seed + 300,
                                                     snr_db=10.0)
            recall, _, _ = detection_scores(events, truth, tol=2)
            assert recall >= 0.9, (seed, recall)


def test_criterion_4_dsp_primitive_oracles():
    with criterion(4, "DSP primitives vs independent oracles"):
        rng = np.random.default_rng(99)
        # matched filter vs O(N*L) convolution sum, 1000 random cases
        for _ in range(1000):
            n = int(rng.integers(8, 256))
            length = int(rng.integers(2, min(n, 64) + 1))
            x = rng.normal(size=n)
            w = rng.normal(size=length)
            slow = np.zeros(n + length - 1)
            for j in range(length):  # direct convolution sum, one tap at a time
                slow[j:j + n] += w[j] * x
            fast = matched_filter_output(x, w)
            assert np.allclose(fast, slow, rtol=1e-9, atol=1e-12)

        # hilbert envelope of a unit 10 Hz sine: flat within 1% on interior 80%
        fs, dur = 320, 10
        t = np.arange(int(fs * dur)) / fs
        env = hilbert_envelope(np.sin(2 * np.pi * 10 * t))
        n = len(t)
        interior = env[n // 10: -n // 10]
        assert np.all(np.abs(interior - 1.0) < 0.01)

        # lowpass band specs at the default operating point
        from cardioseis.signal_core import _lowpass_taps
        from scipy.signal import freqz
        taps = _lowpass_taps(100.0, 320.0)
        w, h = freqz(taps, worN=4096, fs=320.0)
        mag = np.abs(h)
        pb = mag[w <= 80.0]
        sb = mag[w >= 150.0]
        assert np.all(pb >= 10 ** (-0.5 / 20)) and np.all(pb <= 10 ** (0.5 / 20))
        assert np.all(sb <= 10 ** (-40 / 20))

        # flow integration vs closed-form antiderivative, 1% RMS
        amp, freq = 1.0, 0.25
        flow = Channel(amp * np.sin(2 * np.pi * freq * t), fs, "flow")
        trace = integrate_flow(flow, detrend=False)
        expected = (amp / (2 * np.pi * freq)) * (1 - np.cos(2 * np.pi * freq * t))
        assert rms(trace.volume.samples - expected) / rms(expected) < 0.01


def test_criterion_5_metric_identities():
    with criterion(5, "dissimilarity metric identities"):
        rng = np.random.default_rng(7)
        event = rng.normal(size=(1, 80))
        avg = rng.normal(size=80)
        base = normalized_dissim(event, avg)
        for k in (1e-3, 0.5, 42.0):
            assert normalized_dissim(k * event, k * avg) == pytest.approx(base, rel=1e-9)

        window = rng.normal(size=80)
        assert np.array_equal(ensemble_average(np.stack([window] * 6)), window)

        # drms sqrt((1+4)/2) = 1.5811 over an average of RMS 1
        assert normalized_dissim([[2, 3]], [1, 1]) == pytest.approx([158.11], abs=1e-2)
        assert normalized_dissim([[2, 2]], [1, 1]) == pytest.approx([100.0])

        mean, sd = mean_dissimilarity([[11.0, 11.0], [13.0, 13.0]], [10.0, 10.0])
        assert mean == pytest.approx(20.0)
        assert sd == pytest.approx(14.1421, abs=1e-4)


def test_criterion_6_determinism(tmp_path):
    with criterion(6, "byte-identical reports for identical config+seed"):
        from cardioseis.config import PipelineConfig
        from cardioseis.ingest import write_recording_csv
        from cardioseis.pipeline import run_pipeline

        cfg = SynthConfig(seed=17, duration_s=60.0)
        rec, truth = gen_recording(cfg)
        csv_path = tmp_path / "rec.csv"
        write_recording_csv(rec, csv_path)
        start_s = truth.beat_indices[0] / cfg.fs - 0.125
        reports = []
        for name in ("a", "b"):
            pc = PipelineConfig(inputs=(str(csv_path),), acquisition_fs=cfg.fs,
                                analysis_fs=cfg.fs, template_start_s=start_s,
                                template_length_s=0.25, out_dir=str(tmp_path / name))
            run_pipeline(pc)
            reports.append((tmp_path / name / "report.json").read_bytes())
        assert reports[0] == reports[1]
