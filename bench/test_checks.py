"""Tests for the benchmark's own checks and span arithmetic.

    python3 -m pytest bench/test_checks.py
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402

FS, DURATION = 1000.0, 4.0


@pytest.fixture
def synth_files(tmp_path):
    from cardioseis.ingest import write_recording_csv
    from cardioseis.synth import SynthConfig, gen_recording
    rec, truth = gen_recording(SynthConfig(seed=3, fs=FS, duration_s=DURATION))
    csv_path, truth_path = tmp_path / "rec.csv", tmp_path / "truth.json"
    write_recording_csv(rec, csv_path)
    truth.to_json(truth_path)
    return csv_path, truth_path, truth.beat_indices


def edit_row(csv_path, data_row: int, col: int, fn):
    lines = csv_path.read_text().splitlines()
    cells = lines[data_row + 1].split(",")
    cells[col] = fn(cells[col])
    lines[data_row + 1] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")


def test_synth_csv_accepts_program_output(synth_files):
    csv_path, truth_path, _ = synth_files
    assert checks.check_synth_csv(csv_path, truth_path, DURATION, FS) == []


def test_synth_csv_rejects_one_perturbed_flow_value(synth_files):
    csv_path, truth_path, _ = synth_files
    edit_row(csv_path, 1234, 3, lambda v: "%.9g" % (float(v) + 1e-6))
    problems = checks.check_synth_csv(csv_path, truth_path, DURATION, FS)
    assert problems and "flow" in problems[0] and "1234" in problems[0]


def test_synth_csv_rejects_bad_time_and_moved_ecg_spike(synth_files):
    csv_path, truth_path, beats = synth_files
    edit_row(csv_path, 10, 0, lambda v: "%.9g" % (float(v) + 0.5 / FS))
    edit_row(csv_path, beats[0], 2, lambda v: "0")
    edit_row(csv_path, beats[0] + 1, 2, lambda v: "1")
    problems = checks.check_synth_csv(csv_path, truth_path, DURATION, FS)
    assert len(problems) == 2
    assert "time" in problems[0] and "ECG" in problems[1]


def test_synth_csv_rejects_missing_row(synth_files):
    csv_path, truth_path, _ = synth_files
    csv_path.write_text("\n".join(csv_path.read_text().splitlines()[:-1]) + "\n")
    assert "shape" in checks.check_synth_csv(csv_path, truth_path, DURATION, FS)[0]


def make_row():
    def group(name, n, same, alt):
        return {"group": name, "n": n, "mean_dissim_same": same, "mean_dissim_alt": alt,
                "rd": checks.relative_difference(same, alt)}
    return {
        "groups": [group("Inspiration", 60, 30.0, 33.0), group("Expiration", 70, 30.0, 31.5),
                   group("LLV", 66, 20.0, 30.0), group("HLV", 64, 20.0, 25.0)],
        "winners": {"inspiration_vs_llv": "LungVolume", "expiration_vs_hlv": "LungVolume"},
        "n_events": 130,
    }


def test_row_accepts_consistent_result():
    assert checks.check_row(make_row(), 130, 1e-9) == []
    assert checks.is_win("volume", make_row())
    assert not checks.is_win("flow", make_row())


def test_row_rejects_swapped_group_labels():
    row = make_row()
    row["groups"][0]["group"], row["groups"][2]["group"] = "LLV", "Inspiration"
    problems = checks.check_row(row, 130, 1e-9)
    assert any(p.startswith("group sizes") for p in problems)
    assert any(p.startswith("inspiration_vs_llv: winner LungVolume") for p in problems)


def test_row_rejects_wrong_rd_and_sizes():
    row = make_row()
    row["groups"][1]["rd"] += 0.05
    row["groups"][3]["n"] -= 1
    problems = checks.check_row(row, 130, checks.REPORT_RD_TOL)
    assert any("LLV+HLV=129" in p for p in problems)
    assert any(p.startswith("Expiration: RD") for p in problems)


def test_report_json_checks_event_count_and_winners():
    row = make_row()
    text = json.dumps({"rows": [row]})
    assert checks.check_report_json(text, 131) == []
    assert "true beats" in checks.check_report_json(text, 140)[0]
    flipped = copy.deepcopy(row)
    for g in flipped["groups"]:
        g["rd"] = -g["rd"] if g["group"] in ("LLV", "HLV") else g["rd"]
        g["mean_dissim_alt"] = g["mean_dissim_same"] * (1 + g["rd"] / 100)
    flipped["winners"] = {"inspiration_vs_llv": "FlowRate", "expiration_vs_hlv": "FlowRate"}
    problems = checks.check_report_json(json.dumps({"rows": [flipped]}), 131)
    assert len(problems) == 2 and all("volume-coupled" in p for p in problems)


def test_detection_recall_precision():
    beats = list(range(100, 13000, 100))
    assert checks.check_detection([b + 2 for b in beats], beats, 0) == []
    assert "recall" in checks.check_detection(beats[2:], beats, 0)[0]
    assert checks.check_detection(beats[1:], beats, 1) == []
    assert "precision" in checks.check_detection(beats + [150, 250], beats, 0)[0]


def test_labels_against_truth():
    beats = list(range(100, 10100, 100))
    truth = [("Inspiration", "LLV")] * 50 + [("Expiration", "HLV")] * 50
    assert checks.check_labels(beats, truth, beats, truth) == []
    swapped = [(f, "HLV" if v == "LLV" else "LLV") for f, v in truth]
    assert "100 of 100" in checks.check_labels(beats, swapped, beats, truth)[0]
    three_off = truth[:97] + swapped[97:]
    assert checks.check_labels(beats, three_off, beats, truth) == []


def group_fixture(n_high=60):
    rng = np.random.default_rng(5)
    t = np.arange(80) / 320.0
    low = np.sin(2 * np.pi * 20 * t) * np.exp(-t / 0.05)
    high = np.sin(2 * np.pi * 40 * t) * np.exp(-t / 0.03)
    members = {"LLV": [low + 0.1 * rng.normal(size=80) for _ in range(60)],
               "HLV": [high + 0.1 * rng.normal(size=80) for _ in range(n_high)]}
    members["Inspiration"] = members["LLV"][:30] + members["HLV"][:35]
    members["Expiration"] = members["LLV"][30:] + members["HLV"][35:]
    groups = {g: (len(w), np.mean(w, axis=0)) for g, w in members.items()}
    return groups, members


def test_groups_accept_consistent_result():
    groups, members = group_fixture()
    assert checks.check_groups("volume", groups, members) == []


def test_groups_reject_swapped_volume_labels():
    groups, members = group_fixture()
    groups["LLV"], groups["HLV"] = groups["HLV"], groups["LLV"]
    problems = checks.check_groups("volume", groups, members)
    assert [p.split(":")[0] for p in problems] == ["LLV", "HLV"]
    assert all("resemble" in p for p in problems)
    assert checks.check_groups("none", groups, members) == []
    groups, members = group_fixture(n_high=70)
    groups["LLV"], groups["HLV"] = groups["HLV"], groups["LLV"]
    problems = checks.check_groups("none", groups, members)
    assert problems == ["LLV: size 70 but 60 events carry the label",
                        "HLV: size 60 but 70 events carry the label"]


def test_win_rates():
    totals = {"volume": 20, "flow": 20, "none": 20}
    assert checks.check_win_rates({"volume": 19, "flow": 20, "none": 18}, totals) == []
    problems = checks.check_win_rates({"volume": 18, "flow": 20, "none": 17}, totals)
    assert [p.split(":")[0] for p in problems] == ["volume", "none"]


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.new_pass("op")
    tracer.spans = [[0, "pipeline.analyze_recording", -1, 0.0, 10.0],
                    [0, "grouping.compare_criteria", 0, 1.0, 7.0],
                    [0, "signal_core.best_lag", 1, 2.0, 3.0],
                    [0, "signal_core.best_lag", 1, 4.0, 6.0]]
    m = tracer.metrics()
    assert m["pipeline.analyze_recording_self_s"] == pytest.approx(4.0)
    assert m["grouping.compare_criteria_s"] == pytest.approx(6.0)
    assert m["grouping.compare_criteria_self_s"] == pytest.approx(3.0)
    assert m["signal_core.best_lag_s"] == pytest.approx(3.0)
    assert m["signal_core.best_lag_calls"] == 2
    assert m["ingest.ingest_csv_s"] == 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep-320",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == "" and "no program source" in proc.stderr
