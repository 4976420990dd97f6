import hashlib
import importlib
import json
import os
import platform
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cardioseis
from cardioseis import grouping, ingest, pipeline
from cardioseis.cli import main
from cardioseis.config import _KEYS, PipelineConfig, load_config, parse_config
from cardioseis.errors import DegenerateAnalysisError, InputError
from cardioseis.ingest import ingest_csv, write_recording_csv
from cardioseis.pipeline import analyze_recording, run_pipeline
from cardioseis.report import check_report
from cardioseis.signal_core import Channel
from cardioseis.synth import Coupling, SynthConfig, gen_recording

from conftest import DATA_DIR, invoke, sweep_recording


# one report row's groups, each RD consistent with its means
CONSISTENT_GROUPS = [{"group": g, "mean_dissim_same": 10.0, "mean_dissim_alt": 15.0, "rd": 50.0}
                     for g in ("Inspiration", "Expiration", "LLV", "HLV")]


def synth_csv(tmp_path, seed=1, coupling=Coupling.VOLUME, duration=60.0):
    cfg = SynthConfig(seed=seed, coupling=coupling, duration_s=duration)
    rec, truth = gen_recording(cfg)
    path = tmp_path / f"{rec.recording_id}.csv"
    write_recording_csv(rec, path)
    return path, rec, truth, cfg


def zero_flow_csv(tmp_path):
    """A 60 s recording whose flow is all zeros, written to a CSV."""
    cfg = SynthConfig(seed=2, duration_s=60.0)
    rec, truth = gen_recording(cfg)
    zeroed = replace(rec, channels={**rec.channels,
                                    "flow": Channel(np.zeros(len(rec["flow"])), cfg.fs, "flow")},
                     recording_id="zeroflow")
    path = tmp_path / "zeroflow.csv"
    write_recording_csv(zeroed, path)
    return path, truth, cfg


def cli_env() -> dict:
    """This environment, with the package under test first on PYTHONPATH,
    for a CLI run in a fresh interpreter whose stdout is buffered, as in a shell."""
    src = Path(cardioseis.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def pipeline_config(tmp_path, csv_path, truth, cfg, **overrides):
    length_s = 0.25
    start_s = truth.beat_indices[0] / cfg.fs - length_s / 2
    base = PipelineConfig(inputs=(str(csv_path),), acquisition_fs=cfg.fs,
                          analysis_fs=cfg.fs, template_start_s=start_s,
                          template_length_s=length_s,
                          out_dir=str(tmp_path / "out"))
    return replace(base, **overrides)


class TestIngest:
    def test_round_trip(self, tmp_path):
        path, rec, _, cfg = synth_csv(tmp_path, duration=5.0)
        loaded = ingest_csv(path, cfg.fs, cfg.fs)
        for name in ("scg", "flow"):
            assert len(loaded[name]) == len(rec[name])
            assert np.allclose(loaded[name].samples, rec[name].samples, atol=1e-9)

    def test_missing_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time_s,scg_z,ecg\n0,0,0\n")
        with pytest.raises(InputError, match="missing channel: flow"):
            ingest_csv(p, PipelineConfig.acquisition_fs, PipelineConfig.analysis_fs)

    def test_missing_column_behind_a_bom_names_the_header(self, tmp_path):
        # a spreadsheet export's UTF-8 BOM is part of the first name, not skipped
        path, *_ = synth_csv(tmp_path, duration=5.0)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        res = invoke(["run", "--input", str(path),
                      "--out", str(tmp_path / "o")])
        assert res.exit_code == 2, res.output
        assert res.output == (f"error: [ingest] {path}:1: missing channel: time: the header "
                              "names ['\\ufefftime_s', 'scg_z', 'ecg', 'flow_lps']\n")

    def test_repeated_column_rejected_before_parse(self, tmp_path):
        p = tmp_path / "bad.csv"
        # the data row would not parse: only the header can be the reason
        p.write_text("time_s,scg_z,scg_z,flow_lps\n0,abc,0,0\n")
        with pytest.raises(InputError, match="header names scg_z 2 times"):
            ingest_csv(p, PipelineConfig.acquisition_fs, PipelineConfig.analysis_fs)
        res = invoke(["run", "--input", str(p), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert "header names scg_z 2 times" in res.output

    def test_non_uniform_timestamps(self, tmp_path):
        p = tmp_path / "bad.csv"
        rows = ["time_s,scg_z,ecg,flow_lps"]
        rows += [f"{i / 320.0:.9g},0,0,0" for i in range(10)]
        rows[5] = "0.2,0,0,0"  # row 5 is wildly off
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(InputError, match="non-uniform timestamps, first offending row 6: "
                           "time 0.2 s, expected 0.0125 s at acquisition_fs = 320$"):
            ingest_csv(p, 320.0, 320.0)

    def test_rows_read_at_another_rate_name_the_expected_time(self, tmp_path):
        # a 320 Hz recording read at run's default acquisition_fs
        p = tmp_path / "rec.csv"
        p.write_text("\n".join(["time_s,scg_z,ecg,flow_lps"] +
                               [f"{i / 320.0:.9g},0,0,0" for i in range(10)]) + "\n")
        res = invoke(["run", "--input", str(p), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2, res.output
        assert res.output == (f"error: [ingest] {p}: non-uniform timestamps, first offending "
                              "row 3: time 0.003125 s, expected 0.0001 s at acquisition_fs = "
                              "10000\n")

    def test_nan_sample(self, tmp_path):
        p = tmp_path / "bad.csv"
        rows = ["time_s,scg_z,ecg,flow_lps"]
        rows += [f"{i / 320.0:.9g},{'nan' if i == 3 else '0'},0,0" for i in range(8)]
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(InputError, match="non-finite scg sample at row 5"):
            ingest_csv(p, 320.0, 320.0)

    def test_parse_error_names_file_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        rows = ["time_s,scg_z,ecg,flow_lps"]
        rows += [f"{i / 320.0:.9g},{'abc' if i == 4 else '0'},0,0" for i in range(8)]
        p.write_text("\n".join(rows) + "\n")  # 'abc' sits on line 6
        with pytest.raises(InputError, match="'abc'.* at line 6, column 2"):
            ingest_csv(p, 320.0, 320.0)

    def test_errors_count_blank_lines(self, tmp_path):
        p = tmp_path / "bad.csv"
        rows = ["time_s,scg_z,ecg,flow_lps"]
        rows += [f"{i / 320.0:.9g},{'nan' if i == 3 else '0'},0,0" for i in range(8)]
        rows.insert(2, "")  # the nan moves to line 6
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(InputError, match="non-finite scg sample at row 6"):
            ingest_csv(p, 320.0, 320.0)
        p.write_text("\n".join(rows).replace("nan", "x") + "\n")
        with pytest.raises(InputError, match="at line 6,"):
            ingest_csv(p, 320.0, 320.0)

    def test_ecg_column_optional(self, tmp_path):
        path, *_ = synth_csv(tmp_path, duration=5.0)
        lines = path.read_text().splitlines()
        cut = tmp_path / "no_ecg.csv"
        cut.write_text("\n".join(",".join(f for k, f in enumerate(line.split(",")) if k != 2)
                                 for line in lines) + "\n")
        with_ecg, without = ingest_csv(path, 320.0, 320.0), ingest_csv(cut, 320.0, 320.0)
        assert set(with_ecg.channels) == set(without.channels) == {"scg", "flow"}
        for name in ("scg", "flow"):
            assert np.array_equal(with_ecg[name].samples, without[name].samples)

    def test_unnamed_column_rejected(self, tmp_path):
        # without the check, flow would be read from the unnamed ecg column
        path, *_ = synth_csv(tmp_path, duration=5.0)
        lines = path.read_text().splitlines()
        p = tmp_path / "wide.csv"
        p.write_text("\n".join(["time_s,scg_z,flow_lps"] + lines[1:]) + "\n")
        with pytest.raises(InputError, match="rows have 4 fields, header has 3"):
            ingest_csv(p, 320.0, 320.0)

    @pytest.mark.parametrize("ragged_line", [5, 11])
    def test_ragged_row_names_file_line(self, tmp_path, ragged_line):
        # line 11 is the last row; loadtxt counts this error's rows from 1.
        # The rows are at run's default acquisition_fs, so that no row
        # before the ragged one is faulty
        p = tmp_path / "bad.csv"
        rows = ["time_s,scg_z,ecg,flow_lps"]
        rows += [f"{i / 10000.0:.9g},0,0,0" for i in range(10)]
        rows[ragged_line - 1] += ",0"
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(InputError, match=f"changed from 4 to 5 at line {ragged_line}$"):
            ingest_csv(p, 10000.0, 10000.0)
        res = invoke(["run", "--input", str(p), "--out", str(tmp_path / "out")])
        assert res.exit_code == 2, res.output
        assert res.output.endswith(f"at line {ragged_line}\n")
        assert "usecols" not in res.output

    @pytest.mark.parametrize("wide_rows", ["first", "all"])
    def test_wide_first_row_names_line_2(self, tmp_path, wide_rows):
        # the first row is held to the header, not the header to the first row
        p = tmp_path / "bad.csv"
        rows = ["time_s,scg_z,ecg,flow_lps"]
        rows += [f"{i / 320.0:.9g},0,0,0" + (",0" if i == 0 or wide_rows == "all" else "")
                 for i in range(10)]
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(InputError, match="rows have 5 fields, header has 4, at line 2$"):
            ingest_csv(p, 320.0, 320.0)
        res = invoke(["run", "--input", str(p), "--out", str(tmp_path / "out")])
        assert res.exit_code == 2, res.output
        assert res.output.endswith("at line 2\n")


class TestConfigFile:
    def test_parse_and_defaults(self, tmp_path):
        p = tmp_path / "pipeline.cfg"
        p.write_text("""
# comment
input = a.csv, b.csv
analysis_fs = 320
template_start_s = 1.5
""")
        cfg = load_config(p)
        assert cfg.inputs == ("a.csv", "b.csv")
        assert cfg.template_start_s == 1.5
        assert cfg.acquisition_fs == 10000.0  # untouched default
        assert cfg.template_length_s == 0.25

    def test_hash_inside_value_kept(self, tmp_path):
        p = tmp_path / "pipeline.cfg"
        p.write_text("out_dir = o#1\ninput = a#b.csv, c.csv\n")
        cfg = load_config(p)
        assert cfg.out_dir == "o#1"
        assert cfg.inputs == ("a#b.csv", "c.csv")

    def test_inline_comment_after_whitespace(self, tmp_path):
        p = tmp_path / "pipeline.cfg"
        p.write_text("  # indented comment\n"
                     "out_dir = o # comment\n"
                     "template_start_s = 0.3\t# tab before the comment\n"
                     "template_length_s = 0.125              # of the first beat\n")
        cfg = load_config(p)
        assert cfg.out_dir == "o"
        assert cfg.template_start_s == 0.3
        assert cfg.template_length_s == 0.125

    @pytest.mark.parametrize("field,value", [
        ("acquisition_fs", float("nan")), ("acquisition_fs", 0.0), ("acquisition_fs", -320.0),
        ("analysis_fs", 0.0),
        ("template_start_s", float("nan")), ("template_start_s", -1.0),
        ("template_length_s", float("nan")),
        ("template_length_s", 0.02), ("template_length_s", 0.0),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(InputError, match=field):
            PipelineConfig(**{field: value})

    def test_in_range_accepted(self):
        # analysis at the acquisition rate, and a template of 8 samples from the start
        cfg = PipelineConfig(acquisition_fs=320.0, analysis_fs=320.0, template_start_s=0.0,
                             template_length_s=8 / 320)
        assert cfg.template_length_s == 0.025

    @pytest.mark.parametrize("analysis_fs,cutoff", [(150.0, 60.0), (230.0, 92.0),
                                                    (250.0, 100.0), (320.0, 100.0)])
    def test_lowpass_cutoff_rule(self, analysis_fs, cutoff):
        # 100 Hz, or 0.4 x analysis_fs where that is lower
        assert PipelineConfig(analysis_fs=analysis_fs).lowpass_cutoff_hz == cutoff

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("frobnicate = 1\n")
        with pytest.raises(InputError, match="unknown key"):
            load_config(p)

    @pytest.mark.parametrize("text,key", [
        ("input = h.csv\n# the second file\ninput = e.csv\n", "input"),
        ("analysis_fs = 320\n\nanalysis_fs = 160\n", "analysis_fs"),
    ])
    def test_repeated_key(self, text, key):
        # the last value does not win: each key may appear once
        with pytest.raises(InputError, match=rf"^run\.cfg:3: repeated key '{key}' "
                                             r"\(first set on line 1\)$"):
            parse_config(text, "run.cfg")

    def test_repeated_input_key_exits_2_before_ingest(self, tmp_path, monkeypatch):
        path, *_ = synth_csv(tmp_path, duration=5.0)
        p = tmp_path / "twice.cfg"
        p.write_text(f"input = {path}\nacquisition_fs = 320\ninput = {path}\n")
        ingested = []
        monkeypatch.setattr("cardioseis.pipeline.ingest_csv",
                            lambda *args: ingested.append(args))
        res = invoke(["run", "--config", str(p)])
        assert res.exit_code == 2, res.output
        assert res.output == (f"error: {p}:3: repeated key 'input' "
                              "(first set on line 1)\n")
        assert ingested == []

    @pytest.mark.parametrize("key", ["channel.ecg", "channel.time", "channel.scg",
                                     "channel.flow", "detrend", "max_shift", "outlier_screen",
                                     "threshold_frac", "min_separation_s", "lowpass_cutoff_hz"])
    def test_channel_ecg_key_exits_2(self, tmp_path, monkeypatch, key):
        # removed keys: the column names, these steps and their settings are fixed
        path, *_ = synth_csv(tmp_path, duration=5.0)
        p = tmp_path / "old.cfg"
        p.write_text(f"input = {path}\n{key} = 1\n")
        ingested = []
        monkeypatch.setattr("cardioseis.pipeline.ingest_csv",
                            lambda *args: ingested.append(args))
        res = invoke(["run", "--config", str(p)])
        assert res.exit_code == 2, res.output
        assert "old.cfg:2: unknown key" in res.output
        assert ingested == []

    def test_readme_documents_every_key(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("Keys and defaults:\n\n```\n", 1)[1].split("```", 1)[0]
        documented = dict(line.split("#", 1)[0].split("=", 1) for line in block.splitlines())
        documented = {key.strip(): value.strip() for key, value in documented.items()}
        assert set(documented) == set(_KEYS)
        # `input` is only an example path
        for key, (name, parse) in _KEYS.items():
            if key != "input":
                assert parse(documented[key]) == getattr(PipelineConfig, name), key

    def test_conditioning_defaults(self):
        cfg = PipelineConfig()
        assert cfg.acquisition_fs == 10000.0
        assert cfg.analysis_fs == 320.0
        assert cfg.lowpass_cutoff_hz == 100.0

    def test_lowpass_design_error_names_analysis_fs(self, monkeypatch):
        # a stub: at 200 kHz the real search fails only after 2,043 designs
        def no_kernel(cutoff_hz, fs):
            raise InputError(f"no kernel for {cutoff_hz:g} Hz at {fs:g} Hz")
        monkeypatch.setattr("cardioseis.config._lowpass_taps", no_kernel)
        with pytest.raises(InputError, match="^analysis_fs = 150: no kernel for 60 Hz at 150 Hz$"):
            PipelineConfig(analysis_fs=150.0)

    def test_analysis_fs_above_acquisition(self):
        with pytest.raises(InputError):
            PipelineConfig(acquisition_fs=320.0, analysis_fs=1000.0)


class TestRunPipeline:
    def test_volume_coupled_end_to_end(self, tmp_path):
        path, rec, truth, cfg = synth_csv(tmp_path, seed=5, duration=120.0)
        config = pipeline_config(tmp_path, path, truth, cfg)
        rows, artifacts = run_pipeline(config)
        assert len(rows) == 1
        winners = rows[0]["winners"]
        assert winners["inspiration_vs_llv"] == "LungVolume"
        assert winners["expiration_vs_hlv"] == "LungVolume"
        out = Path(config.out_dir)
        assert (out / "report.json").is_file()
        assert (out / "report.csv").is_file()
        assert list(out.glob("*_ensemble_averages.svg"))
        assert list(out.glob("*_rd_bars.svg"))
        assert check_report(out / "report.json") == []

    def test_group_order_fixed(self, tmp_path):
        path, _, truth, cfg = synth_csv(tmp_path, seed=6, duration=60.0)
        rows, _ = run_pipeline(pipeline_config(tmp_path, path, truth, cfg))
        assert [g["group"] for g in rows[0]["groups"]] == \
            ["Inspiration", "Expiration", "LLV", "HLV"]

    def test_zero_flow_degenerate_split(self, tmp_path):
        path, truth, cfg = zero_flow_csv(tmp_path)
        config = pipeline_config(tmp_path, path, truth, cfg)
        # the stage's error keeps its class, tagged, and chains the untagged original
        with pytest.raises(DegenerateAnalysisError, match=r"^\[group\] ") as err:
            run_pipeline(config)
        cause = err.value.__cause__
        assert type(cause) is DegenerateAnalysisError
        assert str(err.value) == f"[group] {cause}"
        assert not str(cause).startswith("[")

    def test_template_outside_recording_is_a_tagged_input_error(self):
        cfg = SynthConfig(seed=1, duration_s=10.0)
        rec, _ = gen_recording(cfg)
        config = PipelineConfig(acquisition_fs=cfg.fs, analysis_fs=cfg.fs,
                                template_start_s=20.0, template_length_s=0.25)
        with pytest.raises(InputError, match=r"^\[template\] template span .* outside "
                                             r"recording$") as err:
            analyze_recording(rec, config)
        assert type(err.value.__cause__) is InputError

    def test_acquisition_to_analysis_resampling(self, tmp_path):
        # generate above the analysis rate; pipeline must downsample first
        cfg = SynthConfig(seed=12, duration_s=60.0, fs=1600.0)
        rec, truth = gen_recording(cfg)
        from cardioseis.pipeline import analyze_recording
        start_s = truth.beat_indices[0] / cfg.fs - 0.125
        pc = PipelineConfig(acquisition_fs=cfg.fs, analysis_fs=320.0,
                            template_start_s=start_s, template_length_s=0.25)
        cmp, context = analyze_recording(rec, pc)
        assert len(context["events"]) == pytest.approx(len(truth.beat_indices), abs=2)
        assert cmp.winner_insp_llv.value == "LungVolume"
        assert cmp.winner_exp_hlv.value == "LungVolume"

    def test_byte_identical_reruns(self, tmp_path):
        path, _, truth, cfg = synth_csv(tmp_path, seed=8, duration=60.0)
        outs = []
        for run_dir in ("out1", "out2"):
            config = pipeline_config(tmp_path, path, truth, cfg,
                                     out_dir=str(tmp_path / run_dir))
            run_pipeline(config)
            outs.append((Path(config.out_dir) / "report.json").read_bytes())
        assert outs[0] == outs[1]


# SHA-256 of report.json for each recording of a fixed synthetic corpus
# (seed 3, 60 s); a change that moves any reported number moves its hash
PINNED_REPORTS = {
    ("volume", 320.0): "97e6f60913f0b375dc5c02fa955f1617f12fdb122c2ef31e5b34b8b2513ba6d0",
    ("flow", 320.0): "80ccb24857c2191003a02c609c593532382c580f74a7d33f8e6377519f8bed70",
    ("none", 320.0): "d5dece5d8bc6880e0499e1a2ed81a1590897ea12d3f714dd55b2cee8a37e8ead",
    # acquired at 1 kHz, so the resampling stage runs
    ("volume", 1000.0): "30f0acab4e38a59a2fd06afc7f712677320e452c7c76e260dff2e2137c6f3846",
}


@pytest.mark.parametrize("coupling,fs", list(PINNED_REPORTS))
def test_report_json_bytes_pinned(tmp_path, coupling, fs):
    cfg = SynthConfig(seed=3, coupling=Coupling(coupling), duration_s=60.0, fs=fs)
    rec, truth = gen_recording(cfg)
    path = tmp_path / f"{rec.recording_id}-{fs:g}.csv"
    write_recording_csv(rec, path)
    config = PipelineConfig(inputs=(str(path),), acquisition_fs=fs, analysis_fs=320.0,
                            template_start_s=truth.beat_indices[0] / fs - 0.125,
                            template_length_s=0.25, out_dir=str(tmp_path / "out"))
    run_pipeline(config)
    report = (tmp_path / "out" / "report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == PINNED_REPORTS[(coupling, fs)]


# the stages that pipeline._stage times for each recording in run.json
RUN_STAGES = ["artifacts", "detect", "group", "ingest", "label", "lowpass", "resample",
              "respiration", "screen", "template"]


def without_seconds(value):
    """A run.json value without its `seconds` keys, at every depth."""
    if isinstance(value, dict):
        return {k: without_seconds(v) for k, v in value.items() if k != "seconds"}
    if isinstance(value, list):
        return [without_seconds(v) for v in value]
    return value


class TestRunRecord:
    def test_run_json_holds_versions_config_and_each_recording(self, tmp_path):
        path, _, truth, cfg = synth_csv(tmp_path, seed=3, duration=20.0)
        config = pipeline_config(tmp_path, path, truth, cfg)
        rows, artifacts = run_pipeline(config)
        run_path = Path(config.out_dir) / "run.json"
        assert artifacts[-1] == run_path
        text = run_path.read_text()
        run = json.loads(text)
        assert text == json.dumps(run, indent=1, sort_keys=True) + "\n"
        assert (run["cardioseis"], run["python"], run["numpy"]) == (
            cardioseis.__version__, platform.python_version(), np.__version__)
        assert run["config"] == {
            "inputs": [str(path)], "acquisition_fs": 320.0, "analysis_fs": 320.0,
            "template_start_s": config.template_start_s, "template_length_s": 0.25,
            "lowpass_cutoff_hz": 100.0}
        (record,) = run["recordings"]
        assert record["recording_id"] == path.stem
        assert sorted(record["seconds"]) == RUN_STAGES
        assert run["seconds"] >= sum(record["seconds"].values()) > 0
        counts = record["counts"]
        assert (counts["csv_rows"], counts["columns"]) == (
            20 * 320, ["time_s", "scg_z", "ecg", "flow_lps"])
        (row,) = rows
        assert counts["group_sizes"] == {g["group"]: g["n"] for g in row["groups"]}
        assert counts["peaks"] - counts["edge_peaks"] == row["n_events"] + row["outliers_dropped"]
        assert counts["envelope_threshold"] > 0
        assert counts["clamped_shifts"] >= 0

    def test_run_json_is_the_same_on_one_core(self, tmp_path, monkeypatch):
        # 120 s at 320 Hz, over 512 KiB, which run reads in a range per
        # usable core; on one core it reads the one range in its own process
        path, _, truth, cfg = synth_csv(tmp_path, duration=120.0)
        runs = []
        for out in ("every-core", "one-core"):
            if out == "one-core":
                monkeypatch.setattr(ingest, "_usable_cores", lambda: 1)
            config = pipeline_config(tmp_path, path, truth, cfg, out_dir=str(tmp_path / out))
            run_pipeline(config)
            runs.append(json.loads((tmp_path / out / "run.json").read_text()))
        assert without_seconds(runs[0]) == without_seconds(runs[1])
        assert runs[0]["recordings"][0]["counts"]["csv_rows"] == 120 * 320

    def test_a_constant_window_is_counted_and_stderr_stays_empty(self, tmp_path, monkeypatch,
                                                                  capsys):
        res = invoke(["synth", "--snr", "inf", "--duration", "20", "--out", str(tmp_path / "s")])
        assert res.exit_code == 0, res.output
        beats = json.loads(next((tmp_path / "s").glob("*_truth.json")).read_text())["beat_indices"]
        silent = (beats[1] + beats[2]) // 2  # in the silence between two noiseless beats
        detect = pipeline.detect_events
        monkeypatch.setattr(pipeline, "detect_events", lambda ch, tpl, **kwargs: np.sort(
            np.append(detect(ch, tpl, **kwargs), silent)))
        main(["run", "--config", str(tmp_path / "s" / "pipeline.cfg"),
              "--out", str(tmp_path / "r")])
        assert capsys.readouterr().err == ""
        counts = json.loads((tmp_path / "r" / "run.json").read_text())["recordings"][0]["counts"]
        (row,) = json.loads((tmp_path / "r" / "report.json").read_text())["rows"]
        assert counts["constant_windows"] == 1
        assert counts["constant_windows"] + counts["outliers"] == row["outliers_dropped"]

    def test_best_lag_calls_counted_where_the_screen_runs(self, monkeypatch):
        # the screen's two-pass alignment, then per criterion two groups'
        # two passes and their two re-alignments to the other average
        rec, config = sweep_recording(1, Coupling.VOLUME)
        calls = []
        best_lag = grouping.best_lag

        def counted(*args):
            calls.append(args)
            return best_lag(*args)
        monkeypatch.setattr(grouping, "best_lag", counted)
        _, ctx = analyze_recording(rec, config)
        counts = ctx["manifest"]["counts"]
        assert counts["best_lag_calls"] == len(calls) == 14
        assert ctx["manifest"]["recording_id"] == rec.recording_id
        assert sorted(ctx["manifest"]["seconds"]) == [
            s for s in RUN_STAGES if s not in ("artifacts", "ingest")]

    def test_screen_counts_add_up_to_outliers_dropped(self, tmp_path):
        # seed 4, uncoupled: the outlier screen drops one event
        paths = [synth_csv(tmp_path, seed=seed, coupling=coupling, duration=120.0)[0]
                 for seed, coupling in ((4, Coupling.NONE), (1, Coupling.VOLUME))]
        config = PipelineConfig(inputs=tuple(map(str, paths)), acquisition_fs=320.0,
                                analysis_fs=320.0, template_start_s=0.25,
                                out_dir=str(tmp_path / "out"))
        rows, _ = run_pipeline(config)
        records = json.loads((tmp_path / "out" / "run.json").read_text())["recordings"]
        assert [r["recording_id"] for r in records] == [row["recording_id"] for row in rows]
        assert [r["counts"]["constant_windows"] + r["counts"]["outliers"] for r in records] == [
            row["outliers_dropped"] for row in rows]
        assert max(row["outliers_dropped"] for row in rows) >= 1


class TestCli:
    def test_synth_config_runs_from_its_own_directory(self, tmp_path, monkeypatch):
        # synth writes the CSV's path absolute, so that a relative --out
        # does not tie pipeline.cfg to the directory synth ran in
        monkeypatch.chdir(tmp_path)
        res = invoke(["synth", "--fs", "320", "--duration", "20", "--seed", "1", "--out", "demo"])
        assert res.exit_code == 0, res.output
        monkeypatch.chdir(tmp_path / "demo")
        res = invoke(["run", "--config", "pipeline.cfg"])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "demo" / "out" / "report.json").is_file()

    def test_synth_then_run_then_check(self, tmp_path):
        out = tmp_path / "synth"
        res = invoke(["synth", "--seed", "4", "--coupling", "volume",
                      "--out", str(out), "--duration", "60"])
        assert res.exit_code == 0, res.output
        cfg_file = out / "pipeline.cfg"
        assert cfg_file.is_file()
        res = invoke(["run", "--config", str(cfg_file),
                      "--out", str(tmp_path / "analysis")])
        assert res.exit_code == 0, res.output
        assert "LungVolume" in res.output
        res = invoke(["report", "--check",
                      str(tmp_path / "analysis" / "report.json")])
        assert res.exit_code == 0, res.output

    def test_low_rate_synth_then_run(self, tmp_path):
        out = tmp_path / "synth"
        res = invoke(["synth", "--seed", "1", "--fs", "150",
                      "--duration", "30", "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert load_config(out / "pipeline.cfg").lowpass_cutoff_hz == 60.0
        # rates that %g writes exactly keep their short form
        assert ("acquisition_fs = 150\nanalysis_fs = 150\ntemplate_start_s"
                in (out / "pipeline.cfg").read_text())
        res = invoke(["run", "--config", str(out / "pipeline.cfg"),
                      "--out", str(tmp_path / "analysis")])
        assert res.exit_code == 0, res.output

    def test_synth_then_run_at_rate_beyond_6_digits(self, tmp_path):
        # %g would write acquisition_fs = 10000.4, and run would reject the CSV's timestamps
        out = tmp_path / "synth"
        res = invoke(["synth", "--fs", "10000.37", "--duration", "10",
                      "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert "acquisition_fs = 10000.37\n" in (out / "pipeline.cfg").read_text()
        res = invoke(["run", "--config", str(out / "pipeline.cfg"),
                      "--out", str(tmp_path / "analysis")])
        assert res.exit_code == 0, res.output

    def test_synth_config_keeps_default_cutoff(self, tmp_path):
        out = tmp_path / "synth"
        res = invoke(["synth", "--fs", "250", "--duration", "5",
                      "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert load_config(out / "pipeline.cfg").lowpass_cutoff_hz == 100.0

    def test_synth_then_run_just_above_200_hz(self, tmp_path):
        # a 100 Hz cutoff would leave no stop band below Nyquist
        out = tmp_path / "synth"
        res = invoke(["synth", "--fs", "200.2", "--duration", "30",
                      "--out", str(out)])
        assert res.exit_code == 0, res.output
        res = invoke(["run", "--config", str(out / "pipeline.cfg"),
                      "--out", str(tmp_path / "analysis")])
        assert res.exit_code == 0, res.output

    def test_synth_too_short_exits_2(self, tmp_path):
        out = tmp_path / "synth"
        res = invoke(["synth", "--duration", "0.5", "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "duration_s = 0.5 is too short to hold one beat" in res.output
        assert not out.exists()

    def test_synth_negative_seed_exits_2(self, tmp_path):
        out = tmp_path / "synth"
        res = invoke(["synth", "--seed", "-1", "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "seed must be >= 0, got -1" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("name", ["a, b", "a #b"])
    def test_synth_out_unreadable_in_config_exits_2(self, tmp_path, name):
        # a comma splits the input list and ' #' starts a comment, so run
        # would read another path than the CSV synth wrote
        out = tmp_path / name
        res = invoke(["synth", "--duration", "5", "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "the input line of pipeline.cfg would not read back" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("line,field", [
        # the first four and `min_separation_s = inf` set removed keys
        ("threshold_frac = 1.5", "threshold_frac"),
        ("lowpass_cutoff_hz = 200", "lowpass_cutoff_hz"),
        ("lowpass_cutoff_hz = 0.3", "lowpass_cutoff_hz"),
        ("min_separation_s = 0", "min_separation_s"),
        ("acquisition_fs = nan", "acquisition_fs"),
        ("template_start_s = nan", "template_start_s"),
        ("template_length_s = nan", "template_length_s"),
        ("min_separation_s = inf", "min_separation_s"),
        ("template_start_s = -1", "template_start_s"),
        ("template_length_s = 0.02", "template_length_s"),
        # the message names the file and the line
        ("analysis_fs", "pipeline.cfg:3: expected key = value, got 'analysis_fs'"),
        ("analysis_fs = abc", "pipeline.cfg:3: bad value for analysis_fs: "),
    ])
    def test_bad_config_exits_2_before_ingest(self, tmp_path, monkeypatch, line, field):
        path, *_ = synth_csv(tmp_path, duration=5.0)
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text(f"input = {path}\nacquisition_fs = 320\n{line}\n")
        ingested = []
        monkeypatch.setattr("cardioseis.pipeline.ingest_csv",
                            lambda *args: ingested.append(args))
        res = invoke(["run", "--config", str(cfg_file),
                      "--out", str(tmp_path / "out")])
        assert res.exit_code == 2, res.output
        assert field in res.output
        assert ingested == []

    def test_run_degenerate_analysis_exits_3(self, tmp_path):
        path, truth, cfg = zero_flow_csv(tmp_path)
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text(f"input = {path}\nacquisition_fs = {cfg.fs:g}\n"
                            f"template_start_s = {truth.beat_indices[0] / cfg.fs - 0.125}\n")
        res = invoke(["run", "--config", str(cfg_file),
                      "--out", str(tmp_path / "out")])
        assert res.exit_code == 3, res.output
        assert res.output.startswith("error: [group] ")

    def test_run_prints_rows_in_report_order(self, tmp_path):
        # b is given first, yet its row is printed after a's, as the reports hold them
        path, _, truth, cfg = synth_csv(tmp_path, duration=30.0)
        inputs = [tmp_path / "b.csv", tmp_path / "a.csv"]
        for copy in inputs:
            copy.write_bytes(path.read_bytes())
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text(f"acquisition_fs = {cfg.fs:g}\nanalysis_fs = {cfg.fs:g}\n"
                            f"template_start_s = {truth.beat_indices[0] / cfg.fs - 0.125}\n")
        out = tmp_path / "out"
        res = invoke(["run", "--config", str(cfg_file), "--out", str(out),
                      *(arg for p in inputs for arg in ("--input", str(p)))])
        assert res.exit_code == 0, res.output
        printed = [line.split(":", 1)[0] for line in res.output.splitlines()[:-1]]
        assert printed == ["a", "b"]
        report = json.loads((out / "report.json").read_text())
        assert [row["recording_id"] for row in report["rows"]] == printed
        csv_ids = [line.split(",", 1)[0] for line in (out / "report.csv").read_text().split()[1:]]
        assert csv_ids == ["a"] * 4 + ["b"] * 4

    def test_run_internal_error_exits_4(self, tmp_path, monkeypatch):
        path, *_ = synth_csv(tmp_path, duration=5.0)
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text(f"input = {path}\nacquisition_fs = 320\n")

        def broken(*args):
            raise RuntimeError("broken stage")
        monkeypatch.setattr("cardioseis.pipeline.resample", broken)
        res = invoke(["run", "--config", str(cfg_file),
                      "--out", str(tmp_path / "out")])
        assert res.exit_code == 4, res.output
        assert res.output == "error: broken stage\n"

    @pytest.mark.parametrize("out", ["blocker", "blocker/sub", "blocker/sub/deeper",
                                     "link", "link/sub"],
                             ids=lambda out: out.removeprefix("blocker").lstrip("/"))
    def test_run_out_on_a_file_exits_2_before_ingest(self, tmp_path, monkeypatch, out):
        # a dangling symlink counts as there, as it does for mkdir
        path, *_ = synth_csv(tmp_path, duration=5.0)
        (tmp_path / "blocker").write_text("")
        (tmp_path / "link").symlink_to(tmp_path / "gone")
        ingested = []
        monkeypatch.setattr("cardioseis.pipeline.ingest_csv",
                            lambda *args: ingested.append(args))
        res = invoke(["run", "--input", str(path),
                      "--out", str(tmp_path / out)])
        assert res.exit_code == 2, res.output
        blocking = tmp_path / out.split("/")[0]
        assert res.output == (f"error: out_dir {str(tmp_path / out)!r}: a file stands where "
                              f"the output directory would go: {str(blocking)!r}\n")
        assert ingested == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "link", path.name]

    def test_run_out_through_a_symlinked_dir(self, tmp_path):
        # a link to a directory is a directory
        path, _, truth, cfg = synth_csv(tmp_path, duration=5.0)
        (tmp_path / "real").mkdir()
        (tmp_path / "link").symlink_to(tmp_path / "real")
        run_pipeline(pipeline_config(tmp_path, path, truth, cfg,
                                     out_dir=str(tmp_path / "link" / "sub")))
        assert (tmp_path / "real" / "sub" / "report.json").is_file()

    @pytest.mark.parametrize("out", ["o2", "o2/sub"])
    def test_interrupted_run_leaves_no_out_dir(self, tmp_path, monkeypatch, out):
        path, *_ = synth_csv(tmp_path, duration=5.0)

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt
        monkeypatch.setattr("cardioseis.pipeline.ingest_csv", interrupted)
        config = PipelineConfig(inputs=(str(path),), out_dir=str(tmp_path / out))
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(config)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    @pytest.mark.parametrize("under", ["", "sub"])
    def test_synth_out_on_a_file_exits_2_before_writing(self, tmp_path, monkeypatch, under):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        written = []
        monkeypatch.setattr("cardioseis.cli.write_recording_csv",
                            lambda *args: written.append(args))
        res = invoke(["synth", "--duration", "5",
                      "--out", str(blocker / under)])
        assert res.exit_code == 2, res.output
        assert "--out" in res.output
        assert written == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]

    def test_run_missing_input_exit_2(self, tmp_path, monkeypatch):
        # without --out, the default out_dir would be made in the working directory
        monkeypatch.chdir(tmp_path)
        res = invoke(["run", "--input", str(tmp_path / "nope.csv")])
        assert res.exit_code == 2
        assert "input file not found" in res.output
        assert list(tmp_path.iterdir()) == []

    def test_run_without_inputs_exits_2(self, tmp_path, monkeypatch):
        # neither a config nor --input names a file
        monkeypatch.chdir(tmp_path)
        res = invoke(["run"])
        assert res.exit_code == 2, res.output
        assert res.output == "error: no input files configured\n"
        assert list(tmp_path.iterdir()) == []

    def test_run_empty_csv_exits_2(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        res = invoke(["run", "--input", str(path), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2, res.output
        assert res.output == f"error: [ingest] {path}: empty file\n"

    @pytest.mark.parametrize("out", ["o2", "o2/sub"])
    def test_failed_run_makes_no_out_dir(self, tmp_path, out):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        res = invoke(["run", "--input", str(path), "--out", str(tmp_path / out)])
        assert res.exit_code == 2, res.output
        assert [p.name for p in tmp_path.iterdir()] == ["empty.csv"]

    @pytest.mark.parametrize("out, kept", [("o2", []), ("o2", ["keep.txt"]), ("o2/sub", [])])
    def test_failed_run_leaves_a_dir_that_was_there(self, tmp_path, out, kept):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        (tmp_path / "o2").mkdir()
        for name in kept:
            (tmp_path / "o2" / name).write_text("kept")
        res = invoke(["run", "--input", str(path), "--out", str(tmp_path / out)])
        assert res.exit_code == 2, res.output
        assert sorted(p.name for p in (tmp_path / "o2").iterdir()) == kept
        assert [(tmp_path / "o2" / name).read_text() for name in kept] == ["kept"] * len(kept)

    def test_failed_run_keeps_the_artifacts_it_wrote(self, tmp_path):
        # the inputs run in their order: the good one writes its artifacts first
        good, _, truth, cfg = synth_csv(tmp_path, duration=5.0)
        empty = tmp_path / "empty.csv"
        empty.write_bytes(b"")
        config = pipeline_config(tmp_path, good, truth, cfg, inputs=(str(good), str(empty)),
                                 out_dir=str(tmp_path / "o2"))
        with pytest.raises(InputError, match="empty file"):
            run_pipeline(config)
        assert sorted(p.name for p in (tmp_path / "o2").iterdir()) == [
            f"{good.stem}_ensemble_averages.csv", f"{good.stem}_ensemble_averages.svg",
            f"{good.stem}_rd_bars.svg"]

    def test_run_no_events_exits_3(self, tmp_path, monkeypatch):
        # a real recording always keeps the beat its template was cut from,
        # so the detector is stubbed to find nothing
        path, _, truth, cfg = synth_csv(tmp_path, duration=5.0)
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text(f"input = {path}\nacquisition_fs = {cfg.fs:g}\n"
                            f"template_start_s = {truth.beat_indices[0] / cfg.fs - 0.125}\n")
        monkeypatch.setattr("cardioseis.pipeline.detect_events",
                            lambda ch, tpl, **kwargs: np.zeros(0, dtype=int))
        res = invoke(["run", "--config", str(cfg_file),
                      "--out", str(tmp_path / "out")])
        assert res.exit_code == 3, res.output
        assert res.output == "error: [group] no events detected\n"

    @pytest.mark.parametrize("command, code, named", [
        ("run --help", 0, "usage: cardioseis run"),
        ("run --bogus", 2, "--bogus"),
        ("report", 2, "--check"),
        ("synth --coupling bogus", 2, "--coupling"),
        ("synth --fs abc", 2, "--fs"),
    ])
    def test_usage_exits_pass_the_error_boundary(self, command, code, named):
        # --help and a usage error are argparse's own, with argparse's output
        # and no line of the boundary's `error: ` form
        res = invoke(command.split())
        assert res.exit_code == code, res.output
        assert res.output.startswith("usage: ")
        assert named in res.output
        assert not any(line.startswith("error: ") for line in res.output.splitlines())

    def test_run_repeated_stem_exits_2_before_ingest(self, tmp_path, monkeypatch):
        # each recording's artifacts and report row are named by its file stem
        path, *_ = synth_csv(tmp_path, duration=5.0)
        (tmp_path / "b").mkdir()
        other = tmp_path / "b" / path.name
        other.write_bytes(path.read_bytes())
        ingested = []
        monkeypatch.setattr("cardioseis.pipeline.ingest_csv",
                            lambda *args: ingested.append(args))
        out = tmp_path / "out"
        res = invoke(["run", "--input", str(path), "--input", str(other),
                      "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert f"2 inputs share the file stem {path.stem!r}" in res.output
        assert ingested == []
        assert not out.exists()

    @pytest.mark.parametrize("command", ["report", "run", "help"])
    def test_closed_stdout_exits_141_silently(self, tmp_path, command):
        # as a shell reports `yes | head -1`: 128 + SIGPIPE, and nothing on stderr
        if command == "help":
            args = ["run", "--help"]
        elif command == "report":
            args = ["report", "--check", str(DATA_DIR / "reference_tables.json")]
        else:
            res = invoke(["synth", "--fs", "320", "--duration", "10",
                          "--out", str(tmp_path / "s")])
            assert res.exit_code == 0, res.output
            args = ["run", "--config", str(tmp_path / "s" / "pipeline.cfg"),
                    "--out", str(tmp_path / "r")]
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "cardioseis.cli", *args], stdout=write,
                                  stderr=subprocess.PIPE, env=cli_env(), timeout=120)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (141, b"")

    def test_report_check_fixture(self):
        res = invoke(["report", "--check", str(DATA_DIR / "reference_tables.json")])
        assert res.exit_code == 0, res.output

    def test_report_check_detects_corruption(self, tmp_path):
        payload = json.loads((DATA_DIR / "reference_tables.json").read_text())
        payload["rows"][0]["groups"][0]["rd"] = 99.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        res = invoke(["report", "--check", str(bad)])
        assert res.exit_code == 4

    @pytest.mark.parametrize("payload,problem", [
        ({"rows": [{"recording_id": "r", "groups": [
            {"group": "LLV", "mean_dissim_same": 22.4, "mean_dissim_alt": 34.2}]}]},
         "row 0 (r/LLV): 'rd'"),
        ({"rows": [5]}, "row 0 is not an object"),
        ([1, 2], "missing 'rows' list"),
        ({"rows": []}, "'rows' is empty"),
        ({"rows": [{"recording_id": "x"}]}, "row 0 (x): 'groups' is missing or empty"),
        ({"rows": [{"recording_id": "x", "groups": []}]}, "row 0 (x): 'groups' is missing"),
        ({"rows": [{"recording_id": "x", "groups": CONSISTENT_GROUPS[:3]}]},
         "row 0 (x): 'groups' must hold Inspiration, Expiration, LLV, HLV once each"),
        ({"rows": [{"recording_id": "x", "groups": CONSISTENT_GROUPS},
                   {"recording_id": "y",
                    "groups": CONSISTENT_GROUPS[:3] + CONSISTENT_GROUPS[:1]}]},
         "row 1 (y): 'groups' must hold"),
        ({"rows": [{"recording_id": "x", "groups": [1, 2]}]},
         "row 0 (x): 'groups' is not a list of objects"),
    ])
    def test_report_check_malformed_exits_2(self, tmp_path, payload, problem):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        res = invoke(["report", "--check", str(bad)])
        assert res.exit_code == 2, res.output
        assert problem in res.output

    def test_report_check_invalid_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"rows": [')
        res = invoke(["report", "--check", str(bad)])
        assert res.exit_code == 2, res.output
        assert res.output.startswith(f"error: {bad}: not valid JSON: ")

    def test_report_check_unrecomputable_rd_exits_4(self, tmp_path):
        groups = [dict(CONSISTENT_GROUPS[0], mean_dissim_same=0.0)] + CONSISTENT_GROUPS[1:]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rows": [{"recording_id": "x", "groups": groups}]}))
        res = invoke(["report", "--check", str(bad)])
        assert res.exit_code == 4, res.output
        assert res.output == ("inconsistent: x/Inspiration: cannot recompute RD "
                              "(zero within-group dissimilarity)\n")

    def test_report_check_missing_file(self, tmp_path):
        res = invoke(["report", "--check", str(tmp_path / "nope.json")])
        assert res.exit_code == 2

    def test_report_check_undecodable_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"rows": "\xff"}')
        res = invoke(["report", "--check", str(bad)])
        assert res.exit_code == 2, res.output
        assert res.output == f"error: {bad}:1: not UTF-8 text (invalid start byte)\n"

    # file lines: 1 is the header; 15,938 lies far past the first chunk
    # that the text reader decodes
    @pytest.mark.parametrize("line", [1, 2, 15938])
    def test_run_undecodable_csv_exits_2(self, tmp_path, line):
        rows = ["time_s,scg_z,ecg,flow_lps"] + [f"{i / 10000.0:.9g},0,0,0" for i in range(20000)]
        lines = [row.encode() for row in rows]
        lines[line - 1] = lines[line - 1][:2] + b"\xe9" + lines[line - 1][2:]
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        res = invoke(["run", "--input", str(path), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2, res.output
        assert res.output == (f"error: [ingest] {path}:{line}: not UTF-8 text "
                              "(invalid continuation byte)\n")

    def test_run_undecodable_config_exits_2(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"analysis_fs = 320\n# caf\xe9\n")
        res = invoke(["run", "--config", str(path)])
        assert res.exit_code == 2, res.output
        assert res.output == f"error: {path}:2: not UTF-8 text (invalid continuation byte)\n"


# Imports the package and the CLI, then runs `report --check`, a short
# `synth` and `run` on what that `synth` wrote, all in the same interpreter,
# listing the scipy, click, fractions, decimal and logging modules loaded
# after each step. argv: report path, synth output directory, run output
# directory.
IMPORT_GUARD = """
import json, sys
import cardioseis, cardioseis.cli

def unwanted_loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("scipy", "click", "fractions", "decimal", "logging"))

seen = {"import": unwanted_loaded()}
for name, args in (("report", ["report", "--check", sys.argv[1]]),
                   ("synth", ["synth", "--fs", "320", "--duration", "10", "--out", sys.argv[2]]),
                   ("run", ["run", "--config", sys.argv[2] + "/pipeline.cfg",
                            "--out", sys.argv[3]])):
    try:
        cardioseis.cli.main(args)
    except SystemExit as exc:
        if exc.code:
            raise
    seen[name] = unwanted_loaded()
print(json.dumps(seen))
"""


def test_no_command_loads_scipy(tmp_path):
    """Importing the CLI, `report --check`, `synth` and a full `run` on
    what that `synth` wrote load no scipy, click, fractions, decimal or
    logging module."""
    analysis = tmp_path / "analysis"
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD,
                           str(DATA_DIR / "reference_tables.json"), str(tmp_path / "synth"),
                           str(analysis)],
                          capture_output=True, text=True, env=cli_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"import": [], "report": [], "synth": [], "run": []}
    assert (analysis / "report.json").is_file()


def test_readme_api_names_resolve():
    # every `module.name` of README.md whose module is a cardioseis module
    # names something that module defines; `pipeline.cfg` is the config file
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    modules = {p.stem for p in Path(cardioseis.__file__).parent.glob("*.py")}
    named = [(mod, name) for mod, name in re.findall(r"`(\w+)\.(\w+)", readme)
             if mod in modules and (mod, name) != ("pipeline", "cfg")]
    assert len(named) >= 20
    for mod, name in named:
        assert hasattr(importlib.import_module(f"cardioseis.{mod}"), name), f"{mod}.{name}"
