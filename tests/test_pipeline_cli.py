import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import cardioseis
from cardioseis.cli import main
from cardioseis.config import _KEYS, PipelineConfig, load_config
from cardioseis.errors import InputError
from cardioseis.ingest import ingest_csv, write_recording_csv
from cardioseis.pipeline import run_pipeline
from cardioseis.report import check_report
from cardioseis.signal_core import Channel, Recording
from cardioseis.synth import Coupling, SynthConfig, gen_recording

from conftest import DATA_DIR


# one report row's groups, each RD consistent with its means
CONSISTENT_GROUPS = [{"group": g, "mean_dissim_same": 10.0, "mean_dissim_alt": 15.0, "rd": 50.0}
                     for g in ("Inspiration", "Expiration", "LLV", "HLV")]


def synth_csv(tmp_path, seed=1, coupling=Coupling.VOLUME, duration=60.0):
    cfg = SynthConfig(seed=seed, coupling=coupling, duration_s=duration)
    rec, truth = gen_recording(cfg)
    path = tmp_path / f"{rec.recording_id}.csv"
    write_recording_csv(rec, path)
    return path, rec, truth, cfg


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
        config = PipelineConfig(acquisition_fs=cfg.fs, analysis_fs=cfg.fs)
        loaded = ingest_csv(path, config)
        for name in ("scg", "flow"):
            assert len(loaded[name]) == len(rec[name])
            assert np.allclose(loaded[name].samples, rec[name].samples, atol=1e-9)

    def test_missing_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time_s,scg_z,ecg\n0,0,0\n")
        with pytest.raises(InputError, match="missing channel: flow"):
            ingest_csv(p, PipelineConfig())

    def test_non_uniform_timestamps(self, tmp_path):
        p = tmp_path / "bad.csv"
        rows = ["time_s,scg_z,ecg,flow_lps"]
        rows += [f"{i / 320.0:.9g},0,0,0" for i in range(10)]
        rows[5] = "0.2,0,0,0"  # row 5 is wildly off
        p.write_text("\n".join(rows) + "\n")
        cfgp = PipelineConfig(acquisition_fs=320.0, analysis_fs=320.0)
        with pytest.raises(InputError, match="non-uniform timestamps.*row 6"):
            ingest_csv(p, cfgp)

    def test_nan_sample(self, tmp_path):
        p = tmp_path / "bad.csv"
        rows = ["time_s,scg_z,ecg,flow_lps"]
        rows += [f"{i / 320.0:.9g},{'nan' if i == 3 else '0'},0,0" for i in range(8)]
        p.write_text("\n".join(rows) + "\n")
        cfgp = PipelineConfig(acquisition_fs=320.0, analysis_fs=320.0)
        with pytest.raises(InputError, match="non-finite scg sample at row 5"):
            ingest_csv(p, cfgp)

    def test_parse_error_names_file_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        rows = ["time_s,scg_z,ecg,flow_lps"]
        rows += [f"{i / 320.0:.9g},{'abc' if i == 4 else '0'},0,0" for i in range(8)]
        p.write_text("\n".join(rows) + "\n")  # 'abc' sits on line 6
        cfgp = PipelineConfig(acquisition_fs=320.0, analysis_fs=320.0)
        with pytest.raises(InputError, match="'abc'.* at line 6, column 2"):
            ingest_csv(p, cfgp)

    def test_errors_count_blank_lines(self, tmp_path):
        p = tmp_path / "bad.csv"
        rows = ["time_s,scg_z,ecg,flow_lps"]
        rows += [f"{i / 320.0:.9g},{'nan' if i == 3 else '0'},0,0" for i in range(8)]
        rows.insert(2, "")  # the nan moves to line 6
        p.write_text("\n".join(rows) + "\n")
        cfgp = PipelineConfig(acquisition_fs=320.0, analysis_fs=320.0)
        with pytest.raises(InputError, match="non-finite scg sample at row 6"):
            ingest_csv(p, cfgp)
        p.write_text("\n".join(rows).replace("nan", "x") + "\n")
        with pytest.raises(InputError, match="at line 6,"):
            ingest_csv(p, cfgp)

    def test_ecg_column_optional(self, tmp_path):
        path, *_ = synth_csv(tmp_path, duration=5.0)
        lines = path.read_text().splitlines()
        cut = tmp_path / "no_ecg.csv"
        cut.write_text("\n".join(",".join(f for k, f in enumerate(line.split(",")) if k != 2)
                                 for line in lines) + "\n")
        cfgp = PipelineConfig(acquisition_fs=320.0, analysis_fs=320.0)
        with_ecg, without = ingest_csv(path, cfgp), ingest_csv(cut, cfgp)
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
            ingest_csv(p, PipelineConfig(acquisition_fs=320.0, analysis_fs=320.0))

    @pytest.mark.parametrize("ragged_line", [5, 11])
    def test_ragged_row_names_file_line(self, tmp_path, ragged_line):
        # line 11 is the last row; loadtxt counts this error's rows from 1
        p = tmp_path / "bad.csv"
        rows = ["time_s,scg_z,ecg,flow_lps"]
        rows += [f"{i / 320.0:.9g},0,0,0" for i in range(10)]
        rows[ragged_line - 1] += ",0"
        p.write_text("\n".join(rows) + "\n")
        cfgp = PipelineConfig(acquisition_fs=320.0, analysis_fs=320.0)
        with pytest.raises(InputError, match=f"changed from 4 to 5 at line {ragged_line}$"):
            ingest_csv(p, cfgp)
        res = CliRunner().invoke(main, ["run", "--input", str(p), "--out", str(tmp_path / "out")])
        assert res.exit_code == 2, res.output
        assert res.output.endswith(f"at line {ragged_line}\n")
        assert "usecols" not in res.output


class TestConfigFile:
    def test_parse_and_defaults(self, tmp_path):
        p = tmp_path / "pipeline.cfg"
        p.write_text("""
# comment
input = a.csv, b.csv
analysis_fs = 320
lowpass_cutoff_hz = 100
template_start_s = 1.5
""")
        cfg = load_config(p)
        assert cfg.inputs == ("a.csv", "b.csv")
        assert cfg.template_start_s == 1.5
        assert cfg.acquisition_fs == 10000.0  # untouched default
        assert cfg.threshold_frac == 0.5

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
                     "min_separation_s = 0.3\t# tab before the comment\n"
                     "threshold_frac = 0.25              # of the 95th percentile\n")
        cfg = load_config(p)
        assert cfg.out_dir == "o"
        assert cfg.min_separation_s == 0.3
        assert cfg.threshold_frac == 0.25

    @pytest.mark.parametrize("field,value", [
        ("threshold_frac", 0.0), ("threshold_frac", 1.0), ("threshold_frac", 1.5),
        ("lowpass_cutoff_hz", 0.0), ("lowpass_cutoff_hz", 160.0), ("lowpass_cutoff_hz", -5.0),
        ("lowpass_cutoff_hz", 0.3),
        ("min_separation_s", 0.0), ("min_separation_s", -0.4),
        ("acquisition_fs", float("nan")), ("acquisition_fs", 0.0), ("acquisition_fs", -320.0),
        ("analysis_fs", 0.0),
        ("template_start_s", float("nan")), ("template_start_s", -1.0),
        ("template_length_s", float("nan")), ("min_separation_s", float("inf")),
        ("template_length_s", 0.02), ("template_length_s", 0.0),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(InputError, match=field):
            PipelineConfig(**{field: value})

    def test_in_range_accepted(self):
        cfg = PipelineConfig(threshold_frac=0.01, lowpass_cutoff_hz=159.5,
                             min_separation_s=0.01)
        assert cfg.min_separation_s == 0.01

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("frobnicate = 1\n")
        with pytest.raises(InputError, match="unknown key"):
            load_config(p)

    @pytest.mark.parametrize("key", ["channel.ecg", "channel.time", "channel.scg",
                                     "channel.flow", "detrend", "max_shift", "outlier_screen"])
    def test_channel_ecg_key_exits_2(self, tmp_path, monkeypatch, key):
        # removed keys: the column names and these steps are fixed
        path, *_ = synth_csv(tmp_path, duration=5.0)
        p = tmp_path / "old.cfg"
        p.write_text(f"input = {path}\n{key} = 1\n")
        ingested = []
        monkeypatch.setattr("cardioseis.pipeline.ingest_csv",
                            lambda *args: ingested.append(args))
        res = CliRunner().invoke(main, ["run", "--config", str(p)])
        assert res.exit_code == 2, res.output
        assert "old.cfg:2: unknown key" in res.output
        assert ingested == []

    def test_readme_documents_every_key(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("Keys and defaults:\n\n```\n", 1)[1].split("```", 1)[0]
        documented = {line.split("=", 1)[0].strip() for line in block.splitlines()}
        assert documented == set(_KEYS)

    def test_conditioning_defaults(self):
        cfg = PipelineConfig()
        assert cfg.acquisition_fs == 10000.0
        assert cfg.analysis_fs == 320.0
        assert cfg.lowpass_cutoff_hz == 100.0

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
        cfg = SynthConfig(seed=2, duration_s=60.0)
        rec, truth = gen_recording(cfg)
        zeroed = Recording(channels={**rec.channels,
                                     "flow": Channel(np.zeros(len(rec["flow"])), cfg.fs, "flow")},
                           recording_id="zeroflow")
        path = tmp_path / "zeroflow.csv"
        write_recording_csv(zeroed, path)
        config = pipeline_config(tmp_path, path, truth, cfg)
        from cardioseis.pipeline import StageError
        from cardioseis.errors import DegenerateAnalysisError
        with pytest.raises(StageError) as err:
            run_pipeline(config)
        assert isinstance(err.value.cause, DegenerateAnalysisError)

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


class TestCli:
    def test_synth_then_run_then_check(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "synth"
        res = runner.invoke(main, ["synth", "--seed", "4", "--coupling", "volume",
                                   "--out", str(out), "--duration", "60"])
        assert res.exit_code == 0, res.output
        cfg_file = out / "pipeline.cfg"
        assert cfg_file.is_file()
        res = runner.invoke(main, ["run", "--config", str(cfg_file),
                                   "--out", str(tmp_path / "analysis")])
        assert res.exit_code == 0, res.output
        assert "LungVolume" in res.output
        res = runner.invoke(main, ["report", "--check",
                                   str(tmp_path / "analysis" / "report.json")])
        assert res.exit_code == 0, res.output

    def test_low_rate_synth_then_run(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "synth"
        res = runner.invoke(main, ["synth", "--seed", "1", "--fs", "150",
                                   "--duration", "30", "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert load_config(out / "pipeline.cfg").lowpass_cutoff_hz < 75.0
        # rates that %g writes exactly keep their short form
        assert ("acquisition_fs = 150\nanalysis_fs = 150\nlowpass_cutoff_hz = 60\n"
                in (out / "pipeline.cfg").read_text())
        res = runner.invoke(main, ["run", "--config", str(out / "pipeline.cfg"),
                                   "--out", str(tmp_path / "analysis")])
        assert res.exit_code == 0, res.output

    def test_synth_then_run_at_rate_beyond_6_digits(self, tmp_path):
        # %g would write acquisition_fs = 10000.4, and run would reject the CSV's timestamps
        runner = CliRunner()
        out = tmp_path / "synth"
        res = runner.invoke(main, ["synth", "--fs", "10000.37", "--duration", "10",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert "acquisition_fs = 10000.37\n" in (out / "pipeline.cfg").read_text()
        res = runner.invoke(main, ["run", "--config", str(out / "pipeline.cfg"),
                                   "--out", str(tmp_path / "analysis")])
        assert res.exit_code == 0, res.output

    def test_synth_config_keeps_default_cutoff(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "synth"
        res = runner.invoke(main, ["synth", "--fs", "250", "--duration", "5",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert "lowpass_cutoff_hz" not in (out / "pipeline.cfg").read_text()

    def test_synth_too_short_exits_2(self, tmp_path):
        out = tmp_path / "synth"
        res = CliRunner().invoke(main, ["synth", "--duration", "0.5", "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "duration_s = 0.5 is too short to hold one beat" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("name", ["a, b", "a #b"])
    def test_synth_out_unreadable_in_config_exits_2(self, tmp_path, name):
        # a comma splits the input list and ' #' starts a comment, so run
        # would read another path than the CSV synth wrote
        out = tmp_path / name
        res = CliRunner().invoke(main, ["synth", "--duration", "5", "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "the input line of pipeline.cfg would not read back" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("line,field", [
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
    ])
    def test_bad_config_exits_2_before_ingest(self, tmp_path, monkeypatch, line, field):
        path, *_ = synth_csv(tmp_path, duration=5.0)
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text(f"input = {path}\nacquisition_fs = 320\n{line}\n")
        ingested = []
        monkeypatch.setattr("cardioseis.pipeline.ingest_csv",
                            lambda *args: ingested.append(args))
        res = CliRunner().invoke(main, ["run", "--config", str(cfg_file),
                                        "--out", str(tmp_path / "out")])
        assert res.exit_code == 2, res.output
        assert field in res.output
        assert ingested == []

    def test_run_missing_input_exit_2(self, tmp_path):
        runner = CliRunner()
        res = runner.invoke(main, ["run", "--input", str(tmp_path / "nope.csv")])
        assert res.exit_code == 2

    def test_report_check_fixture(self):
        runner = CliRunner()
        res = runner.invoke(main, ["report", "--check", str(DATA_DIR / "reference_tables.json")])
        assert res.exit_code == 0, res.output

    def test_report_check_detects_corruption(self, tmp_path):
        payload = json.loads((DATA_DIR / "reference_tables.json").read_text())
        payload["rows"][0]["groups"][0]["rd"] = 99.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        runner = CliRunner()
        res = runner.invoke(main, ["report", "--check", str(bad)])
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
    ])
    def test_report_check_malformed_exits_2(self, tmp_path, payload, problem):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        res = CliRunner().invoke(main, ["report", "--check", str(bad)])
        assert res.exit_code == 2, res.output
        assert problem in res.output

    def test_report_check_missing_file(self, tmp_path):
        runner = CliRunner()
        res = runner.invoke(main, ["report", "--check", str(tmp_path / "nope.json")])
        assert res.exit_code == 2


# Imports the package and the CLI, then runs `report --check`, a short
# `synth` and `run` on what that `synth` wrote, all in the same interpreter,
# listing the scipy modules loaded after each step. argv: report path, synth
# output directory, run output directory.
IMPORT_GUARD = """
import json, sys
import cardioseis, cardioseis.cli

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = {"import": scipy_loaded()}
for name, args in (("report", ["report", "--check", sys.argv[1]]),
                   ("synth", ["synth", "--fs", "320", "--duration", "10", "--out", sys.argv[2]]),
                   ("run", ["run", "--config", sys.argv[2] + "/pipeline.cfg",
                            "--out", sys.argv[3]])):
    try:
        cardioseis.cli.main.main(args=args, standalone_mode=False)
    except SystemExit as exc:
        if exc.code:
            raise
    seen[name] = scipy_loaded()
print(json.dumps(seen))
"""


def test_no_command_loads_scipy(tmp_path):
    """Importing the CLI, `report --check`, `synth` and a full `run` on
    what that `synth` wrote load no scipy module."""
    src = Path(cardioseis.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    analysis = tmp_path / "analysis"
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD,
                           str(DATA_DIR / "reference_tables.json"), str(tmp_path / "synth"),
                           str(analysis)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"import": [], "report": [], "synth": [], "run": []}
    assert (analysis / "report.json").is_file()
