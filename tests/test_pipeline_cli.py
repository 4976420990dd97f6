import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import cardioseis as cs
from cardioseis.cli import main
from cardioseis.config import PipelineConfig, apply_overrides, load_config
from cardioseis.errors import InputError
from cardioseis.ingest import ingest_csv, write_recording_csv
from cardioseis.pipeline import run_pipeline
from cardioseis.report import check_report
from cardioseis.synth import Coupling, SynthConfig, gen_recording

from conftest import DATA_DIR


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
    return apply_overrides(base, **overrides)


class TestIngest:
    def test_round_trip(self, tmp_path):
        path, rec, _, cfg = synth_csv(tmp_path, duration=5.0)
        config = PipelineConfig(acquisition_fs=cfg.fs, analysis_fs=cfg.fs)
        loaded = ingest_csv(path, config)
        for name in ("scg", "ecg", "flow"):
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

    def test_channel_remap(self, tmp_path):
        p = tmp_path / "remap.csv"
        p.write_text("t,z,e,f\n" + "\n".join(f"{i / 320.0:.9g},1,0,0.5" for i in range(10)) + "\n")
        cfgp = PipelineConfig(acquisition_fs=320.0, analysis_fs=320.0,
                              channel_map={"time": "t", "scg": "z", "ecg": "e", "flow": "f"})
        rec = ingest_csv(p, cfgp)
        assert np.allclose(rec["flow"].samples, 0.5)


class TestConfigFile:
    def test_parse_and_defaults(self, tmp_path):
        p = tmp_path / "pipeline.cfg"
        p.write_text("""
# comment
input = a.csv, b.csv
analysis_fs = 320
lowpass_cutoff_hz = 100
template_start_s = 1.5
detrend = false
channel.scg = accel_z
""")
        cfg = load_config(p)
        assert cfg.inputs == ("a.csv", "b.csv")
        assert cfg.detrend is False
        assert cfg.channel_map["scg"] == "accel_z"
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
                     "max_shift = auto\t# tab before the comment\n"
                     "threshold_frac = 0.25              # of the 95th percentile\n")
        cfg = load_config(p)
        assert cfg.out_dir == "o"
        assert cfg.max_shift is None
        assert cfg.threshold_frac == 0.25

    @pytest.mark.parametrize("field,value", [
        ("threshold_frac", 0.0), ("threshold_frac", 1.0), ("threshold_frac", 1.5),
        ("lowpass_cutoff_hz", 0.0), ("lowpass_cutoff_hz", 160.0), ("lowpass_cutoff_hz", -5.0),
        ("max_shift", -1), ("min_separation_s", 0.0), ("min_separation_s", -0.4),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(InputError, match=field):
            PipelineConfig(**{field: value})

    def test_in_range_accepted(self):
        cfg = PipelineConfig(threshold_frac=0.01, lowpass_cutoff_hz=159.9, max_shift=0,
                             min_separation_s=0.01)
        assert cfg.max_shift == 0

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("frobnicate = 1\n")
        with pytest.raises(InputError, match="unknown key"):
            load_config(p)

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
        zeroed = cs.Recording(channels={**rec.channels,
                                        "flow": cs.Channel(np.zeros(len(rec["flow"])),
                                                           cfg.fs, "flow")},
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

    @pytest.mark.parametrize("line,field", [
        ("threshold_frac = 1.5", "threshold_frac"),
        ("lowpass_cutoff_hz = 200", "lowpass_cutoff_hz"),
        ("max_shift = -3", "max_shift"),
        ("min_separation_s = 0", "min_separation_s"),
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

    def test_report_check_missing_file(self, tmp_path):
        runner = CliRunner()
        res = runner.invoke(main, ["report", "--check", str(tmp_path / "nope.json")])
        assert res.exit_code == 2


# Imports the package and the CLI, then runs `report --check` and a short
# `synth` in the same interpreter, listing the scipy modules loaded after
# each step. argv: report path, synth output directory.
IMPORT_GUARD = """
import json, sys
import cardioseis, cardioseis.cli

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = {"import": scipy_loaded()}
for name, args in (("report", ["report", "--check", sys.argv[1]]),
                   ("synth", ["synth", "--fs", "320", "--duration", "10", "--out", sys.argv[2]])):
    try:
        cardioseis.cli.main.main(args=args, standalone_mode=False)
    except SystemExit as exc:
        if exc.code:
            raise
    seen[name] = scipy_loaded()
print(json.dumps(seen))
"""


def test_scipy_loaded_only_by_run(tmp_path):
    """Importing the CLI, `report --check` and `synth` load no scipy
    module; `run` (which does) still accepts what that `synth` wrote."""
    src = Path(cs.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = tmp_path / "synth"
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD,
                           str(DATA_DIR / "reference_tables.json"), str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"import": [], "report": [], "synth": []}
    res = CliRunner().invoke(main, ["run", "--config", str(out / "pipeline.cfg"),
                                    "--out", str(tmp_path / "analysis")])
    assert res.exit_code == 0, res.output
