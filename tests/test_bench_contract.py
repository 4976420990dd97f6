"""What the benchmark (bench/) needs from the program, pinned from outside it.

bench/tracing.py wraps the program's functions by (module, attribute) name
and counts events and outliers from their results; bench/run.py reads the
kept events from the context that analyze_recording returns, and its traced
mode runs each CLI command in its own process as
cli.main.main(args=[...], standalone_mode=False).
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from cardioseis import cli, grouping, pipeline
from cardioseis.respiration import integrate_flow, label_events
from cardioseis.signal_core import lowpass, resample
from cardioseis.synth import Coupling

from conftest import DATA_DIR, sweep_recording

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_resolves():
    for mod_name, attr, *_ in load_tracing().PATCHES:
        module = importlib.import_module(f"cardioseis.{mod_name}")
        assert callable(getattr(module, attr, None)), f"{mod_name}.{attr}"


def test_traced_counts_agree_with_context():
    # seed 4, uncoupled: the outlier screen drops one event
    rec, config = sweep_recording(4, Coupling.NONE)
    tracer = load_tracing().Tracer()
    tracer.new_pass("contract")
    with tracer.patched({"pipeline": pipeline, "grouping": grouping}):
        _, ctx = pipeline.analyze_recording(rec, config)
    metrics = tracer.metrics()
    assert ctx["outliers_dropped"] == 1
    assert metrics["grouping.outliers_dropped"] == ctx["outliers_dropped"]
    assert metrics["event_detection.events"] == len(ctx["events"]) + ctx["outliers_dropped"]


def test_context_events_expose_ref_window_and_phases():
    rec, config = sweep_recording(1, Coupling.VOLUME)
    _, ctx = pipeline.analyze_recording(rec, config)
    scg = lowpass(resample(rec["scg"], config.analysis_fs), config.lowpass_cutoff_hz)
    flow = resample(rec["flow"], config.analysis_fs)
    refs = np.array([ev.ref_index for ev in ctx["events"]])
    length = len(ctx["events"][0].window)
    assert length == round(config.template_length_s * config.analysis_fs)
    inspiring, high_volume = label_events(refs, flow.samples, integrate_flow(flow))
    for ev, insp, high in zip(ctx["events"], inspiring, high_volume):
        start = ev.ref_index - length // 2
        assert isinstance(ev.ref_index, int)
        assert ev.window.tobytes() == scg.samples[start:start + length].tobytes()
        assert ev.flow_phase.value == ("Inspiration" if insp else "Expiration")
        assert ev.volume_phase.value == ("HLV" if high else "LLV")


def test_cli_runs_in_process_without_standalone_mode(capsys, tmp_path):
    # success returns; a failure raises SystemExit with the command's exit code
    cli.main.main(args=["report", "--check", str(DATA_DIR / "reference_tables.json")],
                  standalone_mode=False)
    assert "self-consistent" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exit_info:
        cli.main.main(args=["report", "--check", str(tmp_path / "missing.json")],
                      standalone_mode=False)
    assert exit_info.value.code == 2
