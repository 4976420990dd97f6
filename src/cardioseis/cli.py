"""Command-line entry points: run, synth, report.

Exit codes: 0 success, 2 input/parse error, 3 degenerate analysis,
4 internal invariant violation.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import click

from .config import PipelineConfig, load_config, parse_config
from .errors import DegenerateAnalysisError, InputError
from .ingest import write_recording_csv
from .pipeline import StageError, run_pipeline
from .report import check_report
from .synth import Coupling, SynthConfig, gen_recording

EXIT_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_INTERNAL = 4


def _exit_for(exc: Exception) -> int:
    if isinstance(exc, StageError):
        exc = exc.cause
    if isinstance(exc, InputError):
        return EXIT_INPUT
    if isinstance(exc, DegenerateAnalysisError):
        return EXIT_DEGENERATE
    return EXIT_INTERNAL


@click.group()
def main():
    """SCG heartbeat grouping by respiratory phase and lung volume."""


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="Flat key=value config file.")
@click.option("--input", "inputs", multiple=True, type=click.Path(),
              help="Input recording CSV (repeatable; overrides config).")
@click.option("--out", "out_dir", type=click.Path(), default=None, help="Output directory.")
def run(config_path, inputs, out_dir):
    """Run the full analysis pipeline and write reports and plots."""
    try:
        config = load_config(config_path) if config_path else PipelineConfig()
        if inputs:
            config = replace(config, inputs=tuple(inputs))
        if out_dir is not None:
            config = replace(config, out_dir=out_dir)
        rows, artifacts = run_pipeline(config)
    except Exception as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(_exit_for(exc))
    for row in rows:
        winners = row["winners"]
        click.echo(f"{row['recording_id']}: {row['n_events']} events, "
                   f"winners insp/LLV={winners['inspiration_vs_llv']} "
                   f"exp/HLV={winners['expiration_vs_hlv']}")
    click.echo(f"wrote {len(artifacts)} artifact(s) to {config.out_dir}")


@main.command()
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--coupling", type=click.Choice([c.value for c in Coupling]),
              default="volume", show_default=True)
@click.option("--out", "out_dir", type=click.Path(), default="synth_out", show_default=True)
@click.option("--duration", type=float, default=120.0, show_default=True,
              help="Recording length in seconds.")
@click.option("--fs", type=float, default=320.0, show_default=True,
              help="Sampling rate of the generated recording.")
@click.option("--snr", "snr_db", type=float, default=20.0, show_default=True)
@click.option("--coupling-strength", type=float, default=1.0, show_default=True)
def synth(seed, coupling, out_dir, duration, fs, snr_db, coupling_strength):
    """Generate a synthetic recording, ground truth, and a ready-to-run config."""
    try:
        cfg = SynthConfig(duration_s=duration, fs=fs, snr_db=snr_db,
                          coupling=Coupling(coupling),
                          coupling_strength=coupling_strength, seed=seed)
        rec, truth = gen_recording(cfg)
        out = Path(out_dir)
        csv_path, cfg_path = out / f"{rec.recording_id}.csv", out / "pipeline.cfg"
        run_config = _synth_config(csv_path, cfg, truth)
        if parse_config(run_config, cfg_path).inputs != (str(csv_path),):
            raise InputError(f"--out {out_dir!r}: the input line of pipeline.cfg would not "
                             f"read back as {csv_path} (it must hold no comma, no '#' after "
                             "whitespace, and no whitespace at either end)")
        out.mkdir(parents=True, exist_ok=True)
        write_recording_csv(rec, csv_path)
        truth.to_json(out / f"{rec.recording_id}_truth.json")
        cfg_path.write_text(run_config)
    except Exception as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(_exit_for(exc))
    click.echo(f"wrote {csv_path} ({len(truth.beat_indices)} beats)")


def _synth_config(csv_path, cfg: SynthConfig, truth) -> str:
    """Config text pointing at the generated file, with a template span on
    the first generated beat so `cardioseis run` works out of the box."""
    from .synth import DEFAULT_MORPH_LENGTH_S
    length_s = DEFAULT_MORPH_LENGTH_S
    first = truth.beat_indices[0]
    start_s = max(0.0, first / cfg.fs - length_s / 2)
    analysis_fs = min(cfg.fs, 320.0)
    lines = [
        f"input = {csv_path}",
        f"acquisition_fs = {_exact(cfg.fs)}",
        f"analysis_fs = {_exact(analysis_fs)}",
        f"template_start_s = {start_s:.6f}",
        f"template_length_s = {length_s:g}",
        "",
    ]
    if PipelineConfig.lowpass_cutoff_hz >= analysis_fs / 2:
        # the default cutoff would sit at or above Nyquist: keep it below
        lines.insert(3, f"lowpass_cutoff_hz = {_exact(0.4 * analysis_fs)}")
    return "\n".join(lines)


def _exact(x: float) -> str:
    """x in %g form when that reads back as x, else its full repr."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


@main.command()
@click.option("--check", "report_path", type=click.Path(), required=True,
              help="Report JSON to verify for RD self-consistency.")
def report(report_path):
    """Recompute RD values from a report's own mean columns."""
    try:
        problems = check_report(report_path)
    except InputError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INPUT)
    if problems:
        for p in problems:
            click.echo(f"inconsistent: {p}", err=True)
        sys.exit(EXIT_INTERNAL)
    click.echo("report is self-consistent")


if __name__ == "__main__":
    main()
