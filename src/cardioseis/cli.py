"""Command-line entry points: run, synth, report.

Exit codes: 0 success, 2 input/parse error (a usage error too), 3 degenerate
analysis, 4 internal invariant violation, 141 stdout closed (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import PipelineConfig, load_config, parse_config
from .errors import DegenerateAnalysisError, InputError
from .ingest import write_recording_csv
from .pipeline import check_out_dir, run_pipeline
from .report import check_report
from .synth import DEFAULT_MORPH_LENGTH_S, Coupling, SynthConfig, gen_recording

EXIT_INTERNAL = 4
_EXIT_CODES = {InputError: 2, DegenerateAnalysisError: 3, Exception: EXIT_INTERNAL}


def run(config_path, inputs, out_dir):
    """Run the full analysis pipeline and write reports and plots."""
    config = load_config(config_path) if config_path else PipelineConfig()
    if inputs:
        config = replace(config, inputs=tuple(inputs))
    if out_dir is not None:
        config = replace(config, out_dir=out_dir)
    rows, artifacts = run_pipeline(config)
    for row in rows:
        winners = row["winners"]
        print(f"{row['recording_id']}: {row['n_events']} events, "
              f"winners insp/LLV={winners['inspiration_vs_llv']} "
              f"exp/HLV={winners['expiration_vs_hlv']}")
    print(f"wrote {len(artifacts)} artifact(s) to {config.out_dir}")


def synth(seed, coupling, out_dir, duration, fs, snr_db):
    """Generate a synthetic recording, ground truth, and a ready-to-run config."""
    cfg = SynthConfig(duration_s=duration, fs=fs, snr_db=snr_db,
                      coupling=Coupling(coupling), seed=seed)
    rec, truth = gen_recording(cfg)
    out = Path(out_dir)
    csv_path, cfg_path = out / f"{rec.recording_id}.csv", out / "pipeline.cfg"
    input_path = os.path.abspath(csv_path)  # so that run reads it from any directory
    run_config = _synth_config(input_path, cfg, truth)
    if parse_config(run_config, cfg_path).inputs != (input_path,):
        raise InputError(f"--out {out_dir!r}: the input line of pipeline.cfg would not "
                         f"read back as {input_path} (it must hold no comma, no '#' after "
                         "whitespace, and no whitespace at either end)")
    check_out_dir(out, "--out")
    out.mkdir(parents=True, exist_ok=True)
    write_recording_csv(rec, csv_path)
    truth.to_json(out / f"{rec.recording_id}_truth.json")
    cfg_path.write_text(run_config)
    print(f"wrote {csv_path} ({len(truth.beat_indices)} beats)")


def _synth_config(csv_path, cfg: SynthConfig, truth) -> str:
    """Config text pointing at the generated file, with a template span on
    the first generated beat so `cardioseis run` works out of the box."""
    length_s = DEFAULT_MORPH_LENGTH_S
    start_s = max(0.0, truth.beat_indices[0] / cfg.fs - length_s / 2)
    return "\n".join([
        f"input = {csv_path}",
        f"acquisition_fs = {_exact(cfg.fs)}",
        f"analysis_fs = {_exact(min(cfg.fs, PipelineConfig.analysis_fs))}",
        f"template_start_s = {start_s:.6f}",
        f"template_length_s = {length_s:g}",
        "",
    ])


def _exact(x: float) -> str:
    """x in %g form when that reads back as x, else its full repr."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


def report(report_path):
    """Recompute RD values from a report's own mean columns."""
    problems = check_report(report_path)
    if problems:
        for p in problems:
            print(f"inconsistent: {p}", file=sys.stderr)
        sys.exit(EXIT_INTERNAL)
    print("report is self-consistent")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cardioseis", description="SCG heartbeat grouping by respiratory phase and lung volume.")
    commands = parser.add_subparsers(required=True)

    def command(func, **kwargs):
        sub = commands.add_parser(func.__name__, help=func.__doc__, description=func.__doc__,
                                  allow_abbrev=False, **kwargs)
        sub.set_defaults(command=func)
        return sub.add_argument

    option = command(run)
    option("--config", dest="config_path", metavar="PATH", help="Flat key=value config file.")
    option("--input", dest="inputs", metavar="PATH", action="append",
           help="Input recording CSV (repeatable; overrides config).")
    option("--out", dest="out_dir", metavar="PATH", help="Output directory.")
    option = command(synth, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    option("--seed", type=int, default=SynthConfig.seed, help="Random seed.")
    option("--coupling", choices=[c.value for c in Coupling], default=SynthConfig.coupling.value,
           help="What the beat morphology follows.")
    option("--out", dest="out_dir", metavar="PATH", default="synth_out", help="Output directory.")
    option("--duration", type=float, default=SynthConfig.duration_s, help="Recording length in seconds.")
    option("--fs", type=float, default=SynthConfig.fs, help="Sampling rate of the generated recording.")
    option("--snr", dest="snr_db", type=float, default=SynthConfig.snr_db, help="Signal-to-noise ratio, dB.")
    option = command(report)
    option("--check", dest="report_path", metavar="PATH", required=True,
           help="Report JSON to verify for RD self-consistency.")
    return parser


def main(argv=None):
    """The one error boundary: a failure prints `error: <message>` and exits with the code
    of the first class of its MRO in _EXIT_CODES; argparse's SystemExit passes it by."""
    try:
        try:
            args = vars(_parser().parse_args(argv))
            args.pop("command")(**args)
        finally:
            sys.stdout.flush()  # on every exit, --help's too: a closed stdout fails here
    except BrokenPipeError:  # stdout's reader left, as in `yes | head -1`: no error
        with contextlib.suppress(OSError):  # a captured stdout has no descriptor
            stdout = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), stdout)  # so the flush at exit is silent
        sys.exit(141)  # 128 + SIGPIPE, as a shell reports it
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(next(_EXIT_CODES[c] for c in type(exc).__mro__ if c in _EXIT_CODES))


# bench/run.py calls the CLI as click did, main.main(args=[...], standalone_mode=False)
main.main = lambda args, standalone_mode: main(args)


if __name__ == "__main__":
    main()
