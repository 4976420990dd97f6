"""Benchmark of the cardioseis analysis chain.

    python3 bench/run.py --workload <run-10k|sweep-320|synth-10k> --seed <n>
                         --seconds <s> --trace <0|1>

Run from the root of a source checkout. The program is imported from `src/`
and started as `python3 -m cardioseis.cli`; nothing is installed. Inputs are
generated from `--seed`. One operation runs at a time, from this process.
The last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are end to end; with
`--trace 1` they are per layer, from a separate traced run whose spans are
written to `bench/results/`. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
RESULTS = BENCH / "results"

# No process gets more BLAS/OpenMP threads than there are usable cores.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))
CHILD_TIMEOUT_S = 150.0

CLI_FS = 10000.0          # acquisition rate of the CLI workloads' recordings
CLI_DURATION_S = 120.0    # the `synth` default
SWEEP_SEEDS = 20          # recordings per coupling in the sweep
SWEEP_COUPLINGS = ("volume", "flow", "none")
SETUP_PASSES = {"run-10k": 2, "sweep-320": 3, "synth-10k": 3}

# Imports the CLI in a fresh interpreter and reports how long that took and
# how many scipy submodules it loaded.
PROBE = ("import json, sys, time\n"
         "t = time.perf_counter()\n"
         "import cardioseis.cli\n"
         "t = time.perf_counter() - t\n"
         "print(json.dumps({'import_s': t, 'scipy_modules': "
         "sum(m.startswith('scipy.') for m in sys.modules)}))\n")


class BenchError(Exception):
    """The benchmark cannot run: missing program or a failed set-up."""


# ---------------------------------------------------------------- helpers

def cli_args(*args) -> list[str]:
    return [sys.executable, "-m", "cardioseis.cli", *map(str, args)]


def run_child(args, log_path: Path) -> tuple[int, float, float]:
    """Run one child to completion. Returns (exit code, wall seconds, peak
    RSS in MB of that child alone, from its own rusage)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, stdout=log, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, env=CHILD_ENV, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def probe(work: Path) -> tuple[float, dict]:
    """Import the CLI in a fresh interpreter: (wall seconds, its report)."""
    log = work / "probe.log"
    code, wall, _ = run_child([sys.executable, "-c", PROBE], log)
    if code != 0:
        raise BenchError(f"importing cardioseis.cli failed:\n{log.read_text()}")
    return wall, json.loads(log.read_text().splitlines()[-1])


def truth_beats(directory: Path) -> list[int]:
    (path,) = directory.glob("*_truth.json")
    return json.loads(path.read_text())["beat_indices"]


def import_program() -> dict:
    """The program's modules that the benchmark calls or traces, by name."""
    sys.path.insert(0, str(SRC))
    from cardioseis import cli, config, grouping, pipeline, synth
    return {"cli": cli, "config": config, "grouping": grouping, "pipeline": pipeline,
            "synth": synth}


def cli_in_process(cli, args) -> int:
    """The work of one CLI command, in this process; returns its exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main.main(args=[str(a) for a in args], standalone_mode=False)
        except SystemExit as exc:
            return exc.code or 0
    return 0


class Outcome:
    """Attempted and failed operations and the problems the checks found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, label: str, problems: list[str]):
        self.problems += [f"{label}: {p}" for p in problems]


def timed_rounds(seconds: float, round_fn):
    """Call round_fn(i) for whole rounds until `seconds` have passed."""
    start = time.perf_counter()
    i = 0
    while True:
        round_fn(i)
        i += 1
        if time.perf_counter() - start >= seconds:
            return


# ---------------------------------------------------------------- run-10k

def synth_cli_args(seed: int, out: Path):
    return ("synth", "--seed", seed, "--coupling", "volume", "--fs", f"{CLI_FS:g}",
            "--out", out)


def run_10k(seed, seconds, work, outcome):
    """Cold `cardioseis run` subprocesses on two 120 s, 10 kHz recordings made
    by `cardioseis synth` during set-up, alternating between them."""
    setups, inputs = [], []
    for j in range(SETUP_PASSES["run-10k"]):
        out = work / f"input{j}"
        code, wall, _ = run_child(cli_args(*synth_cli_args(2 * seed + j, out)),
                                  work / "setup.log")
        if code != 0:
            raise BenchError(f"set-up synth exited {code}")
        setups.append(wall)
        inputs.append((out / "pipeline.cfg", len(truth_beats(out))))
    walls, rss = [], []
    out = work / "out"

    def one_round(_):
        for j, (cfg, n_beats) in enumerate(inputs):
            shutil.rmtree(out, ignore_errors=True)
            outcome.attempted += 1
            code, wall, peak = run_child(cli_args("run", "--config", cfg, "--out", out),
                                         work / "run.log")
            if code != 0:
                outcome.failed += 1
                continue
            walls.append(wall)
            rss.append(peak)
            outcome.check(f"run input{j}",
                          checks.check_report_json((out / "report.json").read_text(), n_beats))

    timed_rounds(seconds, one_round)
    return setups, walls, statistics.median(rss) if rss else None


def run_10k_traced(seed, seconds, work, outcome, tracer):
    mods = import_program()
    cli = mods["cli"]
    src = work / "input0"
    with tracing_if(True, tracer, "setup: synth", mods):
        if cli_in_process(cli, synth_cli_args(2 * seed, src)) != 0:
            raise BenchError("set-up synth failed")
    n_beats = len(truth_beats(src))
    out = work / "out"

    def one_op(traced: bool) -> float:
        shutil.rmtree(out, ignore_errors=True)
        outcome.attempted += 1
        t0 = time.perf_counter()
        with tracing_if(traced, tracer, "run", mods):
            code = cli_in_process(cli, ("run", "--config", src / "pipeline.cfg", "--out", out))
        wall = time.perf_counter() - t0
        if code != 0:
            outcome.failed += 1
        else:
            outcome.check("run", checks.check_report_json((out / "report.json").read_text(),
                                                          n_beats))
        return wall

    return traced_pairs(seconds, one_op)


# ---------------------------------------------------------------- sweep-320

def make_sweep(seed, mods):
    """The sweep's recordings, in memory: SWEEP_SEEDS seeds, each with every
    coupling, at the synth defaults (120 s, 320 Hz, 20 dB SNR)."""
    synth = mods["synth"]
    items = []
    for k in range(SWEEP_SEEDS):
        for coupling in SWEEP_COUPLINGS:
            cfg = synth.SynthConfig(seed=seed * SWEEP_SEEDS + k, coupling=synth.Coupling(coupling))
            rec, truth = synth.gen_recording(cfg)
            config = mods["config"].PipelineConfig(acquisition_fs=cfg.fs, analysis_fs=cfg.fs,
                                template_start_s=max(0.0, truth.beat_indices[0] / cfg.fs - 0.125),
                                template_length_s=0.25)
            labels = [(f.value, v.value) for f, v in zip(truth.flow_phase, truth.volume_phase)]
            items.append((coupling, rec, config, truth.beat_indices, labels))
    return items


def sweep_row(cmp) -> dict:
    """An analysis result in the report-row layout, without rounding."""
    return {
        "groups": [{"group": st.group_id, "n": st.n, "mean_dissim_same": st.mean_dissim_same,
                    "mean_dissim_alt": st.mean_dissim_alt, "rd": st.rd} for st in cmp.groups],
        "winners": {"inspiration_vs_llv": cmp.winner_insp_llv.value,
                    "expiration_vs_hlv": cmp.winner_exp_hlv.value},
    }


class Sweep:
    def __init__(self, items, pipeline, outcome):
        self.items = items
        self.pipeline = pipeline
        self.outcome = outcome
        self.wins = {c: {} for c in SWEEP_COUPLINGS}

    def analyze(self, idx: int) -> float | None:
        """Analyse one recording and check the result; None if it failed."""
        coupling, rec, config, beats, truth_labels = self.items[idx]
        self.outcome.attempted += 1
        t0 = time.perf_counter()
        try:
            cmp, ctx = self.pipeline.analyze_recording(rec, config)
        except Exception as exc:  # counted as a failed operation
            self.outcome.failed += 1
            print(f"failed: {rec.recording_id}: {exc!r}", file=sys.stderr)
            return None
        wall = time.perf_counter() - t0
        row = sweep_row(cmp)
        label = rec.recording_id
        self.outcome.check(label, checks.check_row(row, len(ctx["events"]), 1e-9))
        events = ctx["events"]
        refs = [ev.ref_index for ev in events]
        self.outcome.check(label, checks.check_detection(refs, beats, ctx["outliers_dropped"]))
        self.outcome.check(label, checks.check_labels(
            refs, [(ev.flow_phase.value, ev.volume_phase.value) for ev in events],
            beats, truth_labels))
        members = {st.group_id: [] for st in cmp.groups}
        for ev in events:
            members[ev.flow_phase.value].append(ev.window)
            members[ev.volume_phase.value].append(ev.window)
        self.outcome.check(label, checks.check_groups(
            coupling, {st.group_id: (st.n, st.ensemble_avg) for st in cmp.groups}, members))
        self.wins[coupling][idx] = checks.is_win(coupling, row)
        return wall

    def check_win_rates(self):
        self.outcome.check("sweep", checks.check_win_rates(
            {c: sum(w.values()) for c, w in self.wins.items()},
            {c: len(w) for c, w in self.wins.items()}))


def sweep_320(seed, seconds, work, outcome):
    """In-process analyze_recording over the in-memory sweep, one coupling
    triple (volume, flow, none) per round, cycling through the set."""
    mods = import_program()
    setups, items = [], None
    for _ in range(SETUP_PASSES["sweep-320"]):
        items = None
        t0 = time.perf_counter()
        probe(work)
        items = make_sweep(seed, mods)
        setups.append(time.perf_counter() - t0)
    sweep = Sweep(items, mods["pipeline"], outcome)
    walls = []
    per_round = len(SWEEP_COUPLINGS)
    n_rounds = len(items) // per_round

    def one_round(i):
        base = (i % n_rounds) * per_round
        for idx in range(base, base + per_round):
            wall = sweep.analyze(idx)
            if wall is not None:
                walls.append(wall)

    timed_rounds(seconds, one_round)
    sweep.check_win_rates()
    return setups, walls, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sweep_320_traced(seed, seconds, work, outcome, tracer):
    mods = import_program()
    with tracing_if(True, tracer, "setup: generate", mods):
        items = make_sweep(seed, mods)
    sweep = Sweep(items, mods["pipeline"], outcome)

    def one_op(traced: bool) -> float:
        t0 = time.perf_counter()
        with tracing_if(traced, tracer, "sweep", mods):
            for idx in range(len(items)):
                sweep.analyze(idx)
        return time.perf_counter() - t0

    result = traced_pairs(seconds, one_op)
    sweep.check_win_rates()
    return result


# ---------------------------------------------------------------- synth-10k

def synth_10k(seed, seconds, work, outcome):
    """Cold `cardioseis synth --fs 10000` subprocesses, all with the same
    seed; set-up warms the interpreter and page cache with fresh-interpreter
    imports of the CLI. The first output is checked against closed forms,
    later ones must be byte-identical to it."""
    setups = [probe(work)[0] for _ in range(SETUP_PASSES["synth-10k"])]
    walls, rss, digests = [], [], []
    out = work / "synth"

    def one_round(_):
        shutil.rmtree(out, ignore_errors=True)
        outcome.attempted += 1
        code, wall, peak = run_child(cli_args(*synth_cli_args(seed, out)), work / "synth.log")
        if code != 0:
            outcome.failed += 1
            return
        walls.append(wall)
        rss.append(peak)
        digest = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        if not digests:
            outcome.check("synth", check_synth_output(out))
        elif digest != digests[0]:
            outcome.problems.append("synth: output differs from the first run with the same seed")
        digests.append(digest)

    timed_rounds(seconds, one_round)
    shutil.rmtree(out, ignore_errors=True)
    return setups, walls, statistics.median(rss) if rss else None


def check_synth_output(out: Path) -> list[str]:
    (csv_path,) = out.glob("*.csv")
    (truth_path,) = out.glob("*_truth.json")
    return checks.check_synth_csv(csv_path, truth_path, CLI_DURATION_S, CLI_FS)


def synth_10k_traced(seed, seconds, work, outcome, tracer):
    mods = import_program()
    out = work / "synth"

    def one_op(traced: bool) -> float:
        shutil.rmtree(out, ignore_errors=True)
        outcome.attempted += 1
        t0 = time.perf_counter()
        with tracing_if(traced, tracer, "synth", mods):
            code = cli_in_process(mods["cli"], synth_cli_args(seed, out))
        wall = time.perf_counter() - t0
        if code != 0:
            outcome.failed += 1
        else:
            outcome.check("synth", check_synth_output(out))
        return wall

    return traced_pairs(seconds, one_op)


# ---------------------------------------------------------------- measurement

WORKLOADS = {
    "run-10k": (run_10k, run_10k_traced),
    "sweep-320": (sweep_320, sweep_320_traced),
    "synth-10k": (synth_10k, synth_10k_traced),
}


def tracing_if(traced: bool, tracer, label: str, mods):
    """Within the block, spans go to a new pass of `tracer` if `traced`."""
    if not traced:
        return contextlib.nullcontext()
    tracer.new_pass(label)
    return tracer.patched(mods)


def traced_pairs(seconds, one_op):
    """Alternate untraced and traced operations, in pairs whose order flips,
    until `seconds` have passed. Returns (median untraced, median traced)."""
    walls = {False: [], True: []}

    def one_pair(i):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            walls[traced].append(one_op(traced))

    timed_rounds(seconds, one_pair)
    return statistics.median(walls[False]), statistics.median(walls[True])


def end_to_end(workload, seed, seconds, work, outcome) -> dict:
    setups, walls, rss = WORKLOADS[workload][0](seed, seconds, work, outcome)
    if not walls:
        raise BenchError("no operation succeeded")
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


def per_layer(workload, seed, seconds, work, outcome) -> dict:
    probes = [probe(work)[1] for _ in range(3)]
    tracer = Tracer()
    untraced, traced = WORKLOADS[workload][1](seed, seconds, work, outcome, tracer)
    RESULTS.mkdir(exist_ok=True)
    dump = tracer.dump()
    values = tracer.metrics()
    values["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
    values["cli.scipy_modules"] = statistics.median(p["scipy_modules"] for p in probes)
    values["trace.untraced_op_s"] = untraced
    values["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    dump["metrics"] = values
    (RESULTS / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(dump) + "\n")
    units = {"cli.scipy_modules": "count", "ingest.rows_read": "count",
             "ingest.bytes_written": "B", "event_detection.events": "count",
             "signal_core.best_lag_calls": "count", "grouping.outliers_dropped": "count",
             "trace.overhead_pct": "%"}
    return {name: {"value": v, "unit": units.get(name, "s")} for name, v in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cardioseis" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'cardioseis'}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    outcome = Outcome()
    try:
        measure = per_layer if args.trace else end_to_end
        metrics = measure(args.workload, args.seed, args.seconds, work, outcome)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in outcome.problems[:20]:
        print(f"incorrect: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not outcome.problems, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if not outcome.problems else 1


if __name__ == "__main__":
    sys.exit(main())
