import contextlib
import io
import os
import tracemalloc
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest

from cardioseis.cli import main
from cardioseis.config import PipelineConfig
from cardioseis.event_detection import detect_events, template_from_channel
from cardioseis.grouping import compare_criteria, screen_outliers
from cardioseis.respiration import integrate_flow, label_events
from cardioseis.signal_core import lowpass
from cardioseis.synth import SynthConfig, default_morphologies, gen_recording

DATA_DIR = Path(__file__).parent / "data"


class CliResult(NamedTuple):
    exit_code: int
    output: str  # stdout and stderr, in the order they were written


def invoke(args) -> CliResult:
    """`cardioseis <args>` in this process, through its one entry point."""
    output = io.StringIO()
    with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
        try:
            main(args)
            code = 0
        except SystemExit as exc:
            code = exc.code
    return CliResult(code, output.getvalue())


# the template length of run_synth_analysis, at the synth default rate
TEMPLATE_LENGTH = len(default_morphologies(SynthConfig().fs)[0])
# a damped 20 Hz burst of 80 samples, an SCG event at 320 Hz; read-only, as
# the test modules share it
BURST = np.sin(2 * np.pi * 20 * np.arange(80) / 320) * np.exp(-np.arange(80) / 16)
BURST.flags.writeable = False


def run_synth_analysis(coupling, seed, snr_db=20.0, screen=True):
    """Generate a recording and run the in-memory analysis chain on it.

    Returns (comparison, detected refs, ground truth, conditioned scg).
    """
    cfg = SynthConfig(coupling=coupling, seed=seed, snr_db=snr_db)
    rec, truth = gen_recording(cfg)
    scg = lowpass(rec["scg"], 100.0)
    length = len(default_morphologies(cfg.fs)[0])
    first = truth.beat_indices[0]
    tpl = template_from_channel(scg, (first - length // 2) / cfg.fs, length / cfg.fs)
    refs = detect_events(scg, tpl)
    kept = screen_outliers(refs, scg.samples, length)[0] if screen else refs
    flow = rec["flow"]
    comparison = compare_criteria(kept, *label_events(kept, flow.samples, integrate_flow(flow)),
                                  scg.samples, length)
    return comparison, refs, truth, scg


def sweep_recording(seed, coupling):
    """A recording and its config as the sweep-320 workload builds them."""
    cfg = SynthConfig(seed=seed, coupling=coupling)
    rec, truth = gen_recording(cfg)
    config = PipelineConfig(acquisition_fs=cfg.fs, analysis_fs=cfg.fs,
                            template_start_s=max(0.0, truth.beat_indices[0] / cfg.fs - 0.125),
                            template_length_s=0.25)
    return rec, config


def detection_scores(refs, truth, tol=2):
    """(recall, precision, max_ref_error) of detections vs ground truth."""
    beats = np.array(truth.beat_indices)
    if refs.size == 0:
        return 0.0, 0.0, np.inf
    hits = [np.abs(refs - b).min() for b in beats]
    recall = np.mean([h <= tol for h in hits])
    precision = np.mean([np.abs(beats - r).min() <= tol for r in refs])
    matched = [h for h in hits if h <= tol]
    return float(recall), float(precision), (max(matched) if matched else np.inf)


@contextlib.contextmanager
def forks_seen():
    """The pids of the workers that os.fork starts while the context is open."""
    pids, fork = [], os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    with mock.patch.object(os, "fork", spy):
        yield pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)  # reaped, not only exited


def traced_peak(fn, *args):
    """The peak of the memory that tracemalloc sees in fn(*args), and its result."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def traced_held(fn, *args):
    """The memory that tracemalloc sees fn(*args) leave held, and its result."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[0], result
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session", autouse=True)
def working_directory_stays_clean():
    """Fail the session if a visible name appears in the working directory
    while it runs. Hidden caches such as .pytest_cache and .hypothesis are
    ignored."""
    cwd = Path.cwd()

    def visible():
        return {p.name for p in cwd.iterdir() if not p.name.startswith(".")}

    before = visible()
    yield
    made = sorted(visible() - before)
    if made:
        pytest.fail(f"the tests left {made} in the working directory {cwd}")
