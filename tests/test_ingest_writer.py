"""The block-formatted CSV writer against the row-at-a-time csv.writer loop
it replaced.

`loop_write_recording_csv` is that loop, kept here as the oracle: the new
writer must produce the same bytes for every input, including values the
pipeline itself never writes (nan, inf, subnormals, -0.0), however many
worker processes format the rows.
"""

import ast
import contextlib
import csv
import math
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cardioseis import csvrows, ingest
from cardioseis.ingest import CSV_BLOCK_ROWS, write_recording_csv
from cardioseis.signal_core import Recording


def loop_write_recording_csv(rec, path):
    """The writer as it was: one csv.writer row per sample."""
    scg, ecg, flow = rec["scg"], rec["ecg"], rec["flow"]
    n = len(scg)
    fs = scg.fs
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "scg_z", "ecg", "flow_lps"])
        for i in range(n):
            writer.writerow([
                "%.9g" % (i / fs),
                "%.9g" % scg.samples[i],
                "%.9g" % ecg.samples[i],
                "%.9g" % flow.samples[i],
            ])


@dataclass(frozen=True)
class RawChannel:
    """The part of Channel the writer reads, without Channel's refusal of
    non-finite samples, so the writer can be fed any float."""

    samples: np.ndarray
    fs: float

    def __len__(self):
        return len(self.samples)


def recording(columns, fs):
    scg, ecg, flow = (np.asarray(c, dtype=float) for c in columns)
    return Recording(channels={"scg": RawChannel(scg, fs), "ecg": RawChannel(ecg, fs),
                               "flow": RawChannel(flow, fs)})


def both_outputs(tmp_path, rec):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_recording_csv(rec, new)
    loop_write_recording_csv(rec, old)
    return new.read_bytes(), old.read_bytes()


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300,
           1.7976931348623157e308, math.nan, math.inf, -math.inf, 1 / 3, 123456789.5]
ANY_FLOAT = st.one_of(st.sampled_from(SPECIAL),
                      st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
RATES = st.one_of(st.sampled_from([1.0, 3.0, 320.0, 1000.0, 10000.0, 44100.0]),
                  st.floats(min_value=1e-3, max_value=1e6, allow_nan=False))


def columns(n):
    return st.tuples(*(hnp.arrays(np.float64, n, elements=ANY_FLOAT) for _ in range(3)))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(0, 40), fs=RATES)
def test_bytes_equal_loop(tmp_path_factory, data, n, fs):
    rec = recording(data.draw(columns(n)), fs)
    new, old = both_outputs(tmp_path_factory.mktemp("w"), rec)
    assert new == old


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(0, 30), block=st.integers(1, 7), fs=RATES)
def test_bytes_equal_loop_across_small_blocks(tmp_path_factory, data, n, block, fs):
    """Many block edges per file, so the time column is checked where a
    block starts past row 0."""
    rec = recording(data.draw(columns(n)), fs)
    with mock.patch.object(ingest, "CSV_BLOCK_ROWS", block):
        new, old = both_outputs(tmp_path_factory.mktemp("w"), rec)
    assert new == old


@pytest.mark.parametrize("n", [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1])
def test_bytes_equal_loop_at_block_edges(tmp_path, n):
    rng = np.random.default_rng(n)
    cols = rng.normal(0.0, 1.0, (3, n)) * 10.0 ** rng.integers(-12, 12, (3, n))
    new, old = both_outputs(tmp_path, recording(cols, 10000.0))
    assert new == old
    assert new.count(b"\r\n") == n + 1


@contextlib.contextmanager
def workers_seen(cores):
    """Record every worker process the writer starts, while the writer sees
    `cores` usable cores."""
    started = []
    popen = subprocess.Popen

    def spy(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    with mock.patch.object(subprocess, "Popen", spy), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cores))):
        yield started


@pytest.mark.parametrize("parts", [2, 3])
def test_bytes_equal_loop_in_parts(tmp_path, parts):
    n = 2 * CSV_BLOCK_ROWS + 1
    rng = np.random.default_rng(parts)
    cols = rng.normal(0.0, 1.0, (3, n)) * 10.0 ** rng.integers(-12, 12, (3, n))
    cols[:, :len(SPECIAL)] = SPECIAL  # in the first slice
    cols[:, -len(SPECIAL):] = SPECIAL  # in the last, which a worker formats
    with workers_seen(cores=parts) as started:
        new, old = both_outputs(tmp_path, recording(cols, 10000.37))
    assert len(started) == parts - 1
    assert new == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["new.csv", "old.csv"]


def test_one_block_starts_no_worker(tmp_path):
    cols = np.ones((3, CSV_BLOCK_ROWS))
    with workers_seen(cores=4) as started:
        new, old = both_outputs(tmp_path, recording(cols, 320.0))
    assert started == []
    assert new == old


def _stand_in_interpreter(tmp_path, script):
    """A shell script in place of the worker interpreter."""
    path = tmp_path / "python"
    path.write_text(f"#!/bin/sh\n{script}\n")
    path.chmod(0o755)
    return str(path)


def _write_failing(tmp_path, expected, stand_in=None):
    """Write 5 blocks in 3 parts; the write must raise `expected`, reap
    both workers and leave nothing in the directory but the CSV."""
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    rec = recording(np.zeros((3, 5 * CSV_BLOCK_ROWS)), 10000.0)
    with workers_seen(cores=3) as started, contextlib.ExitStack() as stack:
        if stand_in:
            stack.enter_context(mock.patch.object(
                sys, "executable", _stand_in_interpreter(tmp_path, stand_in)))
        with pytest.raises(expected):
            write_recording_csv(rec, out_dir / "rec.csv")
    assert len(started) == 2
    for proc in started:
        assert proc.returncode is not None
        with pytest.raises(ProcessLookupError):
            os.kill(proc.pid, 0)  # reaped, not only exited
    assert [p.name for p in out_dir.iterdir()] == ["rec.csv"]


@pytest.mark.parametrize("script", ["cat > /dev/null; exit 3", "exit 3"],
                         ids=["after reading", "without reading"])
def test_worker_exit_status_raises(tmp_path, script):
    _write_failing(tmp_path, OSError, script)


def test_interrupt_while_formatting_reaps_workers(tmp_path):
    with mock.patch.object(csvrows, "format_rows", side_effect=KeyboardInterrupt):
        _write_failing(tmp_path, KeyboardInterrupt)


def test_interrupt_while_feeding_kills_a_stuck_worker(tmp_path):
    """A worker that never reads blocks the writer on the full pipe; an
    interrupt then must kill it, not wait for it."""
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        _write_failing(tmp_path, KeyboardInterrupt, "exec sleep 60")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 30


def test_worker_module_imports_only_the_standard_library():
    tree = ast.parse(Path(csvrows.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "a relative import would load the package"
            imported.add(node.module.split(".")[0])
    assert imported and imported <= sys.stdlib_module_names
