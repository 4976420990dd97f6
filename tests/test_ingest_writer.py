"""The block-formatted CSV writer against the row-at-a-time csv.writer loop
it replaced.

`loop_write_recording_csv` is that loop, kept here as the oracle: the new
writer must produce the same bytes for every input, including values the
pipeline itself never writes (nan, inf, subnormals, -0.0), however many
parts the rows are cut into. Each part after the first is formatted by a
worker that the writer forks, as ingest_csv forks its readers: the tests
count the forks, fail a worker and interrupt the writer, and no worker may
outlive the call or leave a file behind.
"""

import contextlib
import csv
import math
import os
import signal
import time
import warnings
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import assert_reaped, forks_seen

from cardioseis import ingest
from cardioseis.ingest import CSV_BLOCK_ROWS, ingest_csv, write_recording_csv
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
    """Record every worker the writer forks, while the writer sees `cores`
    usable cores."""
    with forks_seen() as pids, \
            mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cores))):
        yield pids


@pytest.mark.parametrize("parts", [2, 3])
def test_bytes_equal_loop_in_parts(tmp_path, parts):
    n = 2 * CSV_BLOCK_ROWS + 1
    rng = np.random.default_rng(parts)
    cols = rng.normal(0.0, 1.0, (3, n)) * 10.0 ** rng.integers(-12, 12, (3, n))
    cols[:, :len(SPECIAL)] = SPECIAL  # in the first slice
    cols[:, -len(SPECIAL):] = SPECIAL  # in the last, which a worker formats
    with workers_seen(cores=parts) as pids:
        new, old = both_outputs(tmp_path, recording(cols, 10000.37))
    assert len(pids) == parts - 1
    assert_reaped(pids)
    assert new == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["new.csv", "old.csv"]


def test_one_block_starts_no_worker(tmp_path):
    cols = np.ones((3, CSV_BLOCK_ROWS))
    with workers_seen(cores=4) as pids:
        new, old = both_outputs(tmp_path, recording(cols, 320.0))
    assert pids == []
    assert new == old


def test_no_fork_writes_in_one_part(tmp_path, monkeypatch):
    monkeypatch.delattr(os, "fork")
    rng = np.random.default_rng(3)
    with mock.patch.object(ingest, "CSV_BLOCK_ROWS", 4), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1, 2}):
        new, old = both_outputs(tmp_path, recording(rng.normal(size=(3, 12)), 320.0))
    assert new == old


def test_forks_pass_under_the_python_3_12_fork_warning(tmp_path):
    """Python 3.12 on warns, after os.fork in a process that runs threads,
    as numpy's BLAS pool does; pytest.ini makes the warning an error. Here
    os.fork warns so on every Python, before it forks, so that a fork
    without the workers' filter fails without leaving a child."""
    fork = os.fork

    def warning_fork():
        warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                      "may lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return fork()

    rec = recording(np.random.default_rng(5).normal(size=(3, 12)), 320.0)
    with mock.patch.object(ingest, "CSV_BLOCK_ROWS", 4), \
            mock.patch.object(os, "fork", warning_fork), workers_seen(cores=2) as pids:
        new, old = both_outputs(tmp_path, rec)
        read = ingest_csv(tmp_path / "new.csv", 320.0, 320.0)
    assert len(pids) == 2  # one worker writes, one reads
    assert_reaped(pids)
    assert new == old
    whole = np.loadtxt(tmp_path / "new.csv", delimiter=",", skiprows=1)
    assert np.array_equal(read["scg"].samples, whole[:, 1])


def _write_failing(tmp_path, format_rows, expected, match=None):
    """Write 5 blocks in 3 parts with `format_rows` in place of the
    writer's; the write must raise `expected`, with a message that `match`
    finds if given, reap both workers and leave nothing in the directory
    but the CSV."""
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    rec = recording(np.zeros((3, 5 * CSV_BLOCK_ROWS)), 10000.0)
    with workers_seen(cores=3) as pids, mock.patch.object(ingest, "_format_rows", format_rows), \
            pytest.raises(expected, match=match):
        write_recording_csv(rec, out_dir / "rec.csv")
    assert len(pids) == 2
    assert_reaped(pids)
    assert [p.name for p in out_dir.iterdir()] == ["rec.csv"]


def in_workers(fn):
    """_format_rows in this process, and fn in place of it in a worker."""
    parent, format_rows = os.getpid(), ingest._format_rows
    return lambda values: format_rows(values) if os.getpid() == parent else fn()


def test_worker_exit_status_raises(tmp_path):
    _write_failing(tmp_path, in_workers(lambda: os._exit(3)), OSError,
                   r"rec\.csv: the worker formatting rows \d+ to \d+ exited with status 3$")


def test_interrupt_while_formatting_reaps_workers(tmp_path):
    _write_failing(tmp_path, mock.Mock(side_effect=KeyboardInterrupt), KeyboardInterrupt)


def test_interrupt_while_waiting_kills_a_stuck_worker(tmp_path):
    """A worker that never finishes blocks the writer in worker.result();
    an interrupt then must kill it, not wait for it."""
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        _write_failing(tmp_path, in_workers(lambda: time.sleep(60)), KeyboardInterrupt)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 30
