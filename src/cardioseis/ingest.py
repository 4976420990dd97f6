"""CSV recording ingestion and emission.

One row per acquisition-rate sample, header required. The time, SCG and
flow columns are found by their fixed names (COLUMNS); any other column,
such as the ecg column that write_recording_csv adds, must parse as numbers
but is not kept.
"""

from __future__ import annotations

import contextlib
import csv
import os
import re
import shutil
import sys
import tempfile
from itertools import islice
from pathlib import Path

import numpy as np

from . import csvrows
from .errors import InputError
from .signal_core import Channel, Recording

COLUMNS = {"time": "time_s", "scg": "scg_z", "flow": "flow_lps"}
TIME_TOLERANCE_FRAC = 0.1  # of one sample period
# rows formatted per write, which bounds the writer's memory; the writer's
# slices, one per usable core, start at multiples of it
CSV_BLOCK_ROWS = 65536
_CSV_HEADER = "{time},{scg},ecg,{flow}\r\n".format(**COLUMNS).encode()


def ingest_csv(path, acquisition_fs: float) -> Recording:
    """Read a recording sampled at acquisition_fs, validating as we go.

    Timestamps must be uniform to within a tenth of a sample period; any
    NaN/Inf sample aborts with its row index.
    """
    path = Path(path)
    if not path.is_file():
        raise InputError(f"input file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        cols = {}
        for role, name in COLUMNS.items():
            if name not in header:
                raise InputError(f"missing channel: {role}")
            if header.count(name) > 1:
                raise InputError(f"{path}: the header names {name} {header.count(name)} times")
            cols[role] = header.index(name)
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            # name the file line instead of loadtxt's data row, which it
            # counts from 1 in its column-count error and from 0 otherwise,
            # and drop the advice after it, which names no option of run
            msg = str(exc)
            base = 1 if "number of columns changed" in msg else 0
            msg = re.sub(r"\bat row (\d+)(;.*)?",
                         lambda m: f"at line {_file_line(path, int(m.group(1)) - base)}",
                         msg, flags=re.S)
            raise InputError(f"{path}: could not parse data rows: {msg}") from None
    if data.size == 0:
        raise InputError(f"{path}: no data rows")
    if data.shape[1] != len(header):
        # a column the header does not name would shift the named ones
        raise InputError(f"{path}: rows have {data.shape[1]} fields, header has {len(header)}")

    t = data[:, cols["time"]]
    dt = 1.0 / acquisition_fs
    expected = t[0] + np.arange(len(t)) * dt
    dev = np.abs(t - expected)
    if np.any(dev > TIME_TOLERANCE_FRAC * dt):
        row = int(np.argmax(dev > TIME_TOLERANCE_FRAC * dt))
        raise InputError(f"{path}: non-uniform timestamps, "
                         f"first offending row {_file_line(path, row)}")

    channels = {}
    for role in ("scg", "flow"):
        col = data[:, cols[role]]
        bad = ~np.isfinite(col)
        if np.any(bad):
            row = int(np.flatnonzero(bad)[0])
            raise InputError(f"{path}: non-finite {role} sample at row {_file_line(path, row)}")
        channels[role] = Channel(col, acquisition_fs, role)
    return Recording(channels=channels, recording_id=path.stem)


def _file_line(path, row: int) -> int:
    """1-based file line of zero-based data row `row`, counted as loadtxt
    counts: after the header, skipping blank and comment-only lines. A row
    past the end gets the line it would have with no such lines."""
    with open(path, newline="") as fh:
        next(fh, None)
        data_lines = (n for n, line in enumerate(fh, start=2) if line.split("#", 1)[0].strip())
        return next(islice(data_lines, row, None), row + 2)


def write_recording_csv(rec: Recording, path):
    """Write a recording in the ingestible CSV format (%.9g precision),
    with the COLUMNS names and an ecg column after scg_z.

    The body is cut at CSV_BLOCK_ROWS edges into one contiguous slice per
    usable core, at most one per block. This process formats the first
    slice into the file, CSV_BLOCK_ROWS rows per %-format, while each other
    slice goes as raw float64 rows to a csvrows worker interpreter, which
    formats it the same way into an anonymous file in the CSV's directory;
    those files are then appended in order. The bytes do not depend on the
    split. A worker that fails raises OSError, and no worker outlives the
    call.
    """
    scg, ecg, flow = rec["scg"], rec["ecg"], rec["flow"]
    n = len(scg)
    fs = scg.fs

    def blocks(start, stop):
        for s in range(start, stop, CSV_BLOCK_ROWS):
            e = min(s + CSV_BLOCK_ROWS, stop)
            block = np.empty((e - s, 4))
            block[:, 0] = np.arange(s, e) / fs  # the same IEEE value as i / fs
            block[:, 1] = scg.samples[s:e]
            block[:, 2] = ecg.samples[s:e]
            block[:, 3] = flow.samples[s:e]
            yield block

    n_blocks = -(-n // CSV_BLOCK_ROWS)
    parts = max(1, min(_usable_cores(), n_blocks))
    edges = [min(n, j * n_blocks // parts * CSV_BLOCK_ROWS) for j in range(parts + 1)]
    path = Path(path)
    with contextlib.ExitStack() as stack, open(path, "wb") as fh:
        fh.write(_CSV_HEADER)
        workers = []
        if parts > 1:
            import subprocess  # here, so that importing the CLI does not pay for it
            # every worker starts before any is fed, so their start-ups overlap
            for start, stop in zip(edges[1:], edges[2:]):
                out = stack.enter_context(tempfile.TemporaryFile(dir=path.parent))
                proc = subprocess.Popen(
                    [sys.executable, "-I", "-S", csvrows.__file__,
                     str(4 * (stop - start)), str(CSV_BLOCK_ROWS)],
                    stdin=subprocess.PIPE, stdout=out)
                stack.callback(_reap, proc)
                workers.append((proc, out, start, stop))
        for proc, _, start, stop in workers:
            for block in blocks(start, stop):
                proc.stdin.write(block)
            proc.stdin.close()
        for block in blocks(0, edges[1]):
            fh.write(csvrows.format_rows(block.ravel().tolist()))
        for proc, out, _, _ in workers:
            if proc.wait() != 0:
                raise OSError(f"{path}: the worker formatting a slice of the rows "
                              f"exited with status {proc.returncode}")
            out.seek(0)
            shutil.copyfileobj(out, fh)


def _usable_cores() -> int:
    """The cores this process may run on; every core where the platform
    has no affinity call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _reap(proc) -> None:
    """Stop a worker that still runs and wait for it."""
    proc.kill()  # does nothing once the worker has been waited for
    proc.wait()
    with contextlib.suppress(BrokenPipeError):  # rows left in the pipe's buffer
        proc.stdin.close()
