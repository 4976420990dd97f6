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
from itertools import chain, islice
from pathlib import Path

import numpy as np

from . import csvrows
from .errors import InputError
from .signal_core import Channel, Recording

COLUMNS = {"time": "time_s", "scg": "scg_z", "flow": "flow_lps"}
TIME_TOLERANCE_FRAC = 0.1  # of one sample period
# lines parsed per block and rows formatted per write, which bounds the
# memory of ingest and of the writer; the writer's slices, one per usable
# core, start at multiples of it
CSV_BLOCK_ROWS = 65536
_CSV_HEADER = "{time},{scg},ecg,{flow}\r\n".format(**COLUMNS).encode()


def ingest_csv(path, acquisition_fs: float) -> Recording:
    """Read a recording sampled at acquisition_fs, validating as we go.

    The body is parsed CSV_BLOCK_ROWS file lines at a time, and each block
    is checked before the next is read: every row has the header's field
    count, timestamps are uniform to within a tenth of a sample period of
    the first one, and no SCG or flow sample is NaN/Inf. The first faulty
    row aborts the read with its file line. Only contiguous copies of the
    SCG and flow columns outlive a block, so the whole table never exists.
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
        # parsed ahead of every block, so that loadtxt holds each row to the
        # header's field count; a column the header does not name would
        # shift the named ones
        ref_row = ",".join(["0"] * len(header)) + "\n"
        dt = 1.0 / acquisition_fs
        kept = {"scg": [], "flow": []}
        n = 0
        for first in fh:
            try:
                block = np.loadtxt(chain((ref_row, first), islice(fh, CSV_BLOCK_ROWS - 1)),
                                   delimiter=",", ndmin=2)[1:]
            except ValueError as exc:
                raise _parse_error(path, exc, n) from None
            if not len(block):  # blank and comment lines only
                continue
            t = block[:, cols["time"]]
            if not n:
                t0 = t[0]
            dev = np.abs(t - (t0 + np.arange(n, n + len(t)) * dt))
            if np.any(dev > TIME_TOLERANCE_FRAC * dt):
                row = n + int(np.argmax(dev > TIME_TOLERANCE_FRAC * dt))
                raise InputError(f"{path}: non-uniform timestamps, "
                                 f"first offending row {_file_line(path, row)}")
            for role, parts in kept.items():
                col = block[:, cols[role]]
                bad = ~np.isfinite(col)
                if np.any(bad):
                    row = n + int(np.flatnonzero(bad)[0])
                    raise InputError(f"{path}: non-finite {role} sample at row "
                                     f"{_file_line(path, row)}")
                parts.append(col.copy())
            n += len(block)
    if not n:
        raise InputError(f"{path}: no data rows")
    channels = {}
    for role, parts in kept.items():  # one column at a time, freeing its parts
        channels[role] = Channel(np.concatenate(parts), acquisition_fs, role)
        parts.clear()
    return Recording(channels=channels, recording_id=path.stem)


def _parse_error(path, exc: ValueError, row0: int) -> InputError:
    """The InputError for loadtxt's error on a block whose first data row is
    row `row0` of the body, parsed after the reference row.

    It names the file line instead of loadtxt's row, which loadtxt counts
    from 1 in its column-count error and from 0 otherwise, and drops the
    advice after it, which names no option of run.
    """
    msg = str(exc)
    changed = re.search(r"changed from (\d+) to (\d+) at row (\d+)", msg)
    if changed and row0 + int(changed[3]) == 2:
        return InputError(f"{path}: rows have {changed[2]} fields, header has {changed[1]}, "
                          f"at line {_file_line(path, 0)}")
    base = 2 if changed else 1
    msg = re.sub(r"\bat row (\d+)(;.*)?",
                 lambda m: f"at line {_file_line(path, row0 + int(m[1]) - base)}",
                 msg, flags=re.S)
    return InputError(f"{path}: could not parse data rows: {msg}")


def _file_line(path, row: int) -> int:
    """1-based file line of zero-based data row `row`, counted as loadtxt
    counts: after the header, skipping the lines that hold nothing but a
    line end or a comment. A row past the end gets the line it would have
    with no such lines."""
    with open(path, newline="") as fh:
        next(fh, None)
        data_lines = (n for n, line in enumerate(fh, start=2)
                      if line.split("#", 1)[0].rstrip("\r\n"))
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
