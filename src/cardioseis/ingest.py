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
from .errors import InputError, input_file
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
    row, whatever the block size, aborts the read with its file line. Only
    contiguous copies of the SCG and flow columns outlive a block, so the
    whole table never exists.
    """
    path = Path(path)
    with input_file(path, "input file"), open(path, newline="", encoding="utf-8") as fh:
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
        n, t0 = 0, None
        for first in fh:
            try:
                block = np.loadtxt(chain((ref_row, first), islice(fh, CSV_BLOCK_ROWS - 1)),
                                   delimiter=",", ndmin=2)[1:]
            except ValueError as exc:
                if isinstance(exc, UnicodeDecodeError):
                    raise
                raise _parse_error(path, str(exc), n,
                                   lambda rows: _fault(path, rows, cols, n, t0, dt)) from None
            if not len(block):  # blank and comment lines only
                continue
            fault = _fault(path, block, cols, n, t0, dt)
            if fault:
                raise fault
            if not n:
                t0 = block[0, cols["time"]]
            for role, parts in kept.items():
                parts.append(block[:, cols[role]].copy())
            n += len(block)
    if not n:
        raise InputError(f"{path}: no data rows")
    channels = {}
    for role, parts in kept.items():  # one column at a time, freeing its parts
        channels[role] = Channel(np.concatenate(parts), acquisition_fs, role)
        parts.clear()
    return Recording(channels=channels, recording_id=path.stem)


def _fault(path, block, cols, row0: int, t0, dt: float) -> InputError | None:
    """The InputError for the first faulty row of a parsed block from data
    row `row0` on, or None; a block at row 0 sets t0. A NaN time is off the
    grid. At one row a bad time comes first, then a bad SCG sample."""
    t, scg, flow = (block[:, cols[role]] for role in ("time", "scg", "flow"))
    if not row0:
        t0 = t[0]
    expected = t0 + np.arange(row0, row0 + len(t)) * dt
    on_grid = np.abs(t - expected) <= TIME_TOLERANCE_FRAC * dt
    ok = on_grid & np.isfinite(scg) & np.isfinite(flow)
    if ok.all():
        return None
    row = int(np.argmin(ok))
    line = _file_line(path, row0 + row)
    if not on_grid[row]:
        return InputError(f"{path}: non-uniform timestamps, first offending row {line}: "
                          f"time {t[row]:.9g} s, expected {expected[row]:.9g} s at "
                          f"acquisition_fs = {1 / dt:.9g}")
    role = "scg" if not np.isfinite(scg[row]) else "flow"
    return InputError(f"{path}: non-finite {role} sample at row {line}")


def _parse_error(path, msg: str, row0: int, check) -> InputError:
    """The InputError for loadtxt's error `msg` on a block whose first data
    row is row `row0`. A fault that `check` finds in the rows before the one
    loadtxt names, parsed again on this path only, comes first. Else the
    error names the file line of that row, without the advice after it,
    which names no option of run. loadtxt counts the reference row too,
    from 1 in its column-count error and from 0 otherwise."""
    found = re.search(r"\bat row (\d+)(;.*)?", msg, flags=re.S)
    if not found:
        return InputError(f"{path}: could not parse data rows: {msg}")
    changed = re.search(r"changed from (\d+) to (\d+)", msg)
    row = row0 + int(found[1]) - (2 if changed else 1)
    if row > row0:
        before = (line for _, line in islice(_data_lines(path), row0, row))
        fault = check(np.loadtxt(before, delimiter=",", ndmin=2))
        if fault:
            return fault
    if changed and row == 0:
        return InputError(f"{path}: rows have {changed[2]} fields, header has {changed[1]}, "
                          f"at line {_file_line(path, 0)}")
    msg = f"{msg[:found.start()]}at line {_file_line(path, row)}{msg[found.end():]}"
    return InputError(f"{path}: could not parse data rows: {msg}")


def _data_lines(path):
    """(file line, text) of each line after the CSV's header that loadtxt
    counts as a row: all but those of only a line end or a comment."""
    with open(path, newline="", encoding="utf-8") as fh:
        next(fh, None)
        yield from ((n, line) for n, line in enumerate(fh, start=2)
                    if line.split("#", 1)[0].rstrip("\r\n"))


def _file_line(path, row: int) -> int:
    """1-based file line of zero-based data row `row`. A row past the end
    gets the line it would have if every line after the header were a row."""
    return next((n for n, _ in islice(_data_lines(path), row, None)), row + 2)


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
