"""CSV recording ingestion and emission.

One row per acquisition-rate sample, header required. The time, SCG and
flow columns are found by their fixed names (COLUMNS); any other column,
such as the ecg column that write_recording_csv adds, must parse as numbers
but is not kept.
"""

from __future__ import annotations

import contextlib
import csv
import io
import mmap
import os
import pickle
import re
import shutil
import tempfile
import warnings
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .errors import InputError, input_file
from .signal_core import Channel, Recording, Resampler

COLUMNS = {"time": "time_s", "scg": "scg_z", "flow": "flow_lps"}
TIME_TOLERANCE_FRAC = 0.1  # of one sample period
# lines parsed per block and rows formatted per write, which bounds the
# memory of ingest and of the writer; both split their work into parts
# (_parts) and fork a _Worker for each part after the first
CSV_BLOCK_ROWS = 65536
_CSV_HEADER = "{time},{scg},ecg,{flow}\r\n".format(**COLUMNS).encode()
_ROW = b"%.9g,%.9g,%.9g,%.9g\r\n"
_STORED = dict(zip(COLUMNS, range(len(COLUMNS))))  # a worker's stored row: time, SCG, flow
_LINE_END = re.compile(rb"\r\n?|\n")  # as text mode with newline="" ends a line


def ingest_csv(path, acquisition_fs: float, analysis_fs: float) -> Recording:
    """Read a recording sampled at acquisition_fs, validating as we go, and
    resample its SCG and flow to analysis_fs as signal_core.resample would.

    The header is the first line. The body is cut at line ends into one
    byte range per part (_parts). This process parses the first range and a
    forked worker each other one, CSV_BLOCK_ROWS file lines per np.loadtxt;
    a worker writes its rows into an anonymous shared mapping sized for the
    most rows its bytes could hold, and sends back only its row count and
    loadtxt's error, if any. Every row must have the header's field count, a
    timestamp within a tenth of a sample period of the uniform grid from
    the first one, and finite SCG and flow samples. This process checks its
    own blocks as it parses them, then each worker's rows, a block at a
    time, and feeds the SCG and flow of each checked block, in file order,
    to one signal_core.Resampler, freeing the worker's pages under each
    block once it is fed. So this process holds the SCG and flow at
    analysis_fs, one span of the resampler's input and a block or two,
    never a whole column at acquisition_fs; where the rates are equal, the
    columns are written once into room for the most rows the body's bytes
    could hold. The first faulty row, whatever the split, aborts the read
    with its file line, and no worker outlives the call.
    """
    path = Path(path)
    with input_file(path, "input file"), contextlib.ExitStack() as stack:
        cuts = _cuts(path)
        fh = stack.enter_context(_text(path, 0))
        first = fh.readline()  # the header is the first line
        if not first:
            raise InputError(f"{path}: empty file")
        header = [h.strip() for h in next(csv.reader([first]))]
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

        def most_rows(start, stop):
            """The most data rows that bytes [start, stop) could hold: a
            data row takes a byte for each field and each comma or line end."""
            return (stop - start) // (2 * len(header)) + 1

        def start_worker(start, stop):
            # pages never written take no memory
            buf = mmap.mmap(-1, 8 * len(_STORED) * most_rows(start, stop))
            stored = np.frombuffer(buf, dtype=float).reshape(-1, len(_STORED))  # a row per data row
            worker = _Worker(f"{path}: the worker parsing bytes {start} to {stop}", _parse_range,
                             path, start, stop, ref_row, stored, list(cols.values()))
            stack.callback(worker.stop)
            return worker, buf, stored

        out = Resampler(acquisition_fs, analysis_fs, most_rows(cuts[0], cuts[-1]), 2)
        workers = [start_worker(start, stop) for start, stop in zip(cuts[1:], cuts[2:])]
        t0 = None

        def check(block, where, row0):
            nonlocal t0
            fault = _fault(path, block, where, row0, t0, dt)
            if fault:
                raise fault
            if not row0:
                t0 = block[0, where["time"]]

        def take(block, row0):
            check(block, cols, row0)
            out.feed(block[:, [cols["scg"], cols["flow"]]])

        n, exc = _parse(_lines(fh, cuts[0], cuts[1]), ref_row, take)
        while workers and not exc:
            worker, buf, stored = workers.pop(0)
            rows, exc = worker.result()
            for s in range(0, rows, CSV_BLOCK_ROWS):
                e = min(s + CSV_BLOCK_ROWS, rows)
                check(stored[s:e], _STORED, n + s)
                out.feed(stored[s:e, 1:])
                _free(buf, s * stored.strides[0], e * stored.strides[0])
            n += rows
            del stored, buf  # what is left of the mapping goes with them
        if isinstance(exc, UnicodeDecodeError):
            raise exc
        if exc:
            raise _parse_error(path, str(exc), n,
                               lambda rows: _fault(path, rows, cols, n, t0, dt)) from None
    if not n:
        raise InputError(f"{path}: no data rows")
    resampled = out.result()
    return Recording(channels={role: Channel(resampled[k], float(analysis_fs), role)
                               for k, role in enumerate(("scg", "flow"))},
                     recording_id=path.stem)


def _free(buf, start: int, stop: int) -> None:
    """Free the pages of the shared mapping buf from the one that holds byte
    `start` to the last one that ends by byte `stop`, once every byte
    before `stop` is done with. MADV_REMOVE frees a shared page, where
    MADV_DONTNEED would only unmap it; where mmap has no MADV_REMOVE, the
    pages go with the mapping."""
    if hasattr(mmap, "MADV_REMOVE"):
        start -= start % mmap.PAGESIZE
        stop -= stop % mmap.PAGESIZE
        if stop > start:
            buf.madvise(mmap.MADV_REMOVE, start, stop - start)


def _parse(lines, ref_row: str, take):
    """Parse the text lines, CSV_BLOCK_ROWS at a time and each block after
    ref_row; take(block, row0) gets each block of data rows, row0 being the
    data row it starts at. Returns the rows taken and the ValueError, a
    decode error included, that stopped the parse at the block after them,
    or None."""
    n = 0
    try:
        for first in lines:
            block = np.loadtxt(chain((ref_row, first), islice(lines, CSV_BLOCK_ROWS - 1)),
                               delimiter=",", ndmin=2)[1:]
            if not len(block):  # blank and comment lines only
                continue
            take(block, n)
            n += len(block)
    except ValueError as exc:
        return n, exc
    return n, None


def _parse_range(path, start: int, stop: int, ref_row: str, out, keep):
    """A worker's _parse of bytes [start, stop) of the CSV at `path`: row i
    of out takes the columns `keep` of data row i."""
    def take(block, row0):
        out[row0:row0 + len(block)] = block[:, keep]

    with _text(path, start) as fh:
        return _parse(_lines(fh, start, stop), ref_row, take)


def _cuts(path) -> list[int]:
    """The byte offsets that split the CSV at `path` into its ranges: where
    the body starts, where each range after the first starts, and the end.
    The header is the first line."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        body = _line_start(fh, 1)
        parts = _parts(_count_lines(fh, body, size, (_usable_cores() - 1) * CSV_BLOCK_ROWS + 1))
        return ([body] + [_line_start(fh, body + j * (size - body) // parts) for j in range(1, parts)]
                + [size])


def _line_start(fh, pos: int) -> int:
    """The first line start at or after byte `pos` > 0 of the binary file
    fh, or where fh ends."""
    fh.seek(pos - 1)
    while chunk := fh.read(1 << 16):
        found = _LINE_END.search(chunk + fh.peek(1)[:1])  # a "\r\n" across the edge is one end
        if found:
            return fh.tell() - len(chunk) + found.end()
    return fh.tell()


def _count_lines(fh, pos: int, stop: int, enough: int | None = None) -> int:
    """The lines in bytes [pos, stop) of the binary file fh, counted 64 KiB
    at a time until the count reaches `enough`, if given."""
    n = 0
    while pos < stop and (enough is None or n < enough):
        end = _line_start(fh, min(pos + (1 << 16), stop))
        fh.seek(pos)
        chunk = np.frombuffer(fh.read(end - pos), np.uint8)
        lf, cr = chunk == ord("\n"), chunk == ord("\r")
        # a line ends at \n, \r\n or a lone \r, and the chunk at a line start:
        # a last byte that is no \n ends a line or the file's unended line
        n += np.count_nonzero(lf) + np.count_nonzero(cr[:-1] & ~lf[1:]) + (not lf[-1])
        pos = end
    return n


def _text(path, start: int):
    """The file at `path` from byte `start`, a line start, on, read as
    open(path, newline="", encoding="utf-8") reads it."""
    fh = open(path, "rb")
    fh.seek(start)
    return io.TextIOWrapper(fh, encoding="utf-8", newline="")


def _lines(fh, start: int, stop: int):
    """The lines of the text stream fh, which reads its file from byte
    `start`, up to byte `stop`, a line start or the file's end. Counted in
    bytes, a range that ends before the file does costs a pass over them;
    a raw stream that stops at `stop` would cost each line more."""
    if stop >= os.fstat(fh.fileno()).st_size:
        return fh
    with open(fh.buffer.name, "rb") as raw:
        return islice(fh, _count_lines(raw, start, stop))


class _Worker:
    """fn(*args) in a forked copy of this process, which sends its result
    back pickled through a pipe and leaves through os._exit on every path."""

    def __init__(self, name: str, fn, *args):
        self.name, self.status = name, None
        read, write = os.pipe()
        with warnings.catch_warnings():
            # Python 3.12 on warns of a fork while threads run, as numpy's
            # BLAS pool does; a worker only parses or formats text, without them
            warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                    DeprecationWarning)
            self.pid = os.fork()
        if not self.pid:
            code = 1
            try:
                os.close(read)
                with open(write, "wb") as out:
                    pickle.dump(fn(*args), out)
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        self.pipe = open(read, "rb")

    def result(self):
        """Wait for the worker; its result, or OSError if it has none."""
        data = self.pipe.read()
        self.status = os.waitpid(self.pid, 0)[1]
        if not data:
            raise OSError(f"{self.name} exited with status "
                          f"{os.waitstatus_to_exitcode(self.status)}")
        return pickle.loads(data)

    def stop(self) -> None:
        """Kill the worker unless it has been waited for, and wait for it."""
        self.pipe.close()
        if self.status is None:
            import signal  # here, so that importing the CLI does not pay for it
            os.kill(self.pid, signal.SIGKILL)
            self.status = os.waitpid(self.pid, 0)[1]


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


def _format_rows(values) -> bytes:
    """CSV rows of four fields each, from a flat sequence of floats."""
    return (_ROW * (len(values) // 4)) % tuple(values)


def write_recording_csv(rec: Recording, path):
    """Write a recording in the ingestible CSV format (%.9g precision),
    with the COLUMNS names and an ecg column after scg_z.

    The body is cut at CSV_BLOCK_ROWS edges into one contiguous slice per
    part (_parts). A forked worker formats each slice after the first into
    an anonymous file in the CSV's directory while this process formats the
    first into the CSV, CSV_BLOCK_ROWS rows per %-format; the workers' files
    are then appended in order. The bytes do not depend on the split. A
    worker that fails raises OSError, and no worker outlives the call.
    """
    scg, ecg, flow = rec["scg"], rec["ecg"], rec["flow"]
    n = len(scg)
    fs = scg.fs

    def write_rows(out, start, stop):
        for s in range(start, stop, CSV_BLOCK_ROWS):
            e = min(s + CSV_BLOCK_ROWS, stop)
            block = np.empty((e - s, 4))
            block[:, 0] = np.arange(s, e) / fs  # the same IEEE value as i / fs
            block[:, 1] = scg.samples[s:e]
            block[:, 2] = ecg.samples[s:e]
            block[:, 3] = flow.samples[s:e]
            out.write(_format_rows(block.ravel().tolist()))
        out.flush()  # a worker leaves through os._exit, which flushes nothing

    n_blocks = -(-n // CSV_BLOCK_ROWS)
    parts = _parts(n)
    edges = [min(n, j * n_blocks // parts * CSV_BLOCK_ROWS) for j in range(parts + 1)]
    path = Path(path)
    with contextlib.ExitStack() as stack, open(path, "wb") as fh:
        fh.write(_CSV_HEADER)
        workers = []
        for start, stop in zip(edges[1:], edges[2:]):
            out = stack.enter_context(tempfile.TemporaryFile(dir=path.parent))
            worker = _Worker(f"{path}: the worker formatting rows {start} to {stop}",
                             write_rows, out, start, stop)
            stack.callback(worker.stop)
            workers.append((worker, out))
        write_rows(fh, 0, edges[1])
        for worker, out in workers:
            worker.result()
            out.seek(0)
            shutil.copyfileobj(out, fh)


def _parts(lines: int) -> int:
    """The parts to split `lines` lines or rows into, each after the first
    for a forked _Worker: one per usable core, at most one per
    CSV_BLOCK_ROWS, at least one, and one where there is no os.fork."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(_usable_cores(), -(-lines // CSV_BLOCK_ROWS)))


def _usable_cores() -> int:
    """The cores this process may run on; every core where the platform
    has no affinity call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1

