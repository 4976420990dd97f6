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
# bytes parsed per chunk and rows formatted per write, which bound the memory
# of each ingest process and of the writer; both split their work into
# parts (_parts) and fork _Workers: the reader one for each part where there
# are two or more, the writer one for each part after the first
CSV_BLOCK_BYTES = 1 << 19
CSV_BLOCK_ROWS = 16384
_CSV_HEADER = "{time},{scg},ecg,{flow}\r\n".format(**COLUMNS).encode()
_ROW = b"%.9g,%.9g,%.9g,%.9g\r\n"
_LINE_END = re.compile(rb"\r\n?|\n")  # as text mode with newline="" ends a line


def ingest_csv(path, acquisition_fs: float, analysis_fs: float, counts=None) -> Recording:
    """Read a recording sampled at acquisition_fs, validating as we go, and
    resample its SCG and flow to analysis_fs as signal_core.resample would.

    The header is the first line. Every row must have the header's field
    count, a timestamp within a tenth of a sample period of the uniform grid
    from the first one, t0, and finite SCG and flow samples. The body is cut
    at line ends into one byte range per part (_parts). A body of one range
    is read in this process; where there are two or more, a forked worker
    reads each of them, the first included (_read_range), so that this
    process, which goes on to analyse the recording, never holds a parse.
    Every range goes into the shared output of one signal_core.Resampler,
    so no row at acquisition_fs leaves the process that parsed it. At its
    peak each reading process holds a chunk and its rows, its resampler's
    span and the output it has written. A range places its first row on the
    grid by its time; this process confirms that place against the rows of
    the ranges before, or names that row as off the grid. The first faulty
    row, whatever the split, aborts the read with its file line, and no
    worker outlives the call. counts["csv_rows"] gets the data rows, and ["columns"] the header.
    """
    path = Path(path)
    with input_file(path, "input file"), contextlib.ExitStack() as stack:
        cuts = _cuts(path)
        with open(path, "rb") as fh:
            first = fh.read(cuts[0]).decode("utf-8")  # the header is the first line
        if not first:
            raise InputError(f"{path}: empty file")
        header = [h.strip() for h in next(csv.reader([first]))]
        cols = {}
        for role, name in COLUMNS.items():
            if name not in header:
                raise InputError(f"{path}:1: missing channel: {role}: "
                                 f"the header names {header}")
            if header.count(name) > 1:
                raise InputError(f"{path}: the header names {name} {header.count(name)} times")
            cols[role] = header.index(name)
        # parsed ahead of every chunk, so that loadtxt holds each row to the
        # header's field count; a column the header does not name would
        # shift the named ones
        ref_row = (",".join(["0"] * len(header)) + "\n").encode()
        dt = 1.0 / acquisition_fs
        t0 = _first_time(path, ref_row, cols["time"])
        # the most data rows that the body could hold: a data row takes at
        # least a byte for each field and each comma or line end, as ref_row
        most = (cuts[-1] - cuts[0]) // len(ref_row) + 1
        out = Resampler(acquisition_fs, analysis_fs, most, 2)

        def read(start, stop):
            return _read_range(path, start, stop, ref_row, cols, t0, dt, out,
                               most - (cuts[-1] - start) // len(ref_row) - 1)

        workers = []
        if len(cuts) > 2:  # two ranges or more: a worker each, so that this process holds no parse
            for start, stop in zip(cuts, cuts[1:]):
                worker = _Worker(f"{path}: the worker parsing bytes {start} to {stop}", read,
                                 start, stop)
                stack.callback(worker.stop)
                workers.append(worker)
        n = 0
        for row0, first_row, rows, fault in ((worker.result() for worker in workers) if workers
                                             else [read(cuts[0], cuts[1])]):
            if first_row is not None and row0 != n:  # so its first row is off the grid at row n
                raise _fault(path, first_row, cols, n, t0, dt)
            if isinstance(fault, (InputError, UnicodeDecodeError)):
                raise fault
            if fault:
                row = n + rows
                raise _parse_error(path, str(fault), row,
                                   lambda block: _fault(path, block, cols, row, t0, dt)) from None
            n += rows
    if not n:
        raise InputError(f"{path}: no data rows")
    if counts is not None:
        counts.update(csv_rows=n, columns=header)
    resampled = out.result(int(round(n * analysis_fs / acquisition_fs)))
    return Recording(channels={role: Channel(resampled[k], float(analysis_fs), role)
                               for k, role in enumerate(("scg", "flow"))},
                     recording_id=path.stem)


def _read_range(path, start: int, stop: int, ref_row: bytes, cols, t0: float, dt: float,
                out: Resampler, most: int):
    """Parse, check and resample the data rows in bytes [start, stop), line
    starts, of the CSV at `path`, a chunk at a time. The first row is
    global row round((t - t0) / dt), t being its time, if that lies in
    [0, most], where the rows from `start` on fit in out; its rows go to
    out.at(that row), and the rows past `stop` that their last outputs
    read are parsed and fed too, unchecked, as the ranges that hold them
    check them, until a piece of them does not parse. Returns that global
    row (-1 if none), the first row, the rows checked and the first fault:
    an InputError, or loadtxt's error on the chunk from the row after them."""
    keep = [cols["scg"], cols["flow"]]
    row0, first, n = -1, None, 0
    with open(path, "rb") as fh:
        fh.seek(start)
        for chunk in _chunks(fh, stop):
            try:
                block = _parse_chunk(chunk, ref_row)
            except ValueError as exc:  # a decode error too
                return row0, first, n, exc
            if not len(block):  # blank and comment lines only
                continue
            if first is None:
                first, at = block[:1].copy(), (block[0, cols["time"]] - t0) / dt
                if not 0 <= at <= most:  # NaN included
                    return row0, first, n, None
                row0 = round(at)
                out = out.at(row0)
            fault = _fault(path, block, cols, row0 + n, t0, dt)
            if fault:
                return row0, first, n, fault
            out.feed(block[:, keep])
            n += len(block)
        if first is not None:
            size = reach = os.fstat(fh.fileno()).st_size
            if want := out.wants(row0 + n):
                # the rows wanted and a quarter more, at the range's mean
                # bytes per row; whole chunks after them while rows are
                # still wanted
                reach = _line_start(fh, min(stop + 5 * want * (stop - start) // (4 * n), size))
                fh.seek(stop)
            for chunk in chain(_chunks(fh, reach), _chunks(fh, size)):
                if not (want := out.wants(row0 + n)):
                    break
                try:
                    block = _parse_chunk(chunk, ref_row)
                except ValueError:  # the range that holds the row names it
                    break
                rows = block[:want, keep]
                # nor is a NaN or inf fed, which would make NaNs of the sums it meets
                if len(bad := np.flatnonzero(~np.isfinite(rows).all(axis=1))):
                    out.feed(rows[:bad[0]])
                    break
                out.feed(rows)
            out.finish(row0 + n)
    return row0, first, n, None


def _chunks(fh, stop: int):
    """The bytes of the binary file fh from its position, a line start, to
    byte `stop`, a line start or its end, as chunks of about
    CSV_BLOCK_BYTES that each end at a line end."""
    while (pos := fh.tell()) < stop and (data := fh.read(min(CSV_BLOCK_BYTES, stop - pos))):
        # a "\r\n" cut in two adds a blank line, which is no row
        end = max(data.rfind(b"\n"), data.rfind(b"\r")) + 1 if pos + len(data) < stop else len(data)
        if not end:  # a line longer than a chunk: all of it
            end = min(_line_start(fh, pos + len(data)), stop) - pos
            fh.seek(pos)
            data = fh.read(end)
        fh.seek(pos + end)
        yield data[:end]


def _parse_chunk(chunk: bytes, ref_row: bytes) -> np.ndarray:
    """The data rows of a chunk of CSV lines, parsed by np.loadtxt after
    ref_row; its ValueError, a decode error included, on a fault. A line
    ends at "\n", "\r\n" or a lone "\r", as bytes.splitlines splits them;
    no UTF-8 sequence holds a "\n" or "\r" byte."""
    return np.loadtxt(chain([ref_row], chunk.splitlines()), delimiter=",", ndmin=2,
                      encoding="utf-8")[1:]


def _first_time(path, ref_row: bytes, time: int) -> float:
    """The time of data row 0; NaN if its line cannot be parsed, which the
    first range then names, or there is no row."""
    for _, line in islice(_data_lines(path), 1):
        with contextlib.suppress(ValueError):
            return _parse_chunk(line.encode(), ref_row)[0, time]
    return np.nan


def _cuts(path) -> list[int]:
    """The byte offsets that split the CSV at `path` into its ranges: where
    the body starts, where each range after the first starts, and the end.
    The header is the first line."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        body = _line_start(fh, 1)
        parts = _parts(size - body, CSV_BLOCK_BYTES)
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


class _Worker:
    """fn(*args) in a forked copy of this process, which sends its result
    back pickled through a pipe and leaves through os._exit on every path."""

    def __init__(self, name: str, fn, *args):
        self.name, self.status = name, None
        read, write = os.pipe()
        with warnings.catch_warnings():
            # Python 3.12 on warns of a fork while threads run, as numpy's
            # BLAS pool does; a worker parses, checks and resamples CSV text
            # or formats it, with numpy's loadtxt and element-wise
            # arithmetic, and calls nothing that uses BLAS (no @ or dot)
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
    row `row0` on, or None. A NaN time is off the grid, as is every time
    where t0, the time of row 0, is NaN. At one row a bad time comes first,
    then a bad SCG sample."""
    t, scg, flow = (block[:, cols[role]] for role in ("time", "scg", "flow"))
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
    counts as a row: all but those of only a line end or a comment. A byte
    that is not UTF-8 reads as U+FFFD, which no number holds; the chunks
    name such bytes."""
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
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
    with the COLUMNS names and an ecg column after scg_z: the spike train
    of rec.ecg_beats, 1 at each beat's row and 0 elsewhere, all 0 where
    the recording has no beats.

    The body is cut at CSV_BLOCK_ROWS edges into one contiguous slice per
    part (_parts). A forked worker formats each slice after the first into
    an anonymous file in the CSV's directory while this process formats the
    first into the CSV, CSV_BLOCK_ROWS rows per %-format; the workers' files
    are then appended in order. Each block builds its own rows of the ecg
    column from the beats, so no process holds the whole column. The bytes
    do not depend on the split. A worker that fails raises OSError, and no
    worker outlives the call.
    """
    scg, flow = rec["scg"], rec["flow"]
    beats = np.asarray(rec.ecg_beats, dtype=int)
    n = len(scg)
    fs = scg.fs

    def write_rows(out, start, stop):
        for s in range(start, stop, CSV_BLOCK_ROWS):
            e = min(s + CSV_BLOCK_ROWS, stop)
            block = np.zeros((e - s, 4))
            block[:, 0] = np.arange(s, e) / fs  # the same IEEE value as i / fs
            block[:, 1] = scg.samples[s:e]
            block[beats[(s <= beats) & (beats < e)] - s, 2] = 1.0
            block[:, 3] = flow.samples[s:e]
            out.write(_format_rows(block.ravel().tolist()))
        out.flush()  # a worker leaves through os._exit, which flushes nothing

    n_blocks = -(-n // CSV_BLOCK_ROWS)
    parts = _parts(n, CSV_BLOCK_ROWS)
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


def _parts(size: int, block: int) -> int:
    """The parts to split `size` bytes or rows into, for forked _Workers:
    one per usable core, at most one per `block`, at least one, and one
    where there is no os.fork."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(_usable_cores(), -(-size // block)))


def _usable_cores() -> int:
    """The cores this process may run on; every core where the platform
    has no affinity call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1

