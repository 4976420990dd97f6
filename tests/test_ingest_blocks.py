"""Block-wise, multi-process CSV ingest against a whole-file parse, and the
memory it saves.

ingest_csv cuts the body into byte ranges, one per usable core and at most
one per CSV_BLOCK_BYTES bytes, and each process parses, checks and
resamples its range in chunks of about CSV_BLOCK_BYTES bytes: a body of
one range in this process, and each range of two or more in a forked
worker, so that this process parses no range of a split body. With the
block size patched small and two usable cores, its columns must equal a
whole-file np.loadtxt bit for bit wherever the block edges and the cut
fall, every fault must name the file line that an unsplit parse names,
and no worker may outlive the call. Resampled as they are read, the
columns must equal, bit for bit, the whole columns resampled after the
read. The output of every resampler lives in a shared mapping, which
tracemalloc does not see, so the memory bounds of ingest, of its workers
and of run_pipeline read the resident set of a fresh interpreter; numpy
reports its other buffers to tracemalloc, so the bound of resample, which
counts its working buffers but not its output, is deterministic.
"""

import contextlib
import hashlib
import tempfile
import mmap
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_reaped, forks_seen, traced_peak

from cardioseis import ingest, signal_core
from cardioseis.config import PipelineConfig
from cardioseis.errors import InputError
from cardioseis.ingest import ingest_csv, write_recording_csv
from cardioseis.pipeline import run_pipeline
from cardioseis.signal_core import Channel, resample
from cardioseis.synth import SynthConfig, gen_recording

ROW = 66  # bytes in a data row of data_rows, about
B = 4 * ROW  # the patched block size in bytes, about four data rows
FS = 320.0
HEADER = "time_s,scg_z,ecg,flow_lps"
UNSPLIT = 10**9


def data_rows(n, seed=0, fs=FS):
    vals = np.random.default_rng(seed).standard_normal((n, 3)).tolist()
    return [f"{i / fs:.9g},{a!r},{e!r},{f!r}" for i, (a, e, f) in enumerate(vals)]


def write_csv(path, body, final_newline=True, eol="\r\n"):
    path.write_text(eol.join([HEADER] + body) + (eol if final_newline else ""), newline="")
    return path


@contextlib.contextmanager
def split(block, cores=2):
    """ingest_csv with blocks of `block` bytes and `cores` usable cores; a
    block of UNSPLIT bytes makes one range of one chunk."""
    with mock.patch.object(ingest, "CSV_BLOCK_BYTES", block), \
            mock.patch.object(ingest, "_usable_cores", lambda: cores):
        yield


def ingest_with_blocks(path, block):
    with split(block):
        return ingest_csv(path, FS, FS)


def error_with_blocks(path, block):
    with pytest.raises(InputError) as info, split(block):
        ingest_csv(path, FS, FS)
    return str(info.value)


def mapping_of(samples):
    """What a column is a view of, through every array between."""
    while isinstance(samples, np.ndarray) and samples.base is not None:
        samples = samples.base
    return samples.obj if isinstance(samples, memoryview) else samples


def assert_equal_whole_file(rec, path):
    whole = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert rec["scg"].samples.tobytes() == whole[:, 1].tobytes()
    assert rec["flow"].samples.tobytes() == whole[:, 3].tobytes()
    for name in ("scg", "flow"):
        assert rec[name].samples.flags.c_contiguous
        # a view of the room that both columns are written into once, never
        # of a parsed block
        assert mapping_of(rec[name].samples) is mapping_of(rec["scg"].samples)
        assert isinstance(mapping_of(rec[name].samples), mmap.mmap)


# body lines that are no data row, each at a body-line index; with blocks
# of about four rows, indices 3, 4, 7 and 8 sit near block edges, and 4-7
# fill about a whole block
LAYOUTS = {
    "plain": [],
    "at edges": [(3, ""), (4, "# note"), (7, "#"), (8, "")],
    "blank block": [(4, ""), (5, "# a"), (6, ""), (7, "# b")],
    "leading": [(0, ""), (1, "# before the data")],
}


@pytest.mark.parametrize("eol", ["\r\n", "\n"])
@pytest.mark.parametrize("final_newline", [True, False])
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("n", [3, 4, 5, 11, 12, 13])
def test_columns_equal_whole_file_loadtxt(tmp_path, n, layout, final_newline, eol):
    body = data_rows(n, seed=n)
    for at, text in LAYOUTS[layout]:
        body.insert(min(at, len(body)), text)
    path = write_csv(tmp_path / "rec.csv", body, final_newline, eol)
    assert_equal_whole_file(ingest_with_blocks(path, B), path)


def off_grid(t, expected):
    """The end of the message for a row at time t that the grid puts at
    `expected`, naming its file line L."""
    return (f"first offending row {{L}}: time {t:.9g} s, expected {expected:.9g} s at "
            f"acquisition_fs = {FS:g}")


def fault(kind, row):
    """The line that replaces data row `row`, and the end of the message
    that names its file line L."""
    t = f"{row / FS:.9g}"
    return {
        "parse": (f"{t},abc,0,0", "'abc' to float64 at line {L}, column 2."),
        "wide": (f"{t},0,0,0,0", "changed from 4 to 5 at line {L}"),
        "short": (f"{t},0,0", "changed from 4 to 3 at line {L}"),
        "nan scg": (f"{t},nan,0,0", "non-finite scg sample at row {L}"),
        "inf flow": (f"{t},0,0,inf", "non-finite flow sample at row {L}"),
        "late time": (f"{(row + 0.5) / FS:.9g},0,0,0", off_grid((row + 0.5) / FS, row / FS)),
        # a NaN first time puts the whole grid at NaN
        "nan time": ("nan,0,0,0", off_grid(np.nan, row / FS if row else np.nan)),
        # far past the rows that the file's bytes could hold
        "far time": ("1000000,0,0,0", off_grid(1e6, row / FS)),
    }[kind]


# the body opens with a blank and a comment line, so data row r sits on
# body line r + 2 and file line r + 4; with blocks of about four rows, 2
# and 6 open a block, 5 closes one, and 12 and 13 lie in the last block
@pytest.mark.parametrize("row", [0, 2, 5, 6, 12, 13])
@pytest.mark.parametrize("kind", ["parse", "wide", "short", "nan scg", "inf flow", "late time",
                                  "nan time"])
def test_fault_names_the_line_of_an_unsplit_parse(tmp_path, kind, row):
    n = 14
    body = ["", "# recorded at 320 Hz"] + data_rows(n)
    body[row + 2], tail = fault(kind, row)
    path = write_csv(tmp_path / "bad.csv", body)
    line = row + 4
    if kind == "late time" and row == 0:
        line += 1  # the first time sets the grid, so the next row is off it
        tail = off_grid(1 / FS, 1.5 / FS)
    elif kind in ("wide", "short") and row == 0:
        tail = f"rows have {5 if kind == 'wide' else 3} fields, header has 4, at line {{L}}"
    split, unsplit = error_with_blocks(path, B), error_with_blocks(path, UNSPLIT)
    assert split == unsplit
    assert split.endswith(tail.format(L=line)), split


# (earlier, later) data rows, laid out as above: 1 closes the first block
# and 2 opens the next; 2 and 5 open and close one block; 5 and 6 straddle
# a block edge
@pytest.mark.parametrize("rows", [(1, 2), (2, 5), (5, 6)])
@pytest.mark.parametrize("later", ["parse", "wide", "short", "late time", "nan scg"])
@pytest.mark.parametrize("earlier", ["nan scg", "inf flow", "late time", "nan time"])
def test_the_earlier_of_two_faults_is_named(tmp_path, earlier, later, rows):
    body = ["", "# recorded at 320 Hz"] + data_rows(14)
    body[rows[0] + 2], tail = fault(earlier, rows[0])
    body[rows[1] + 2] = fault(later, rows[1])[0]
    path = write_csv(tmp_path / "bad.csv", body)
    split, unsplit = error_with_blocks(path, B), error_with_blocks(path, UNSPLIT)
    assert split == unsplit
    assert split.endswith(tail.format(L=rows[0] + 4)), split


@pytest.mark.parametrize("line, named", [pytest.param("nan,nan,0,inf",
                                                      off_grid(np.nan, 1 / FS).format(L=3),
                                                      id="nan,nan,0,inf-first offending row 3"),
                                         ("{t},nan,0,inf", "non-finite scg sample at row 3")])
def test_one_row_names_time_then_scg_then_flow(tmp_path, line, named):
    body = data_rows(3)
    body[1] = line.format(t=1 / FS)
    path = write_csv(tmp_path / "bad.csv", body)
    assert error_with_blocks(path, B).endswith(named)


# ---- the cut between the first range and the second

W = 80  # characters in a padded line, its line end excluded


def padded(line):
    """`line` with a trailing comment that makes it W characters wide."""
    return (line + "#").ljust(W, "-")


def cut_at(path):
    """The byte where the second range starts, with B-byte blocks on two cores."""
    with split(B):
        return ingest._cuts(path)[1]


def rows_before_cut(path):
    """The data rows that the first range holds."""
    lines = path.read_bytes()[:cut_at(path)].decode().splitlines()[1:]
    return sum(1 for line in lines if line.split("#", 1)[0])


def padded_body(n=14):
    """A blank and a comment line, then n padded data rows: data row r is
    on file line r + 4 and every data row has the same width, so a fault
    that replaces one leaves the cut where it was."""
    return ["", "# recorded at 320 Hz"] + [padded(row) for row in data_rows(n)]


def with_fault(tmp_path, body, kind, row, name="bad.csv"):
    """`body` with data row `row` replaced by a padded fault of `kind`,
    written out; and the end of the message that names it."""
    body = list(body)
    line, tail = fault(kind, row)
    body[row + 2] = padded(line)
    return write_csv(tmp_path / name, body), tail.format(L=row + 4)


KINDS = ["parse", "wide", "short", "nan scg", "inf flow", "late time", "nan time", "far time"]


@pytest.mark.parametrize("side", [-2, -1, 0, 1])  # from the first row of the second range
@pytest.mark.parametrize("kind", KINDS)
def test_fault_on_either_side_of_the_cut_names_the_line_of_an_unsplit_parse(tmp_path, kind,
                                                                             side):
    first = rows_before_cut(write_csv(tmp_path / "clean.csv", padded_body()))
    path, tail = with_fault(tmp_path, padded_body(), kind, first + side)
    assert rows_before_cut(path) == first
    split_, unsplit = error_with_blocks(path, B), error_with_blocks(path, UNSPLIT)
    assert split_ == unsplit
    assert split_.endswith(tail), split_


@pytest.mark.parametrize("jump", [1e6, -1.0])
def test_a_second_range_that_starts_off_the_file_names_its_first_row(tmp_path, jump):
    # every row of the second range keeps the grid, but from a time jumped
    # past the rows that the body could hold, or before the first row:
    # its place from its time would lie outside the output
    first = rows_before_cut(write_csv(tmp_path / "clean.csv", padded_body()))
    body = padded_body()[:first + 2] + [padded(f"{jump + r / FS!r},0,0,0")
                                        for r in range(first, 14)]
    path = write_csv(tmp_path / "bad.csv", body)
    assert rows_before_cut(path) == first
    split_, unsplit = error_with_blocks(path, B), error_with_blocks(path, UNSPLIT)
    assert split_ == unsplit
    assert split_.endswith(off_grid(jump + first / FS, first / FS).format(L=first + 4))


@pytest.mark.parametrize("later", ["parse", "wide", "nan scg", "late time"])
@pytest.mark.parametrize("earlier", ["parse", "short", "inf flow", "nan time"])
@pytest.mark.parametrize("rows", [(1, 1), (-1, 0), (-1, 2)])  # earlier, later, as above
def test_a_fault_in_the_first_range_wins(tmp_path, earlier, later, rows):
    first = rows_before_cut(write_csv(tmp_path / "clean.csv", padded_body()))
    earlier_row, later_row = rows[0] % first, first + rows[1]
    body = padded_body()
    body[later_row + 2] = padded(fault(later, later_row)[0])
    path, tail = with_fault(tmp_path, body, earlier, earlier_row)
    assert rows_before_cut(path) == first
    split_, unsplit = error_with_blocks(path, B), error_with_blocks(path, UNSPLIT)
    assert split_ == unsplit
    assert split_.endswith(tail), split_


# rows enough that a decode chunk of the text layer (8 KiB) holds a small
# part of each range
LONG = 600


def undecodable(path, row):
    """Make the padding of data row `row` end in a byte that is not UTF-8."""
    text = padded(data_rows(LONG)[row]).encode()
    path.write_bytes(path.read_bytes().replace(text, text[:-1] + b"\xff"))


def one_range_error(path):
    with pytest.raises(InputError) as info, split(B, cores=1):
        ingest_csv(path, FS, FS)
    return str(info.value)


@pytest.mark.parametrize("earlier", ["parse", "short", "inf flow", "nan time"])
def test_a_fault_in_the_first_range_wins_over_an_undecodable_line(tmp_path, earlier):
    # one block of every line would decode the whole file before it checks a
    # row, so the oracle is one range of B-byte blocks
    first = rows_before_cut(write_csv(tmp_path / "clean.csv", padded_body(LONG)))
    path, tail = with_fault(tmp_path, padded_body(LONG), earlier, 1)
    undecodable(path, first + 2)
    assert rows_before_cut(path) == first
    split_ = error_with_blocks(path, B)
    assert split_ == one_range_error(path)
    assert split_.endswith(tail), split_


@pytest.mark.parametrize("side", [0, 1, 5])
def test_undecodable_line_in_the_second_range_is_named_by_its_line(tmp_path, side):
    path = write_csv(tmp_path / "bad.csv", padded_body(LONG))
    first = rows_before_cut(path)
    undecodable(path, first + side)
    assert rows_before_cut(path) == first
    named = f"{path}:{first + side + 4}: not UTF-8 text (invalid start byte)"
    for block in (B, UNSPLIT):
        assert error_with_blocks(path, block) == named
    assert one_range_error(path) == named


def write_cut_between(path, left, right, eol, final_newline):
    """Write a CSV whose body is the (line, end) pairs of `left` and then of
    `right`, with the comment of a line of the shorter side lengthened so
    that the cut falls between them."""
    left, right = list(left), list(right)
    if not final_newline:
        right[-1] = (right[-1][0], "")
    weight = (sum(len(line + end) for line, end in left)
              - sum(len(line + end) for line, end in right))
    side = right if weight > 0 else left
    at = next(i for i, (line, _) in enumerate(side) if "#" in line)
    side[at] = (side[at][0] + "-" * abs(weight), side[at][1])
    path.write_text(HEADER + eol + "".join(line + end for line, end in left + right), newline="")
    assert cut_at(path) == len(HEADER + eol) + sum(len(line + end) for line, end in left)
    return path


# (lines before the cut, lines after it); "rows" stands for padded data rows
CUT_LAYOUTS = {
    "blank before": (["rows", ""], ["rows"]),
    "comment before": (["rows", "# c"], ["rows"]),
    "blank after": (["rows"], ["", "rows"]),
    "comment after": (["rows"], ["# c", "rows"]),
    "lone cr before": (["rows", "# c\r"], ["rows"]),
    "no data before": (["# before the data", ""], ["rows", "rows"]),
}


@pytest.mark.parametrize("eol", ["\r\n", "\n", "\r"])
@pytest.mark.parametrize("final_newline", [True, False])
@pytest.mark.parametrize("layout", CUT_LAYOUTS)
def test_columns_at_the_cut_equal_whole_file_loadtxt(tmp_path, layout, final_newline, eol):
    rows = iter(padded(row) for row in data_rows(16))

    def lines(spec):
        out = []
        for line in spec:
            # a "\r" that ends a line is its line end
            out += ([(next(rows), eol) for _ in range(8)] if line == "rows" else
                    [(line[:-1], "\r")] if line.endswith("\r") else [(line, eol)])
        return out

    path = write_cut_between(tmp_path / "rec.csv", *map(lines, CUT_LAYOUTS[layout]), eol,
                             final_newline)
    assert_equal_whole_file(ingest_with_blocks(path, B), path)


def test_a_worker_row_sets_t0_when_the_first_range_holds_no_row(tmp_path):
    before = [("# " + "-" * (6 * W), "\r\n")]
    after = [(padded(row), "\r\n") for row in data_rows(8)]
    path = write_cut_between(tmp_path / "rec.csv", before, after, "\r\n", True)
    assert rows_before_cut(path) == 0
    assert_equal_whole_file(ingest_with_blocks(path, B), path)
    path.write_bytes(path.read_bytes().replace(after[1][0].encode(),
                                               padded(fault("late time", 1)[0]).encode()))
    assert error_with_blocks(path, B) == error_with_blocks(path, UNSPLIT)
    assert error_with_blocks(path, B).endswith(
        off_grid(1.5 / FS, 1 / FS).format(L=4))


# ---- split invariance, as a property

# (acquisition_fs, analysis_fs): 10 kHz to 320 Hz is 4/125, 10000.37 Hz to
# 320 Hz is 215/6719, and at equal rates the rows are the output
RATES = [(10_000.0, 320.0), (10_000.37, 320.0), (FS, FS)]


def faulty(kind, row, fs):
    """The line that replaces data row `row` of a body at `fs`."""
    t = f"{row / fs:.9g}"
    return {"parse": f"{t},abc,0,0", "wide": f"{t},0,0,0,0", "short": f"{t},0,0",
            "nan scg": f"{t},nan,0,0", "inf flow": f"{t},0,0,inf",
            "late time": f"{(row + 0.5) / fs:.9g},0,0,0", "nan time": "nan,0,0,0",
            "far time": "1000000,0,0,0"}[kind]


def outcome(path, rates, block, cores):
    """The SCG and flow bytes that ingest_csv reads, or its error message."""
    try:
        with split(block, cores):
            rec = ingest_csv(path, *rates)
    except InputError as exc:
        return str(exc)
    return [rec[name].samples.tobytes() for name in ("scg", "flow")]


# up to 600 rows on up to four cores put every cut within the filter's
# reach of the next cut and of the file's ends at both ratios (at least
# 657 rows), and blocks from 20 bytes hold from one line to some 60;
# and an inf in the rows that the first range reads past its cut for its
# last outputs, which the second range names
@settings(max_examples=30, deadline=None)
@example(rates=RATES[0], n=2, seed=0, others=[], eol="\r\n", final_newline=False, cores=2,
         block=20, bad=(1, "inf flow"))
@given(rates=st.sampled_from(RATES), n=st.integers(1, 600), seed=st.integers(0, 2**16),
       others=st.lists(st.tuples(st.integers(0, 600), st.sampled_from(["", "# note", "#"])),
                       max_size=8),
       eol=st.sampled_from(["\r\n", "\n", "\r"]), final_newline=st.booleans(),
       cores=st.integers(1, 4), block=st.integers(20, 4000),
       bad=st.none() | st.tuples(st.integers(0, 599), st.sampled_from(KINDS)))
def test_a_split_read_equals_an_unsplit_one(rates, n, seed, others, eol, final_newline, cores,
                                           block, bad):
    fs = rates[0]
    body = data_rows(n, seed, fs)
    if bad:
        body[bad[0] % n] = faulty(bad[1], bad[0] % n, fs)
    for at, text in others:
        body.insert(min(at, len(body)), text)
    with tempfile.TemporaryDirectory() as tmp, forks_seen() as pids:
        path = write_csv(Path(tmp) / "rec.csv", body, final_newline, eol)
        assert outcome(path, rates, block, cores) == outcome(path, rates, UNSPLIT, 1)
    assert_reaped(pids)


# ---- the workers

# blocks of 170, 512 and 1000 rows put the edge between the two ranges'
# outputs at as many places in a page of the shared room
@pytest.mark.parametrize("block", [170, 512, 1000])
def test_ranges_meet_in_the_shared_room(tmp_path, block):
    body = data_rows(20 * block)
    path = write_csv(tmp_path / "rec.csv", body)
    assert_equal_whole_file(ingest_with_blocks(path, block * ROW), path)
    for kind in ("late time", "nan scg"):
        bad, end = fault(kind, len(body) - 1)
        path = write_csv(tmp_path / "bad.csv", body[:-1] + [bad])
        assert error_with_blocks(path, block * ROW) == error_with_blocks(path, UNSPLIT)
        assert error_with_blocks(path, block * ROW).endswith(end.format(L=len(body) + 1))


@pytest.mark.parametrize("eol", ["\r\n", "\n", "\r"])
@pytest.mark.parametrize("cores, blocks, workers", [(4, 1, 0), (1, 3, 0), (4, 1.1, 2),
                                                    (2, 3, 2), (4, 3, 3)])
def test_one_worker_per_core_and_at_most_one_per_block(tmp_path, cores, blocks, workers, eol):
    path = write_csv(tmp_path / "rec.csv", data_rows(12), eol=eol)
    body = path.stat().st_size - len(HEADER + eol)
    with split(int(-(-body // blocks)), cores), forks_seen() as pids:
        rec = ingest_csv(path, FS, FS)
    assert len(pids) == workers
    assert_reaped(pids)
    assert_equal_whole_file(rec, path)


def test_one_block_starts_no_worker_and_no_fork_none(tmp_path, monkeypatch):
    path = write_csv(tmp_path / "rec.csv", data_rows(12))
    monkeypatch.delattr(os, "fork")
    with split(B, cores=4):
        assert_equal_whole_file(ingest_csv(path, FS, FS), path)


@pytest.mark.parametrize("raised", [KeyboardInterrupt, InputError])
def test_fault_in_the_first_range_reaps_workers(tmp_path, raised):
    # a NaN first time places no range, so this process names row 0 where
    # it places the first range, both workers started
    body = data_rows(12)
    body[0] = faulty("nan time", 0, FS)
    path = write_csv(tmp_path / "rec.csv", body)
    with split(B), forks_seen() as pids, \
            mock.patch.object(ingest, "_fault", side_effect=raised("x")), pytest.raises(raised):
        ingest_csv(path, FS, FS)
    assert len(pids) == 2
    assert_reaped(pids)


def test_fault_from_the_first_worker_reaps_the_other(tmp_path):
    path = write_csv(tmp_path / "rec.csv", data_rows(12))
    with split(B), forks_seen() as pids, \
            mock.patch.object(ingest, "_fault", return_value=InputError("x")), \
            pytest.raises(InputError, match="^x$"):
        ingest_csv(path, FS, FS)
    assert len(pids) == 2
    assert_reaped(pids)


def in_workers(fn):
    """_read_range in this process, and fn in place of it in a worker."""
    parent, read_range = os.getpid(), ingest._read_range
    return lambda *args: read_range(*args) if os.getpid() == parent else fn()


def test_interrupt_while_waiting_kills_a_stuck_worker(tmp_path):
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    path = write_csv(tmp_path / "rec.csv", data_rows(12))
    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        with split(B), forks_seen() as pids, pytest.raises(KeyboardInterrupt), \
                mock.patch.object(ingest, "_read_range", in_workers(lambda: time.sleep(60))):
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            ingest_csv(path, FS, FS)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 30
    assert len(pids) == 2
    assert_reaped(pids)


@pytest.mark.parametrize("fail, status", [(lambda: 1 / 0, 1),
                                          (lambda: os.kill(os.getpid(), signal.SIGKILL),
                                           -signal.SIGKILL)], ids=["raises", "killed"])
def test_worker_without_a_result_raises_oserror(tmp_path, fail, status):
    path = write_csv(tmp_path / "rec.csv", data_rows(12))
    with split(B), forks_seen() as pids, \
            mock.patch.object(ingest, "_read_range", in_workers(fail)), \
            pytest.raises(OSError, match=rf"the worker parsing bytes \d+ to \d+ exited with "
                                         rf"status {status}$"):
        ingest_csv(path, FS, FS)
    assert_reaped(pids)


def test_header_is_the_first_line(tmp_path):
    # a quoted line end does not carry the header on: the cuts and every
    # line number count the header as line 1
    path = tmp_path / "rec.csv"
    path.write_text('time_s,scg_z,"e\r\ncg",flow_lps\r\n' + "\r\n".join(data_rows(3)),
                    newline="")
    for block in (B, UNSPLIT):
        assert error_with_blocks(path, block) == \
            f"{path}:1: missing channel: flow: the header names ['time_s', 'scg_z', 'e']"


def test_blank_lines_only_is_no_data_without_a_warning(tmp_path):
    path = write_csv(tmp_path / "empty.csv", ["", "# nothing", ""] * B)
    for block in (B, UNSPLIT):
        assert error_with_blocks(path, block).endswith("no data rows")


def test_whitespace_line_is_a_row_as_loadtxt_counts_it(tmp_path):
    # loadtxt skips a line only when a comment or the line end is all it
    # holds, so a line of spaces is a (ragged) row
    body = data_rows(3)
    body.insert(1, "   ")
    path = write_csv(tmp_path / "bad.csv", body)
    assert error_with_blocks(path, B).endswith("changed from 4 to 1 at line 3")


STATUS = Path("/proc/self/status")
PEAK = """
def status(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith(key + ":"))
{setup}
before = status("VmRSS")
{call}
print(status("VmHWM") - before)
"""


def resident_peak(setup, call):
    """The bytes that the source `call` adds to the resident set at its
    peak: VmHWM after it less VmRSS before, in a fresh interpreter that has
    run the source `setup` first."""
    if not STATUS.exists():
        pytest.skip("no /proc/self/status")
    src = Path(ingest.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", PEAK.format(setup=setup, call=call)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def test_ingest_peak_is_the_kept_columns_and_a_few_blocks(tmp_path):
    block = 4096
    n = 300_000
    path = write_csv(tmp_path / "rec.csv", data_rows(n))
    warm = write_csv(tmp_path / "warm.csv", data_rows(3 * block))
    # two cores, and a first read that loads the code the measured one runs
    setup = ("from unittest import mock\n"
             "from cardioseis import ingest\n"
             f"mock.patch.object(ingest, 'CSV_BLOCK_BYTES', {block * ROW}).start()\n"
             "mock.patch.object(ingest, '_usable_cores', lambda: 2).start()\n"
             f"ingest.ingest_csv({str(warm)!r}, {FS}, {FS})")
    peak = resident_peak(setup, f"rec = ingest.ingest_csv({str(path)!r}, {FS}, {FS})")
    kept = 2 * n * 8  # the SCG and flow columns
    worker = 3 * (n // 2) * 8  # the time, SCG and flow rows of the worker's half
    # the whole table alone is twice the kept columns; the worker's rows,
    # held until every one of them is placed, would add 3/4 of them
    assert peak < kept + worker / 2, (peak, kept)


def test_a_worker_peak_is_its_columns_and_a_few_blocks(tmp_path):
    block = 4096
    n = 300_000
    path = write_csv(tmp_path / "rec.csv", data_rows(n))
    warm = write_csv(tmp_path / "warm.csv", data_rows(3 * block))
    report = tmp_path / "workers"
    report.mkdir()
    # as in the test above; each worker writes what it adds to its resident
    # set at its peak, read in the worker: VmHWM after its range less VmRSS
    # before it, less the pages of files, such as numpy's code, that it maps
    # back in after the fork; to a file named for its CSV and its range
    setup = ("import os\n"
             "from unittest import mock\n"
             "from cardioseis import ingest\n"
             f"mock.patch.object(ingest, 'CSV_BLOCK_BYTES', {block * ROW}).start()\n"
             "mock.patch.object(ingest, '_usable_cores', lambda: 2).start()\n"
             "parent, read_range = os.getpid(), ingest._read_range\n"
             "def measured(*args):\n"
             "    if os.getpid() == parent:\n"
             "        return read_range(*args)\n"
             "    before, files = status('VmRSS'), status('RssFile')\n"
             "    result = read_range(*args)\n"
             f"    with open(f'{report}/{{args[0].stem}}-{{args[1]}}', 'w') as fh:\n"
             "        fh.write(str(status('VmHWM') - before - (status('RssFile') - files)))\n"
             "    return result\n"
             "mock.patch.object(ingest, '_read_range', measured).start()\n"
             f"ingest.ingest_csv({str(warm)!r}, {FS}, {FS})")
    resident_peak(setup, f"rec = ingest.ingest_csv({str(path)!r}, {FS}, {FS})")
    peaks = [int(p.read_text()) for p in sorted(report.glob("rec-*"))]
    assert len(peaks) == 2  # the first range's worker and the second's
    kept = 2 * n * 8  # the SCG and flow columns
    # its half of the columns, which it writes into the shared room, and a
    # few chunks; its rows with their times, as workers once kept them,
    # would be 3/4 of the columns, which with the same chunks breaks it
    assert max(peaks) < kept / 2 + 6 * block * ROW, (peaks, kept)


def test_ingest_room_takes_memory_as_written(tmp_path):
    block = 1024  # rows in a chunk, which is small beside the columns
    n = 20_000
    path = write_csv(tmp_path / "rec.csv", data_rows(n))
    warm = write_csv(tmp_path / "warm.csv", data_rows(3 * block))
    setup = ("from unittest import mock\n"
             "from cardioseis import ingest\n"
             f"mock.patch.object(ingest, 'CSV_BLOCK_BYTES', {block * ROW}).start()\n"
             "mock.patch.object(ingest, '_usable_cores', lambda: 2).start()\n"
             f"ingest.ingest_csv({str(warm)!r}, {FS}, {FS})")
    peak = resident_peak(setup, f"rec = ingest.ingest_csv({str(path)!r}, {FS}, {FS})")
    kept = 2 * n * 8  # the SCG and flow columns
    # the room has space for the most rows the bytes could hold, about 8.6
    # times these; if it took memory whole, it alone would break the bound
    assert peak < 3 * kept, (peak, kept)


def test_this_process_parses_no_range_of_a_split_body(tmp_path):
    # 20,000 rows at 10 kHz, some 1.3 MB, make two ranges of 512 KiB chunks
    # on two cores, resampled by 4/125; a worker reads each, the first too
    path = write_csv(tmp_path / "rec.csv", data_rows(20_000, fs=10_000.0))
    parent, parse = os.getpid(), ingest._parse_chunk
    parsed = []

    def parse_spy(chunk, ref_row):
        block = parse(chunk, ref_row)
        if os.getpid() == parent:
            parsed.append(len(block))
        return block

    with mock.patch.object(ingest, "_usable_cores", lambda: 2), forks_seen() as pids, \
            mock.patch.object(ingest, "_parse_chunk", parse_spy):
        assert len(ingest._cuts(path)) == 3
        peak, rec = traced_peak(ingest_csv, path, 10_000.0, 320.0)
    assert parsed == [1]  # the row of _first_time, which sets t0
    assert len(pids) == 2
    assert_reaped(pids)
    assert len(rec["scg"]) == 640
    # the first range parsed here would hold a chunk and its rows, and the
    # resampler's span; most of what is left is the design of the kernel
    assert peak < ingest.CSV_BLOCK_BYTES, peak


def test_resample_peak_is_one_span_and_the_output():
    x = Channel(np.random.default_rng(0).standard_normal(1_200_000), 10_000.0)
    down = 125  # 10 kHz to 320 Hz is 4/125
    n_out = 38_400
    peak, out = traced_peak(resample, x, 320.0)
    # the by-column buffer of a span and of the few rows of down inputs
    # that its last taps read past it, the accumulator and one product; a
    # copy of the whole of x would break it
    span = 8 * (signal_core._RESAMPLE_SPAN + 10 * down)
    assert span < x.samples.nbytes / 2
    assert peak < span + 4 * 8 * n_out + 2**16, (peak, span)
    # the output, which tracemalloc does not see, is a view of the room
    assert len(out) == n_out
    assert isinstance(mapping_of(out.samples), mmap.mmap)


def ten_khz_runs(tmp_path):
    """Write 10 kHz synth CSVs: "warm", 10 s, and "a" and "b", the same
    30 s. Returns the rows of "a", and a function that gives the source of
    a run_pipeline call on the CSVs it names, preceded by a run on "warm",
    which loads the code that the later run needs."""
    paths = {}
    for stem, duration in (("warm", 10.0), ("a", 30.0)):
        cfg = SynthConfig(seed=2, fs=10_000.0, duration_s=duration)
        rec, truth = gen_recording(cfg)
        paths[stem] = tmp_path / f"{stem}.csv"
        write_recording_csv(rec, paths[stem])
    paths["b"] = tmp_path / "b.csv"
    paths["b"].write_bytes(paths["a"].read_bytes())
    base = PipelineConfig(acquisition_fs=cfg.fs, analysis_fs=320.0,
                          template_start_s=truth.beat_indices[0] / cfg.fs - 0.125,
                          template_length_s=0.25)

    def run(*stems):
        config = replace(base, inputs=tuple(str(paths[s]) for s in stems),
                         out_dir=str(tmp_path / "-".join(stems)))
        return f"run_pipeline({config!r})"

    setup = ("from cardioseis.config import PipelineConfig\n"
             "from cardioseis.pipeline import run_pipeline\n" + run("warm"))
    return len(rec["scg"]), setup, run


def test_run_pipeline_holds_one_recording_at_a_time(tmp_path):
    rows, setup, run = ten_khz_runs(tmp_path)
    one, two = resident_peak(setup, run("a")), resident_peak(setup, run("a", "b"))
    kept = 2 * rows * 8  # one recording's SCG and flow at 10 kHz
    assert two <= one + kept // 4, (one, two, kept)


def test_run_pipeline_holds_no_10_khz_column(tmp_path):
    rows, setup, run = ten_khz_runs(tmp_path)
    # two cores, blocks of 4,096 lines and spans of 2^15 inputs, so that a
    # block and the resampler's buffer are small beside the columns
    setup = ("from unittest import mock\n"
             "from cardioseis import ingest, signal_core\n"
             f"mock.patch.object(ingest, 'CSV_BLOCK_BYTES', {4096 * ROW}).start()\n"
             "mock.patch.object(ingest, '_usable_cores', lambda: 2).start()\n"
             "mock.patch.object(signal_core, '_RESAMPLE_SPAN', 1 << 15).start()\n" + setup)
    peak = resident_peak(setup, run("a"))
    columns = 2 * rows * 8  # the SCG and flow at 10 kHz
    assert peak < columns, (peak, columns)


# SHA-256 of the SCG and of the flow samples at 320 Hz, from a 20 s synth
# CSV at each acquisition rate; 10000.37 Hz resamples by 215/6719
RESAMPLED = {
    10000.0: ("79df73d2ac6f51c1897f6b53d85e6b06b738755a760d0ce23ce3f703daea368c",
              "0cff67cf2471150f9bf66166c10f2a3e64903e1e8463621d02e1133daa1eba9d"),
    10000.37: ("4f125060063cf31bd41d822057fbf83b97259c983cef279c337d13e8ece96277",
               "62826e2111f848e4bf6e380b0a8a355b06c222d3533bcfd0d4718cc564e42f43"),
}


@pytest.mark.parametrize("fs", RESAMPLED)
def test_resampled_columns_pinned(tmp_path, fs):
    rec, _ = gen_recording(SynthConfig(seed=19, fs=fs, duration_s=20.0))
    path = tmp_path / "rec.csv"
    write_recording_csv(rec, path)
    # 128 KiB chunks (some 3,500 rows) on two cores put a cut and two workers
    # in the file, and a span of 10,000 inputs puts chunk edges at many
    # places in a span; ingest resamples the chunks as it reads them, or
    # resample the whole columns after it
    with split(1 << 17), forks_seen() as pids, \
            mock.patch.object(signal_core, "_RESAMPLE_SPAN", 10_000):
        streamed = ingest_csv(path, fs, 320.0)
        read = ingest_csv(path, fs, fs)
        whole = {name: resample(read[name], 320.0) for name in ("scg", "flow")}
    assert len(pids) == 4
    for got in (streamed, whole):
        assert [hashlib.sha256(got[name].samples.tobytes()).hexdigest()
                for name in ("scg", "flow")] == list(RESAMPLED[fs])
        assert {got[name].fs for name in ("scg", "flow")} == {320.0}


# some 20,000 rows a range, with 1 MiB chunks on two cores; the chunk past
# the first range's end holds some 15,000, against about 780 rows that the
# reach reads at 4/125 and 7,400 at 215/6719
@pytest.mark.parametrize("fs", [10_000.0, 10_000.37])
def test_the_reach_parses_little_more_than_the_rows_wanted(tmp_path, fs):
    path = write_csv(tmp_path / "rec.csv", data_rows(40_000, fs=fs), eol="\n")
    spied = tmp_path / "spied"
    spied.mkdir()
    parse, wants = ingest._parse_chunk, signal_core.Resampler.wants

    def note(kind, count):
        # forked workers make the calls, so each notes them in its own file
        with open(spied / f"{os.getpid()}", "a") as fh:
            fh.write(f"{kind} {count}\n")

    def parse_spy(chunk, ref_row):
        note("parsed", len(block := parse(chunk, ref_row)))
        return block

    def wants_spy(self, stop):
        note("wanted", want := wants(self, stop))
        return want

    with split(1 << 20), forks_seen() as pids, \
            mock.patch.object(ingest, "_parse_chunk", parse_spy), \
            mock.patch.object(signal_core.Resampler, "wants", wants_spy):
        cut = ingest._cuts(path)[1]
        ingest_csv(path, fs, 320.0)
    assert len(pids) == 2
    calls = [line.split() for line in (spied / f"{pids[0]}").read_text().splitlines()]
    parsed = [int(count) for kind, count in calls if kind == "parsed"]
    wanted = [int(count) for kind, count in calls if kind == "wanted"]
    before = path.read_bytes()[:cut].count(b"\n") - 1  # the header is no row
    past = sum(parsed) - before  # the first range's worker
    assert 0 < wanted[0] <= past <= 1.5 * wanted[0], (past, wanted[0])


def test_a_reach_short_of_the_rows_wanted_reads_on(tmp_path):
    # rows five times as wide follow the first range, so a first read sized
    # at its mean bytes per row holds a quarter of the rows wanted
    narrow = data_rows(6_000, fs=10_000.0)
    body = narrow[:5_000] + [padded(row).ljust(5 * len(row), "-") for row in narrow[5_000:]]
    path = write_csv(tmp_path / "rec.csv", body, eol="\n")
    with split(1 << 19):
        cut = ingest._cuts(path)[1]
    assert 4_900 <= path.read_bytes()[:cut].count(b"\n") - 1 <= 5_100
    rates = (10_000.0, 320.0)
    assert outcome(path, rates, 1 << 19, 2) == outcome(path, rates, UNSPLIT, 1)
