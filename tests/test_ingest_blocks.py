"""Block-wise CSV ingest against a whole-file parse, and the memory it saves.

ingest_csv parses CSV_BLOCK_ROWS file lines at a time. With the block size
patched small, its columns must equal a whole-file np.loadtxt bit for bit
wherever the edges fall, and every fault must name the file line that an
unsplit parse names. numpy reports its buffers to tracemalloc, so the
memory bounds below are deterministic.
"""

import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from cardioseis import ingest
from cardioseis.config import PipelineConfig
from cardioseis.errors import InputError
from cardioseis.ingest import ingest_csv, write_recording_csv
from cardioseis.pipeline import run_pipeline
from cardioseis.signal_core import _firwin, _resample_poly
from cardioseis.synth import SynthConfig, gen_recording

B = 4  # the patched block size, in file lines
FS = 320.0
HEADER = "time_s,scg_z,ecg,flow_lps"
UNSPLIT = 10**9


def data_rows(n, seed=0):
    vals = np.random.default_rng(seed).standard_normal((n, 3)).tolist()
    return [f"{i / FS:.9g},{a!r},{e!r},{f!r}" for i, (a, e, f) in enumerate(vals)]


def write_csv(path, body, final_newline=True, eol="\r\n"):
    path.write_text(eol.join([HEADER] + body) + (eol if final_newline else ""), newline="")
    return path


def ingest_with_blocks(path, block):
    with mock.patch.object(ingest, "CSV_BLOCK_ROWS", block):
        return ingest_csv(path, FS)


def error_with_blocks(path, block):
    with pytest.raises(InputError) as info, mock.patch.object(ingest, "CSV_BLOCK_ROWS", block):
        ingest_csv(path, FS)
    return str(info.value)


# body lines that are no data row, each at a body-line index; with B = 4,
# indices 3, 4, 7 and 8 sit at block edges, and 4-7 fill a whole block
LAYOUTS = {
    "plain": [],
    "at edges": [(3, ""), (4, "# note"), (7, "#"), (8, "")],
    "blank block": [(4, ""), (5, "# a"), (6, ""), (7, "# b")],
    "leading": [(0, ""), (1, "# before the data")],
}


@pytest.mark.parametrize("eol", ["\r\n", "\n"])
@pytest.mark.parametrize("final_newline", [True, False])
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("n", [B - 1, B, B + 1, 3 * B - 1, 3 * B, 3 * B + 1])
def test_columns_equal_whole_file_loadtxt(tmp_path, n, layout, final_newline, eol):
    body = data_rows(n, seed=n)
    for at, text in LAYOUTS[layout]:
        body.insert(min(at, len(body)), text)
    path = write_csv(tmp_path / "rec.csv", body, final_newline, eol)
    whole = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    rec = ingest_with_blocks(path, B)
    assert rec["scg"].samples.tobytes() == whole[:, 1].tobytes()
    assert rec["flow"].samples.tobytes() == whole[:, 3].tobytes()
    for name in ("scg", "flow"):
        assert rec[name].samples.flags.c_contiguous
        assert rec[name].samples.base is None  # no view that keeps a block alive


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
    }[kind]


# the body opens with a blank and a comment line, so data row r sits on
# body line r + 2 and file line r + 4: 2 and 6 open a block, 5 closes one,
# and 12 and 13 lie in the last block
@pytest.mark.parametrize("row", [0, B - 2, 2 * B - 3, 2 * B - 2, 3 * B, 3 * B + 1])
@pytest.mark.parametrize("kind", ["parse", "wide", "short", "nan scg", "inf flow", "late time",
                                  "nan time"])
def test_fault_names_the_line_of_an_unsplit_parse(tmp_path, kind, row):
    n = 3 * B + 2
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
    body = ["", "# recorded at 320 Hz"] + data_rows(3 * B + 2)
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


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ingest_peak_is_the_kept_columns_and_a_few_blocks(tmp_path):
    block = 2048
    n = 16 * block + 1
    path = write_csv(tmp_path / "rec.csv", data_rows(n))
    peak = traced_peak(ingest_with_blocks, path, block)
    kept = 2 * n * 8  # the SCG and flow columns
    table = block * 4 * 8  # one parsed block
    # the whole table alone is twice the kept columns
    assert peak < 1.5 * kept + 4 * table, (peak, kept)


def test_resample_poly_peak_is_one_input_and_the_output():
    x = np.random.default_rng(0).standard_normal(1_200_000)
    up, down, m = 4, 125, 125
    h = _firwin(20 * m + 1, 0.9 / m)
    n_out = len(x) * up // down
    peak = traced_peak(_resample_poly, x, h, up, down, n_out)
    # the by-column copy of x, the accumulator, one product and the output
    assert peak < x.nbytes + 4 * 8 * n_out + 2**16, (peak, x.nbytes)


def test_run_pipeline_holds_one_recording_at_a_time(tmp_path):
    cfg = SynthConfig(seed=2, fs=2000.0, duration_s=30.0)
    rec, truth = gen_recording(cfg)
    paths = [tmp_path / f"{stem}.csv" for stem in ("a", "b")]
    write_recording_csv(rec, paths[0])
    paths[1].write_bytes(paths[0].read_bytes())
    base = PipelineConfig(acquisition_fs=cfg.fs, analysis_fs=320.0,
                          template_start_s=truth.beat_indices[0] / cfg.fs - 0.125,
                          template_length_s=0.25)
    one = traced_peak(run_pipeline, replace(base, inputs=(str(paths[0]),),
                                            out_dir=str(tmp_path / "one")))
    two = traced_peak(run_pipeline, replace(base, inputs=tuple(map(str, paths)),
                                            out_dir=str(tmp_path / "two")))
    kept = 2 * len(rec["scg"]) * 8  # one recording's SCG and flow
    assert two <= one + kept // 4, (one, two, kept)
