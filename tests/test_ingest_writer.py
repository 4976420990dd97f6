"""The block-formatted CSV writer against the row-at-a-time csv.writer loop
it replaced.

`loop_write_recording_csv` is that loop, kept here as the oracle: the new
writer must produce the same bytes for every input, including values the
pipeline itself never writes (nan, inf, subnormals, -0.0).
"""

import csv
import math
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cardioseis import ingest
from cardioseis.config import DEFAULT_CHANNEL_MAP, PipelineConfig
from cardioseis.ingest import CSV_BLOCK_ROWS, write_recording_csv
from cardioseis.signal_core import Recording


def loop_write_recording_csv(rec, path, config=None):
    """The writer as it was: one csv.writer row per sample."""
    cmap = config.channel_map if config else DEFAULT_CHANNEL_MAP
    scg, ecg, flow = rec["scg"], rec["ecg"], rec["flow"]
    n = len(scg)
    fs = scg.fs
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([cmap["time"], cmap["scg"], cmap["ecg"], cmap["flow"]])
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


def both_outputs(tmp_path, rec, config=None):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_recording_csv(rec, new, config)
    loop_write_recording_csv(rec, old, config)
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


def test_header_quoted_as_csv_writer_quotes(tmp_path):
    cmap = {"time": "t, s", "scg": 'scg "z"', "ecg": "ecg", "flow": "flow\nL/s"}
    config = PipelineConfig(channel_map=cmap)
    rec = recording(np.arange(15.0).reshape(3, 5), 320.0)
    new, old = both_outputs(tmp_path, rec, config)
    assert new == old
    assert new.startswith(b'"t, s","scg ""z""",ecg,"flow\nL/s"\r\n')
