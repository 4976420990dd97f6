"""CSV recording ingestion and emission.

One row per acquisition-rate sample, header required. The time, SCG and
flow columns are found by their fixed names (COLUMNS); any other column,
such as the ecg column that write_recording_csv adds, must parse as numbers
but is not kept.
"""

from __future__ import annotations

import csv
import re
from itertools import islice
from pathlib import Path

import numpy as np

from .config import PipelineConfig
from .errors import InputError
from .signal_core import Channel, Recording

COLUMNS = {"time": "time_s", "scg": "scg_z", "flow": "flow_lps"}
TIME_TOLERANCE_FRAC = 0.1  # of one sample period
CSV_BLOCK_ROWS = 65536     # rows formatted per write; bounds the writer's memory
_CSV_HEADER = "{time},{scg},ecg,{flow}\r\n".format(**COLUMNS)
_CSV_ROW = "%.9g,%.9g,%.9g,%.9g\r\n"


def ingest_csv(path, config: PipelineConfig) -> Recording:
    """Read a recording at the acquisition rate, validating as we go.

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

    fs = config.acquisition_fs
    t = data[:, cols["time"]]
    dt = 1.0 / fs
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
        channels[role] = Channel(col, fs, role)
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

    The body is formatted CSV_BLOCK_ROWS rows at a time, one %-format per
    block, into the bytes csv.writer writes row by row.
    """
    scg, ecg, flow = rec["scg"], rec["ecg"], rec["flow"]
    n = len(scg)
    fs = scg.fs
    with open(path, "w", newline="") as fh:
        fh.write(_CSV_HEADER)
        for s in range(0, n, CSV_BLOCK_ROWS):
            e = min(s + CSV_BLOCK_ROWS, n)
            block = np.empty((e - s, 4))
            block[:, 0] = np.arange(s, e) / fs  # the same IEEE value as i / fs
            block[:, 1] = scg.samples[s:e]
            block[:, 2] = ecg.samples[s:e]
            block[:, 3] = flow.samples[s:e]
            fh.write((_CSV_ROW * (e - s)) % tuple(block.ravel().tolist()))
