"""CSV recording ingestion and emission.

One row per acquisition-rate sample, header required. Column names are
remappable via the config's channel map; defaults are time_s, scg_z, ecg,
flow_lps.
"""

from __future__ import annotations

import csv
import re
from itertools import islice
from pathlib import Path

import numpy as np

from .config import DEFAULT_CHANNEL_MAP, PipelineConfig
from .errors import InputError
from .signal_core import Channel, Recording

TIME_TOLERANCE_FRAC = 0.1  # of one sample period


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
        for role in ("time", "scg", "ecg", "flow"):
            name = config.channel_map[role]
            if name not in header:
                raise InputError(f"missing channel: {role}")
            cols[role] = header.index(name)
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            # loadtxt counts data rows from 0; name the file line instead
            msg = re.sub(r"\bat row (\d+)",
                         lambda m: f"at line {_file_line(path, int(m.group(1)))}", str(exc))
            raise InputError(f"{path}: could not parse data rows: {msg}") from None
    if data.size == 0:
        raise InputError(f"{path}: no data rows")
    if data.shape[1] < len(header):
        raise InputError(f"{path}: rows narrower than header")

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
    for role in ("scg", "ecg", "flow"):
        col = data[:, cols[role]]
        bad = ~np.isfinite(col)
        if np.any(bad):
            row = int(np.flatnonzero(bad)[0])
            raise InputError(f"{path}: non-finite {role} sample at row {_file_line(path, row)}")
        channels[role] = Channel(col, fs, role)
    return Recording(channels=channels, recording_id=path.stem)


def _file_line(path, row: int) -> int:
    """1-based file line of zero-based data row `row`, counted as loadtxt
    counts: after the header, skipping blank and comment-only lines."""
    with open(path, newline="") as fh:
        next(fh)
        data_lines = (n for n, line in enumerate(fh, start=2) if line.split("#", 1)[0].strip())
        return next(islice(data_lines, row, None))


def write_recording_csv(rec: Recording, path, config: PipelineConfig | None = None):
    """Write a recording in the ingestible CSV format (%.9g precision)."""
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
