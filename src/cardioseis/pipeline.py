"""End-to-end orchestration: condition -> detect -> screen -> label -> group -> report.

Between stages an event is its ref index into the conditioned SCG channel,
and its labels are two bool masks. A stage's error is re-raised as its own
class (InputError or DegenerateAnalysisError), its message tagged with the
stage, "[detect] ...", and chained from the untagged original; the class
alone gives the CLI's exit code. Each stage's seconds, and the counts the
stages write, go to the recording's run record, which run.json holds.
"""

from __future__ import annotations

import csv
import os
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import PipelineConfig
from .errors import CardioseisError, InputError
from .event_detection import cut_windows, detect_events, template_from_channel
from .grouping import compare_criteria, screen_outliers
from .ingest import ingest_csv
from .report import comparison_to_row, write_report_csv, write_report_json
from .respiration import FlowPhase, VolumePhase, integrate_flow, label_events, phases
from .signal_core import Recording, lowpass, resample
from .svgplot import bar_chart, line_plot


@dataclass(frozen=True)
class ScgEvent:
    """One event that a run kept, as analyze_recording reports it.

    ref_index is its sample in the conditioned SCG channel, and window the
    template-length cut centred on it (start = ref - L//2), as detected,
    before any alignment.
    """

    ref_index: int
    window: np.ndarray
    flow_phase: FlowPhase
    volume_phase: VolumePhase


def _stage(record, name, fn, *args, **kwargs):
    """fn(*args, **kwargs) as stage `name`, its time added to record["seconds"][name]."""
    start = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    except CardioseisError as exc:
        raise type(exc)(f"[{name}] {exc}") from exc
    finally:
        record["seconds"][name] = record["seconds"].get(name, 0.0) + time.perf_counter() - start


def analyze_recording(rec: Recording, config: PipelineConfig):
    """Run the analysis chain on an in-memory recording.

    The SCG and flow are first resampled to config.analysis_fs. A
    recording that ingest_csv read for run_pipeline is already at that
    rate, so there this step passes its channels through.

    Returns (CriterionComparison, context dict with the kept events as
    ScgEvents, the number of outliers dropped and, as "manifest", the run
    record: the recording's id, each stage's seconds and the counts).
    """
    record = {"recording_id": rec.recording_id, "seconds": {}, "counts": {}}
    counts = record["counts"]
    scg = _stage(record, "resample", resample, rec["scg"], config.analysis_fs)
    flow = _stage(record, "resample", resample, rec["flow"], config.analysis_fs)
    scg = _stage(record, "lowpass", lowpass, scg, config.lowpass_cutoff_hz)
    tpl = _stage(record, "template", template_from_channel, scg,
                 config.template_start_s, config.template_length_s)
    refs = _stage(record, "detect", detect_events, scg, tpl, counts=counts)
    volume = _stage(record, "respiration", integrate_flow, flow)
    refs, dropped = _stage(record, "screen", screen_outliers, refs, scg.samples, tpl.length,
                           counts=counts)
    inspiring, high_volume = _stage(record, "label", label_events, refs, flow.samples, volume)
    cmp = _stage(record, "group", compare_criteria, refs, inspiring, high_volume,
                 scg.samples, tpl.length, counts=counts)
    counts["group_sizes"] = {st.group_id: st.n for st in cmp.groups}
    events = [ScgEvent(*fields) for fields in zip(
        refs.tolist(), cut_windows(scg.samples, refs, tpl.length),
        *phases(inspiring, high_volume))]
    return cmp, {"events": events, "outliers_dropped": dropped, "manifest": record}


def _write_artifacts(rec_id: str, cmp, fs: float, out_dir: Path):
    averages = {st.group_id: st.ensemble_avg for st in cmp.groups}
    n = len(cmp.inspiration.ensemble_avg)
    avg_csv = out_dir / f"{rec_id}_ensemble_averages.csv"
    with open(avg_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_index"] + [g.lower() for g in averages])
        for i in range(n):
            writer.writerow([i] + ["%.9g" % avg[i] for avg in averages.values()])
    t = np.arange(n) / fs
    ens_svg = out_dir / f"{rec_id}_ensemble_averages.svg"
    line_plot(averages, ens_svg, t, title=f"{rec_id}: ensemble-averaged SCG per group",
              xlabel="time (s)", ylabel="amplitude")
    rd_svg = out_dir / f"{rec_id}_rd_bars.svg"
    bar_chart(list(averages), [st.rd for st in cmp.groups], rd_svg,
              title=f"{rec_id}: relative difference per group", ylabel="RD (%)")
    return [avg_csv, ens_svg, rd_svg]


def check_out_dir(path: Path, name: str) -> None:
    """Raise an InputError that names the option `name` if the output
    directory `path` could not be made: if the nearest of it and its
    parents that exists, a dangling symlink included, is not a directory.
    Creates nothing."""
    there = next((p for p in [path, *path.parents] if os.path.lexists(p)), None)
    if there is not None and not there.is_dir():
        raise InputError(f"{name} {str(path)!r}: a file stands where the output "
                         f"directory would go: {str(there)!r}")


def run_pipeline(config: PipelineConfig):
    """Process every configured input file and write reports and plots.

    Returns (rows, artifact paths). Deterministic: rows sorted by
    recording id, groups in fixed order, stable float formatting. The
    output directory is made at the first write, so a run that fails
    before it leaves none behind. run.json holds the versions, the config,
    the run's seconds and each recording's run record, ingest included.
    """
    start = time.perf_counter()
    if not config.inputs:
        raise InputError("no input files configured")
    paths = [Path(p) for p in config.inputs]
    stems = [p.stem for p in paths]
    for path in paths:
        # the stem is the recording id, which names its artifacts and report row
        if stems.count(path.stem) > 1:
            raise InputError(f"{stems.count(path.stem)} inputs share the file stem "
                             f"{path.stem!r}")
        if not path.is_file():
            raise InputError(f"input file not found: {path}")
    out_dir = Path(config.out_dir)
    check_out_dir(out_dir, "out_dir")
    rows, artifacts, records = [], [], []
    for path in paths:
        ingested = {"seconds": {}, "counts": {}}
        rec = _stage(ingested, "ingest", ingest_csv, path, config.acquisition_fs,
                     config.analysis_fs, counts=ingested["counts"])
        cmp, context = analyze_recording(rec, config)
        record = context["manifest"]
        for part, values in ingested.items():
            record[part].update(values)
        rows.append(comparison_to_row(rec.recording_id, cmp, len(context["events"]),
                                      context["outliers_dropped"]))
        out_dir.mkdir(parents=True, exist_ok=True)
        artifacts += _stage(record, "artifacts", _write_artifacts, rec.recording_id, cmp,
                            config.analysis_fs, out_dir)
        records.append(record)
        del rec, cmp, context  # the next ingest must not hold two recordings
    rows.sort(key=lambda row: row["recording_id"])
    json_path = out_dir / "report.json"
    csv_path = out_dir / "report.csv"
    write_report_json({"rows": rows}, json_path)
    write_report_csv(rows, csv_path)
    run_config = {**asdict(config), "lowpass_cutoff_hz": config.lowpass_cutoff_hz}
    del run_config["out_dir"]  # run.json sits in it
    write_report_json({"cardioseis": __version__, "python": sys.version.split()[0],
                       "numpy": np.__version__, "config": run_config,
                       "recordings": sorted(records, key=lambda r: r["recording_id"]),
                       "seconds": time.perf_counter() - start}, out_dir / "run.json")
    artifacts += [json_path, csv_path, out_dir / "run.json"]
    return rows, artifacts
