"""Report rows, serialization, and the RD self-consistency check.

A report row carries four
groups (Inspiration, Expiration, LLV, HLV) with event counts, mean +/- SD
dissimilarities against the own and alternate averages, the RD per group,
and the winner flag per group pair.
"""

from __future__ import annotations

import csv
import json
import math

from .errors import DegenerateAnalysisError, InputError, input_file
from .grouping import CriterionComparison, relative_difference
from .respiration import FlowPhase, VolumePhase

GROUP_ORDER = tuple(phase.value for phase in (*FlowPhase, *VolumePhase))
# the columns of report.csv after recording_id: the keys of each group
GROUP_COLUMNS = ("group", "n", "mean_dissim_same", "sd_same", "mean_dissim_alt", "sd_alt", "rd")
RD_CHECK_TOLERANCE = 0.01


def comparison_to_row(recording_id: str, cmp: CriterionComparison, n_events: int,
                      outliers_dropped: int) -> dict:
    return {
        "recording_id": recording_id,
        "groups": [{key: _column(st, key) for key in GROUP_COLUMNS} for st in cmp.groups],
        "winners": {
            "inspiration_vs_llv": cmp.winner_insp_llv.value,
            "expiration_vs_hlv": cmp.winner_exp_hlv.value,
        },
        "n_events": n_events,
        "outliers_dropped": outliers_dropped,
    }


def _column(st, key: str):
    """A group's value in report column `key`: RD rounded to 2 decimals,
    the other dissimilarity statistics to 4."""
    value = st.group_id if key == "group" else getattr(st, key)
    return round(value, 2 if key == "rd" else 4) if isinstance(value, float) else value


def write_report_json(payload: dict, path):
    """Write payload in the format of report.json and run.json: sorted keys, indent 1."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_report_csv(rows: list[dict], path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["recording_id", *GROUP_COLUMNS])
        for row in rows:
            for g in row["groups"]:
                writer.writerow([row["recording_id"], *(g[key] for key in GROUP_COLUMNS)])


def check_report(path) -> list[str]:
    """Recompute each row's RDs from its own mean columns.

    Returns a list of problem descriptions; empty means consistent. A
    report with no rows, or a row without the four GROUP_ORDER groups once
    each, is malformed: nothing in it would be checked.
    """
    try:
        with input_file(path, "report file"), open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON: {exc}") from None
    rows = payload.get("rows") if isinstance(payload, dict) else None
    if not isinstance(rows, list):
        raise InputError(f"{path}: missing 'rows' list")
    if not rows:
        raise InputError(f"{path}: 'rows' is empty")
    problems = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise InputError(f"{path}: row {i} is not an object")
        rid = row.get("recording_id", "?")
        groups = row.get("groups")
        if not groups:
            raise InputError(f"{path}: row {i} ({rid}): 'groups' is missing or empty")
        if not isinstance(groups, list) or not all(isinstance(g, dict) for g in groups):
            raise InputError(f"{path}: row {i} ({rid}): 'groups' is not a list of objects")
        for g in groups:
            name = f"{rid}/{g.get('group', '?')}"
            same, alt, rd = (_number(g, key, f"{path}: row {i} ({name})")
                             for key in ("mean_dissim_same", "mean_dissim_alt", "rd"))
            try:
                expect = relative_difference(same, alt)
            except DegenerateAnalysisError as exc:
                problems.append(f"{name}: cannot recompute RD ({exc})")
                continue
            if abs(expect - rd) > RD_CHECK_TOLERANCE:
                problems.append(f"{name}: stored RD {rd} vs recomputed {expect:.4f}")
        if sorted(str(g.get("group")) for g in groups) != sorted(GROUP_ORDER):
            raise InputError(f"{path}: row {i} ({rid}): 'groups' must hold "
                             f"{', '.join(GROUP_ORDER)} once each")
    return problems


def _number(group: dict, key: str, where: str) -> float:
    value = group.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise InputError(f"{where}: {key!r} is missing or not a finite number")
    return value
