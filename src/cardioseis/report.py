"""Report rows, serialization, and the RD self-consistency check.

A report row carries four
groups (Inspiration, Expiration, LLV, HLV) with event counts, mean +/- SD
dissimilarities against the own and alternate averages, the RD per group,
and the winner flag per group pair.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .errors import InputError
from .grouping import CriterionComparison, relative_difference

GROUP_ORDER = ("Inspiration", "Expiration", "LLV", "HLV")
RD_CHECK_TOLERANCE = 0.01


def comparison_to_row(recording_id: str, cmp: CriterionComparison, extras: dict | None = None) -> dict:
    groups = []
    for st in cmp.groups:
        groups.append({
            "group": st.group_id,
            "n": st.n,
            "mean_dissim_same": round(st.mean_dissim_same, 4),
            "sd_same": round(st.sd_same, 4),
            "mean_dissim_alt": round(st.mean_dissim_alt, 4),
            "sd_alt": round(st.sd_alt, 4),
            "rd": round(st.rd, 2),
        })
    row = {
        "recording_id": recording_id,
        "groups": groups,
        "winners": {
            "inspiration_vs_llv": cmp.winner_insp_llv.value,
            "expiration_vs_hlv": cmp.winner_exp_hlv.value,
        },
    }
    if extras:
        row.update(extras)
    return row


def write_report_json(rows: list[dict], path):
    rows = sorted(rows, key=lambda r: r["recording_id"])
    with open(path, "w") as fh:
        json.dump({"rows": rows}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_report_csv(rows: list[dict], path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["recording_id", "group", "n", "mean_dissim_same", "sd_same",
                         "mean_dissim_alt", "sd_alt", "rd"])
        for row in sorted(rows, key=lambda r: r["recording_id"]):
            for g in row["groups"]:
                writer.writerow([row["recording_id"], g["group"], g["n"],
                                 g["mean_dissim_same"], g["sd_same"],
                                 g["mean_dissim_alt"], g["sd_alt"], g["rd"]])


def check_report(path) -> list[str]:
    """Recompute each row's RDs from its own mean columns.

    Returns a list of problem descriptions; empty means consistent.
    """
    path = Path(path)
    if not path.is_file():
        raise InputError(f"report file not found: {path}")
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON: {exc}") from None
    rows = payload.get("rows")
    if not isinstance(rows, list):
        raise InputError(f"{path}: missing 'rows' list")
    problems = []
    for row in rows:
        rid = row.get("recording_id", "?")
        for g in row.get("groups", []):
            try:
                expect = relative_difference(g["mean_dissim_same"], g["mean_dissim_alt"])
            except Exception as exc:
                problems.append(f"{rid}/{g.get('group', '?')}: cannot recompute RD ({exc})")
                continue
            if abs(expect - g["rd"]) > RD_CHECK_TOLERANCE:
                problems.append(
                    f"{rid}/{g['group']}: stored RD {g['rd']} vs recomputed {expect:.4f}")
    return problems
