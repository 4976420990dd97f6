"""Correctness checks for the benchmark's workloads.

Every check recomputes what it compares against from closed forms, from the
ground truth of the synthetic recordings, or from a property the method must
have; none compares against a stored copy of the program's output, and none
imports the program. Each check returns a list of problems: empty means the
output is correct.
"""

from __future__ import annotations

import json
import math

import numpy as np

GROUPS = ("Inspiration", "Expiration", "LLV", "HLV")
PAIRS = (("inspiration_vs_llv", "Inspiration", "LLV"),
         ("expiration_vs_hlv", "Expiration", "HLV"))
# Report columns are rounded (means to 4 decimals, RD to 2); an RD recomputed
# from rounded means lands within this of the stored RD.
REPORT_RD_TOL = 0.02
# The method's rule for a group pair: the larger RD wins, RDs this close tie.
TIE_TOL = 0.01
# Criterion 3: a detection counts as a hit within +/-2 samples of a true beat.
DETECTION_TOL = 2
MIN_RECALL = 0.99
MIN_PRECISION = 0.99
# Criterion 2 win rates per coupling, and the RD bound for "no preference".
MIN_WIN_RATE = {"volume": 0.95, "flow": 0.95, "none": 0.90}
NONE_MAX_ABS_RD = 5.0
# Synthetic respiration: flow = A sin(2 pi f t).
RESP_AMPLITUDE = 0.5
RESP_FREQ = 0.25


def relative_difference(mean_same: float, mean_alt: float) -> float:
    return 100.0 * (mean_alt - mean_same) / mean_same


def check_row(row: dict, n_events: int, rd_tol: float) -> list[str]:
    """Check one analysis result in the report-row layout.

    The group sizes of both criteria must add up to the number of analysed
    events, each RD must equal 100 * (alt - same) / same, and each pair's
    winner must be the criterion with the larger RD.
    """
    problems = []
    groups = {g["group"]: g for g in row["groups"]}
    if sorted(groups) != sorted(GROUPS):
        return [f"groups {sorted(groups)} are not {sorted(GROUPS)}"]
    flow_n = groups["Inspiration"]["n"] + groups["Expiration"]["n"]
    volume_n = groups["LLV"]["n"] + groups["HLV"]["n"]
    if not flow_n == volume_n == n_events:
        problems.append(f"group sizes Insp+Exp={flow_n}, LLV+HLV={volume_n}, "
                        f"events={n_events}")
    for name, g in groups.items():
        rd = relative_difference(g["mean_dissim_same"], g["mean_dissim_alt"])
        if not abs(rd - g["rd"]) <= rd_tol:
            problems.append(f"{name}: RD {g['rd']} but means give {rd:.4f}")
    for key, fr, lv in PAIRS:
        delta = groups[lv]["rd"] - groups[fr]["rd"]
        expect = ("Tie" if abs(delta) <= TIE_TOL
                  else "LungVolume" if delta > 0 else "FlowRate")
        if row["winners"][key] != expect:
            problems.append(f"{key}: winner {row['winners'][key]} but "
                            f"RD {fr}={groups[fr]['rd']}, {lv}={groups[lv]['rd']}")
    return problems


def check_report_json(text: str, n_truth_beats: int, max_miss_frac: float = 0.03) -> list[str]:
    """Check the report of a `run` on one volume-coupled recording."""
    try:
        rows = json.loads(text)["rows"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"report.json unreadable: {exc}"]
    if len(rows) != 1:
        return [f"expected 1 report row, got {len(rows)}"]
    row = rows[0]
    problems = check_row(row, row["n_events"], REPORT_RD_TOL)
    if abs(row["n_events"] - n_truth_beats) > max_miss_frac * n_truth_beats:
        problems.append(f"{row['n_events']} events for {n_truth_beats} true beats")
    for key, _, _ in PAIRS:
        if row["winners"][key] != "LungVolume":
            problems.append(f"{key}: {row['winners'][key]} on a volume-coupled recording")
    return problems


def check_detection(refs, beats, dropped: int) -> list[str]:
    """Recall and precision of detected reference instants against the true
    beats, within DETECTION_TOL samples.

    `refs` are the events that survived the outlier screen, which keep their
    detected positions; the `dropped` screened-out events may each have been
    a hit, so they count towards recall but not precision.
    """
    refs = np.asarray(refs, dtype=int)
    beats = np.asarray(beats, dtype=int)
    if refs.size == 0 or beats.size == 0:
        return [f"{refs.size} events for {beats.size} beats"]
    hit = np.abs(beats[:, None] - refs[None, :]) <= DETECTION_TOL
    recall = (hit.any(axis=1).sum() + dropped) / beats.size
    precision = hit.any(axis=0).mean()
    problems = []
    if recall < MIN_RECALL:
        problems.append(f"recall {recall:.4f} < {MIN_RECALL}")
    if precision < MIN_PRECISION:
        problems.append(f"precision {precision:.4f} < {MIN_PRECISION}")
    return problems


def check_labels(refs, labels, beats, truth_labels, max_mismatch_frac: float = 0.03) -> list[str]:
    """Each event's (flow phase, volume phase) against the true labels of
    the beat it was detected at. Events that sit within a few samples of a
    zero crossing of flow, or of the mean volume, may fall either side, so a
    small share may differ."""
    beats = np.asarray(beats, dtype=int)
    matched = mismatched = 0
    for ref, label in zip(refs, labels):
        j = int(np.argmin(np.abs(beats - ref)))
        if abs(int(beats[j]) - ref) <= DETECTION_TOL:
            matched += 1
            mismatched += tuple(label) != tuple(truth_labels[j])
    if mismatched > max_mismatch_frac * matched:
        return [f"{mismatched} of {matched} events labelled unlike their true beats"]
    return []


def _corr(a, b) -> float:
    return float(np.corrcoef(a, b)[0, 1])


def check_groups(coupling: str, groups: dict, members: dict) -> list[str]:
    """Group sizes and contents against the events that carry each label.

    `groups` maps a group to its (size, ensemble average); `members` maps it
    to the windows of the events labelled with it. Every size must match.
    For the criterion that drives the coupling (lung volume for `volume`,
    flow phase for `flow`), the two groups' events differ in shape, so the
    plain mean of each group's events must resemble its own average more
    than the other group's: a result with that pair's labels swapped fails.
    """
    problems = [f"{g}: size {n} but {len(members.get(g, ()))} events carry the label"
                for g, (n, _) in groups.items() if n != len(members.get(g, ()))]
    pair = {"volume": ("LLV", "HLV"), "flow": ("Inspiration", "Expiration")}.get(coupling)
    if pair and not problems:
        for own, other in (pair, pair[::-1]):
            mean = np.mean(members[own], axis=0)
            if _corr(mean, groups[own][1]) <= _corr(mean, groups[other][1]):
                problems.append(f"{own}: its events resemble the {other} average more "
                                f"than their own")
    return problems


def is_win(coupling: str, row: dict) -> bool:
    """Criterion 2's outcome for one recording of the given coupling."""
    if coupling == "none":
        return all(abs(g["rd"]) < NONE_MAX_ABS_RD for g in row["groups"])
    want = "LungVolume" if coupling == "volume" else "FlowRate"
    return all(row["winners"][key] == want for key, _, _ in PAIRS)


def check_win_rates(wins: dict, totals: dict) -> list[str]:
    """Criterion 2: the share of recordings per coupling that come out as
    the coupling predicts."""
    problems = []
    for coupling, need in MIN_WIN_RATE.items():
        total = totals.get(coupling, 0)
        if total == 0:
            problems.append(f"no {coupling}-coupled recordings analysed")
        elif wins.get(coupling, 0) / total < need:
            problems.append(f"{coupling}: {wins.get(coupling, 0)}/{total} wins, need {need:.0%}")
    return problems


def check_synth_csv(csv_path, truth_path, duration_s: float, fs: float) -> list[str]:
    """Check a CSV written by `synth` against closed forms and its truth file.

    Rows: duration * fs. Time column: i / fs. Flow column:
    A sin(2 pi f t). ECG column: 1 exactly at the true beat indices, 0
    everywhere else. Values are written with 9 significant digits, hence
    the tolerances.
    """
    with open(csv_path) as fh:
        header = [h.strip() for h in fh.readline().split(",")]
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            return [f"unparsable CSV: {exc}"]
    if header != ["time_s", "scg_z", "ecg", "flow_lps"]:
        return [f"header {header}"]
    n = int(round(duration_s * fs))
    if data.shape != (n, 4):
        return [f"shape {data.shape}, expected ({n}, 4)"]
    problems = []
    t = np.arange(n) / fs
    if not np.allclose(data[:, 0], t, rtol=1e-8, atol=1e-12):
        problems.append(f"time column differs from i/fs at row "
                        f"{_first_bad(data[:, 0], t, 1e-8, 1e-12)}")
    flow = RESP_AMPLITUDE * np.sin(2 * math.pi * RESP_FREQ * t)
    if not np.allclose(data[:, 3], flow, rtol=0, atol=1e-9):
        problems.append(f"flow column differs from the closed form at row "
                        f"{_first_bad(data[:, 3], flow, 0, 1e-9)}")
    with open(truth_path) as fh:
        beats = np.asarray(json.load(fh)["beat_indices"], dtype=int)
    if beats.size == 0 or beats.min() < 0 or beats.max() >= n:
        return problems + [f"truth beat indices outside [0, {n})"]
    ecg = np.zeros(n)
    ecg[beats] = 1.0
    if not np.array_equal(data[:, 2], ecg):
        problems.append(f"ECG spikes differ from the truth beats at row "
                        f"{int(np.flatnonzero(data[:, 2] != ecg)[0])}")
    if not np.all(np.isfinite(data[:, 1])) or np.ptp(data[:, 1]) == 0:
        problems.append("SCG column is not finite and varying")
    return problems


def _first_bad(got, want, rtol, atol) -> int:
    return int(np.flatnonzero(~np.isclose(got, want, rtol=rtol, atol=atol))[0])
