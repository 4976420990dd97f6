"""Within-group alignment, ensemble averaging, and the dissimilarity metrics
that decide which respiratory criterion groups similar SCG events better.

Dissimilarity of an event against a group average is the RMS of the
pointwise difference, normalized by the RMS of the average (in percent).
A group's relative difference (RD) compares its mean dissimilarity against
the alternate group's average with that against its own; positive RD means
the grouping is doing its job.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAnalysisError, InputError
from .respiration import FlowPhase, VolumePhase
from .signal_core import best_lag, rms

log = logging.getLogger(__name__)

RD_TIE_TOLERANCE = 0.01


class Criterion(enum.Enum):
    FLOW_RATE = "FlowRate"
    LUNG_VOLUME = "LungVolume"


class Winner(enum.Enum):
    FLOW_RATE = "FlowRate"
    LUNG_VOLUME = "LungVolume"
    TIE = "Tie"


@dataclass(frozen=True)
class GroupStats:
    """One Table-II/III style row half: a single group's numbers."""

    group_id: str  # Inspiration / Expiration / LLV / HLV
    n: int
    ensemble_avg: np.ndarray
    mean_dissim_same: float
    sd_same: float
    mean_dissim_alt: float
    sd_alt: float
    rd: float


@dataclass(frozen=True)
class CriterionComparison:
    """Four GroupStats plus the per-pair winner flags.

    Pair order: Inspiration vs LLV, then
    Expiration vs HLV.
    """

    inspiration: GroupStats
    expiration: GroupStats
    llv: GroupStats
    hlv: GroupStats
    winner_insp_llv: Winner
    winner_exp_hlv: Winner

    @property
    def groups(self):
        return (self.inspiration, self.expiration, self.llv, self.hlv)


def _stack(events):
    """A group's ref indices, and its event windows as one (n, L) matrix."""
    if not events:
        raise DegenerateAnalysisError("empty group")
    if len({len(ev.window) for ev in events}) != 1:
        raise InputError("event windows differ in length")
    return (np.array([ev.ref_index for ev in events]),
            np.array([ev.window for ev in events], dtype=float))


def _rms_rows(a) -> np.ndarray:
    return np.sqrt(np.mean(np.square(a), axis=-1))


def _max_shift(windows) -> int:
    """The alignment search bound: a quarter of the event window."""
    return windows.shape[1] // 4


def _shift_to(target, samples, refs, windows, max_shift: int):
    """Shift every row toward its best lag against target.

    Each window is re-cut lag samples later in the source, with the lag
    clamped so the window stays inside the recording; a row with a
    degenerate correlation keeps its place. Returns the new (refs, windows).
    """
    lags = best_lag(target, windows, max_shift)
    length = windows.shape[1]
    half = length // 2
    refs = refs + np.clip(lags, half - refs, len(samples) - length + half - refs)
    return refs, samples[(refs - half)[:, None] + np.arange(length)]


def _nonconstant(windows) -> np.ndarray:
    """Mask of the rows that are not constant. Warns about the others, and
    raises if no row is left."""
    keep = np.ptp(windows, axis=1) > 0
    if not keep.all():
        log.warning("align_events: dropped %d constant-window event(s)", np.sum(~keep))
    if not keep.any():
        raise DegenerateAnalysisError("empty group")
    return keep


def _align(refs, windows, samples, max_shift: int):
    """The two alignment passes on non-constant windows: returns the
    aligned (refs, windows)."""
    reference = windows[np.argmax(_rms_rows(windows))]
    refs, windows = _shift_to(reference, samples, refs, windows, max_shift)
    return _shift_to(ensemble_average(windows), samples, refs, windows, max_shift)


def align_events(events, samples, max_shift: int):
    """Two-pass time alignment of equal-length event windows.

    samples is the channel the windows were cut from; an aligned window is
    re-cut from it. Pass one aligns everything to the highest-RMS event;
    pass two re-aligns to the pass-one ensemble average. Constant-window
    events are dropped with a warning. Lags come from Pearson-normalized
    cross-correlation, computed for the whole group at once by best_lag on
    the window stack.

    A burst that fills its window can end one sample off: a jittered window
    cuts part of it, and the mean subtraction in best_lag then moves the
    correlation peak. This is a limit of the method, not of the batching.

    Returns (kept events, aligned ref indices, aligned (n, L) windows); the
    kept events themselves are unchanged.
    """
    refs, windows = _stack(events)
    keep = _nonconstant(windows)
    kept = [ev for ev, k in zip(events, keep) if k]
    return (kept, *_align(refs[keep], windows[keep], samples, max_shift))


def ensemble_average(windows) -> np.ndarray:
    """Pointwise mean of an (n, L) stack of (aligned) event windows.

    Identical windows average to themselves exactly (no float drift).
    """
    windows = np.asarray(windows, dtype=float)
    if len(windows) == 0:
        raise DegenerateAnalysisError("empty group")
    if np.all(windows == windows[0]):
        return windows[0].copy()
    return np.mean(windows, axis=0)


def normalized_dissim(windows, group_avg) -> np.ndarray:
    """Normalized dissimilarity, in percent, of each row of an (n, L) stack
    against a group average: the RMS of the row minus the average, over the
    RMS of the average."""
    windows = np.asarray(windows, dtype=float)
    group_avg = np.asarray(group_avg, dtype=float)
    denom = rms(group_avg)
    if denom == 0:
        raise DegenerateAnalysisError("degenerate group average")
    if windows.shape[1:] != group_avg.shape:
        raise InputError("length mismatch")
    return 100.0 * _rms_rows(windows - group_avg) / denom


def mean_dissimilarity(windows, group_avg) -> tuple[float, float]:
    """Mean and sample SD (n-1) of normalized dissimilarity over the rows.

    A single-row stack gets SD 0.
    """
    vals = normalized_dissim(windows, group_avg)
    sd = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
    return float(np.mean(vals)), sd


def relative_difference(mean_same: float, mean_alt: float) -> float:
    """Percent excess of cross-group over within-group mean dissimilarity."""
    if mean_same == 0:
        raise DegenerateAnalysisError("zero within-group dissimilarity")
    return 100.0 * (mean_alt - mean_same) / mean_same


_GROUPS = {Criterion.FLOW_RATE: ("flow_phase", (FlowPhase.INSPIRATION, FlowPhase.EXPIRATION)),
           Criterion.LUNG_VOLUME: ("volume_phase", (VolumePhase.LLV, VolumePhase.HLV))}


def evaluate_criterion(events, criterion: Criterion, samples):
    """Split labeled events by one criterion and compute both GroupStats.

    samples is the conditioned channel the events were detected in. Per
    group: align, ensemble-average, mean dissimilarity against the own
    average, then against the alternate group's average (each event is
    re-aligned to that average first so timing offsets do not masquerade
    as morphology differences), and finally the RD. Lags are searched
    within a quarter of the event window.
    """
    refs, windows = _stack(events)
    max_shift = _max_shift(windows)
    attr, labels = _GROUPS[criterion]
    aligned = {}
    for label in labels:
        member = np.array([getattr(ev, attr) is label for ev in events])
        if not member.any():
            raise DegenerateAnalysisError(f"degenerate split: {criterion.value} "
                                          f"group {label.value} is empty")
        keep = _nonconstant(windows[member])
        aligned[label] = _align(refs[member][keep], windows[member][keep], samples, max_shift)
    averages = {label: ensemble_average(windows) for label, (_, windows) in aligned.items()}
    stats = []
    for label, other in (labels, labels[::-1]):
        refs, windows = aligned[label]
        own_avg, alt_avg = averages[label], averages[other]
        mean_same, sd_same = mean_dissimilarity(windows, own_avg)
        _, realigned = _shift_to(alt_avg, samples, refs, windows, max_shift)
        mean_alt, sd_alt = mean_dissimilarity(realigned, alt_avg)
        stats.append(GroupStats(
            group_id=label.value, n=len(windows), ensemble_avg=own_avg,
            mean_dissim_same=mean_same, sd_same=sd_same,
            mean_dissim_alt=mean_alt, sd_alt=sd_alt,
            rd=relative_difference(mean_same, mean_alt)))
    return tuple(stats)


def _pick_winner(rd_fr: float, rd_lv: float) -> Winner:
    if abs(rd_lv - rd_fr) <= RD_TIE_TOLERANCE:
        return Winner.TIE
    return Winner.LUNG_VOLUME if rd_lv > rd_fr else Winner.FLOW_RATE


def compare_criteria(events, samples) -> CriterionComparison:
    """Evaluate both grouping criteria and flag the winner per group pair.

    samples is the conditioned channel the events were detected in.
    """
    insp, exp = evaluate_criterion(events, Criterion.FLOW_RATE, samples)
    llv, hlv = evaluate_criterion(events, Criterion.LUNG_VOLUME, samples)
    return CriterionComparison(
        inspiration=insp, expiration=exp, llv=llv, hlv=hlv,
        winner_insp_llv=_pick_winner(insp.rd, llv.rd),
        winner_exp_hlv=_pick_winner(exp.rd, hlv.rd))


def screen_outliers(events, samples):
    """Drop events whose dissimilarity to the all-event ensemble average
    exceeds mean + 3 SD. Stand-in for the manual artifact check.
    samples is the conditioned channel the events were detected in.

    Returns (kept_events, n_dropped). Kept events keep their original
    (pre-screening-alignment) windows.
    """
    if len(events) < 3:
        return list(events), 0
    refs, windows = _stack(events)
    usable = np.ptp(windows, axis=1) > 0
    kept = [ev for ev, u in zip(events, usable) if u]
    if len(kept) < 3:
        return kept, len(events) - len(kept)
    _, windows = _align(refs[usable], windows[usable], samples, _max_shift(windows))
    avg = ensemble_average(windows)
    if np.ptp(avg) == 0:
        return kept, len(events) - len(kept)
    vals = normalized_dissim(windows, avg)  # >= 3 rows, all non-constant
    limit = vals.mean() + 3.0 * vals.std(ddof=1)
    kept = [ev for ev, v in zip(kept, vals) if v <= limit]
    return kept, len(events) - len(kept)
