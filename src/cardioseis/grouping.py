"""Within-group alignment, ensemble averaging, and the dissimilarity metrics
that decide which respiratory criterion groups similar SCG events better.

Dissimilarity of an event against a group average is the RMS of the
pointwise difference, normalized by the RMS of the average (in percent).
A group's relative difference (RD) compares its mean dissimilarity against
the alternate group's average with that against its own; positive RD means
the grouping is doing its job.

Events are ref indices into the conditioned SCG samples, and a criterion's
split is a bool mask over them. Each stage cuts the windows it needs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAnalysisError, InputError
from .event_detection import cut_windows, ref_bounds
from .respiration import FlowPhase, VolumePhase
from .signal_core import best_lag, rms

RD_TIE_TOLERANCE = 0.01


class Criterion(enum.Enum):
    FLOW_RATE = "FlowRate"
    LUNG_VOLUME = "LungVolume"


class Winner(enum.Enum):
    FLOW_RATE = Criterion.FLOW_RATE.value
    LUNG_VOLUME = Criterion.LUNG_VOLUME.value
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


def _shift_to(target, samples, refs, windows, max_shift: int, counts=None):
    """Shift every row toward its best lag against target.

    Each window is re-cut lag samples later in the source, with the shifted
    ref clamped to ref_bounds so the window stays inside it; a row with a
    degenerate correlation keeps its place. Returns the new (refs, windows).
    Counts the call in counts["best_lag_calls"], the refs clamped in
    counts["clamped_shifts"].
    """
    length = windows.shape[1]
    shifted = refs + best_lag(target, windows, max_shift)
    refs = np.clip(shifted, *ref_bounds(len(samples), length))
    if counts is not None:
        counts["best_lag_calls"] = counts.get("best_lag_calls", 0) + 1
        counts["clamped_shifts"] = counts.get("clamped_shifts", 0) + int((refs != shifted).sum())
    return refs, cut_windows(samples, refs, length)


def align(refs, samples, length: int, max_shift: int, counts=None):
    """Two-pass time alignment of the events at refs.

    samples is the channel the events were detected in; each event's
    window is cut from it, and re-cut when the event moves; no window may
    be constant (screen_outliers drops those). Pass one aligns the events
    to the highest-RMS window; pass two re-aligns to the pass-one ensemble
    average. Lags come from Pearson-normalized cross-correlation, computed
    for the whole group at once by best_lag on the window stack.

    A burst that fills its window can end one sample off: a jittered window
    cuts part of it, and the mean subtraction in best_lag then moves the
    correlation peak. This is a limit of the method, not of the batching.

    Returns the aligned refs, in input order, and their aligned (n, length)
    windows. Both passes add to counts as _shift_to does.
    """
    if not len(refs):
        raise DegenerateAnalysisError("empty group")
    windows = cut_windows(samples, refs, length)
    reference = windows[np.argmax(rms(windows))]
    refs, windows = _shift_to(reference, samples, refs, windows, max_shift, counts)
    return _shift_to(ensemble_average(windows), samples, refs, windows, max_shift, counts)


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
    return 100.0 * rms(windows - group_avg) / denom


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


# each criterion's two groups: the one its mask selects, then the rest
_GROUP_IDS = {Criterion.FLOW_RATE: (FlowPhase.INSPIRATION.value, FlowPhase.EXPIRATION.value),
              Criterion.LUNG_VOLUME: (VolumePhase.LLV.value, VolumePhase.HLV.value)}


def evaluate_criterion(refs, first, criterion: Criterion, samples, length: int, counts=None):
    """Split the events at refs by one criterion and compute both GroupStats.

    first masks the events of the criterion's first group (Inspiration or
    LLV); the others form the second. samples is the conditioned channel
    the events were detected in, and length the template length. Per group:
    align, ensemble-average, mean dissimilarity against the own average,
    then against the alternate group's average (each event is re-aligned to
    that average first so timing offsets do not masquerade as morphology
    differences), and finally the RD. Lags are searched within a quarter of
    the event window. Every shift adds to counts as _shift_to does.
    """
    max_shift = length // 4
    aligned = []
    for group_id, member in zip(_GROUP_IDS[criterion], (first, ~first)):
        if not member.any():
            raise DegenerateAnalysisError(f"degenerate split: {criterion.value} "
                                          f"group {group_id} is empty")
        aligned.append(align(refs[member], samples, length, max_shift, counts))
    averages = [ensemble_average(windows) for _, windows in aligned]
    stats = []
    for group_id, (refs, windows), own_avg, alt_avg in zip(
            _GROUP_IDS[criterion], aligned, averages, averages[::-1]):
        mean_same, sd_same = mean_dissimilarity(windows, own_avg)
        _, realigned = _shift_to(alt_avg, samples, refs, windows, max_shift, counts)
        mean_alt, sd_alt = mean_dissimilarity(realigned, alt_avg)
        stats.append(GroupStats(
            group_id=group_id, n=len(windows), ensemble_avg=own_avg,
            mean_dissim_same=mean_same, sd_same=sd_same,
            mean_dissim_alt=mean_alt, sd_alt=sd_alt,
            rd=relative_difference(mean_same, mean_alt)))
    return tuple(stats)


def _pick_winner(rd_fr: float, rd_lv: float) -> Winner:
    if abs(rd_lv - rd_fr) <= RD_TIE_TOLERANCE:
        return Winner.TIE
    return Winner.LUNG_VOLUME if rd_lv > rd_fr else Winner.FLOW_RATE


def compare_criteria(refs, inspiring, high_volume, samples, length: int,
                     counts=None) -> CriterionComparison:
    """Evaluate both criteria on the events at refs, split by their
    label_events masks, and flag the winner per group pair. Every shift
    adds to counts as _shift_to does."""
    if not len(refs):
        raise DegenerateAnalysisError("no events detected")
    insp, exp = evaluate_criterion(refs, inspiring, Criterion.FLOW_RATE, samples, length, counts)
    llv, hlv = evaluate_criterion(refs, ~high_volume, Criterion.LUNG_VOLUME, samples, length, counts)
    return CriterionComparison(
        inspiration=insp, expiration=exp, llv=llv, hlv=hlv,
        winner_insp_llv=_pick_winner(insp.rd, llv.rd),
        winner_exp_hlv=_pick_winner(exp.rd, hlv.rd))


def screen_outliers(refs, samples, length: int, counts=None):
    """Drop the events whose window is constant, then, of three or more
    left, those whose dissimilarity to the all-event ensemble average
    exceeds mean + 3 SD. Stand-in for the manual artifact check. samples is
    the conditioned channel the events were detected in, and length the
    template length.

    Returns (kept refs, n_dropped), n_dropped split in counts["constant_windows"]
    and ["outliers"]. Kept events keep their detected refs; the screen's own
    alignment, which adds to counts as _shift_to does, only serves the comparison.
    """
    kept = refs[np.ptp(cut_windows(samples, refs, length), axis=1) > 0]
    constant = len(refs) - len(kept)
    if len(kept) >= 3:
        _, windows = align(kept, samples, length, length // 4, counts)
        avg = ensemble_average(windows)
        if np.ptp(avg) != 0:
            vals = normalized_dissim(windows, avg)  # >= 3 rows, all non-constant
            kept = kept[vals <= vals.mean() + 3.0 * vals.std(ddof=1)]
    if counts is not None:
        counts.update(constant_windows=constant, outliers=len(refs) - constant - len(kept))
    return kept, len(refs) - len(kept)
