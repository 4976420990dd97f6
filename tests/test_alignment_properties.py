"""Batched alignment against the per-event loop it replaced, as properties.

`loop_best_lag` and `loop_align` are the one-event-at-a-time
implementations that `signal_core.best_lag` and `grouping.align` replaced;
they are kept here as the oracle for the batched kernels.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cardioseis.errors import DegenerateAnalysisError, InputError
from cardioseis.grouping import align, compare_criteria
from cardioseis.respiration import integrate_flow, label_events
from cardioseis.signal_core import _TIE_MARGIN, _pick_columns, best_lag, rms
from cardioseis.synth import Coupling, SynthConfig, gen_recording

from conftest import BURST, TEMPLATE_LENGTH, run_synth_analysis

PROPERTY = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def unit_scale(a):
    """a, centred, times the power of two (an exact scaling) that brings its
    peak-to-peak spread into [0.5, 1), so the squares in its norm cannot
    underflow or overflow."""
    return np.ldexp(a - a.mean(), -np.frexp(np.ptp(a))[1])


def loop_scores(x, y, max_lag):
    """(score, lag) at each lag with an overlap of 2 or more samples, in
    tie-break order: one dot product per lag."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        raise DegenerateAnalysisError("degenerate correlation")
    xc = unit_scale(x)
    yc = unit_scale(y)
    denom = np.linalg.norm(xc) * np.linalg.norm(yc)
    if denom == 0:
        raise DegenerateAnalysisError("degenerate correlation")
    scores = []
    for lag in sorted(range(-max_lag, max_lag + 1), key=lambda l: (abs(l), l)):
        if lag >= 0:
            n = min(len(x), len(y) - lag)
            xs, ys = xc[:n], yc[lag:lag + n]
        else:
            n = min(len(x) + lag, len(y))
            xs, ys = xc[-lag:-lag + n], yc[:n]
        if n >= 2:
            scores.append((float(np.dot(xs, ys) / denom), lag))
    return scores


def loop_best_lag(x, y, max_lag):
    """The per-waveform loop: a score replaces the best so far only if it
    beats it by more than 1e-15."""
    best = None
    for r, lag in loop_scores(x, y, max_lag):
        if best is None or r > best[0] + 1e-15:
            best = (r, lag)
    if best is None:
        raise DegenerateAnalysisError("degenerate correlation")
    return best[1]


def loop_lag_or_zero(x, y, max_lag):
    try:
        return loop_best_lag(x, y, max_lag)
    except DegenerateAnalysisError:
        return 0


def _loop_shift(samples, ref, window, shift, lag):
    """Re-cut one window lag samples later, the lag clamped to the recording;
    returns (ref, window, cumulative shift)."""
    length = len(window)
    lo = length // 2 - ref
    hi = len(samples) - length + length // 2 - ref
    lag = int(np.clip(lag, lo, hi))
    if lag == 0:
        return ref, window, shift
    ref += lag
    start = ref - length // 2
    return ref, samples[start:start + length].copy(), shift + lag


def loop_align(refs, samples, length, max_shift):
    """The per-event two-pass alignment: one best_lag call per event.

    Returns one (ref, window, cumulative shift) per event."""
    events = [(ref, samples[ref - length // 2:][:length].copy()) for ref in refs]
    reference = max((window for _, window in events), key=rms)
    aligned = [_loop_shift(samples, ref, window, 0,
                           loop_lag_or_zero(reference, window, max_shift))
               for ref, window in events]
    avg = np.mean(np.stack([window for _, window, _ in aligned]), axis=0)
    if np.ptp(avg) > 0:
        aligned = [_loop_shift(samples, ref, window, shift,
                               loop_lag_or_zero(avg, window, max_shift))
                   for ref, window, shift in aligned]
    return aligned


def refs_and_shifts(refs, samples, length, max_shift):
    """align's (aligned ref, shift) per event, and its windows."""
    aligned, windows = align(refs, samples, length, max_shift)
    return list(zip(aligned.tolist(), (aligned - refs).tolist())), windows


# integer values make exact ties between lags common
INTS = st.integers(-3, 3).map(float)
FLOATS = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def lag_problems(draw, elements):
    """(x, stack, max_lag): x and the rows may differ in length, some rows
    are constant, and max_lag may reach past the waveform lengths."""
    x = draw(hnp.arrays(float, st.integers(1, 12), elements=elements))
    length = draw(st.integers(1, 12))
    n = draw(st.integers(1, 6))
    rows = draw(hnp.arrays(float, (n, length), elements=elements))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        rows[i] = draw(elements)
    max_lag = draw(st.integers(0, 16))
    return x, rows, max_lag


def assume_scaled_copies(k, *arrays):
    """k * a is a scaled copy of a only while no nonzero value is or becomes
    subnormal: 5e-324 * 0.5 is 0, a constant row."""
    tiny = np.finfo(float).tiny
    assume(all(np.all((a == 0) | ((np.abs(a) >= tiny) & (np.abs(k * a) >= tiny)))
               for a in arrays))


def runner_up_gap(x, y, max_lag):
    """How far the best score of y against x beats the next best; inf when
    the correlation is degenerate or only one lag is usable."""
    try:
        scores = sorted(r for r, _ in loop_scores(x, y, max_lag))
    except DegenerateAnalysisError:
        return np.inf
    return scores[-1] - scores[-2] if len(scores) > 1 else np.inf


class TestBatchedBestLag:
    @PROPERTY
    @given(lag_problems(INTS))
    def test_stack_matches_loop_integer_ties(self, problem):
        x, rows, max_lag = problem
        got = best_lag(x, rows, max_lag)
        assert got.tolist() == [loop_lag_or_zero(x, row, max_lag) for row in rows]

    @PROPERTY
    @given(lag_problems(FLOATS))
    def test_stack_matches_loop_floats(self, problem):
        x, rows, max_lag = problem
        got = best_lag(x, rows, max_lag)
        assert got.tolist() == [loop_lag_or_zero(x, row, max_lag) for row in rows]

    @PROPERTY
    @given(lag_problems(FLOATS), st.integers(-10, 10).map(lambda j: 2.0 ** j))
    def test_lags_invariant_to_scale(self, problem, k):
        # a power of two scales exactly, so best_lag sees the same centred,
        # unit-scaled waveforms and every lag, near-ties included, is kept
        x, rows, max_lag = problem
        assume_scaled_copies(k, x, rows)
        assert best_lag(k * x, k * rows, max_lag).tolist() == best_lag(x, rows, max_lag).tolist()

    @PROPERTY
    @given(lag_problems(FLOATS), st.floats(1e-3, 1e3))
    def test_clear_lags_invariant_to_any_scale(self, problem, k):
        # any other factor rounds the centred values, which moves a score by
        # a few ulps: enough to flip a near-tie, but not a clear best lag
        x, rows, max_lag = problem
        assume_scaled_copies(k, x, rows)
        got, want = best_lag(k * x, k * rows, max_lag), best_lag(x, rows, max_lag)
        for row, a, b in zip(rows, got.tolist(), want.tolist()):
            if runner_up_gap(x, row, max_lag) > 1e-12:
                assert a == b

    def test_near_tie_may_flip_with_scale(self):
        # lags -1 and -4 score within the tie margin of each other: a scan
        # keeps -1 unless -4 beats it by more than 1e-15, and scaling by 3
        # rounds the centred values enough to change that
        x = np.array([0.0, 1e-12, 475.0, 475.0, 0.0] + [475.0] * 7)
        rows = np.array([[0.0, 1.0, 1.0]])
        scores = {lag: r for r, lag in loop_scores(x, rows[0], 4)}
        assert abs(scores[-4] - scores[-1]) < 2 * _TIE_MARGIN
        assert best_lag(x, rows, 4).tolist() == [-4]
        assert best_lag(3 * x, 3 * rows, 4).tolist() == [-1]
        assert best_lag(4 * x, 4 * rows, 4).tolist() == [-4]

    def test_tiny_and_huge_amplitudes(self):
        # the squares of 1e-163 underflow to 0 and those of 2**600 overflow;
        # the lag must not depend on the amplitude
        x, rows = np.array([0.0, 1.0, 0.0]), np.array([[2.3155439e-163, 0.0]])
        for k in (1.0, 14.0, 2.0 ** 600, 2.0 ** 1000):
            assert best_lag(k * x, k * rows, 1).tolist() == [-1]
            assert loop_best_lag(k * x, k * rows[0], 1) == -1

    def test_constant_target_gives_zero_lags(self, rng):
        assert best_lag(np.ones(20), rng.normal(size=(4, 20)), 5).tolist() == [0] * 4

    def test_max_lag_past_length(self, rng):
        mother = rng.normal(size=40)
        x, y = mother[10:20], mother[7:17]
        assert best_lag(x, np.stack([y, y]), 50).tolist() == [3, 3]

    def test_bad_shapes(self):
        with pytest.raises(InputError):
            best_lag(np.ones((2, 3)), np.ones(3), 1)
        with pytest.raises(InputError):
            best_lag(np.arange(3.0), np.ones((1, 1, 3)), 1)
        with pytest.raises(InputError):
            best_lag(np.arange(3.0), np.ones(3), 1)


def sequential_pick(scores):
    """Per row, the column a scan in column order keeps: a score replaces
    the best so far only if it beats it by more than 1e-15."""
    picks = []
    for row in scores:
        best, pick = -np.inf, 0
        for k, r in enumerate(row):
            if r > best + 1e-15:
                best, pick = r, k
        picks.append(pick)
    return picks


@st.composite
def near_tie_scores(draw):
    """(n, K) scores in [-1, 1]: each row spreads around a base value in
    steps of 2**-52 to 2**-49, so it holds exact ties and chains of scores
    closer than 1e-15 to each other, mixed with scores far apart."""
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    rows = []
    for _ in range(n):
        base = draw(st.sampled_from([1.0, -1.0, 0.0, 0.5]) | st.floats(-1.0, 1.0))
        step = 2.0 ** draw(st.integers(-52, -49))
        row = [base + draw(st.integers(-12, 12)) * step
               if draw(st.booleans()) else draw(st.floats(-1.0, 1.0)) for _ in range(k)]
        rows.append(np.clip(row, -1.0, 1.0))
    return np.array(rows)


class TestPickColumns:
    @PROPERTY
    @given(near_tie_scores())
    def test_matches_sequential_scan(self, scores):
        assert _pick_columns(scores).tolist() == sequential_pick(scores)

    def test_near_tie_keeps_the_earlier_column(self):
        # 2**-51 is within the margin, so the later, larger score loses;
        # np.argmax alone would pick column 1
        scores = np.array([[1.0, 1.0 + 2.0 ** -51]])
        assert np.argmax(scores) == 1
        assert _pick_columns(scores).tolist() == [0] == sequential_pick(scores)

    def test_margin_is_strict(self):
        # a score exactly the margin above the best so far does not replace it
        scores = np.array([[0.5, 0.5 + 1e-15], [0.5, 0.5 + 2e-15]])
        assert _pick_columns(scores).tolist() == [0, 1]

    def test_exact_tie_keeps_the_first_column(self):
        scores = np.array([[0.25, 0.5, 0.5], [0.5, -1.0, 0.5]])
        assert _pick_columns(scores).tolist() == [1, 0]

    def test_chain_of_near_ties(self):
        # each step is within the margin of the one before, but the last is
        # more than the margin above the first
        step = 0.75e-15
        scores = np.array([[0.5, 0.5 + step, 0.5 + 2 * step, 0.5 + 3 * step]])
        assert _pick_columns(scores).tolist() == sequential_pick(scores) == [2]


class TestAlignEventsProperties:
    @PROPERTY
    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=8))
    def test_recovers_known_integer_shift(self, jitters):
        # a 48-sample burst centred in an 80-sample window stays whole in
        # every jittered window, and no two jitters differ by more than
        # max_shift, so every relative shift can be recovered exactly
        burst = BURST[:48]
        centers = [200 + 400 * k + 40 for k in range(len(jitters))]
        x = np.zeros(centers[-1] + 400)
        for c in centers:
            x[c - 24:c + 24] += burst
        refs = np.array([c + j for c, j in zip(centers, jitters)])
        aligned, windows = refs_and_shifts(refs, x, 80, 8)
        offsets = {ref - c for (ref, _), c in zip(aligned, centers)}
        assert len(offsets) == 1
        (offset,) = offsets
        assert [shift for _, shift in aligned] == [offset - j for j in jitters]
        for window, c in zip(windows, centers):
            assert np.array_equal(window, x[c + offset - 40:c + offset + 40])

    @pytest.mark.parametrize("coupling,seed", [(Coupling.VOLUME, 41),
                                               (Coupling.FLOW, 42),
                                               (Coupling.NONE, 43)])
    def test_matches_loop_on_synthetic_groups(self, coupling, seed):
        _, refs, _, scg = run_synth_analysis(coupling, seed=seed, screen=False)
        for max_shift in (0, 5, 20, 100):
            got, windows = refs_and_shifts(refs, scg.samples, TEMPLATE_LENGTH, max_shift)
            want = loop_align(refs, scg.samples, TEMPLATE_LENGTH, max_shift)
            assert got == [(ref, shift) for ref, _, shift in want]
            assert all(np.array_equal(a, b) for a, (_, b, _) in zip(windows, want))

    def test_shifts_clamped_at_recording_edges(self):
        # the first window starts at sample 0 and the last ends at the last
        # sample; the shifts that would centre their bursts are clamped
        centers = [37, 440, 843]
        x = np.zeros(880)
        for c in centers:
            x[c - 24:c + 24] += BURST[:48]
        refs = np.array([40, 440, 840])
        got, windows = refs_and_shifts(refs, x, 80, 8)
        want = loop_align(refs, x, 80, 8)
        assert got == [(ref, shift) for ref, _, shift in want]
        assert (got[0][0], got[-1][0]) == (40, 840)
        for (ref, _), window in zip(got, windows):
            assert np.array_equal(window, x[ref - 40:ref + 40])


@lru_cache(maxsize=None)
def _labeled_volume_events():
    """Detected refs, their label masks and the conditioned SCG samples."""
    _, refs, _, scg = run_synth_analysis(Coupling.VOLUME, seed=44, screen=False)
    flow = gen_recording(SynthConfig(coupling=Coupling.VOLUME, seed=44))[0]["flow"]
    return refs, label_events(refs, flow.samples, integrate_flow(flow)), scg.samples


class TestScaleInvariance:
    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from([1e-3, 0.37, 3.0, 1e4]) | st.floats(0.01, 100.0))
    def test_lags_and_rds_unchanged_by_scale(self, k):
        refs, labels, samples = _labeled_volume_events()
        assert refs_and_shifts(refs, k * samples, TEMPLATE_LENGTH, 20)[0] == \
            refs_and_shifts(refs, samples, TEMPLATE_LENGTH, 20)[0]
        base = compare_criteria(refs, *labels, samples, TEMPLATE_LENGTH)
        other = compare_criteria(refs, *labels, k * samples, TEMPLATE_LENGTH)
        for a, b in zip(base.groups, other.groups):
            assert b.n == a.n
            assert b.rd == pytest.approx(a.rd, rel=1e-9)
            assert b.mean_dissim_same == pytest.approx(a.mean_dissim_same, rel=1e-9)
            assert b.mean_dissim_alt == pytest.approx(a.mean_dissim_alt, rel=1e-9)
