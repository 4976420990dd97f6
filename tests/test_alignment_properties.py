"""Batched alignment against the per-event loop it replaced, as properties.

`loop_best_lag` and `loop_align_events` are the one-event-at-a-time
implementations that `signal_core.best_lag` and `grouping.align_events`
replaced; they are kept here as the oracle for the batched kernels.
"""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import cardioseis as cs
from cardioseis.errors import DegenerateAnalysisError, InputError
from cardioseis.event_detection import ScgEvent
from cardioseis.grouping import align_events, compare_criteria
from cardioseis.signal_core import best_lag, rms

from conftest import run_synth_analysis

PROPERTY = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def loop_best_lag(x, y, max_lag):
    """The per-waveform loop: one dot product per lag, in tie-break order."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        raise DegenerateAnalysisError("degenerate correlation")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.linalg.norm(xc) * np.linalg.norm(yc)
    if denom == 0:
        raise DegenerateAnalysisError("degenerate correlation")
    best = None
    for lag in sorted(range(-max_lag, max_lag + 1), key=lambda l: (abs(l), l)):
        if lag >= 0:
            n = min(len(x), len(y) - lag)
            xs, ys = xc[:n], yc[lag:lag + n]
        else:
            n = min(len(x) + lag, len(y))
            xs, ys = xc[-lag:-lag + n], yc[:n]
        if n < 2:
            continue
        r = float(np.dot(xs, ys) / denom)
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


def _loop_shift(ev, lag):
    length = len(ev.window)
    n = len(ev.source)
    lo = length // 2 - ev.ref_index
    hi = n - length + length // 2 - ev.ref_index
    lag = int(np.clip(lag, lo, hi))
    if lag == 0:
        return ev
    ref = ev.ref_index + lag
    start = ref - length // 2
    return replace(ev, ref_index=ref, window=ev.source.samples[start:start + length].copy(),
                   align_shift=ev.align_shift + lag)


def loop_align_events(events, max_shift):
    """The per-event two-pass alignment: one best_lag call per event."""
    usable = [ev for ev in events if np.ptp(ev.window) > 0]
    reference = max(usable, key=lambda ev: rms(ev.window))
    aligned = [_loop_shift(ev, loop_lag_or_zero(reference.window, ev.window, max_shift))
               for ev in usable]
    avg = np.mean(np.stack([ev.window for ev in aligned]), axis=0)
    if np.ptp(avg) > 0:
        aligned = [_loop_shift(ev, loop_lag_or_zero(avg, ev.window, max_shift))
                   for ev in aligned]
    return aligned


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
    @given(lag_problems(INTS))
    def test_single_waveform_matches_loop(self, problem):
        x, rows, max_lag = problem
        try:
            want = loop_best_lag(x, rows[0], max_lag)
        except DegenerateAnalysisError:
            with pytest.raises(DegenerateAnalysisError, match="degenerate correlation"):
                best_lag(x, rows[0], max_lag)
        else:
            assert best_lag(x, rows[0], max_lag) == want

    @PROPERTY
    @given(lag_problems(FLOATS), st.floats(1e-3, 1e3))
    def test_lags_invariant_to_scale(self, problem, k):
        x, rows, max_lag = problem
        assert best_lag(k * x, k * rows, max_lag).tolist() == best_lag(x, rows, max_lag).tolist()

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


BURST = np.sin(2 * np.pi * 20 * np.arange(80) / 320) * np.exp(-np.arange(80) / 16)


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
        ch = cs.Channel(x, 320.0)
        events = [ScgEvent(c + j, x[c + j - 40:c + j + 40].copy(), ch)
                  for c, j in zip(centers, jitters)]
        aligned = align_events(events, 8)
        offsets = {ev.ref_index - c for ev, c in zip(aligned, centers)}
        assert len(offsets) == 1
        (offset,) = offsets
        assert [ev.align_shift for ev in aligned] == [offset - j for j in jitters]
        for ev, c in zip(aligned, centers):
            assert np.array_equal(ev.window, x[c + offset - 40:c + offset + 40])

    @pytest.mark.parametrize("coupling,seed", [(cs.Coupling.VOLUME, 41),
                                               (cs.Coupling.FLOW, 42),
                                               (cs.Coupling.NONE, 43)])
    def test_matches_loop_on_synthetic_groups(self, coupling, seed):
        _, events, _, _ = run_synth_analysis(coupling, seed=seed, screen=False)
        for max_shift in (0, 5, 20, 100):
            got = align_events(events, max_shift)
            want = loop_align_events(events, max_shift)
            assert [(ev.ref_index, ev.align_shift) for ev in got] == \
                [(ev.ref_index, ev.align_shift) for ev in want]
            assert all(np.array_equal(a.window, b.window) for a, b in zip(got, want))

    def test_shifts_clamped_at_recording_edges(self):
        # the first window starts at sample 0 and the last ends at the last
        # sample; the shifts that would centre their bursts are clamped
        centers = [37, 440, 843]
        x = np.zeros(880)
        for c in centers:
            x[c - 24:c + 24] += BURST[:48]
        ch = cs.Channel(x, 320.0)
        events = [ScgEvent(ref, x[ref - 40:ref + 40].copy(), ch) for ref in (40, 440, 840)]
        got = align_events(events, 8)
        want = loop_align_events(events, 8)
        assert [(ev.ref_index, ev.align_shift) for ev in got] == \
            [(ev.ref_index, ev.align_shift) for ev in want]
        assert (got[0].ref_index, got[-1].ref_index) == (40, 840)
        for ev in got:
            assert np.array_equal(ev.window, x[ev.ref_index - 40:ev.ref_index + 40])

    def test_mixed_sources_rejected(self):
        a = cs.Channel(np.concatenate([np.zeros(40), BURST, np.zeros(40)]), 320.0)
        b = cs.Channel(a.samples.copy(), 320.0)
        events = [ScgEvent(80, a.samples[40:120].copy(), a),
                  ScgEvent(80, b.samples[40:120].copy(), b)]
        with pytest.raises(InputError, match="one source channel"):
            align_events(events, 4)


@lru_cache(maxsize=None)
def _labeled_volume_events():
    _, events, _, scg = run_synth_analysis(cs.Coupling.VOLUME, seed=44, screen=False)
    rec = cs.gen_recording(cs.SynthConfig(coupling=cs.Coupling.VOLUME, seed=44))[0]
    return cs.label_events(events, cs.integrate_flow(rec["flow"])), scg


def _scaled(events, scg, k):
    ch = cs.Channel(k * scg.samples, scg.fs)
    return [replace(ev, window=k * ev.window, source=ch) for ev in events]


class TestScaleInvariance:
    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from([1e-3, 0.37, 3.0, 1e4]) | st.floats(0.01, 100.0))
    def test_lags_and_rds_unchanged_by_scale(self, k):
        events, scg = _labeled_volume_events()
        scaled = _scaled(events, scg, k)
        assert [(ev.ref_index, ev.align_shift) for ev in align_events(scaled, 20)] == \
            [(ev.ref_index, ev.align_shift) for ev in align_events(events, 20)]
        base, other = compare_criteria(events), compare_criteria(scaled)
        for a, b in zip(base.groups, other.groups):
            assert b.n == a.n
            assert b.rd == pytest.approx(a.rd, rel=1e-9)
            assert b.mean_dissim_same == pytest.approx(a.mean_dissim_same, rel=1e-9)
            assert b.mean_dissim_alt == pytest.approx(a.mean_dissim_alt, rel=1e-9)
