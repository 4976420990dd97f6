from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardioseis.errors import DegenerateAnalysisError, InputError
from cardioseis.event_detection import Template, cut_windows, detect_events, ref_bounds
from cardioseis.grouping import (RD_TIE_TOLERANCE, align, compare_criteria,
                                 ensemble_average, evaluate_criterion,
                                 mean_dissimilarity, normalized_dissim,
                                 relative_difference, screen_outliers, Criterion, Winner)
from cardioseis.respiration import integrate_flow, label_events
from cardioseis.signal_core import Channel
from cardioseis.synth import Coupling, SynthConfig, gen_recording

from conftest import BURST, TEMPLATE_LENGTH, run_synth_analysis


def window_at(ch, ref, length=80):
    return ch.samples[ref - length // 2: ref - length // 2 + length].copy()


def planted_channel(offsets, length=80):
    n = max(offsets) + 4 * length
    x = np.zeros(n)
    for p in offsets:
        x[p:p + length] += BURST[:length]
    return Channel(x, 320.0)


@lru_cache(maxsize=None)
def labeled_synth_events(coupling, seed):
    """Detected, unscreened refs of one synthetic recording, their
    (inspiring, high_volume) label masks, and the conditioned SCG samples
    they index."""
    _, refs, _, scg = run_synth_analysis(coupling, seed=seed, screen=False)
    flow = gen_recording(SynthConfig(coupling=coupling, seed=seed))[0]["flow"]
    return refs, label_events(refs, flow.samples, integrate_flow(flow)), scg.samples


def shifts(refs, aligned):
    """Each aligned ref index minus the event's detected one."""
    return (aligned - refs).tolist()


def pair_winner(rd_flow, rd_volume):
    """The criterion whose group has the larger RD; a tie within tolerance."""
    if abs(rd_volume - rd_flow) <= RD_TIE_TOLERANCE:
        return Winner.TIE
    return Winner.LUNG_VOLUME if rd_volume > rd_flow else Winner.FLOW_RATE


class TestAlignEvents:
    def test_identical_events_zero_shift(self):
        ch = planted_channel([200, 600, 1000])
        refs = np.array([p + 40 for p in (200, 600, 1000)])
        aligned, _ = align(refs, ch.samples, 80)
        assert shifts(refs, aligned) == [0, 0, 0]

    def test_known_jitter_recovered(self):
        ch = planted_channel([200, 600, 1000, 1400])
        jitters = [0, 3, -4, 2]
        refs = np.array([p + 40 + j for p, j in zip((200, 600, 1000, 1400), jitters)])
        aligned, _ = align(refs, ch.samples, 80)
        # after alignment every ref lands back on the true beat center
        assert [ref - p - 40 for ref, p in zip(aligned, (200, 600, 1000, 1400))] == [0] * 4
        assert shifts(refs, aligned) == [-j for j in jitters]

    @pytest.mark.xfail(strict=True, reason="a limit of the method: when the burst fills "
                       "its window, jittered windows cut it and the mean subtraction moves "
                       "the correlation peak by one sample")
    def test_known_jitter_recovered_when_burst_fills_window(self):
        offsets = (200, 600, 1000)
        ch = planted_channel(offsets)
        jitters = [0, 4, 4]
        refs = np.array([p + 40 + j for p, j in zip(offsets, jitters)])
        aligned, _ = align(refs, ch.samples, 80)
        assert [ref - p - 40 for ref, p in zip(aligned, offsets)] == [0] * 3
        assert shifts(refs, aligned) == [-j for j in jitters]

    def test_single_event_unchanged(self):
        ch = planted_channel([300])
        refs = np.array([340])
        aligned, windows = align(refs, ch.samples, 80)
        assert shifts(refs, aligned) == [0]
        assert np.array_equal(windows[0], window_at(ch, 340))

    def test_empty_errors(self):
        with pytest.raises(DegenerateAnalysisError):
            align(np.array([], dtype=int), np.zeros(80), 80)

    def test_cut_windows(self):
        ch = planted_channel([300, 700])
        windows = cut_windows(ch.samples, np.array([340, 500, 740]), 80)
        assert windows.shape == (3, 80)
        for window, ref in zip(windows, (340, 500, 740)):
            assert np.array_equal(window, window_at(ch, ref))

    def test_cut_windows_at_the_bounds_of_a_strided_channel(self):
        # every other sample of an array, so that a sample's stride is not
        # its size; the first and the last ref whose windows fit
        x = np.arange(1000.0)[::2]
        first, last = ref_bounds(len(x), 80)
        windows = cut_windows(x, [first, last, first], 80)
        assert np.array_equal(windows, [x[:80], x[-80:], x[:80]])
        windows[0, 0] = -1  # a copy, which leaves x as it was
        assert x[0] == 0


class TestScreenOutliers:
    def test_constant_window_dropped(self):
        ch = planted_channel([300, 700])
        # the window around 500 lies between the two bursts: all zeros
        assert np.ptp(window_at(ch, 500)) == 0
        kept, dropped = screen_outliers(np.array([340, 500, 740]), ch.samples, 80)
        assert (kept.tolist(), dropped) == ([340, 740], 1)

    @pytest.mark.parametrize("refs", [[500], [340, 500], [500, 740]])
    def test_constant_window_dropped_below_three_events(self, refs):
        ch = planted_channel([300, 700])
        counts = {}
        kept, dropped = screen_outliers(np.array(refs), ch.samples, 80, counts=counts)
        assert (kept.tolist(), dropped) == ([r for r in refs if r != 500], 1)
        # below three events the screen aligns nothing
        assert counts == {"constant_windows": 1, "outliers": 0}

    def test_constant_window_warns_and_yields_stats(self):
        x = np.zeros(1900)
        for p, k in zip((300, 700, 1100, 1500), (1.0, 1.2, 0.8, 1.5)):
            x[p:p + 80] += k * BURST
        ch = Channel(x, 320.0)
        # the window around 1300 lies between two bursts: all zeros
        refs = np.array([340, 740, 1140, 1300, 1540])
        counts = {}
        kept, dropped = screen_outliers(refs, ch.samples, 80, counts=counts)
        # the screen's two-pass alignment of the four kept events counts too
        assert counts == {"constant_windows": 1, "outliers": 0, "best_lag_calls": 2,
                          "clamped_shifts": 0}
        assert (kept.tolist(), dropped) == ([340, 740, 1140, 1540], 1)
        first_stats, second_stats = evaluate_criterion(
            kept, np.array([True, True, False, False]), Criterion.FLOW_RATE, ch.samples, 80)
        assert (first_stats.n, second_stats.n) == (2, 2)
        assert first_stats.group_id == "Inspiration"

    def test_no_events(self):
        kept, dropped = screen_outliers(np.empty(0, dtype=int), np.zeros(200), 80)
        assert (kept.tolist(), dropped) == ([], 0)


class TestCounts:
    """What detection and alignment write into the counts dict of a run
    record; TestScreenOutliers pins the screen's."""

    def test_a_burst_cut_off_by_the_start_is_an_edge_peak(self):
        x = planted_channel([300, 700, 1100]).samples.copy()
        x[:70] = BURST[10:]  # a burst that began 10 samples before the channel
        counts = {}
        refs = detect_events(Channel(x, 320.0), Template(BURST.copy(), 320.0), counts=counts)
        assert refs.tolist() == [340, 740, 1140]
        assert (counts["peaks"], counts["edge_peaks"]) == (4, 1)
        assert counts["envelope_threshold"] > 0

    def test_a_shift_past_the_bounds_is_clamped(self):
        # the event at the first ref ref_bounds allows holds a burst that began
        # 5 samples before the channel, so its best lag points outward
        x = planted_channel([300]).samples.copy()
        x[:75] = BURST[5:]
        first, _ = ref_bounds(len(x), 80)
        counts = {}
        aligned, _ = align(np.array([first, 340]), x, 80, counts=counts)
        assert aligned[0] == first
        assert counts["clamped_shifts"] >= 1
        assert counts["best_lag_calls"] == 2
        unclamped = {}
        align(np.array([340]), x, 80, counts=unclamped)
        assert unclamped == {"best_lag_calls": 2, "clamped_shifts": 0}


class TestEnsembleAverage:
    def test_identical_windows_exact(self):
        window = window_at(planted_channel([300]), 340)
        avg = ensemble_average(np.stack([window] * 5))
        assert np.array_equal(avg, window)

    def test_cancellation(self):
        window = window_at(planted_channel([300]), 340)
        assert np.allclose(ensemble_average([window, -window]), 0.0)

    def test_matches_brute_force_mean(self, rng):
        windows = rng.normal(size=(7, 80))
        brute = sum(windows) / 7
        assert np.allclose(ensemble_average(windows), brute, atol=1e-12)

    def test_empty_group(self):
        with pytest.raises(DegenerateAnalysisError, match="empty group"):
            ensemble_average(np.empty((0, 80)))


class TestDissimilarityMetrics:
    # the numerator of the normalized dissimilarity is the drms: the RMS of
    # the pointwise difference between an event and the group average
    def test_drms_zero_iff_identical(self):
        assert normalized_dissim([BURST], BURST).tolist() == [0.0]

    def test_drms_constant_difference(self):
        # drms 1 over an average of RMS 2
        assert normalized_dissim([[3, 3, 3]], [2, 2, 2]) == pytest.approx([50.0])

    def test_drms_hand_case(self):
        # drms sqrt((1+4)/2) = 1.5811 over an average of RMS 1
        assert normalized_dissim([[2, 3]], [1, 1]) == pytest.approx([158.11], abs=1e-2)

    def test_drms_length_mismatch(self):
        with pytest.raises(InputError):
            normalized_dissim([[1, 2, 3]], [1, 2])

    def test_normalized_zero_for_identical(self):
        assert normalized_dissim([BURST, BURST], BURST).tolist() == [0.0, 0.0]

    def test_normalized_hand_case(self):
        assert normalized_dissim([[2, 2], [1, 1]], [1, 1]) == pytest.approx([100.0, 0.0])

    def test_normalized_scale_invariance(self, rng):
        events = rng.normal(size=(5, 64))
        avg = rng.normal(size=64)
        base = normalized_dissim(events, avg)
        for k in (0.1, 3.0, 1e6):
            assert normalized_dissim(k * events, k * avg) == pytest.approx(base, rel=1e-9)

    def test_normalized_degenerate_average(self):
        with pytest.raises(DegenerateAnalysisError, match="degenerate group average"):
            normalized_dissim([BURST], np.zeros(80))

    def test_mean_dissimilarity_hand_case(self):
        # rows with normalized dissimilarities 10% and 30%
        mean, sd = mean_dissimilarity([[11.0, 11.0], [13.0, 13.0]], [10.0, 10.0])
        assert mean == pytest.approx(20.0, abs=1e-9)
        assert sd == pytest.approx(14.1421, abs=1e-4)

    def test_mean_dissimilarity_single_event(self):
        mean, sd = mean_dissimilarity([[12.0, 12.0]], [10.0, 10.0])
        assert mean == pytest.approx(20.0)
        assert sd == 0.0

    def test_mean_minimizes_same_group_dissim(self, rng):
        # the ensemble mean beats any single member used as the average
        for _ in range(100):
            windows = rng.normal(size=(6, 16)) + BURST[:16]
            d_mean = np.mean(np.square(windows - ensemble_average(windows)))
            for member in windows:
                assert d_mean <= np.mean(np.square(windows - member)) + 1e-12


class TestRelativeDifference:
    @pytest.mark.parametrize("same,alt,expected", [
        (25.0252, 33.2976, 33.06),
        (48.9503, 48.2500, -1.43),
        (22.4070, 34.1765, 52.52),
    ])
    def test_reference_rows(self, same, alt, expected):
        assert relative_difference(same, alt) == pytest.approx(expected, abs=0.02)

    def test_equal_means(self):
        assert relative_difference(12.5, 12.5) == 0.0

    def test_zero_same_errors(self):
        with pytest.raises(DegenerateAnalysisError):
            relative_difference(0.0, 10.0)


class TestCriteria:
    def test_volume_coupled_winner(self):
        cmp, _, _, _ = run_synth_analysis(Coupling.VOLUME, seed=31)
        assert cmp.winner_insp_llv is Winner.LUNG_VOLUME
        assert cmp.winner_exp_hlv is Winner.LUNG_VOLUME
        assert cmp.llv.rd > 0 and cmp.hlv.rd > 0

    def test_flow_coupled_winner(self):
        cmp, _, _, _ = run_synth_analysis(Coupling.FLOW, seed=32)
        assert cmp.winner_insp_llv is Winner.FLOW_RATE
        assert cmp.winner_exp_hlv is Winner.FLOW_RATE

    def test_uncoupled_rds_near_zero(self):
        cmp, _, _, _ = run_synth_analysis(Coupling.NONE, seed=33)
        assert all(abs(st.rd) < 5.0 for st in cmp.groups)

    def test_degenerate_split_named(self):
        ch = planted_channel([300, 700])
        # both events inspiring: the Expiration group is empty
        with pytest.raises(DegenerateAnalysisError, match="degenerate split.*FlowRate"):
            evaluate_criterion(np.array([340, 740]), np.array([True, True]),
                               Criterion.FLOW_RATE, ch.samples, 80)

    def test_no_events_named(self):
        # the tag "[group]" is added by the pipeline's stage wrapper, not here
        ch = planted_channel([300, 700])
        no_labels = np.zeros(0, dtype=bool)
        with pytest.raises(DegenerateAnalysisError, match="^no events detected$"):
            compare_criteria(np.zeros(0, dtype=int), no_labels, no_labels, ch.samples, 80)

    def test_amplitude_invariance_of_stats(self):
        cmp, refs, _, scg = run_synth_analysis(Coupling.VOLUME, seed=34, screen=False)
        flow = gen_recording(SynthConfig(coupling=Coupling.VOLUME, seed=34))[0]["flow"]
        labels = label_events(refs, flow.samples, integrate_flow(flow))
        base = compare_criteria(refs, *labels, scg.samples, TEMPLATE_LENGTH)
        scaled = compare_criteria(refs, *labels, 3.0 * scg.samples, TEMPLATE_LENGTH)
        for a, b in zip(base.groups, scaled.groups):
            assert b.mean_dissim_same == pytest.approx(a.mean_dissim_same, rel=1e-9)
            assert b.mean_dissim_alt == pytest.approx(a.mean_dissim_alt, rel=1e-9)
            assert b.rd == pytest.approx(a.rd, rel=1e-9)

    def test_label_permutation_symmetry(self):
        _, refs, _, scg = run_synth_analysis(Coupling.VOLUME, seed=35, screen=False)
        flow = gen_recording(SynthConfig(coupling=Coupling.VOLUME, seed=35))[0]["flow"]
        inspiring, _ = label_events(refs, flow.samples, integrate_flow(flow))
        insp, exp = evaluate_criterion(refs, inspiring, Criterion.FLOW_RATE, scg.samples,
                                       TEMPLATE_LENGTH)
        insp_f, exp_f = evaluate_criterion(refs, ~inspiring, Criterion.FLOW_RATE, scg.samples,
                                           TEMPLATE_LENGTH)
        assert insp_f.n == exp.n and exp_f.n == insp.n
        assert insp_f.mean_dissim_same == pytest.approx(exp.mean_dissim_same, rel=1e-9)
        assert exp_f.rd == pytest.approx(insp.rd, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(coupling=st.sampled_from(list(Coupling)), seed=st.integers(0, 14),
           swap=st.sampled_from(["flow", "volume", "both"]))
    def test_label_swap_mirrors_stats_and_winners(self, coupling, seed, swap):
        """Swapping every event's flow label swaps the Inspiration and
        Expiration stats; swapping its volume label swaps LLV and HLV; the
        pair winners follow the swapped RDs, and swapping both mirrors them."""
        refs, (inspiring, high_volume), samples = labeled_synth_events(coupling, seed)
        swap_flow, swap_volume = swap in ("flow", "both"), swap in ("volume", "both")
        base = compare_criteria(refs, inspiring, high_volume, samples, TEMPLATE_LENGTH)
        mirrored = compare_criteria(refs, inspiring ^ swap_flow, high_volume ^ swap_volume,
                                    samples, TEMPLATE_LENGTH)
        insp, exp = (base.expiration, base.inspiration) if swap_flow else (base.inspiration,
                                                                          base.expiration)
        llv, hlv = (base.hlv, base.llv) if swap_volume else (base.llv, base.hlv)
        for got, want in zip(mirrored.groups, (insp, exp, llv, hlv)):
            assert got.n == want.n
            for field in ("mean_dissim_same", "sd_same", "mean_dissim_alt", "sd_alt", "rd"):
                assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-9)
        assert mirrored.winner_insp_llv is pair_winner(insp.rd, llv.rd)
        assert mirrored.winner_exp_hlv is pair_winner(exp.rd, hlv.rd)
        if swap == "both":
            assert mirrored.winner_insp_llv is base.winner_exp_hlv
            assert mirrored.winner_exp_hlv is base.winner_insp_llv
