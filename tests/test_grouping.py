import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cardioseis as cs
from cardioseis.errors import DegenerateAnalysisError, InputError
from cardioseis.event_detection import ScgEvent
from cardioseis.grouping import (RD_TIE_TOLERANCE, align_events, compare_criteria,
                                 drms, ensemble_average, evaluate_criterion,
                                 mean_dissimilarity, normalized_dissim,
                                 relative_difference, Criterion, Winner)
from cardioseis.respiration import FlowPhase, VolumePhase

from conftest import DATA_DIR, run_synth_analysis

BURST = np.sin(2 * np.pi * 20 * np.arange(80) / 320) * np.exp(-np.arange(80) / 16)


def event_at(ch, ref, length=80, **labels):
    window = ch.samples[ref - length // 2: ref - length // 2 + length].copy()
    return ScgEvent(ref_index=ref, window=window, source=ch, **labels)


def planted_channel(offsets, length=80):
    n = max(offsets) + 4 * length
    x = np.zeros(n)
    for p in offsets:
        x[p:p + length] += BURST[:length]
    return cs.Channel(x, 320.0)


@lru_cache(maxsize=None)
def labeled_synth_events(coupling, seed):
    """Detected, labeled, unscreened events of one synthetic recording."""
    _, events, _, _ = run_synth_analysis(coupling, seed=seed, screen=False)
    rec = cs.gen_recording(cs.SynthConfig(coupling=coupling, seed=seed))[0]
    return tuple(cs.label_events(events, cs.integrate_flow(rec["flow"])))


OTHER_LABEL = {FlowPhase.INSPIRATION: FlowPhase.EXPIRATION,
               FlowPhase.EXPIRATION: FlowPhase.INSPIRATION,
               VolumePhase.LLV: VolumePhase.HLV, VolumePhase.HLV: VolumePhase.LLV}


def pair_winner(rd_flow, rd_volume):
    """The criterion whose group has the larger RD; a tie within tolerance."""
    if abs(rd_volume - rd_flow) <= RD_TIE_TOLERANCE:
        return Winner.TIE
    return Winner.LUNG_VOLUME if rd_volume > rd_flow else Winner.FLOW_RATE


class TestAlignEvents:
    def test_identical_events_zero_shift(self):
        ch = planted_channel([200, 600, 1000])
        events = [event_at(ch, p + 40) for p in (200, 600, 1000)]
        aligned = align_events(events, 10)
        assert [ev.align_shift for ev in aligned] == [0, 0, 0]

    def test_known_jitter_recovered(self):
        ch = planted_channel([200, 600, 1000, 1400])
        jitters = [0, 3, -4, 2]
        events = [event_at(ch, p + 40 + j) for p, j in zip((200, 600, 1000, 1400), jitters)]
        aligned = align_events(events, 8)
        # after alignment every ref lands back on the true beat center
        assert [ev.ref_index - p - 40 for ev, p in zip(aligned, (200, 600, 1000, 1400))] == [0] * 4
        assert [ev.align_shift for ev in aligned] == [-j for j in jitters]

    def test_single_event_unchanged(self):
        ch = planted_channel([300])
        ev = event_at(ch, 340)
        aligned = align_events([ev], 10)
        assert aligned[0].align_shift == 0
        assert np.array_equal(aligned[0].window, ev.window)

    def test_constant_window_dropped(self):
        ch = planted_channel([300, 700])
        flat = ScgEvent(ref_index=500, window=np.zeros(80), source=ch)
        aligned = align_events([event_at(ch, 340), flat, event_at(ch, 740)], 8)
        assert len(aligned) == 2

    def test_empty_errors(self):
        with pytest.raises(DegenerateAnalysisError):
            align_events([], 8)


class TestEnsembleAverage:
    def test_identical_windows_exact(self):
        ch = planted_channel([300])
        events = [event_at(ch, 340) for _ in range(5)]
        avg = ensemble_average(events)
        assert np.array_equal(avg, events[0].window)

    def test_cancellation(self):
        ch = planted_channel([300])
        a = event_at(ch, 340)
        b = ScgEvent(ref_index=340, window=-a.window, source=ch)
        assert np.allclose(ensemble_average([a, b]), 0.0)

    def test_matches_brute_force_mean(self, rng):
        ch = planted_channel([300])
        events = [ScgEvent(ref_index=340, window=rng.normal(size=80), source=ch)
                  for _ in range(7)]
        avg = ensemble_average(events)
        brute = sum(ev.window for ev in events) / 7
        assert np.allclose(avg, brute, atol=1e-12)

    def test_empty_group(self):
        with pytest.raises(DegenerateAnalysisError, match="empty group"):
            ensemble_average([])


class TestDissimilarityMetrics:
    def test_drms_zero_iff_identical(self):
        assert drms(BURST, BURST) == 0.0

    def test_drms_constant_difference(self):
        assert drms([1, 1, 1], [0, 0, 0]) == pytest.approx(1.0)

    def test_drms_hand_case(self):
        # sqrt((1+4)/2)
        assert drms([1, 2], [0, 0]) == pytest.approx(1.5811, abs=1e-4)

    def test_drms_length_mismatch(self):
        with pytest.raises(InputError):
            drms([1, 2, 3], [1, 2])

    def test_normalized_zero_for_identical(self):
        assert normalized_dissim(BURST, BURST) == 0.0

    def test_normalized_hand_case(self):
        assert normalized_dissim([2, 2], [1, 1]) == pytest.approx(100.0)

    def test_normalized_scale_invariance(self, rng):
        event = rng.normal(size=64)
        avg = rng.normal(size=64)
        base = normalized_dissim(event, avg)
        for k in (0.1, 3.0, 1e6):
            assert normalized_dissim(k * event, k * avg) == pytest.approx(base, rel=1e-9)

    def test_normalized_degenerate_average(self):
        with pytest.raises(DegenerateAnalysisError, match="degenerate group average"):
            normalized_dissim(BURST, np.zeros(80))

    def test_mean_dissimilarity_hand_case(self):
        # events with normalized dissimilarities 10% and 30%
        ch = cs.Channel(np.concatenate([BURST, BURST]), 320.0)
        avg = np.array([10.0, 10.0])
        ev1 = ScgEvent(0, np.array([11.0, 11.0]), ch)   # 10%
        ev2 = ScgEvent(0, np.array([13.0, 13.0]), ch)   # 30%
        mean, sd = mean_dissimilarity([ev1, ev2], avg)
        assert mean == pytest.approx(20.0, abs=1e-9)
        assert sd == pytest.approx(14.1421, abs=1e-4)

    def test_mean_dissimilarity_single_event(self):
        ch = cs.Channel(BURST, 320.0)
        ev = ScgEvent(0, np.array([12.0, 12.0]), ch)
        mean, sd = mean_dissimilarity([ev], np.array([10.0, 10.0]))
        assert mean == pytest.approx(20.0)
        assert sd == 0.0

    def test_mean_minimizes_same_group_dissim(self, rng):
        # the ensemble mean beats any single member used as the average
        ch = cs.Channel(BURST, 320.0)
        for _ in range(100):
            events = [ScgEvent(0, rng.normal(size=16) + BURST[:16], ch) for _ in range(6)]
            avg = ensemble_average(events)
            d_mean = np.mean([drms(ev.window, avg) ** 2 for ev in events])
            for member in events:
                d_member = np.mean([drms(ev.window, member.window) ** 2 for ev in events])
                assert d_mean <= d_member + 1e-12


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

    def test_all_28_reference_values(self):
        payload = json.loads((DATA_DIR / "reference_tables.json").read_text())
        checked = 0
        for row in payload["rows"]:
            for g in row["groups"]:
                rd = relative_difference(g["mean_dissim_same"], g["mean_dissim_alt"])
                assert rd == pytest.approx(g["rd"], abs=0.02), (row["recording_id"], g["group"])
                checked += 1
        assert checked == 28


class TestCriteria:
    def test_volume_coupled_winner(self):
        cmp, _, _, _ = run_synth_analysis(cs.Coupling.VOLUME, seed=31)
        assert cmp.winner_insp_llv is Winner.LUNG_VOLUME
        assert cmp.winner_exp_hlv is Winner.LUNG_VOLUME
        assert cmp.llv.rd > 0 and cmp.hlv.rd > 0

    def test_flow_coupled_winner(self):
        cmp, _, _, _ = run_synth_analysis(cs.Coupling.FLOW, seed=32)
        assert cmp.winner_insp_llv is Winner.FLOW_RATE
        assert cmp.winner_exp_hlv is Winner.FLOW_RATE

    def test_uncoupled_rds_near_zero(self):
        cmp, _, _, _ = run_synth_analysis(cs.Coupling.NONE, seed=33)
        assert all(abs(st.rd) < 5.0 for st in cmp.groups)

    def test_degenerate_split_named(self):
        ch = planted_channel([300, 700])
        events = [event_at(ch, 340, flow_phase=FlowPhase.INSPIRATION,
                           volume_phase=VolumePhase.LLV),
                  event_at(ch, 740, flow_phase=FlowPhase.INSPIRATION,
                           volume_phase=VolumePhase.LLV)]
        with pytest.raises(DegenerateAnalysisError, match="degenerate split.*FlowRate"):
            evaluate_criterion(events, Criterion.FLOW_RATE)

    def test_amplitude_invariance_of_stats(self):
        cmp, events, _, scg = run_synth_analysis(cs.Coupling.VOLUME, seed=34, screen=False)
        scaled_ch = cs.Channel(3.0 * scg.samples, scg.fs)
        rec = cs.gen_recording(cs.SynthConfig(coupling=cs.Coupling.VOLUME, seed=34))[0]
        labeled = cs.label_events(events, cs.integrate_flow(rec["flow"]))
        base = compare_criteria(labeled)
        scaled_events = [ScgEvent(ev.ref_index, 3.0 * ev.window, scaled_ch,
                                  flow_phase=ev.flow_phase, volume_phase=ev.volume_phase)
                         for ev in labeled]
        scaled = compare_criteria(scaled_events)
        for a, b in zip(base.groups, scaled.groups):
            assert b.mean_dissim_same == pytest.approx(a.mean_dissim_same, rel=1e-9)
            assert b.mean_dissim_alt == pytest.approx(a.mean_dissim_alt, rel=1e-9)
            assert b.rd == pytest.approx(a.rd, rel=1e-9)

    def test_label_permutation_symmetry(self):
        _, events, _, _ = run_synth_analysis(cs.Coupling.VOLUME, seed=35, screen=False)
        rec = cs.gen_recording(cs.SynthConfig(coupling=cs.Coupling.VOLUME, seed=35))[0]
        labeled = cs.label_events(events, cs.integrate_flow(rec["flow"]))
        def flipped(ev):
            return ScgEvent(ev.ref_index, ev.window, ev.source,
                            flow_phase=(FlowPhase.EXPIRATION
                                        if ev.flow_phase is FlowPhase.INSPIRATION
                                        else FlowPhase.INSPIRATION),
                            volume_phase=ev.volume_phase)
        insp, exp = evaluate_criterion(labeled, Criterion.FLOW_RATE)
        insp_f, exp_f = evaluate_criterion([flipped(ev) for ev in labeled], Criterion.FLOW_RATE)
        assert insp_f.n == exp.n and exp_f.n == insp.n
        assert insp_f.mean_dissim_same == pytest.approx(exp.mean_dissim_same, rel=1e-9)
        assert exp_f.rd == pytest.approx(insp.rd, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(coupling=st.sampled_from(list(cs.Coupling)), seed=st.integers(0, 14),
           swap=st.sampled_from(["flow", "volume", "both"]))
    def test_label_swap_mirrors_stats_and_winners(self, coupling, seed, swap):
        """Swapping every event's flow label swaps the Inspiration and
        Expiration stats; swapping its volume label swaps LLV and HLV; the
        pair winners follow the swapped RDs, and swapping both mirrors them."""
        events = labeled_synth_events(coupling, seed)
        swap_flow, swap_volume = swap in ("flow", "both"), swap in ("volume", "both")
        swapped = [ev.relabeled(OTHER_LABEL[ev.flow_phase] if swap_flow else ev.flow_phase,
                                OTHER_LABEL[ev.volume_phase] if swap_volume else ev.volume_phase)
                   for ev in events]
        base, mirrored = compare_criteria(list(events)), compare_criteria(swapped)
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
