"""MCS table and block-error curve, and the reference loop's outer-loop
stepping, CQI cap and HARQ process (``tests/reference_engine.py``)."""

import math

import numpy as np
import pytest

from reference_engine import (
    DISCARD,
    RETRANSMIT,
    HarqProcess,
    OuterLoop,
    bler_curve,
    cqi_update,
    harq_on_nack,
    step_mcs,
)
from rissim.config import LaConfig
from rissim.engine import MCS_TABLE_64QAM, thresholds_db

THRESHOLDS = thresholds_db(LaConfig.impl_margin_db)
CQI = (LaConfig.cqi_backoff_db, LaConfig.mcs_min)
BAND = (LaConfig.bler_low, LaConfig.bler_high)


def windowed(mcs=10, scheduled=0, retx=0, **kwargs):
    return OuterLoop(mcs, LaConfig.mcs_min, win_scheduled=scheduled, win_retx=retx, **kwargs)


class TestMcsEntries:
    def test_shape_and_orders(self):
        assert len(MCS_TABLE_64QAM) == 29
        assert {e.modulation_order for e in MCS_TABLE_64QAM} == {2, 4, 6}

    def test_se_increasing_and_capped(self):
        # The cited table is strictly increasing except for the single
        # 16QAM-to-64QAM handover at indices 16 -> 17 (2.5703 -> 2.5664),
        # which is verbatim from the standard.
        ses = [e.se for e in MCS_TABLE_64QAM]
        inversions = [i for i, (a, b) in enumerate(zip(ses, ses[1:])) if b <= a]
        assert inversions == [16]
        assert ses[16] == pytest.approx(2.5703)
        assert ses[17] == pytest.approx(2.5664)
        assert max(ses) == pytest.approx(5.5547)

    def test_thresholds_are_shannon_limit_plus_margin(self):
        for margin in (0.0, 3.0, -1.5):
            for e, thr in zip(MCS_TABLE_64QAM, thresholds_db(margin), strict=True):
                assert thr == 10.0 * math.log10(2.0**e.se - 1.0) + margin


class TestBlerModel:
    def test_midpoint_at_threshold(self):
        assert bler_curve(THRESHOLDS[10], THRESHOLDS)[10] == pytest.approx(0.5)

    def test_deep_tail(self):
        assert bler_curve(THRESHOLDS[10] + 20.0, THRESHOLDS, 1.0)[10] < 1e-8

    def test_monotone_in_snr_and_mcs(self):
        # Exhaustive sweep on a 0.1 dB grid around each threshold.
        for mcs, thr in enumerate(THRESHOLDS):
            grid = np.arange(thr - 10.0, thr + 30.0, 0.1)
            values = [bler_curve(s, THRESHOLDS)[mcs] for s in grid]
            assert all(b < a for a, b in zip(values, values[1:]))
        for snr in (-5.0, 5.0, 15.0, 25.0):
            by_mcs = bler_curve(snr, THRESHOLDS)
            rises = [
                i for i, (a, b) in enumerate(zip(by_mcs, by_mcs[1:])) if b < a - 1e-15
            ]
            # Error probability grows with the index except across the
            # table's single spectral-efficiency inversion at 16 -> 17.
            assert rises in ([], [16])


class TestMeasureBler:
    """``step_mcs`` measures the window's retransmission ratio, 0.0 when empty."""

    @pytest.mark.parametrize("window,expected", [((10, 1), 0.1), ((0, 0), 0.0), ((20, 4), 0.2)])
    def test_ratio(self, window, expected):
        # A band of width 0 at the ratio holds the MCS; moving its low edge
        # one float up makes the same window step up.
        held = windowed(10, *window)
        step_mcs(held, expected, expected)
        raised = windowed(10, *window)
        step_mcs(raised, math.nextafter(expected, 1.0), 1.0)
        assert (held.mcs, raised.mcs) == (10, 11)


class TestStepMcs:
    def test_step_up_on_low_bler(self):
        s = windowed(10, scheduled=50, retx=1)  # 0.02
        step_mcs(s, *BAND)
        assert s.mcs == 11

    def test_step_down_on_high_bler(self):
        s = windowed(10, scheduled=50, retx=10)  # 0.20
        step_mcs(s, *BAND)
        assert s.mcs == 9

    def test_floor_clamp(self):
        s = windowed(3, scheduled=50, retx=10)
        step_mcs(s, *BAND)
        assert s.mcs == 3

    def test_dead_zone(self):
        s = windowed(10, scheduled=50, retx=5)  # 0.10
        step_mcs(s, *BAND)
        assert s.mcs == 10

    def test_cqi_cap_clamp(self):
        s = windowed(20, scheduled=100, retx=1, cqi_cap=20)
        step_mcs(s, *BAND)
        assert s.mcs == 20

    def test_empty_window_steps_up(self):
        # A UE not served in the window measures 0.0, below the band.
        s = windowed(10)
        step_mcs(s, *BAND)
        assert s.mcs == 11

    def test_window_reset(self):
        s = windowed(10, scheduled=50, retx=10)
        step_mcs(s, *BAND)
        assert (s.win_scheduled, s.win_retx) == (0, 0)


class TestCqiCap:
    def test_high_snr_reaches_table_top(self):
        assert cqi_update(60.0, THRESHOLDS, *CQI) == 28

    def test_low_snr_floors_at_minimum(self):
        assert cqi_update(-20.0, THRESHOLDS, *CQI) == 3

    def test_exact_boundary(self):
        snr = THRESHOLDS[14] + 2.0
        assert cqi_update(snr, THRESHOLDS, 2.0, 3) == 14

    def test_cap_is_last_index_that_fits(self):
        # Index 17's threshold is below index 16's: at 17's threshold 16 does
        # not fit, and the cap is still 17.
        assert THRESHOLDS[17] < THRESHOLDS[16]
        assert cqi_update(THRESHOLDS[17] + 2.0, THRESHOLDS, 2.0, 3) == 17


class TestHarq:
    def test_first_nack_retransmits(self):
        p = HarqProcess(tb_bits=1000, mcs_used=12)
        assert harq_on_nack(p) == RETRANSMIT
        assert p.attempts == 2
        assert p.mcs_used == 12

    def test_fourth_attempt_discards(self):
        p = HarqProcess(tb_bits=1000, mcs_used=12, attempts=4)
        assert harq_on_nack(p) == DISCARD
        assert p.attempts == 4

    def test_attempt_budget_is_three_retransmissions(self):
        p = HarqProcess(tb_bits=1000, mcs_used=12)
        outcomes = [harq_on_nack(p) for _ in range(4)]
        assert outcomes == [RETRANSMIT, RETRANSMIT, RETRANSMIT, DISCARD]


def _drive_link(snr_db, n_windows, rng, state=None, slots_per_window=140):
    """Minimal closed-loop driver: one UE scheduled every slot with
    stop-and-wait HARQ, outer-loop stepping at window boundaries."""
    state = state or windowed(LaConfig.mcs_min)
    curve = bler_curve(snr_db, THRESHOLDS)
    proc = None
    total_sched = total_retx = 0
    events = []
    for _ in range(n_windows):
        for _ in range(slots_per_window):
            if proc is not None:
                mcs_used, is_retx = proc.mcs_used, True
            else:
                mcs_used, is_retx = state.mcs, False
                proc = HarqProcess(tb_bits=1, mcs_used=mcs_used)
            nack = rng.random() < curve[mcs_used]
            if nack:
                if harq_on_nack(proc) == DISCARD:
                    proc = None
            else:
                proc = None
            state.win_scheduled += 1
            total_sched += 1
            if is_retx:
                state.win_retx += 1
                total_retx += 1
        measured = state.win_retx / state.win_scheduled
        mcs_before = state.mcs
        step_mcs(state, *BAND)
        events.append((measured, mcs_before, state.mcs))
    return state, events, total_retx / total_sched


class TestClosedLoop:
    def test_static_snr_regulates_bler_into_band(self):
        rng = np.random.default_rng(21)
        for snr_db in (8.0, 14.0, 19.0):
            _, events, long_run = _drive_link(snr_db, 400, rng)
            settle = events[50:]
            measured = [m for m, _, _ in settle]
            assert 0.05 <= np.mean(measured) <= 0.15
            assert 0.05 <= np.mean([m for m, _, _ in events[50:]]) <= 0.15

    def test_downward_snr_step_overshoots_before_mcs_reacts(self):
        rng = np.random.default_rng(22)
        state, _, _ = _drive_link(19.0, 120, rng)
        mcs_at_step = state.mcs
        _, events, _ = _drive_link(9.0, 3, rng, state=state)
        first_measured, mcs_before, _ = events[0]
        assert first_measured > 0.15
        assert mcs_before == mcs_at_step  # excursion precedes the correction

    def test_upward_snr_step_undershoots_before_mcs_reacts(self):
        rng = np.random.default_rng(23)
        state, _, _ = _drive_link(9.0, 120, rng)
        mcs_at_step = state.mcs
        _, events, _ = _drive_link(19.0, 3, rng, state=state)
        first_measured, mcs_before, _ = events[0]
        assert first_measured < 0.05
        assert mcs_before == mcs_at_step
