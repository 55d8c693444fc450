"""Proportional-fair selection, EWMA dynamics, round-robin baseline.

The rules are the reference loop's (``tests/reference_engine.py``), which
``tests/test_reference_engine.py`` checks against ``engine.run``.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from reference_engine import ewma_update, rr_select, select_ue
from rissim.config import SchedConfig

FLOOR = SchedConfig.floor


class TestPfMetric:
    """The metric ``select_ue`` maximises: rate over average, the average floored."""

    def test_simple_ratio(self):
        # 2.0 / 1.0 = 2.0 against 3.9 / 2.0 = 1.95, then against 4.1 / 2.0 = 2.05.
        assert select_ue([1.0, 2.0], [2.0, 3.9], FLOOR) == 0
        assert select_ue([1.0, 2.0], [2.0, 4.1], FLOOR) == 1

    def test_zero_rate(self):
        # A zero rate scores 0 even over the smallest average.
        assert select_ue([1e-9, 1e3], [0.0, 1e-3], FLOOR) == 1

    def test_floor_guards_division(self):
        # A zero average divides by the floor: 1 / 1e-6 beats 1e5 / 1, 1 / 1e-4 does not.
        assert select_ue([0.0, 1.0], [1.0, 1e5], 1e-6) == 0
        assert select_ue([0.0, 1.0], [1.0, 1e5], 1e-4) == 1


class TestSelectUe:
    def test_argmax(self):
        assert select_ue([1.0, 1.0], [3.0, 1.0], FLOOR) == 0

    def test_metric_tie_lowest_index(self):
        assert select_ue([2.0, 2.0], [1.0, 1.0], FLOOR) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_ue([], [], FLOOR)

    @given(
        t_avgs=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=6),
        rates=st.lists(
            st.floats(0.0, 1e3).map(lambda r: r if r >= 1e-300 else 0.0), min_size=6, max_size=6
        ),
        scale=st.integers(-6, 6).map(lambda k: 2.0**k),
    )
    @settings(max_examples=1000)
    def test_argmax_scale_invariance(self, t_avgs, rates, scale):
        # Joint rescaling of rates and averages keeps the decision, as
        # long as the scaled averages stay above the division floor.  A
        # power-of-two scale of a rate that is 0 or at least 1e-300 is
        # exact, so every ratio keeps its bits; 5e-324 * 0.5 would round to 0.
        n = len(t_avgs)
        rates = rates[:n]
        base = select_ue(list(t_avgs), rates, FLOOR)
        scaled = select_ue([t * scale for t in t_avgs], [r * scale for r in rates], FLOOR)
        assert base == scaled


class TestEwma:
    def test_served_update(self):
        t_avg = [1.0]
        ewma_update(t_avg, 0, [3.0], 0.5, FLOOR)
        assert t_avg[0] == pytest.approx(2.0)

    def test_unserved_pure_decay(self):
        t_avg = [1.0, 1.0]
        ewma_update(t_avg, 0, [3.0, 3.0], 0.5, FLOOR)
        assert t_avg[1] == pytest.approx(0.5)

    def test_vanishing_alpha_first_order(self):
        t_avg = [1.0]
        ewma_update(t_avg, 0, [3.0], 1e-9, FLOOR)
        assert abs(t_avg[0] - 1.0) < 1e-8

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            ewma_update([FLOOR], 0, [1.0], 1.0, FLOOR)

    @given(
        alpha=st.floats(0.01, 0.99),
        rate=st.floats(0.01, 10.0),
    )
    @settings(max_examples=1000, deadline=None)
    def test_fixed_point_reached_within_five_time_constants(self, alpha, rate):
        t_avg = [FLOOR]
        for _ in range(math.ceil(5.0 / alpha)):
            ewma_update(t_avg, 0, [rate], alpha, FLOOR)
        assert t_avg[0] == pytest.approx(rate, rel=0.01)

    def test_fixed_point_small_alpha_spot_check(self):
        alpha = 5e-5
        t_avg = [FLOOR]
        for _ in range(math.ceil(5.0 / alpha)):
            ewma_update(t_avg, 0, [2.5], alpha, FLOOR)
        assert t_avg[0] == pytest.approx(2.5, rel=0.01)


class TestRoundRobin:
    def test_two_ues_alternate(self):
        assert [rr_select(t, 2) for t in range(4)] == [0, 1, 0, 1]

    def test_single_ue(self):
        assert all(rr_select(t, 1) == 0 for t in range(5))

    def test_three_ues_offset(self):
        assert rr_select(7, 3) == 1

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            rr_select(0, 0)


class TestFairnessExtreme:
    def test_large_alpha_splits_symmetric_alternating_channels(self):
        # Per-slot alternation of a symmetric two-level rate pair; with a
        # heavy EWMA weight the long-run served shares stay near 50%.
        alpha = 0.9
        t_avg = [FLOOR, FLOOR]
        served = [0, 0]
        for t in range(10_000):
            rates = [3.0, 1.0] if t % 2 == 0 else [1.0, 3.0]
            k = select_ue(t_avg, rates, FLOOR)
            served[k] += 1
            ewma_update(t_avg, k, rates, alpha, FLOOR)
        share = served[0] / sum(served)
        assert 0.45 <= share <= 0.55
