"""State set, switching policies, and the genie lookup."""

from types import SimpleNamespace

import numpy as np
import pytest

from rissim.array_model import upa_profile
from rissim.ris_control import SamplingDistribution, SwitchPolicy, genie_state_for, state_at_slot


def _two_states(nu1_deg, nu2_deg, n):
    """Equal-probability states steered at two azimuths on an n x n surface."""
    states = [upa_profile(nu, 0.0, n, n) for nu in (nu1_deg, nu2_deg)]
    return SamplingDistribution(states=states, probs=[0.5, 0.5])


@pytest.fixture(scope="module")
def dist():
    return _two_states(30.0, 45.0, 8)


class TestDistribution:
    def test_two_states_equal_probability(self, dist):
        assert len(dist) == 2
        assert dist.probs == [0.5, 0.5]
        assert dist.states[0].nu_deg == 30.0
        assert dist.states[1].nu_deg == 45.0

    def test_identical_angles_still_two_entries(self):
        d = _two_states(30.0, 30.0, 4)
        assert len(d) == 2

    def test_probs_must_sum_to_one(self, dist):
        assert sum(dist.probs) == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(ValueError):
            SamplingDistribution(states=dist.states, probs=[0.6, 0.6])


class TestPeriodicSwitching:
    def test_alternation_with_interval_two(self, dist):
        pol = SwitchPolicy(mode="periodic", ts_slots=2)
        seq = [state_at_slot(t, pol, dist) for t in range(6)]
        assert seq == [0, 0, 1, 1, 0, 0]

    def test_slot_zero_is_state_zero(self, dist):
        pol = SwitchPolicy(mode="periodic", ts_slots=7)
        assert state_at_slot(0, pol, dist) == 0

    def test_exact_dwell_counts_over_full_cycle(self, dist):
        ts = 5
        pol = SwitchPolicy(mode="periodic", ts_slots=ts)
        seq = [state_at_slot(t, pol, dist) for t in range(2 * ts)]
        assert seq.count(0) == ts and seq.count(1) == ts
        for start in range(0, 2 * ts, ts):
            assert len(set(seq[start : start + ts])) == 1

    def test_offset_shifts_boundaries(self, dist):
        pol = SwitchPolicy(mode="periodic", ts_slots=4, offset_slots=3)
        assert state_at_slot(0, pol, dist) == 0
        assert state_at_slot(1, pol, dist) == 1  # (1+3)//4 = 1

    def test_negative_slot_rejected(self, dist):
        pol = SwitchPolicy(mode="periodic", ts_slots=4)
        with pytest.raises(ValueError):
            state_at_slot(-1, pol, dist)


class TestIidSwitching:
    def test_reproducible_from_seed(self, dist):
        pol = SwitchPolicy(mode="iid", ts_slots=10, seed=42)
        seq1 = [state_at_slot(t, pol, dist) for t in range(0, 500, 10)]
        seq2 = [state_at_slot(t, pol, dist) for t in range(0, 500, 10)]
        assert seq1 == seq2

    def test_constant_within_interval(self, dist):
        pol = SwitchPolicy(mode="iid", ts_slots=10, seed=7)
        for start in range(0, 100, 10):
            vals = {state_at_slot(t, pol, dist) for t in range(start, start + 10)}
            assert len(vals) == 1

    def test_empirical_frequency_converges(self, dist):
        pol = SwitchPolicy(mode="iid", ts_slots=1, seed=123)
        n = 100_000
        hits = sum(state_at_slot(t, pol, dist) == 0 for t in range(n))
        assert hits / n == pytest.approx(0.5, abs=0.01)


class TestGenieLookup:
    def test_finds_own_state(self, dist):
        assert genie_state_for(SimpleNamespace(nu_deg=30.0, psi_deg=0.0), dist) == 0
        assert genie_state_for(SimpleNamespace(nu_deg=45.0, psi_deg=0.0), dist) == 1

    def test_missing_angle_raises(self, dist):
        with pytest.raises(LookupError):
            genie_state_for(SimpleNamespace(nu_deg=60.0, psi_deg=0.0), dist)


class TestPolicyValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError):
            SwitchPolicy(mode="sometimes", ts_slots=1)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            SwitchPolicy(mode="periodic", ts_slots=0)
