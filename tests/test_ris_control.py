"""The surface's beam states, its switching rule and the genie lookup.

The switching sequences are read from ``engine.run``'s trace: in the
switching modes a slot's table row is the surface state in force.
"""

import numpy as np
import pytest

from reference_engine import slot_columns
from rissim import presets
from rissim.config import ConfigError, aligned_states
from rissim.engine import build_link_tables, iid_state, run


@pytest.fixture(scope="module")
def base():
    """The two-UE scheduling preset (UEs at 30 and 45 deg, one state each), from slot 0."""
    return presets.schedule_config().with_overrides(
        {"sim.warmup_s": "0", "ris.offset_slots": "0"}
    )


def states(cfg, mode="periodic", slots=10, **ris):
    """The surface state of each of the first ``slots`` slots of a run."""
    overrides = {"ris.mode": mode, "sim.duration_s": str(slots * 0.5e-3)}
    overrides.update({f"ris.{key}": str(value) for key, value in ris.items()})
    return slot_columns(run(cfg.with_overrides(overrides))[0])["row"]


class TestDistribution:
    def test_two_states_equal_probability(self, base):
        rows = build_link_tables(base, np.random.default_rng(0), 1)[0]  # two states, no surface
        assert len(rows) == 3 and aligned_states(base) == (0, 1)
        # Without ris.probs every state is equally likely.
        seq = states(base, "iid", slots=50, ts_slots=1, seed=42)
        assert seq == [iid_state(42, t, [0.5, 0.5]) for t in range(50)]

    def test_identical_angles_still_two_entries(self, base):
        cfg = base.with_overrides({"ris.angles": "30:0,30:0"})
        assert len(build_link_tables(cfg, np.random.default_rng(0), 1)[0]) == 3
        assert aligned_states(cfg) == (0, -1)  # the first match


class TestPeriodicSwitching:
    def test_alternation_with_interval_two(self, base):
        assert states(base, slots=6, ts_slots=2) == [0, 0, 1, 1, 0, 0]

    def test_slot_zero_is_state_zero(self, base):
        assert states(base, slots=1, ts_slots=7) == [0]

    def test_exact_dwell_counts_over_full_cycle(self, base):
        ts = 5
        seq = states(base, slots=2 * ts, ts_slots=ts)
        assert seq.count(0) == ts and seq.count(1) == ts
        for start in range(0, 2 * ts, ts):
            assert len(set(seq[start : start + ts])) == 1

    def test_offset_shifts_boundaries(self, base):
        seq = states(base, slots=9, ts_slots=4, offset_slots=3)
        assert seq == [0, 1, 1, 1, 1, 0, 0, 0, 0]  # slot 1 starts interval (1+3)//4 = 1


class TestIidSwitching:
    def test_reproducible_from_seed(self):
        seq1 = [iid_state(42, i, [0.5, 0.5]) for i in range(50)]
        seq2 = [iid_state(42, i, [0.5, 0.5]) for i in range(50)]
        assert seq1 == seq2

    def test_constant_within_interval(self, base):
        seq = states(base, "iid", slots=100, ts_slots=10, seed=7)
        for start in range(0, 100, 10):
            assert len(set(seq[start : start + 10])) == 1
        assert seq[::10] == [iid_state(7, i, [0.5, 0.5]) for i in range(10)]

    def test_empirical_frequency_converges(self):
        n = 100_000
        hits = sum(iid_state(123, i, [0.5, 0.5]) == 0 for i in range(n))
        assert hits / n == pytest.approx(0.5, abs=0.01)


class TestGenieLookup:
    def test_finds_own_state(self, base):
        cfg = base.with_overrides({"ris.angles": "45:0,30:0"})
        assert aligned_states(cfg) == (1, 0)

    def test_missing_angle_raises(self, base):
        cfg = base.with_overrides({"ris.angles": "30:0,60:0"})
        assert aligned_states(cfg) == (0, -1)
        with pytest.raises(ConfigError) as exc:
            run(cfg.with_overrides({"ris.mode": "genie", "sim.duration_s": "0.01"}))
        assert type(exc.value) is ConfigError
        assert str(exc.value) == "ris.mode: genie requires a state aligned to every UE (ris.angles)"
