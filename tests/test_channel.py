"""Cascaded channel construction and the SNR / SE / RSRP maps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_engine import effective_channel
from rissim import presets
from rissim.array_model import design_phase_offsets, pattern_gains, upa_profile
from rissim.channel import (
    LinkBudget,
    RSRP_FLOOR_DBM,
    los_cascaded_channel,
    rsrp_dbm,
    snr_linear,
    spectral_efficiency,
)

BUDGET = LinkBudget(tx_power_dbm=23.0, pathloss_db=60.0, noise_dbm=-37.0)  # tx-pl-noise = 0 dB


class TestLosChannel:
    def test_boresight_two_by_two_is_ones(self):
        ch = los_cascaded_channel(0.0, 0.0, 2, 2, amplitude=1.0)
        np.testing.assert_allclose(ch, np.ones(4))

    def test_continuous_match_recovers_full_gain(self):
        ch = los_cascaded_channel(30.0, 0.0, 8, 8, amplitude=0.7)
        p = upa_profile(30.0, 0.0, 8, 8)
        h_eff = effective_channel(p.continuous, ch)
        assert abs(h_eff) == pytest.approx(64 * 0.7, rel=1e-9)

    def test_scatter_power_matches_k_factor(self):
        rng = np.random.default_rng(9)
        k_db = 10.0
        n_draws = 10_000
        los = los_cascaded_channel(30.0, 0.0, 4, 4, amplitude=1.0)
        power = 0.0
        for _ in range(n_draws):
            ch = los_cascaded_channel(30.0, 0.0, 4, 4, amplitude=1.0, rician_k_db=k_db, rng=rng)
            power += float(np.mean(np.abs(ch - los) ** 2))
        ratio = (power / n_draws) / 1.0  # per-element LoS power is amplitude^2 = 1
        assert ratio == pytest.approx(10 ** (-k_db / 10.0), rel=0.05)

    def test_determinism_per_seed(self):
        a = los_cascaded_channel(30.0, 0.0, 8, 8, rician_k_db=5.0, rng=np.random.default_rng(4))
        b = los_cascaded_channel(30.0, 0.0, 8, 8, rician_k_db=5.0, rng=np.random.default_rng(4))
        np.testing.assert_array_equal(a, b)


class TestEffectiveChannel:
    def test_single_element_identity(self):
        z = 0.3 - 0.4j
        assert effective_channel(np.array([1.0 + 0j]), np.array([z])) == pytest.approx(z)

    def test_matched_phase_gives_l1_norm(self):
        rng = np.random.default_rng(2)
        h = (rng.standard_normal(64) + 1j * rng.standard_normal(64))
        phi = np.exp(1j * np.angle(h))
        val = effective_channel(phi, h)
        assert val.real == pytest.approx(np.sum(np.abs(h)), rel=1e-9)
        assert abs(val.imag) < 1e-9 * np.sum(np.abs(h))

    def test_cross_state_at_least_7db_down(self):
        # The 45-degree one-bit state against the 30-degree channel, with
        # the far-field scan as the independent oracle for the same sum.
        offsets = design_phase_offsets(32, 32)
        for own_deg, other_deg in ((30.0, 45.0), (45.0, 30.0)):
            h = los_cascaded_channel(own_deg, 0.0, 32, 32, amplitude=1.0)
            own = upa_profile(own_deg, 0.0, 32, 32, 0.25, offsets)
            other = upa_profile(other_deg, 0.0, 32, 32, 0.25, offsets)
            aligned = abs(effective_channel(own, h))
            crossed = abs(effective_channel(other, h))
            oracle = abs(pattern_gains(other.code, 0.0, own_deg, 32, 32, 0.25, offsets)[0])
            assert crossed == pytest.approx(oracle, rel=1e-9)
            assert 20 * math.log10(aligned / crossed) >= 7.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            effective_channel(np.ones(3), np.ones(4))


class TestLinkMaps:
    def test_unit_snr_gives_unit_se(self):
        h = 1.0 + 0j
        assert snr_linear(h, BUDGET) == pytest.approx(1.0)
        assert spectral_efficiency(snr_linear(h, BUDGET)) == pytest.approx(1.0)

    def test_zero_channel_zero_se(self):
        assert spectral_efficiency(snr_linear(0j, BUDGET)) == 0.0

    def test_snr_three_gives_two_bits(self):
        assert spectral_efficiency(3.0) == pytest.approx(2.0)

    def test_negative_snr_rejected(self):
        with pytest.raises(ValueError):
            spectral_efficiency(-0.1)

    @given(st.floats(0.0, 1e6), st.floats(1e-6, 1e6))
    @settings(max_examples=200)
    def test_se_strictly_increasing(self, snr, delta):
        # Keep the increment above float granularity at the base point.
        delta = max(delta, snr * 1e-7)
        assert spectral_efficiency(snr + delta) > spectral_efficiency(snr)

    def test_rsrp_floor(self):
        assert rsrp_dbm(0j, BUDGET) == RSRP_FLOOR_DBM
        tiny = LinkBudget(23.0, 300.0, -37.0)
        assert rsrp_dbm(1e-9 + 0j, tiny) == RSRP_FLOOR_DBM

    def test_rsrp_formula(self):
        b = LinkBudget(23.0, 60.0, -120.0, rsrp_offset_db=-5.0)
        assert rsrp_dbm(0.1 + 0j, b) == pytest.approx(23.0 - 60.0 - 20.0 - 5.0)


def _first_tables(cfg):
    """The link tables of a preset's first channel epoch."""
    from rissim.engine import build_distribution, build_link_tables, link_setup

    [tables] = build_link_tables(
        cfg, link_setup(cfg, build_distribution(cfg)), np.random.default_rng(0)
    )
    return tables


class TestCalibratedLevels:
    def test_two_ue_preset_reproduces_measured_rsrp(self):
        tables = _first_tables(presets.schedule_config())
        for k, (hi, lo) in enumerate(zip(presets.RSRP_ALIGNED_DBM, presets.RSRP_MISALIGNED_DBM)):
            assert tables.rsrp[k][k] == pytest.approx(hi, abs=1e-6)
            assert tables.rsrp[1 - k][k] == pytest.approx(lo, abs=1e-6)

    def test_single_ue_preset_rsrp_with_and_without_surface(self):
        for k in range(2):
            tables = _first_tables(presets.single_ue_config(k, ris_on=True))
            assert tables.rsrp[0][0] == pytest.approx(presets.RSRP_ALIGNED_DBM[k], abs=1e-6)
            # Last row is the no-surface scalar channel.
            assert tables.rsrp[-1][0] == pytest.approx(presets.RSRP_NO_SURFACE_DBM[k], abs=1e-6)

    def test_pure_geometry_alignment_gap_exceeds_7db(self):
        # Without the residual direct path the gap is set by the array
        # cross-correlation alone and must still clear 7 dB.
        offsets = design_phase_offsets(32, 32)
        states = [upa_profile(nu, 0.0, 32, 32, 0.25, offsets) for nu in (30.0, 45.0)]
        for k, nu in enumerate((30.0, 45.0)):
            h = los_cascaded_channel(nu, 0.0, 32, 32)
            aligned = abs(effective_channel(states[k], h))
            crossed = abs(effective_channel(states[1 - k], h))
            assert 20 * math.log10(aligned / crossed) >= 7.0
