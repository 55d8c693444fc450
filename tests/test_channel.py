"""The link model of ``engine.link_setup``: line-of-sight channels, scatter,
and the SNR / SE / RSRP of the link tables."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_engine import effective_channel, rician_scatter
from rissim import presets
from rissim.array_model import pattern_gains, steering_vector, upa_profile
from rissim.config import ExperimentConfig, from_flat
from rissim.engine import RSRP_FLOOR_DBM, build_link_tables, link_setup


def _los(n: int, nu_deg: float) -> np.ndarray:
    """The line-of-sight channel of one UE at ``nu_deg`` on an n x n surface."""
    cfg = from_flat({"ue.angles": f"{nu_deg}:0", "geom.n_h": str(n), "geom.n_v": str(n)})
    return link_setup(cfg).los[0]


def _first_tables(cfg):
    """The link tables of a config's first channel epoch."""
    return next(build_link_tables(cfg, link_setup(cfg), np.random.default_rng(0), 1))


def _no_surface(noris_gains, overrides=()):
    """(SNR dB, SE, RSRP) per UE of the no-surface row, one UE per gain.

    By default tx - pathloss - noise is 23 - 60 + 57 = 20 dB, an SNR gain
    of exactly 100.
    """
    n = len(noris_gains)
    cfg = from_flat({
        "ue.angles": ",".join(["0:0"] * n),
        "ue.noise_dbm": ",".join(["-57"] * n),
        "ue.noris_gain": ",".join(map(repr, noris_gains)),
        "geom.n_h": "1",
        "geom.n_v": "1",
        **dict(overrides),
    })
    tables = _first_tables(cfg)
    return tables.snr_db[-1], tables.se[-1], tables.rsrp[-1]


class TestLosChannel:
    def test_boresight_two_by_two_is_ones(self):
        # Ones times the amplitude 1 / (n_h * n_v).
        np.testing.assert_allclose(_los(2, 0.0) * 4, np.ones(4))

    def test_continuous_match_recovers_full_gain(self):
        continuous = np.kron(steering_vector(30.0, 8), steering_vector(0.0, 8))
        h_eff = effective_channel(continuous, _los(8, 30.0))
        assert abs(h_eff) == pytest.approx(1.0, rel=1e-9)

    def test_scatter_power_matches_k_factor(self):
        rng = np.random.default_rng(9)
        k_db = 10.0
        n_draws = 10_000
        los, amplitude = _los(4, 30.0), 1.0 / 16
        power = 0.0
        for _ in range(n_draws):
            ch = los + rician_scatter(amplitude, k_db, 16, rng)
            power += float(np.mean(np.abs(ch - los) ** 2))
        ratio = (power / n_draws) / amplitude**2  # per-element LoS power
        assert ratio == pytest.approx(10 ** (-k_db / 10.0), rel=0.05)

    def test_determinism_per_seed(self):
        los, amplitude = _los(8, 30.0), 1.0 / 64
        a = los + rician_scatter(amplitude, 5.0, 64, np.random.default_rng(4))
        b = los + rician_scatter(amplitude, 5.0, 64, np.random.default_rng(4))
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
        # the far-field scan (unit amplitude per element) as the independent
        # oracle for the same sum.
        for own_deg, other_deg in ((30.0, 45.0), (45.0, 30.0)):
            h = _los(32, own_deg)
            own = upa_profile(own_deg, 0.0, 32, 32, 0.25, dither=True)
            other = upa_profile(other_deg, 0.0, 32, 32, 0.25, dither=True)
            aligned = abs(np.sum(own * h))
            crossed = abs(np.sum(other * h))
            oracle = abs(pattern_gains(other, 0.0, own_deg, 32, 32, 0.25)[0])
            assert crossed * 1024 == pytest.approx(oracle, rel=1e-9)
            assert 20 * math.log10(aligned / crossed) >= 7.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            effective_channel(np.ones(3), np.ones(4))


class TestLinkMaps:
    def test_unit_snr_gives_unit_se(self):
        (snr_db,), (se,), _ = _no_surface([0.1])
        assert snr_db == pytest.approx(0.0, abs=1e-12)
        assert se == pytest.approx(1.0)

    def test_zero_channel_zero_se(self):
        (snr_db,), (se,), _ = _no_surface([0.0])
        assert se == 0.0 and snr_db == -math.inf

    def test_snr_three_gives_two_bits(self):
        _, (se,), _ = _no_surface([math.sqrt(0.03)])
        assert se == pytest.approx(2.0)

    @given(st.floats(0.0, 1e6), st.floats(1e-6, 1e6))
    @settings(max_examples=200, deadline=None)
    def test_se_strictly_increasing(self, snr, delta):
        # Keep the increment above float granularity at the base point.
        delta = max(delta, snr * 1e-7)
        _, (lo, hi), _ = _no_surface([math.sqrt(snr / 100), math.sqrt((snr + delta) / 100)])
        assert hi > lo

    def test_rsrp_floor(self):
        assert _no_surface([0.0])[2] == (RSRP_FLOOR_DBM,)
        # tx - pathloss = -277 dBm: 1e-9 adds -180 dB.
        tiny = {"ue.pathloss_db": "300", "ue.noise_dbm": "-400"}
        assert _no_surface([1e-9], tiny)[2] == (RSRP_FLOOR_DBM,)

    def test_rsrp_formula(self):
        (rsrp,) = _no_surface([0.1], {"budget.rsrp_offset_db": "-5"})[2]
        assert rsrp == pytest.approx(23.0 - 60.0 - 20.0 - 5.0)


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
        tables = _first_tables(ExperimentConfig())
        for k in range(2):
            assert tables.rsrp[k][k] - tables.rsrp[1 - k][k] >= 7.0
            assert tables.snr_db[k][k] - tables.snr_db[1 - k][k] >= 7.0
