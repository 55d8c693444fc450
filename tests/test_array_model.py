"""Steering vectors, one-bit quantization, array factor and beam metrics."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rissim.array_model import (
    DegeneratePatternError,
    _crossing,
    _null_bound,
    _observation_basis,
    beam_metrics,
    design_phase_offsets,
    pattern_gains,
    quantize_one_bit,
    steering_vector,
    upa_profiles,
    upa_steering,
)


class TestSteeringVector:
    def test_boresight_is_all_ones(self):
        np.testing.assert_allclose(steering_vector(0.0, 8, 0.25), np.ones(8), atol=1e-15)

    def test_endfire_two_elements(self):
        v = steering_vector(90.0, 2, 0.25)
        np.testing.assert_allclose(v, [1.0, np.exp(-1j * np.pi / 2)], atol=1e-12)

    def test_thirty_degree_phase_ramp(self):
        v = steering_vector(30.0, 4, 0.25)
        np.testing.assert_allclose(np.angle(v), [0, -np.pi / 4, -np.pi / 2, -3 * np.pi / 4], atol=1e-12)

    @given(
        angle=st.floats(-90.0, 90.0),
        n=st.integers(1, 64),
        spacing=st.floats(0.05, 1.0),
    )
    @settings(max_examples=200)
    def test_unit_modulus(self, angle, n, spacing):
        v = steering_vector(angle, n, spacing)
        assert np.max(np.abs(np.abs(v) - 1.0)) < 1e-12
        assert v[0] == 1.0 + 0.0j

    @pytest.mark.parametrize(
        "angle,n,spacing", [(95.0, 4, 0.25), (0.0, 0, 0.25), (0.0, 4, 0.0), (0.0, 4, -0.5)]
    )
    def test_invalid_arguments(self, angle, n, spacing):
        with pytest.raises(ValueError):
            steering_vector(angle, n, spacing)


class TestQuantizeOneBit:
    def test_near_zero_phase_maps_to_zero(self):
        assert quantize_one_bit(np.array([np.exp(0.1j)]))[0] == 0

    def test_near_pi_phase_maps_to_one(self):
        assert quantize_one_bit(np.array([np.exp(1j * (np.pi - 0.1))]))[0] == 1

    def test_tie_at_half_pi_maps_to_zero(self):
        assert quantize_one_bit(np.array([1j]))[0] == 0
        assert quantize_one_bit(np.array([-1j]))[0] == 0

    def test_zero_element_rejected(self):
        with pytest.raises(ValueError):
            quantize_one_bit(np.array([1.0, 0.0]))


def _plain_weights(continuous):
    """The realized phasors of the plain two-level surface matching ``continuous``."""
    return np.exp(1j * np.pi * quantize_one_bit(continuous).astype(float))


class TestUpaProfile:
    def test_zero_elevation_replicates_azimuth_blockwise(self):
        a = steering_vector(17.0, 4, 0.25)
        w = upa_profiles([(17.0, 0.0)], 4, 3, 0.25)[0]
        assert np.array_equal(w, _plain_weights(np.kron(a, np.ones(3))))

    def test_full_panel_length(self):
        for dither in (False, True):
            assert upa_profiles([(30.0, 0.0)], 32, 32, 0.25, dither)[0].shape == (1024,)

    def test_boresight_two_by_two(self):
        assert np.array_equal(upa_profiles([(0.0, 0.0)], 2, 2, 0.25)[0], np.ones(4, dtype=complex))

    def test_kron_order_matches_axis_vectors(self):
        a_h = steering_vector(20.0, 3, 0.25)
        a_v = steering_vector(-10.0, 5, 0.25)
        w = upa_profiles([(20.0, -10.0)], 3, 5, 0.25)[0]
        assert np.array_equal(w, _plain_weights(np.kron(a_h, a_v)))
        # upa_steering's rows, the simulator's line-of-sight channels, keep np.kron's bits.
        pairs = [(20.0, -10.0), (-35.5, 12.25), (61.0, 47.0), (30.0, -90.0)]
        for n_h, n_v in ((1, 1), (3, 5), (7, 3), (24, 4), (32, 32)):
            for spacing in (0.25, 0.37):
                for row, (nu, psi) in zip(upa_steering(pairs, n_h, n_v, spacing), pairs):
                    a_h = steering_vector(nu, n_h, spacing)
                    a_v = steering_vector(psi, n_v, spacing)
                    assert row.tobytes() == np.kron(a_h, a_v).tobytes()

    def test_dithered_weights_realize_the_offset_rotated_code(self):
        # exp(j*(offset + pi*code)), the code quantized from the profile
        # rotated by the design offsets.
        a_h = steering_vector(20.0, 6, 0.25)
        a_v = steering_vector(-10.0, 4, 0.25)
        offsets = design_phase_offsets(6, 4)
        code = quantize_one_bit(np.kron(a_h, a_v) * np.exp(1j * offsets))
        want = np.exp(1j * (np.pi * code.astype(float) + offsets))
        assert np.array_equal(upa_profiles([(20.0, -10.0)], 6, 4, 0.25, dither=True)[0], want)
        assert not np.array_equal(want, upa_profiles([(20.0, -10.0)], 6, 4, 0.25)[0])

    def test_rows_do_not_depend_on_the_batch(self):
        # Each row of a batch has the bits of the same pair built alone, on
        # element counts that are and are not multiples of a SIMD width.
        rng = np.random.default_rng(11)
        for n_h, n_v in ((32, 32), (3, 5), (1, 1), (7, 3), (24, 4)):
            for dither, spacing in itertools.product((False, True), (0.25, 0.37)):
                pairs = [(0.25 * i, 0.0) for i in range(0, 241, 37)]
                pairs += [tuple(p) for p in rng.uniform(-90.0, 90.0, (5, 2))]
                pairs += [(90.0, -90.0), (-90.0, 90.0)]
                batch = upa_profiles(pairs, n_h, n_v, spacing, dither)
                assert batch.shape == (len(pairs), n_h * n_v)
                for row, pair in zip(batch, pairs):
                    alone = upa_profiles([pair], n_h, n_v, spacing, dither)[0]
                    assert row.tobytes() == alone.tobytes()

    def test_invalid_arguments(self):
        for pairs, n_h, n_v, spacing in (
            ([(95.0, 0.0)], 4, 4, 0.25),
            ([(0.0, -90.5)], 4, 4, 0.25),
            ([(0.0, 0.0)], 0, 4, 0.25),
            ([(0.0, 0.0)], 4, 0, 0.25),
            ([(0.0, 0.0)], 4, 4, 0.0),
        ):
            with pytest.raises(ValueError):
                upa_profiles(pairs, n_h, n_v, spacing)

    def test_design_offsets_are_one_shared_read_only_table(self):
        offsets = design_phase_offsets(4, 3)
        assert offsets is design_phase_offsets(4, 3)
        assert offsets.shape == (12,)
        with pytest.raises(ValueError):
            offsets[0] = 0.0


class TestArrayFactor:
    def test_uniform_code_specular_gain_is_element_count(self):
        weights = np.ones(64, dtype=complex)
        assert abs(pattern_gains(weights, 0.0, 8, 8)[0]) == pytest.approx(64.0, rel=1e-12)

    def test_steered_profile_peaks_at_target(self):
        # Plain and dithered variants of the 32x32 profile; argmax of the
        # 0.1-degree scan must land within half a degree of the target.
        grid = np.arange(0.0, 90.0001, 0.1)
        for dither in (False, True):
            w = upa_profiles([(30.0, 0.0)], 32, 32, 0.25, dither)[0]
            gains = np.abs(pattern_gains(w, grid, 32, 32, 0.25))
            assert abs(grid[np.argmax(gains)] - 30.0) <= 0.5

    def test_pattern_symmetric_for_plain_codes(self):
        rng = np.random.default_rng(3)
        weights = np.exp(1j * np.pi * rng.integers(0, 2, size=64))
        for theta in (7.0, 22.5, 61.0):
            a = abs(pattern_gains(weights, theta, 8, 8)[0])
            b = abs(pattern_gains(weights, -theta, 8, 8)[0])
            assert a == pytest.approx(b, rel=1e-9)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pattern_gains(np.ones(10, dtype=complex), 0.0, 0.0, 8, 8)


def _uncached_gains(weights, obs_deg, n_h, n_v, spacing):
    """``pattern_gains`` with the observation basis built on every call and
    the all-ones broadside incident phases multiplied in."""
    w = weights.reshape(n_h, n_v)
    inc_h = steering_vector(0.0, n_h, spacing)
    inc_v = steering_vector(0.0, n_v, spacing)
    col = (w * inc_v[np.newaxis, :]).sum(axis=1) * inc_h
    obs = np.atleast_1d(np.asarray(obs_deg, dtype=float))
    phase = -2.0 * np.pi * spacing * np.sin(np.deg2rad(obs))
    return np.exp(1j * np.outer(phase, np.arange(n_h))) @ col


class TestObservationBasisCache:
    GRIDS = (np.arange(0.0, 90.025, 0.05), np.arange(0.0, 90.05, 0.1), 22.5)

    def test_cached_gains_equal_uncached_read_only_and_bounded(self):
        # Steer targets interleave the grids as beam-pattern does; the 12
        # (grid, n_h, spacing) keys outnumber the cache, so some are evicted.
        _observation_basis.cache_clear()
        maxsize = _observation_basis.cache_info().maxsize
        setups = list(itertools.product(((8, 8), (32, 32)), (0.25, 0.5)))
        assert len(setups) * len(self.GRIDS) > maxsize
        for (n_h, n_v), spacing in setups:
            for steer in (0.0, 17.5, 41.0):
                weights = upa_profiles([(steer, 0.0)], n_h, n_v, spacing, dither=n_h == 32)[0]
                for grid in self.GRIDS:
                    got = pattern_gains(weights, grid, n_h, n_v, spacing)
                    want = _uncached_gains(weights, grid, n_h, n_v, spacing)
                    assert got.tobytes() == want.tobytes()
                    assert _observation_basis.cache_info().currsize <= maxsize
        info = _observation_basis.cache_info()
        assert info.misses == len(setups) * len(self.GRIDS)  # built once per grid
        assert info.currsize == maxsize
        basis = _observation_basis(np.asarray(self.GRIDS[1]).tobytes(), 32, 0.5)
        assert not basis.flags.writeable  # every caller shares it


class TestOneBitOptimality:
    def test_no_binary_code_beats_conjugate_match(self):
        rng = np.random.default_rng(11)
        for n in (2, 5, 8, 12):
            h = np.exp(2j * np.pi * rng.random(n)) * (0.5 + rng.random(n))
            bound = np.sum(np.abs(h))
            matched = np.exp(1j * np.angle(h))  # conjugated-phase vector
            assert abs(np.vdot(matched, h)) == pytest.approx(bound, rel=1e-12)
            best = max(
                abs(np.sum(np.array(signs) * h))
                for signs in itertools.product((1.0, -1.0), repeat=n)
            )
            assert best <= bound + 1e-9

    def test_quantizer_is_brute_force_real_part_optimum(self):
        # The nearest-level code maximizes Re(sum of realized weights * h)
        # over all 2^N codes, with or without static offsets.
        rng = np.random.default_rng(12)
        for n in (2, 5, 8, 12):
            h = np.exp(2j * np.pi * rng.random(n)) * (0.5 + rng.random(n))
            for offsets in (np.zeros(n), rng.uniform(-np.pi, np.pi, n)):
                code = quantize_one_bit(h * np.exp(1j * offsets))
                achieved = np.sum(np.exp(1j * (offsets + np.pi * code)) * h).real
                best = max(
                    np.sum(np.exp(1j * (offsets + np.pi * np.array(c))) * h).real
                    for c in itertools.product((0, 1), repeat=n)
                )
                assert achieved == pytest.approx(best, abs=1e-9)

    def test_quantization_loss_near_theory(self):
        # Mean power ratio vs the continuous match over random-phase
        # channels: (2/pi)^2 is -3.92 dB.
        rng = np.random.default_rng(5)
        n = 1024
        ratios = []
        for _ in range(200):
            h = np.exp(2j * np.pi * rng.random(n))
            code = quantize_one_bit(np.exp(-1j * np.angle(h)))
            w = np.exp(1j * np.pi * code)
            ratios.append(abs(np.sum(w * h)) ** 2 / float(np.sum(np.abs(h))) ** 2)
        loss_db = 10.0 * np.log10(np.mean(ratios))
        assert -4.5 <= loss_db <= -3.5


def _walk_crossing(angles, mags, peak_idx, thr, step):
    """The first threshold crossing from the peak, one index at a time."""
    i = peak_idx
    while 0 <= i + step < mags.size:
        j = i + step
        if mags[j] < thr:
            frac = (mags[i] - thr) / (mags[i] - mags[j])
            return angles[i] + frac * (angles[j] - angles[i]), j
        i = j
    return None, None


def _walk_null_bound(mags, start_idx, step):
    """The first local minimum outward from ``start_idx``, one index at a time."""
    i = start_idx
    while 0 <= i + step < mags.size and mags[i + step] < mags[i]:
        i += step
    return i


class TestMainLobeWalks:
    """``_crossing`` and ``_null_bound`` scan slices; the loops above walk."""

    def test_scans_equal_the_walks(self):
        rng = np.random.default_rng(3)
        for trial in range(400):
            size = int(rng.integers(1, 30))
            # Small integers make plateaus and exact ties with the threshold.
            mags = rng.integers(0, 5, size).astype(float) if trial % 2 else rng.random(size)
            if trial % 5 == 0:
                mags[rng.integers(size)] = np.nan
            angles = np.sort(rng.random(size) * 90.0)
            thr = float(rng.integers(0, 5)) if trial % 2 else float(rng.random())
            for idx, step in itertools.product(range(size), (1, -1)):
                with np.errstate(divide="ignore", invalid="ignore"):
                    got = _crossing(angles, mags, idx, thr, step)
                    want = _walk_crossing(angles, mags, idx, thr, step)
                assert got[1] == want[1]
                if want[0] is None:
                    assert got[0] is None
                else:
                    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
                assert _null_bound(mags, idx, step) == _walk_null_bound(mags, idx, step)


class TestBeamMetrics:
    def test_boresight_width_matches_aperture_formula(self):
        # 32 quarter-wave elements: aperture 8 wavelengths, so the
        # half-power width oracle is 0.886 / 8 rad = 6.34 deg.
        oracle = np.degrees(0.886 / 8.0)
        m = beam_metrics(np.ones(1024, dtype=complex), 32, 32, 0.25)
        assert 5.5 <= m.hpbw_deg <= 7.0
        assert m.hpbw_deg == pytest.approx(oracle, abs=0.5)

    def test_boresight_sidelobe_matches_dirichlet_oracle(self):
        # First sidelobe of the 32-point Dirichlet kernel, computed from
        # the closed form on an independent fine grid.
        x = np.linspace(1e-6, np.pi / 2, 200001)
        kernel = np.abs(np.sin(32 * x / 2) / (32 * np.sin(x / 2)))
        first_null = np.argmax(kernel < 1e-3)
        oracle_db = 20 * np.log10(kernel[first_null:].max())
        m = beam_metrics(np.ones(1024, dtype=complex), 32, 32, 0.25)
        assert m.sll_db == pytest.approx(oracle_db, abs=0.3)
        assert m.sll_db == pytest.approx(-13.26, abs=0.3)

    def test_peak_tracks_target_across_scan_range(self):
        step = 0.5
        for target in range(0, 61, 5):
            w = upa_profiles([(float(target), 0.0)], 32, 32, 0.25, dither=True)[0]
            grid = np.arange(0.0, 90.0 + step / 2, step)
            gains = np.abs(pattern_gains(w, grid, 32, 32, 0.25))
            assert abs(grid[np.argmax(gains)] - target) <= step

    def test_degenerate_pattern_raises(self):
        with pytest.raises(DegeneratePatternError):
            beam_metrics(np.ones(1, dtype=complex), 1, 1, 0.25)

    def test_coarse_grid_rejected(self):
        with pytest.raises(ValueError):
            beam_metrics(np.ones(16, dtype=complex), 4, 4, 0.25, grid_step_deg=0.2)
