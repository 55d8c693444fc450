"""Phased-array primitives for a one-bit coded reflecting surface.

Steering vectors, planar-array phase profiles, hard one-bit phase
quantization, and far-field array-factor evaluation.  All functions are
pure; angles are in degrees, element spacing is a fraction of the
carrier wavelength (0.25 for the quarter-wave unit cell).

Sign convention: a wave associated with angle ``w`` carries per-element
phase ``-n * 2*pi * spacing * sin(w)``, so a surface whose conjugated
phase vector equals the steering vector at ``w`` beams toward ``w``
under broadside illumination.

Each element may carry a known static phase offset on top of which the
one-bit switch adds 0 or pi.  A fixed pseudo-random offset table (the
"design dither") decorrelates the quantization error across the
aperture, which is what keeps steered-beam sidelobes below the
quantization-lobe level a plain two-level ramp would produce; it stands
in for the per-element reflection phases a real surface accumulates
from its feed geometry.  With all offsets zero the model reduces to the
plain two-level surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

QUARTER_WAVE = 0.25

# Fixed array-design constant; changing it changes the hardware.
DESIGN_DITHER_SEED = 182736451


class DegeneratePatternError(ValueError):
    """Pattern has no -3 dB crossing inside the observation grid."""


def steering_vector(angle_deg: float, n: int, spacing_ratio: float = QUARTER_WAVE) -> np.ndarray:
    """Length-``n`` unit-modulus steering vector toward ``angle_deg``.

    Element ``k`` has phase ``-k * 2*pi * spacing_ratio * sin(angle)``;
    element 0 is always ``1+0j``.
    """
    if n < 1:
        raise ValueError(f"element count must be >= 1, got {n}")
    if abs(angle_deg) > 90.0:
        raise ValueError(f"steering angle must be within +-90 deg, got {angle_deg}")
    if spacing_ratio <= 0.0:
        raise ValueError(f"spacing_ratio must be positive, got {spacing_ratio}")
    step = -2.0 * np.pi * spacing_ratio * np.sin(np.deg2rad(angle_deg))
    return np.exp(1j * step * np.arange(n))


def quantize_one_bit(continuous: np.ndarray) -> np.ndarray:
    """Map each complex element to the nearer of the two phase levels 0/pi.

    Returns a uint8 code vector (0 -> phase 0, 1 -> phase pi).  A tie,
    where the element phase is exactly +-pi/2, maps to code 0 so that
    quantization is deterministic.
    """
    v = np.asarray(continuous, dtype=complex)
    if np.any(np.abs(v) == 0.0):
        raise ValueError("cannot quantize a zero-magnitude element")
    return (np.abs(np.angle(v)) > np.pi / 2).astype(np.uint8)


def design_phase_offsets(n_h: int, n_v: int, seed: int = DESIGN_DITHER_SEED) -> np.ndarray:
    """Static per-element phase offsets of the manufactured surface."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return rng.uniform(-np.pi, np.pi, size=n_h * n_v)


def _weights(code: np.ndarray, phase_offsets: np.ndarray | None) -> np.ndarray:
    """Per-element reflection phasors exp(j*(offset + pi*code)), flattened."""
    phases = np.pi * np.asarray(code).astype(float).ravel()
    if phase_offsets is not None:
        phases = phases + np.asarray(phase_offsets).ravel()
    return np.exp(1j * phases)


@dataclass(frozen=True)
class RisPhaseProfile:
    """One selectable surface configuration.

    ``continuous`` is the ideal (unquantized) conjugated phase vector,
    the Kronecker product of the horizontal and vertical steering
    vectors; ``code`` is the one-bit switch setting per element.  With
    static offsets present, element ``i`` realizes reflection phase
    ``offsets[i] + pi * code[i]`` and the code is chosen so that phase
    is the nearer realization of the continuous profile.
    """

    continuous: np.ndarray
    code: np.ndarray
    nu_deg: float
    psi_deg: float
    phase_offsets: np.ndarray | None = field(default=None)

    def __len__(self) -> int:
        return self.continuous.size

    def reflection_weights(self) -> np.ndarray:
        """Realized per-element reflection phasors exp(j*(offset + pi*code))."""
        return _weights(self.code, self.phase_offsets)


def upa_profile(
    nu_deg: float,
    psi_deg: float,
    n_h: int,
    n_v: int,
    spacing_ratio: float = QUARTER_WAVE,
    phase_offsets: np.ndarray | None = None,
) -> RisPhaseProfile:
    """Planar-array phase profile steered to azimuth ``nu``, elevation ``psi``.

    The continuous profile is the Kronecker product of the horizontal
    and vertical steering vectors.  The one-bit code quantizes the
    offset-rotated continuous profile, so the realized phase
    ``offset + pi*code`` is the nearer two-level approximation of the
    profile at every element.
    """
    a_h = steering_vector(nu_deg, n_h, spacing_ratio)
    a_v = steering_vector(psi_deg, n_v, spacing_ratio)
    continuous = np.kron(a_h, a_v)
    if phase_offsets is None:
        code = quantize_one_bit(continuous)
    else:
        if phase_offsets.size != continuous.size:
            raise ValueError("phase_offsets length does not match the array size")
        code = quantize_one_bit(continuous * np.exp(1j * phase_offsets))
    return RisPhaseProfile(
        continuous=continuous,
        code=code,
        nu_deg=nu_deg,
        psi_deg=psi_deg,
        phase_offsets=phase_offsets,
    )


def pattern_gains(
    code: np.ndarray,
    illum_angle_deg: float,
    obs_angles_deg: np.ndarray,
    n_h: int,
    n_v: int,
    spacing_ratio: float = QUARTER_WAVE,
    phase_offsets: np.ndarray | None = None,
) -> np.ndarray:
    """Complex far-field gain of a coded surface over an azimuth grid.

    The surface is illuminated by a plane wave from ``illum_angle_deg``
    (azimuth plane) and observed in the azimuth plane at elevation 0.
    Each element contributes its reflection phasor times the incident
    and observation path phases at its position; the fully coherent
    gain equals ``n_h * n_v``.
    """
    code = np.asarray(code)
    if code.size != n_h * n_v:
        raise ValueError(f"code length {code.size} does not match {n_h}x{n_v} array")
    w = _weights(code, phase_offsets).reshape(n_h, n_v)
    inc_h = steering_vector(illum_angle_deg, n_h, spacing_ratio)
    inc_v = steering_vector(0.0, n_v, spacing_ratio)
    # Vertical observation factor at elevation 0 is all-ones, so the
    # vertical dimension collapses into a per-column sum.
    col = (w * inc_v[np.newaxis, :]).sum(axis=1) * inc_h
    obs = np.asarray(obs_angles_deg, dtype=float)
    return _observation_basis(obs.tobytes(), n_h, spacing_ratio) @ col


@lru_cache(maxsize=8)
def _observation_basis(obs_bytes: bytes, n_h: int, spacing_ratio: float) -> np.ndarray:
    """Horizontal observation phasors, one row per angle of the float64 grid
    ``obs_bytes``.

    The matrix depends only on the grid, ``n_h`` and the spacing, not on the
    code, so every steer target on one grid shares it.  It is returned
    read-only because every caller gets the same array.
    """
    phase = -2.0 * np.pi * spacing_ratio * np.sin(np.deg2rad(np.frombuffer(obs_bytes)))
    e_obs = np.exp(1j * np.outer(phase, np.arange(n_h)))
    e_obs.flags.writeable = False
    return e_obs


@dataclass(frozen=True)
class BeamMetrics:
    peak_angle_deg: float
    peak_gain_db: float
    hpbw_deg: float
    sll_db: float


def _crossing(angles: np.ndarray, mags: np.ndarray, peak_idx: int, thr: float, step: int):
    """First threshold crossing walking from the peak; (None, None) if
    the grid edge is reached first.  Linearly interpolated angle."""
    i = peak_idx
    while 0 <= i + step < mags.size:
        j = i + step
        if mags[j] < thr:
            frac = (mags[i] - thr) / (mags[i] - mags[j])
            return angles[i] + frac * (angles[j] - angles[i]), j
        i = j
    return None, None


def _null_bound(mags: np.ndarray, start_idx: int, step: int) -> int:
    """Walk outward from a -3 dB crossing to the first local minimum."""
    i = start_idx
    while 0 <= i + step < mags.size and mags[i + step] < mags[i]:
        i += step
    return i


def beam_metrics(
    code: np.ndarray,
    illum_angle_deg: float,
    n_h: int,
    n_v: int,
    spacing_ratio: float = QUARTER_WAVE,
    grid_step_deg: float = 0.05,
    phase_offsets: np.ndarray | None = None,
    obs_start_deg: float = 0.0,
    obs_stop_deg: float = 90.0,
) -> BeamMetrics:
    """Peak direction, half-power beamwidth and sidelobe level.

    Metrics are computed on the forward-half observation grid
    ``[obs_start_deg, obs_stop_deg]``: with symmetric illumination a
    plain two-level code has a mirror-symmetric pattern, so only the
    forward half carries information.  If the peak sits at a grid edge
    the beamwidth is mirrored from the in-grid half.  The sidelobe
    level is the largest lobe outside the null-to-null main-lobe
    region, in dB relative to the peak.
    """
    if grid_step_deg > 0.1:
        raise ValueError(f"grid_step_deg must be <= 0.1 deg, got {grid_step_deg}")
    n_total = n_h * n_v
    angles = np.arange(obs_start_deg, obs_stop_deg + grid_step_deg / 2, grid_step_deg)
    mags = np.abs(
        pattern_gains(code, illum_angle_deg, angles, n_h, n_v, spacing_ratio, phase_offsets)
    )
    peak_idx = int(np.argmax(mags))
    peak = mags[peak_idx]
    thr = peak / np.sqrt(2.0)

    right_angle, right_idx = _crossing(angles, mags, peak_idx, thr, +1)
    left_angle, left_idx = _crossing(angles, mags, peak_idx, thr, -1)
    if right_angle is None and left_angle is None:
        raise DegeneratePatternError("no -3 dB crossing inside the observation grid")
    if right_angle is None:
        hpbw = 2.0 * (angles[peak_idx] - left_angle)
    elif left_angle is None:
        hpbw = 2.0 * (right_angle - angles[peak_idx])
    else:
        hpbw = right_angle - left_angle

    lo = _null_bound(mags, left_idx, -1) if left_idx is not None else 0
    hi = _null_bound(mags, right_idx, +1) if right_idx is not None else mags.size - 1
    outside = np.concatenate([mags[:lo], mags[hi + 1 :]])
    sll_db = float(20.0 * np.log10(outside.max() / peak)) if outside.size else -np.inf

    return BeamMetrics(
        peak_angle_deg=float(angles[peak_idx]),
        peak_gain_db=float(20.0 * np.log10(peak / n_total)),
        hpbw_deg=float(hpbw),
        sll_db=sll_db,
    )
