"""Phased-array primitives for a one-bit coded reflecting surface.

Steering vectors, planar-array phase profiles, hard one-bit phase
quantization, and far-field array-factor evaluation.  All functions are
pure; angles are in degrees, element spacing is a fraction of the
carrier wavelength (0.25 for the quarter-wave unit cell).

Sign convention: a wave associated with angle ``w`` carries per-element
phase ``-n * 2*pi * spacing * sin(w)``, so a surface whose conjugated
phase vector equals the steering vector at ``w`` beams toward ``w``
under broadside illumination.

A beam state is its realized per-element reflection phasors
``exp(j*(offset + pi*code))``, and this module alone turns (angles,
geometry, dither) into them.  On a dithered surface each element carries
a fixed static phase offset on top of which the one-bit switch adds 0 or
pi.  The pseudo-random offset table (the "design dither") decorrelates
the quantization error across the aperture, which is what keeps
steered-beam sidelobes below the quantization-lobe level a plain
two-level ramp would produce; it stands in for the per-element
reflection phases a real surface accumulates from its feed geometry.
Without dither the offsets are zero: the plain two-level surface.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@lru_cache(maxsize=8)
def design_phase_offsets(n_h: int, n_v: int) -> np.ndarray:
    """Static per-element phase offsets of the manufactured surface.

    Returned read-only because every caller gets the same array.
    """
    rng = np.random.default_rng(np.random.SeedSequence(DESIGN_DITHER_SEED))
    offsets = rng.uniform(-np.pi, np.pi, size=n_h * n_v)
    offsets.flags.writeable = False
    return offsets


def upa_profile(
    nu_deg: float,
    psi_deg: float,
    n_h: int,
    n_v: int,
    spacing_ratio: float = QUARTER_WAVE,
    dither: bool = False,
) -> np.ndarray:
    """Realized reflection phasors of the one-bit state steered to azimuth
    ``nu``, elevation ``psi``, flattened in Kronecker (horizontal-major) order.

    The continuous profile is the Kronecker product of the horizontal and
    vertical steering vectors.  The one-bit code quantizes it rotated by
    the design offsets (zero without ``dither``), so the realized phase
    ``offset + pi*code`` is the nearer two-level approximation of the
    profile at every element.
    """
    continuous = np.kron(
        steering_vector(nu_deg, n_h, spacing_ratio), steering_vector(psi_deg, n_v, spacing_ratio)
    )
    if not dither:
        return np.exp(1j * (np.pi * quantize_one_bit(continuous).astype(float)))
    offsets = design_phase_offsets(n_h, n_v)
    code = quantize_one_bit(continuous * np.exp(1j * offsets))
    return np.exp(1j * (np.pi * code.astype(float) + offsets))


def pattern_gains(
    weights: np.ndarray,
    illum_angle_deg: float,
    obs_angles_deg: np.ndarray,
    n_h: int,
    n_v: int,
    spacing_ratio: float = QUARTER_WAVE,
) -> np.ndarray:
    """Complex far-field gain of a surface with reflection phasors
    ``weights`` (as :func:`upa_profile` returns them) over an azimuth grid.

    The surface is illuminated by a plane wave from ``illum_angle_deg``
    (azimuth plane) and observed in the azimuth plane at elevation 0.
    Each element contributes its reflection phasor times the incident
    and observation path phases at its position; the fully coherent
    gain equals ``n_h * n_v``.
    """
    weights = np.asarray(weights)
    if weights.size != n_h * n_v:
        raise ValueError(f"weights length {weights.size} does not match {n_h}x{n_v} array")
    w = weights.reshape(n_h, n_v)
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
    weights, so every steer target on one grid shares it.  It is returned
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
    weights: np.ndarray,
    illum_angle_deg: float,
    n_h: int,
    n_v: int,
    spacing_ratio: float = QUARTER_WAVE,
    grid_step_deg: float = 0.05,
) -> BeamMetrics:
    """Peak direction, half-power beamwidth and sidelobe level of the surface
    with reflection phasors ``weights``.

    Metrics are computed on the forward-half observation grid, 0 to 90
    deg in steps of ``grid_step_deg``: with symmetric illumination a
    plain two-level code has a mirror-symmetric pattern, so only the
    forward half carries information.  If the peak sits at a grid edge
    the beamwidth is mirrored from the in-grid half.  The sidelobe
    level is the largest lobe outside the null-to-null main-lobe
    region, in dB relative to the peak.
    """
    if grid_step_deg > 0.1:
        raise ValueError(f"grid_step_deg must be <= 0.1 deg, got {grid_step_deg}")
    n_total = n_h * n_v
    angles = np.arange(0.0, 90.0 + grid_step_deg / 2, grid_step_deg)
    mags = np.abs(pattern_gains(weights, illum_angle_deg, angles, n_h, n_v, spacing_ratio))
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
