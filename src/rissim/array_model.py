"""Phased-array primitives for a one-bit coded reflecting surface.

Steering vectors, planar-array phase profiles, hard one-bit phase
quantization, and far-field array-factor evaluation under broadside
illumination.  All functions are pure; angles are in degrees, element
spacing is a fraction of the carrier wavelength (0.25 for the
quarter-wave unit cell).

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

:func:`upa_profiles` builds the states of a sequence of angle pairs in
one batch, one row per pair; every step is elementwise, so a row has the
same bits whatever else is in the batch.  The simulator builds all of a
run's states in one call, and its line-of-sight channels are
:func:`upa_steering` rows.  ``beam-pattern`` builds its targets ``cli.BEAM_BLOCK`` at a time and evaluates each target's metrics
and pattern on its own row; a target whose beam is wider than the
observation grid stops the command, after every target before it, in
its block too, has written its output.
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


def steering_vector(angle_deg, n: int, spacing_ratio: float = QUARTER_WAVE) -> np.ndarray:
    """Length-``n`` unit-modulus steering vector toward ``angle_deg``; for an
    array of angles, one vector per angle along a new last axis.

    Element ``k`` has phase ``-k * 2*pi * spacing_ratio * sin(angle)``;
    element 0 is always ``1+0j``.
    """
    if n < 1:
        raise ValueError(f"element count must be >= 1, got {n}")
    if np.any(np.abs(angle_deg) > 90.0):
        raise ValueError(f"steering angle must be within +-90 deg, got {angle_deg}")
    if spacing_ratio <= 0.0:
        raise ValueError(f"spacing_ratio must be positive, got {spacing_ratio}")
    step = -2.0 * np.pi * spacing_ratio * np.sin(np.deg2rad(angle_deg))
    return np.exp(1j * np.asarray(step)[..., None] * np.arange(n))


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


def upa_steering(angles_deg, n_h: int, n_v: int, spacing_ratio: float = QUARTER_WAVE) -> np.ndarray:
    """Steering vectors toward each (azimuth, elevation) pair of ``angles_deg``,
    one row per pair in Kronecker (horizontal-major) order: the outer product
    of its horizontal and vertical vectors, which has ``np.kron``'s products."""
    pairs = np.asarray(angles_deg, dtype=float).reshape(-1, 2)
    h = steering_vector(pairs[:, 0], n_h, spacing_ratio)
    v = steering_vector(pairs[:, 1], n_v, spacing_ratio)
    return (h[:, :, None] * v[:, None, :]).reshape(len(pairs), n_h * n_v)


def upa_profiles(
    angles_deg,
    n_h: int,
    n_v: int,
    spacing_ratio: float = QUARTER_WAVE,
    dither: bool = False,
) -> np.ndarray:
    """Realized reflection phasors of the one-bit states steered to each
    (azimuth ``nu``, elevation ``psi``) pair of ``angles_deg``, one row per
    pair, in :func:`upa_steering`'s element order.

    The one-bit code quantizes the pair's :func:`upa_steering` row rotated
    by the design offsets (zero without ``dither``), so the realized phase
    ``offset + pi*code`` is the nearer two-level approximation of it at
    every element.  The rotated row is let go before one float and one
    complex buffer build the phasors.  Every step is elementwise.
    """
    continuous = upa_steering(angles_deg, n_h, n_v, spacing_ratio)
    offsets = design_phase_offsets(n_h, n_v) if dither else np.zeros(n_h * n_v)
    rotation = np.multiply(1j, offsets)
    continuous *= np.exp(rotation, out=rotation)
    del rotation
    phase = quantize_one_bit(continuous).astype(float)
    del continuous
    phase *= np.pi
    phase += offsets
    phasors = np.multiply(1j, phase)
    return np.exp(phasors, out=phasors)


def pattern_gains(
    weights: np.ndarray,
    obs_angles_deg: np.ndarray,
    n_h: int,
    n_v: int,
    spacing_ratio: float = QUARTER_WAVE,
) -> np.ndarray:
    """Complex far-field gain of a surface with reflection phasors
    ``weights`` (as :func:`upa_profiles` returns them) over an azimuth grid.

    The surface is illuminated broadside and observed in the azimuth
    plane at elevation 0.  Each element contributes its reflection phasor
    times the observation path phase at its position; the fully coherent
    gain equals ``n_h * n_v``.
    """
    weights = np.asarray(weights)
    if weights.size != n_h * n_v:
        raise ValueError(f"weights length {weights.size} does not match {n_h}x{n_v} array")
    # The broadside incident phases and the vertical observation factor at
    # elevation 0 are all ones, so each column reduces to its plain sum.
    col = weights.reshape(n_h, n_v).sum(axis=1)
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
    if step > 0:
        below = np.flatnonzero(mags[peak_idx + 1 :] < thr)
        if not below.size:
            return None, None
        j = peak_idx + 1 + int(below[0])
    else:
        below = np.flatnonzero(mags[:peak_idx] < thr)
        if not below.size:
            return None, None
        j = int(below[-1])
    i = j - step
    frac = (mags[i] - thr) / (mags[i] - mags[j])
    return angles[i] + frac * (angles[j] - angles[i]), j


def _null_bound(mags: np.ndarray, start_idx: int, step: int) -> int:
    """Walk outward from a -3 dB crossing to the first local minimum."""
    if step > 0:
        stops = np.flatnonzero(~(mags[start_idx + 1 :] < mags[start_idx:-1]))
        return start_idx + int(stops[0]) if stops.size else mags.size - 1
    stops = np.flatnonzero(~(mags[:start_idx] < mags[1 : start_idx + 1]))
    return int(stops[-1]) + 1 if stops.size else 0


def beam_metrics(
    weights: np.ndarray,
    n_h: int,
    n_v: int,
    spacing_ratio: float = QUARTER_WAVE,
    grid_step_deg: float = 0.05,
) -> BeamMetrics:
    """Peak direction, half-power beamwidth and sidelobe level of the surface
    with reflection phasors ``weights``.

    The pattern is the broadside one of :func:`pattern_gains`.  Metrics
    are computed on the forward-half observation grid, 0 to 90 deg in
    steps of ``grid_step_deg``: under broadside illumination a plain
    two-level code has a mirror-symmetric pattern, so only the forward
    half carries information.  If the peak sits at a grid edge the
    beamwidth is mirrored from the in-grid half; a beam with no -3 dB
    crossing on either side inside the grid, wider than 0 to 90 deg,
    raises :class:`DegeneratePatternError`.  The sidelobe level is the
    largest lobe outside the null-to-null main-lobe region, in dB
    relative to the peak.
    """
    if grid_step_deg > 0.1:
        raise ValueError(f"grid_step_deg must be <= 0.1 deg, got {grid_step_deg}")
    n_total = n_h * n_v
    angles = np.arange(0.0, 90.0 + grid_step_deg / 2, grid_step_deg)
    mags = np.abs(pattern_gains(weights, angles, n_h, n_v, spacing_ratio))
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
