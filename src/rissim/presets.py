"""Calibrated experiment presets.

The lab is ``ExperimentConfig()``'s defaults; a preset adds the
calibration and its own choices.  Link-budget constants are solved once,
at preset construction, from measurement targets: per-UE RSRP levels in
the aligned and misaligned surface states, the no-surface RSRP, and the
operating SNR of the aligned state.  The solve is deterministic, so the
"one-time calibration" is reproducible from the targets alone.

Two operating points are used.  The scheduling presets place the
aligned state inside the rate-adaptation range, where the closed loop
regulates the block-error ratio around its target.  The single-UE
presets run hotter so that the surface-on/surface-off throughput ratio
lands in the measured 20-25% band; at a fixed measured RSRP gap the
two requirements need different noise figures (see README).

A preset takes only the choices that pick it: the scheduling mode, or
the UE and whether the surface is on.  Any other variation starts from
the preset and goes through ``ExperimentConfig.with_overrides`` (the
CLI's ``--set``) or ``dataclasses.replace``.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .array_model import upa_profiles, upa_steering
from .config import ExperimentConfig

GEOMETRY = ExperimentConfig().geom  # the lab surface

# Measured targets the calibration reproduces.
RSRP_ALIGNED_DBM = (-105.0, -102.0)
RSRP_MISALIGNED_DBM = (-115.0, -113.0)
RSRP_NO_SURFACE_DBM = (-112.0, -110.0)

# Aligned-state operating SNRs (dB).
SNR_ALIGNED_SCHED_DB = (18.1, 19.44)
SNR_ALIGNED_SINGLE_DB = (25.75, 26.75)

SWEEP_ALPHAS = (0.01, 5e-4, 5e-5)


def _intersect_circles(c1: complex, r1: float, c2: complex, r2: float) -> complex:
    """A point on both circles; the root with smaller magnitude.

    Used to place the residual direct-path phasor so the aligned and
    misaligned effective-channel magnitudes hit their targets exactly.
    """
    d = abs(c2 - c1)
    if d == 0.0 or d > r1 + r2 or d < abs(r1 - r2):
        raise ValueError("leak calibration targets are not reachable for this geometry")
    a = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d)
    h = math.sqrt(max(r1 * r1 - a * a, 0.0))
    u = (c2 - c1) / d
    base = c1 + a * u
    p1 = base + h * u * 1j
    p2 = base - h * u * 1j
    return p1 if abs(p1) <= abs(p2) else p2


def _calibrate(snr_aligned_db: tuple[float, float]) -> ExperimentConfig:
    """The lab with per-UE budgets and the shared RSRP offset solved from the targets.

    The geometry, the UE angles, the transmit power and UE 0's path loss
    are the lab's.  The surface channels are the link model's, from
    ``array_model`` alone: one beam state per UE (state ``k`` steered at UE ``k``).
    """
    lab = ExperimentConfig()
    g, tx = lab.geom, lab.tx_power_dbm
    angles = tuple((ue.nu_deg, ue.psi_deg) for ue in lab.ues)
    los = upa_steering(angles, g.n_h, g.n_v, g.spacing_ratio)
    los *= 1.0 / (g.n_h * g.n_v)
    weights = upa_profiles(angles, g.n_h, g.n_v, g.spacing_ratio, g.dither)
    ues = []
    rsrp_offset_db = 0.0
    for k, ue in enumerate(lab.ues):
        effs = (weights * los[k]).sum(axis=-1).tolist()
        own, other = effs[k], effs[1 - k]
        gap_db = RSRP_ALIGNED_DBM[k] - RSRP_MISALIGNED_DBM[k]
        mis_target = abs(own) * 10.0 ** (-gap_db / 20.0)
        # |own + d| = |own| keeps the aligned level; |other + d| = target
        # pins the misaligned level.
        leak = _intersect_circles(-own, abs(own), -other, mis_target)
        aligned_amp_db = 20.0 * math.log10(abs(own + leak))
        if k == 0:
            rsrp_offset_db = RSRP_ALIGNED_DBM[0] - tx + ue.pathloss_db - aligned_amp_db
            pathloss_db = ue.pathloss_db
        else:
            pathloss_db = tx + aligned_amp_db + rsrp_offset_db - RSRP_ALIGNED_DBM[k]
        noise_dbm = aligned_amp_db + tx - pathloss_db - snr_aligned_db[k]
        noris_gain = 10.0 ** (
            (RSRP_NO_SURFACE_DBM[k] - tx + pathloss_db - rsrp_offset_db) / 20.0
        )
        ues.append(
            replace(
                ue,
                pathloss_db=pathloss_db,
                noise_dbm=noise_dbm,
                direct_leak=leak,
                noris_gain=noris_gain,
            )
        )
    return replace(lab, ues=tuple(ues), rsrp_offset_db=rsrp_offset_db)


def schedule_config(mode: str = "periodic") -> ExperimentConfig:
    """Two-UE scheduling run: alternating surface plus PF scheduler, 120 s.

    Mode "genie" is the reference instead: round-robin service with the
    surface aligned to the served UE.
    """
    cfg = _calibrate(SNR_ALIGNED_SCHED_DB)
    return replace(
        cfg,
        ris=replace(cfg.ris, mode=mode),
        sched=replace(cfg.sched, kind="rr" if mode == "genie" else "pf"),
        la=replace(cfg.la, cqi_backoff_db=0.0),
    )


def single_ue_config(ue_index: int, ris_on: bool = True) -> ExperimentConfig:
    """One connected UE, surface beamformed at it or absent, 120 s."""
    if ue_index not in (0, 1):
        raise ValueError(f"ue_index must be 0 or 1, got {ue_index}")
    cfg = _calibrate(SNR_ALIGNED_SINGLE_DB)
    return replace(
        cfg,
        ues=(cfg.ues[ue_index],),
        ris=replace(cfg.ris, mode="genie" if ris_on else "off"),
        sim=replace(cfg.sim, warmup_s=10.0),
    )


def sweep_config() -> ExperimentConfig:
    """Base configuration for the throughput-vs-EWMA-weight sweep: the
    periodic scheduling preset run 128 s with seed 7.

    The time-compression factor 2 pairs every point as (2 * alpha,
    T_s / 2); the measured span stays a whole number of two-dwell
    periods so the two UEs see equal dwell time.
    """
    cfg = schedule_config()
    return replace(cfg, sim=replace(cfg.sim, duration_s=128.0, seed=7, ts_scaling=2.0))
