"""Calibrated experiment presets.

The lab geometry is fixed (32x32 surface, quarter-wave cells, UEs at 30
and 45 degrees azimuth).  Link-budget constants are solved once, at
preset construction, from measurement targets: per-UE RSRP levels in
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
from .config import (
    ExperimentConfig,
    GeometryConfig,
    LaConfig,
    RisConfig,
    SchedConfig,
    SimConfig,
    UeConfig,
)

GEOMETRY = GeometryConfig(n_h=32, n_v=32, spacing_ratio=0.25, dither=True)
UE_ANGLES = ((30.0, 0.0), (45.0, 0.0))
TX_POWER_DBM = 23.0
NOMINAL_PATHLOSS_DB = 60.0

# Measured targets the calibration reproduces.
RSRP_ALIGNED_DBM = (-105.0, -102.0)
RSRP_MISALIGNED_DBM = (-115.0, -113.0)
RSRP_NO_SURFACE_DBM = (-112.0, -110.0)

# Aligned-state operating SNRs (dB).
SNR_ALIGNED_SCHED_DB = (18.1, 19.44)
SNR_ALIGNED_SINGLE_DB = (25.75, 26.75)

BASE_ALPHA = 5e-5
BASE_TS_SLOTS = 18000  # 9 s of 0.5 ms slots
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


def _calibrate(snr_aligned_db: tuple[float, float]) -> tuple[tuple[UeConfig, ...], float]:
    """Solve per-UE budgets and the shared RSRP offset from the targets.

    The surface channels are the link model's, from ``array_model`` alone:
    one beam state per UE (state ``k`` steered at UE ``k``).
    """
    g = GEOMETRY
    los = upa_steering(UE_ANGLES, g.n_h, g.n_v, g.spacing_ratio)
    los *= 1.0 / (g.n_h * g.n_v)
    weights = upa_profiles(UE_ANGLES, g.n_h, g.n_v, g.spacing_ratio, g.dither)
    ues = []
    rsrp_offset_db = 0.0
    for k, (nu, psi) in enumerate(UE_ANGLES):
        effs = (weights * los[k]).sum(axis=-1).tolist()
        own, other = effs[k], effs[1 - k]
        gap_db = RSRP_ALIGNED_DBM[k] - RSRP_MISALIGNED_DBM[k]
        mis_target = abs(own) * 10.0 ** (-gap_db / 20.0)
        # |own + d| = |own| keeps the aligned level; |other + d| = target
        # pins the misaligned level.
        leak = _intersect_circles(-own, abs(own), -other, mis_target)
        aligned_amp_db = 20.0 * math.log10(abs(own + leak))
        if k == 0:
            rsrp_offset_db = (
                RSRP_ALIGNED_DBM[0] - TX_POWER_DBM + NOMINAL_PATHLOSS_DB - aligned_amp_db
            )
            pathloss_db = NOMINAL_PATHLOSS_DB
        else:
            pathloss_db = (
                TX_POWER_DBM + aligned_amp_db + rsrp_offset_db - RSRP_ALIGNED_DBM[k]
            )
        noise_dbm = aligned_amp_db + TX_POWER_DBM - pathloss_db - snr_aligned_db[k]
        noris_gain = 10.0 ** (
            (RSRP_NO_SURFACE_DBM[k] - TX_POWER_DBM + pathloss_db - rsrp_offset_db) / 20.0
        )
        ues.append(
            UeConfig(
                nu_deg=nu,
                psi_deg=psi,
                pathloss_db=pathloss_db,
                noise_dbm=noise_dbm,
                direct_leak=leak,
                noris_gain=noris_gain,
            )
        )
    return tuple(ues), rsrp_offset_db


def schedule_config(mode: str = "periodic") -> ExperimentConfig:
    """Two-UE scheduling run: alternating surface plus PF scheduler, 120 s.

    Mode "genie" is the reference instead: round-robin service with the
    surface aligned to the served UE.
    """
    ues, rsrp_offset = _calibrate(SNR_ALIGNED_SCHED_DB)
    kind = "rr" if mode == "genie" else "pf"
    return ExperimentConfig(
        geom=GEOMETRY,
        ues=ues,
        ris=RisConfig(mode=mode, ts_slots=BASE_TS_SLOTS, offset_slots=50),
        sched=SchedConfig(kind=kind, alpha=BASE_ALPHA),
        la=LaConfig(cqi_backoff_db=0.0),
        sim=SimConfig(duration_s=120.0, warmup_s=20.0, seed=1),
        tx_power_dbm=TX_POWER_DBM,
        rsrp_offset_db=rsrp_offset,
    )


def single_ue_config(ue_index: int, ris_on: bool = True) -> ExperimentConfig:
    """One connected UE, surface beamformed at it or absent, 120 s."""
    if ue_index not in (0, 1):
        raise ValueError(f"ue_index must be 0 or 1, got {ue_index}")
    ues, rsrp_offset = _calibrate(SNR_ALIGNED_SINGLE_DB)
    return ExperimentConfig(
        geom=GEOMETRY,
        ues=(ues[ue_index],),
        ris=RisConfig(mode="genie" if ris_on else "off", ts_slots=BASE_TS_SLOTS),
        sched=SchedConfig(kind="pf", alpha=BASE_ALPHA),
        la=LaConfig(),
        sim=SimConfig(duration_s=120.0, warmup_s=10.0, seed=1),
        tx_power_dbm=TX_POWER_DBM,
        rsrp_offset_db=rsrp_offset,
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

