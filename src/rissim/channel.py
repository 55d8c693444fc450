"""Cascaded channels through the reflecting surface and link-budget maps.

A UE's cascaded channel is one complex gain per surface element: the
line-of-sight planar-array response at the UE's angles under broadside
feed, optionally plus Rician scatter.  Under a surface configuration the
effective link collapses to a complex scalar, which the link budget
maps to SNR, Shannon spectral efficiency and an RSRP reading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .array_model import QUARTER_WAVE, steering_vector

RSRP_FLOOR_DBM = -156.0  # NR reporting floor


@dataclass(frozen=True)
class LinkBudget:
    """Scalar budget that converts an effective channel gain to SNR/RSRP.

    ``noise_dbm`` is the noise power over the measurement bandwidth and
    ``rsrp_offset_db`` a one-time calibration constant.
    """

    tx_power_dbm: float
    pathloss_db: float
    noise_dbm: float
    rsrp_offset_db: float = 0.0


def los_cascaded_channel(
    nu_deg: float,
    psi_deg: float,
    n_h: int,
    n_v: int,
    spacing_ratio: float = QUARTER_WAVE,
    amplitude: float = 1.0,
) -> np.ndarray:
    """Line-of-sight cascaded channel at angles (nu, psi), broadside feed:
    ``amplitude`` times the planar-array response.

    Rician scatter (:func:`rician_scatter`) adds to it; the engine draws
    the scatter of a block of coherence epochs at once.
    """
    if amplitude <= 0.0:
        raise ValueError(f"amplitude must be positive, got {amplitude}")
    return amplitude * np.kron(
        steering_vector(nu_deg, n_h, spacing_ratio),
        steering_vector(psi_deg, n_v, spacing_ratio),
    )


def rician_scatter(
    amplitude: float, rician_k_db: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Complex Gaussian scatter with per-element power ``amplitude**2 / K``,
    so the line-of-sight-to-scatter power ratio equals the K-factor.

    Draws the ``n`` real parts, then the ``n`` imaginary parts.
    """
    sigma = scatter_sigma(amplitude, rician_k_db)
    return sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)


def scatter_sigma(amplitude: float, rician_k_db: float) -> float:
    """Scatter scale ``amplitude / sqrt(K)``: per-element power ``amplitude**2 / K``."""
    return amplitude / math.sqrt(10.0 ** (rician_k_db / 10.0))


def snr_linear(h_k: complex, budget: LinkBudget) -> float:
    """Received SNR (linear) of an effective channel under a budget."""
    gain = 10.0 ** ((budget.tx_power_dbm - budget.pathloss_db - budget.noise_dbm) / 10.0)
    return float(abs(h_k) ** 2 * gain)


def spectral_efficiency(snr: float) -> float:
    """Shannon spectral efficiency log2(1 + snr) in bits/s/Hz."""
    if snr < 0.0:
        raise ValueError(f"snr must be non-negative, got {snr}")
    return math.log2(1.0 + snr)


def rsrp_dbm(h_k: complex, budget: LinkBudget) -> float:
    """Reference-signal received power reading, floored at -156 dBm."""
    mag = abs(h_k)
    if mag == 0.0:
        return RSRP_FLOOR_DBM
    value = (
        budget.tx_power_dbm
        - budget.pathloss_db
        + 20.0 * math.log10(mag)
        + budget.rsrp_offset_db
    )
    return max(value, RSRP_FLOOR_DBM)
