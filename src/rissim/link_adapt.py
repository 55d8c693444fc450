"""Rate adaptation: MCS table, block-error model, stepping, CQI cap.

The block-error abstraction is a logistic curve in SNR (dB) anchored at
a per-MCS threshold: the Shannon limit of the entry's spectral
efficiency plus an implementation margin.  An outer loop steps the MCS
index by one whenever the measured retransmission ratio over a tumbling
window leaves the [low, high] band; the CQI report caps the usable
index on a slower cadence.  These steps run only at window and CQI
boundaries.  ``MAX_ATTEMPTS`` is the HARQ budget: a failed transport
block is retransmitted at the same MCS at most three times before it is
discarded.  That per-slot rule is written inline in ``engine.run``, and
``tests/reference_engine.py`` restates it with an explicit process object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import LaConfig  # the one source of the la.* defaults used below

MAX_ATTEMPTS = 4  # 1 initial transmission + 3 retransmissions


@dataclass(frozen=True)
class McsEntry:
    modulation_order: int
    code_rate: float
    se: float  # bits/s/Hz


# 64QAM PDSCH table: entry i is MCS index i; 29 entries, modulation orders 2/4/6, peak 5.5547.
MCS_TABLE_64QAM = (
    McsEntry(2, 120 / 1024, 0.2344),
    McsEntry(2, 157 / 1024, 0.3066),
    McsEntry(2, 193 / 1024, 0.3770),
    McsEntry(2, 251 / 1024, 0.4902),
    McsEntry(2, 308 / 1024, 0.6016),
    McsEntry(2, 379 / 1024, 0.7402),
    McsEntry(2, 449 / 1024, 0.8770),
    McsEntry(2, 526 / 1024, 1.0273),
    McsEntry(2, 602 / 1024, 1.1758),
    McsEntry(2, 679 / 1024, 1.3262),
    McsEntry(4, 340 / 1024, 1.3281),
    McsEntry(4, 378 / 1024, 1.4766),
    McsEntry(4, 434 / 1024, 1.6953),
    McsEntry(4, 490 / 1024, 1.9141),
    McsEntry(4, 553 / 1024, 2.1602),
    McsEntry(4, 616 / 1024, 2.4063),
    McsEntry(4, 658 / 1024, 2.5703),
    McsEntry(6, 438 / 1024, 2.5664),
    McsEntry(6, 466 / 1024, 2.7305),
    McsEntry(6, 517 / 1024, 3.0293),
    McsEntry(6, 567 / 1024, 3.3223),
    McsEntry(6, 616 / 1024, 3.6094),
    McsEntry(6, 666 / 1024, 3.9023),
    McsEntry(6, 719 / 1024, 4.2129),
    McsEntry(6, 772 / 1024, 4.5234),
    McsEntry(6, 822 / 1024, 4.8164),
    McsEntry(6, 873 / 1024, 5.1152),
    McsEntry(6, 910 / 1024, 5.3320),
    McsEntry(6, 948 / 1024, 5.5547),
)


def thresholds_db(impl_margin_db: float) -> tuple[float, ...]:
    """SNR anchor of the block-error curve per MCS index: the Shannon
    limit of the entry's spectral efficiency plus ``impl_margin_db``."""
    return tuple(10.0 * math.log10(2.0 ** e.se - 1.0) + impl_margin_db for e in MCS_TABLE_64QAM)


def bler_curve(
    snr_db: float, thresholds_db, model_slope: float = LaConfig.slope
) -> list[float]:
    """Block-error probability at one SNR for each curve midpoint in ``thresholds_db``.

    Logistic in SNR (dB) with its midpoint at the threshold:
    decreasing in SNR and, at fixed SNR, increasing with the threshold.
    """
    out = []
    for thr in thresholds_db:
        x = model_slope * (snr_db - thr)
        # Guard the exp against overflow at extreme SNR offsets.
        if x > 700.0:
            out.append(0.0)
        elif x < -700.0:
            out.append(1.0)
        else:
            out.append(1.0 / (1.0 + math.exp(x)))
    return out


@dataclass
class LinkAdaptState:
    """Per-UE outer-loop state."""

    mcs: int = LaConfig.mcs_min
    mcs_min: int = LaConfig.mcs_min
    mcs_max_from_cqi: int = 28
    win_scheduled: int = 0
    win_retx: int = 0

    def clamp(self) -> None:
        self.mcs = min(max(self.mcs, self.mcs_min), self.mcs_max_from_cqi)


def step_mcs(state: LinkAdaptState, bler_low: float, bler_high: float) -> None:
    """One outer-loop step at a window boundary.

    The window's retransmission ratio (0.0 for an empty window) moves the
    MCS by one step up below ``bler_low`` or down above ``bler_high``; the
    index is then clamped and the window counters reset.
    """
    scheduled = state.win_scheduled
    measured = state.win_retx / scheduled if scheduled > 0 else 0.0
    if measured < bler_low:
        state.mcs += 1
    elif measured > bler_high:
        state.mcs -= 1
    state.clamp()
    state.win_scheduled = state.win_retx = 0


def cqi_update(
    snr_db: float, thresholds_db: tuple[float, ...], cqi_backoff_db: float, mcs_min: int
) -> int:
    """Channel-quality cap: last index whose threshold fits under
    ``snr_db - cqi_backoff_db``, floored at ``mcs_min``.

    The scan does not stop at the first index that does not fit: the
    spectral efficiencies are not monotone (index 16 is above index 17).
    """
    cap = mcs_min
    limit = snr_db - cqi_backoff_db
    for index in range(mcs_min, len(thresholds_db)):
        if thresholds_db[index] <= limit:
            cap = index
    return cap
