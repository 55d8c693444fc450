"""Rate adaptation: MCS table, block-error model, stepping, CQI cap, HARQ.

The block-error abstraction is a logistic curve in SNR (dB) anchored at
a per-MCS threshold: the Shannon limit of the entry's spectral
efficiency plus an implementation margin.  An outer loop steps the MCS
index by one whenever the measured retransmission ratio over a tumbling
window leaves the [low, high] band; the CQI report caps the usable
index on a slower cadence.  A failed transport block is retransmitted
at the same MCS at most three times before it is discarded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import LaConfig  # the one source of the la.* defaults used below

MAX_ATTEMPTS = 4  # 1 initial transmission + 3 retransmissions


@dataclass(frozen=True)
class McsEntry:
    index: int
    modulation_order: int
    code_rate: float
    se: float  # bits/s/Hz


class McsTable:
    """Ordered MCS entries with cached per-entry SNR thresholds."""

    def __init__(self, entries: list[McsEntry]):
        self.entries = sorted(entries, key=lambda e: e.index)
        self._by_index = {e.index: e for e in self.entries}
        self._thresholds: dict[float, tuple[float, ...]] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def entry(self, index: int) -> McsEntry:
        try:
            return self._by_index[index]
        except KeyError:
            raise ValueError(f"invalid MCS index {index}") from None

    def se(self, index: int) -> float:
        return self.entry(index).se

    def threshold_db(self, index: int, impl_margin_db: float = LaConfig.impl_margin_db) -> float:
        """SNR anchor of the block-error curve for one entry."""
        return 10.0 * math.log10(2.0 ** self.se(index) - 1.0) + impl_margin_db

    def thresholds_db(self, impl_margin_db: float = LaConfig.impl_margin_db) -> tuple[float, ...]:
        """``threshold_db`` of every entry, in table order; cached per margin."""
        try:
            return self._thresholds[impl_margin_db]
        except KeyError:
            thresholds = tuple(self.threshold_db(e.index, impl_margin_db) for e in self.entries)
            self._thresholds[impl_margin_db] = thresholds
            return thresholds


# 64QAM PDSCH table: 29 entries, modulation orders 2/4/6, peak 5.5547.
MCS_TABLE_64QAM = McsTable(
    [
        McsEntry(0, 2, 120 / 1024, 0.2344),
        McsEntry(1, 2, 157 / 1024, 0.3066),
        McsEntry(2, 2, 193 / 1024, 0.3770),
        McsEntry(3, 2, 251 / 1024, 0.4902),
        McsEntry(4, 2, 308 / 1024, 0.6016),
        McsEntry(5, 2, 379 / 1024, 0.7402),
        McsEntry(6, 2, 449 / 1024, 0.8770),
        McsEntry(7, 2, 526 / 1024, 1.0273),
        McsEntry(8, 2, 602 / 1024, 1.1758),
        McsEntry(9, 2, 679 / 1024, 1.3262),
        McsEntry(10, 4, 340 / 1024, 1.3281),
        McsEntry(11, 4, 378 / 1024, 1.4766),
        McsEntry(12, 4, 434 / 1024, 1.6953),
        McsEntry(13, 4, 490 / 1024, 1.9141),
        McsEntry(14, 4, 553 / 1024, 2.1602),
        McsEntry(15, 4, 616 / 1024, 2.4063),
        McsEntry(16, 4, 658 / 1024, 2.5703),
        McsEntry(17, 6, 438 / 1024, 2.5664),
        McsEntry(18, 6, 466 / 1024, 2.7305),
        McsEntry(19, 6, 517 / 1024, 3.0293),
        McsEntry(20, 6, 567 / 1024, 3.3223),
        McsEntry(21, 6, 616 / 1024, 3.6094),
        McsEntry(22, 6, 666 / 1024, 3.9023),
        McsEntry(23, 6, 719 / 1024, 4.2129),
        McsEntry(24, 6, 772 / 1024, 4.5234),
        McsEntry(25, 6, 822 / 1024, 4.8164),
        McsEntry(26, 6, 873 / 1024, 5.1152),
        McsEntry(27, 6, 910 / 1024, 5.3320),
        McsEntry(28, 6, 948 / 1024, 5.5547),
    ]
)


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
    snr_db: float,
    table: McsTable = MCS_TABLE_64QAM,
    cqi_backoff_db: float = LaConfig.cqi_backoff_db,
    impl_margin_db: float = LaConfig.impl_margin_db,
    mcs_min: int = LaConfig.mcs_min,
) -> int:
    """Channel-quality cap: largest index whose threshold fits under
    ``snr_db - cqi_backoff_db``, floored at ``mcs_min``."""
    cap = mcs_min
    limit = snr_db - cqi_backoff_db
    for e, thr in zip(table.entries, table.thresholds_db(impl_margin_db)):
        if e.index >= mcs_min and thr <= limit:
            cap = e.index
    return cap


@dataclass
class HarqProcess:
    """Stop-and-wait process for one in-flight transport block."""

    tb_bits: int
    mcs_used: int
    attempts: int = 1


RETRANSMIT = "retransmit"
DISCARD = "discard"


def harq_on_nack(proc: HarqProcess) -> str:
    """Advance a process after a NACK: retransmit at the same MCS until
    the attempt budget is spent, then discard."""
    if proc.attempts < MAX_ATTEMPTS:
        proc.attempts += 1
        return RETRANSMIT
    return DISCARD
