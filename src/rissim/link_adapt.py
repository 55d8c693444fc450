"""Rate-adaptation constants: MCS table, block-error thresholds, HARQ budget.

The block-error abstraction is a logistic curve in SNR (dB) anchored at
a per-MCS threshold: the Shannon limit of the entry's spectral
efficiency plus an implementation margin.  ``MAX_ATTEMPTS`` is the HARQ
budget: a failed transport block is retransmitted at the same MCS at
most three times before it is discarded.  The rules that use these
constants (the block-error curve, HARQ, and the outer loop that steps
the MCS on a BLER window under a CQI cap) are written inline in
``engine.simulate``, and ``tests/reference_engine.py`` restates them one
step at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

