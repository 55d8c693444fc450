"""Per-slot UE selection: proportional fair with EWMA averaging, plus a
round-robin baseline.  Pending retransmissions preempt both policies.

The EWMA is applied literally at every scheduling opportunity: the
average of an unscheduled UE decays toward the floor, which is what
makes a starved UE's metric rise over time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import SchedConfig


@dataclass
class UeSchedState:
    """Scheduler-side state of one UE."""

    t_avg: float = SchedConfig.floor
    pending_retx: bool = False


@dataclass(frozen=True)
class PfConfig:
    alpha: float
    ewma_floor: float = SchedConfig.floor

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")


def pf_metric(inst_se: float, t_avg: float, floor: float = SchedConfig.floor) -> float:
    """Instantaneous-to-average rate ratio with a division floor."""
    if inst_se < 0.0:
        raise ValueError(f"inst_se must be non-negative, got {inst_se}")
    return inst_se / max(t_avg, floor)


def select_ue(states: list[UeSchedState], inst_se: list[float], cfg: PfConfig) -> int:
    """Index of the UE to serve this slot.

    Any UE with a pending retransmission preempts the metric (lowest
    index among them); otherwise the argmax of the PF metric, ties
    broken to the lowest index.
    """
    if not states:
        raise ValueError("states must be non-empty")
    for k, s in enumerate(states):
        if s.pending_retx:
            return k
    floor = cfg.ewma_floor
    best, best_metric = 0, -1.0
    for k, s in enumerate(states):
        m = inst_se[k] / max(s.t_avg, floor)
        if m > best_metric:
            best, best_metric = k, m
    return best


def ewma_update(
    states: list[UeSchedState],
    scheduled: int,
    inst_se: list[float],
    alpha: float,
    floor: float = SchedConfig.floor,
) -> list[UeSchedState]:
    """One EWMA tick: every UE decays, the served UE adds its rate."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    decay = 1.0 - alpha
    for k, s in enumerate(states):
        target = alpha * inst_se[k] if k == scheduled else 0.0
        s.t_avg = max(decay * s.t_avg + target, floor)
    return states


def rr_select(dl_slot_counter: int, n_ues: int) -> int:
    """Round-robin over a downlink-slot counter."""
    if n_ues < 1:
        raise ValueError(f"n_ues must be >= 1, got {n_ues}")
    return dl_slot_counter % n_ues
