"""Per-slot UE selection: proportional fair with EWMA averaging, plus a
round-robin baseline.

Both PF functions take the per-UE average rates as one plain list,
``t_avg``, which ``ewma_update`` updates in place.  The EWMA is applied literally at every scheduling
opportunity: the average of an unscheduled UE decays toward the floor,
which is what makes a starved UE's metric rise over time.
"""

from __future__ import annotations


def select_ue(t_avg: list[float], inst_se: list[float], floor: float) -> int:
    """Index of the UE with the largest PF metric ``inst_se / max(t_avg, floor)``,
    ties broken to the lowest index."""
    if not t_avg:
        raise ValueError("t_avg must be non-empty")
    best, best_metric = 0, -1.0
    for k, avg in enumerate(t_avg):
        m = inst_se[k] / max(avg, floor)
        if m > best_metric:
            best, best_metric = k, m
    return best


def ewma_update(
    t_avg: list[float], scheduled: int, inst_se: list[float], alpha: float, floor: float
) -> None:
    """One EWMA tick: every UE decays, the served UE adds its rate."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    decay = 1.0 - alpha
    for k, avg in enumerate(t_avg):
        target = alpha * inst_se[k] if k == scheduled else 0.0
        t_avg[k] = max(decay * avg + target, floor)


def rr_select(dl_slot_counter: int, n_ues: int) -> int:
    """Round-robin over a downlink-slot counter."""
    if n_ues < 1:
        raise ValueError(f"n_ues must be >= 1, got {n_ues}")
    return dl_slot_counter % n_ues
