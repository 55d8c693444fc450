"""Surface state set, sampling distribution, and the per-slot switch rule.

The controller holds L selectable phase profiles with selection
probabilities.  Two switching policies are supported: deterministic
periodic alternation and i.i.d. sampling at interval boundaries, both
with a configurable initial slot offset.  State changes take effect at
slot boundaries only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .array_model import RisPhaseProfile

PROB_TOL = 1e-9
GENIE_TOL_DEG = 1e-9  # a state within this of a UE's angles is steered at it


@dataclass(frozen=True)
class SamplingDistribution:
    """L surface states and their selection probabilities."""

    states: list[RisPhaseProfile]
    probs: list[float]

    def __post_init__(self):
        if len(self.states) < 1:
            raise ValueError("need at least one state")
        if len(self.states) != len(self.probs):
            raise ValueError("states and probs must have the same length")
        if any(p < 0.0 for p in self.probs):
            raise ValueError("probabilities must be non-negative")
        if abs(sum(self.probs) - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities must sum to 1, got {sum(self.probs)}")

    def __len__(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class SwitchPolicy:
    """How the active state index evolves over slots."""

    mode: str  # "periodic" | "iid"
    ts_slots: int
    seed: int = 0
    offset_slots: int = 0

    def __post_init__(self):
        if self.mode not in ("periodic", "iid"):
            raise ValueError(f"unknown switch mode {self.mode!r}")
        if self.ts_slots < 1:
            raise ValueError(f"ts_slots must be >= 1, got {self.ts_slots}")


def _iid_draw(seed: int, interval: int, probs: list[float]) -> int:
    rng = np.random.default_rng(np.random.SeedSequence((seed, interval)))
    u = rng.random()
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if u < acc:
            return i
    return len(probs) - 1


def state_at_slot(t: int, policy: SwitchPolicy, dist: SamplingDistribution) -> int:
    """Active state index at slot ``t``.

    Periodic mode alternates deterministically every ``ts_slots``; iid
    mode draws a fresh state per interval from the distribution, held
    constant within the interval and reproducible from the seed alone.
    """
    if t < 0:
        raise ValueError(f"slot index must be >= 0, got {t}")
    interval = (t + policy.offset_slots) // policy.ts_slots
    if policy.mode == "periodic":
        return interval % len(dist)
    return _iid_draw(policy.seed, interval, dist.probs)


def genie_state_for(ue, dist: SamplingDistribution) -> int:
    """Index of the state steered at a UE's (nu, psi); LookupError if none.

    ``ue`` is anything with ``nu_deg`` and ``psi_deg`` attributes.
    """
    tol = GENIE_TOL_DEG
    for i, s in enumerate(dist.states):
        if abs(s.nu_deg - ue.nu_deg) <= tol and abs(s.psi_deg - ue.psi_deg) <= tol:
            return i
    raise LookupError(f"no state aligned to ({ue.nu_deg}, {ue.psi_deg}) deg")
