"""A slow, literal reference of the downlink MAC loop, written from the
README's "What is modeled" and checked against ``engine.run``.

Every per-slot rule is spelled out one step at a time: the surface
state is asked of ``ris_control.state_at_slot`` in every slot, a
``HarqProcess`` object carries each transport block, proportional fair
and its EWMA keep per-UE dicts, round robin counts downlink slots, and
the BLER window is checked in every slot.  The rules live here and not
in the package: ``engine.run`` inlines them, and
``tests/test_reference_engine.py`` asserts that both give the same
trace columns and bit counters.

Rules (README "What is modeled"):

- TDD: 6 downlink, 1 mixed (6 downlink symbols) and 3 uplink slots per
  10-slot period; one UE per downlink slot on all PRBs.
- Randomness: one master seed spawns three streams, for channel
  scatter, block outcomes and i.i.d. switching (unless ``ris.seed``
  is set).  One block-outcome uniform is drawn per transmission.
- Link tables come from ``engine.build_link_tables``, one call per
  coherence epoch (``tests/test_fast_paths.py`` checks them).
- CQI cadence: each UE's rate estimate and MCS cap come from the
  channel it measures: its own beam under genie, else the state in
  force.
- Retransmission priority: a NACKed block is resent in the next
  downlink slot, at its MCS and size, up to 4 transmissions in all.
- PF: argmax of rate / max(average, floor), ties to the lowest index;
  after every downlink slot every UE's average decays and the served
  UE's adds alpha times its rate, floored.
- Outer loop: every UE's MCS steps at the end of each BLER window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from rissim import engine
from rissim.array_model import RisPhaseProfile
from rissim.config import SLOT_MS, ExperimentConfig, scaled, to_slots, validate
from rissim.link_adapt import MCS_TABLE_64QAM, MAX_ATTEMPTS, LinkAdaptState, cqi_update, step_mcs
from rissim.ris_control import SwitchPolicy, genie_state_for, state_at_slot

# Schedulable downlink symbols per slot of one TDD period: 6 DL, 1 mixed, 3 UL.
DL_SYMBOLS = (13, 13, 13, 13, 13, 13, 6, 0, 0, 0)


def effective_channel(phi, h_c) -> complex:
    """Scalar effective channel of a surface configuration over ``h_c``.

    ``phi`` may be a raw complex phase vector (the conjugated-phase
    convention: the result is ``phi^H h``, maximal and real when
    ``phi`` matches the element-wise phase of ``h``) or a
    RisPhaseProfile, in which case the realized one-bit reflection
    weights are applied.
    """
    h = np.asarray(h_c, dtype=complex)
    if isinstance(phi, RisPhaseProfile):
        w = phi.reflection_weights()
        if w.size != h.size:
            raise ValueError(f"profile length {w.size} does not match channel length {h.size}")
        return complex(np.sum(w * h))
    phi = np.asarray(phi, dtype=complex)
    if phi.size != h.size:
        raise ValueError(f"phase-vector length {phi.size} does not match channel length {h.size}")
    return complex(np.vdot(phi, h))


def select_ue(t_avg, rates, floor: float) -> int:
    """The UE with the largest PF metric ``rate / max(average, floor)``,
    ties broken to the lowest index.

    ``t_avg`` and ``rates`` map UE index 0..K-1 to a value (a list or a dict).
    """
    if not t_avg:
        raise ValueError("t_avg must be non-empty")
    metric = {k: rates[k] / max(t_avg[k], floor) for k in range(len(t_avg))}
    return max(metric, key=lambda k: (metric[k], -k))


def ewma_update(t_avg, scheduled: int, rates, alpha: float, floor: float) -> None:
    """One EWMA tick in place: every UE decays, the served UE adds alpha times its rate."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    for k in range(len(t_avg)):
        served = alpha * rates[k] if k == scheduled else 0.0
        t_avg[k] = max((1.0 - alpha) * t_avg[k] + served, floor)


def rr_select(dl_slot_counter: int, n_ues: int) -> int:
    """Round robin over a downlink-slot counter."""
    if n_ues < 1:
        raise ValueError(f"n_ues must be >= 1, got {n_ues}")
    return dl_slot_counter % n_ues


@dataclass
class HarqProcess:
    """Stop-and-wait process for one in-flight transport block."""

    tb_bits: int
    mcs_used: int
    attempts: int = 1  # transmissions so far
    ue: int = 0


RETRANSMIT = "retransmit"
DISCARD = "discard"


def harq_on_nack(proc: HarqProcess) -> str:
    """Advance a process after a NACK: retransmit at the same MCS until
    the attempt budget is spent, then discard."""
    if proc.attempts < MAX_ATTEMPTS:
        proc.attempts += 1
        return RETRANSMIT
    return DISCARD


@dataclass
class ReferenceRun:
    """Per-slot columns in ``engine.Trace``'s form, and the whole-run bit counters."""

    row: list = field(default_factory=list)
    ue: list = field(default_factory=list)
    mcs: list = field(default_factory=list)
    tb_bits: list = field(default_factory=list)
    nack: list = field(default_factory=list)
    retx: list = field(default_factory=list)
    new_tx_bits: int = 0
    acked_bits: int = 0
    discarded_bits: int = 0
    inflight_bits: int = 0

    def record(self, row, ue=None, mcs=None, tb_bits=0, nack=False, retx=False) -> None:
        self.row.append(row)
        self.ue.append(ue)
        self.mcs.append(mcs)
        self.tb_bits.append(tb_bits)
        self.nack.append(nack)
        self.retx.append(retx)


def run(cfg: ExperimentConfig) -> ReferenceRun:
    """Simulate ``cfg`` one slot at a time."""
    validate(cfg)
    la, n_ues = cfg.la, len(cfg.ues)
    alpha, ts_slots = scaled(cfg)
    n_slots = to_slots(cfg.sim.duration_s)
    window_slots = max(1, round(la.window_ms / SLOT_MS / cfg.sim.ts_scaling))
    cqi_slots = max(1, round(la.cqi_period_ms / SLOT_MS / cfg.sim.ts_scaling))

    ss_channel, ss_blocks, ss_ris = np.random.SeedSequence(cfg.sim.seed).spawn(3)
    rng_channel = np.random.default_rng(ss_channel)
    rng_blocks = np.random.default_rng(ss_blocks)
    ris_seed = cfg.ris.seed if cfg.ris.seed is not None else int(ss_ris.generate_state(1)[0])

    dist = engine.build_distribution(cfg)
    setup = engine.link_setup(cfg, dist)
    coherence = cfg.chan.coherence_slots if cfg.chan.rician_k_db is not None else 0
    mode = cfg.ris.mode
    own_beam = {}  # UE -> the state steered at it; genie runs need one for every UE
    for k, ue in enumerate(cfg.ues):
        try:
            own_beam[k] = genie_state_for(ue, dist)
        except LookupError:
            pass
    switching = mode in ("periodic", "iid")
    policy = SwitchPolicy(mode, ts_slots, ris_seed, cfg.ris.offset_slots) if switching else None
    no_surface_row = len(dist)  # the link tables' last row

    t_avg = {k: cfg.sched.floor for k in range(n_ues)}
    rate = {k: 0.0 for k in range(n_ues)}
    link = {k: LinkAdaptState(mcs=la.mcs_min, mcs_min=la.mcs_min) for k in range(n_ues)}
    proc: HarqProcess | None = None
    dl_slots = 0
    # The surface stays where it was last set: genie starts on UE 0's beam,
    # and the switching modes set it at slot 0.
    surface = no_surface_row if mode == "off" else own_beam.get(0)
    out = ReferenceRun()

    for t in range(n_slots):
        if t == 0 or (coherence and t % coherence == 0):
            [tables] = engine.build_link_tables(cfg, setup, rng_channel)
        if switching:
            surface = state_at_slot(t, policy, dist)

        if t % cqi_slots == 0:
            for k in range(n_ues):
                measured = own_beam[k] if mode == "genie" else surface
                link[k].mcs_max_from_cqi = cqi_update(
                    tables.snr_db[measured][k], setup.thresholds_db, la.cqi_backoff_db, la.mcs_min
                )
                link[k].clamp()
                rate[k] = tables.se[measured][k]

        symbols = DL_SYMBOLS[t % len(DL_SYMBOLS)]
        if symbols == 0:
            out.record(surface)
        else:
            retx = proc is not None
            if not retx:
                if cfg.sched.kind == "rr":
                    ue = rr_select(dl_slots, n_ues)
                else:
                    ue = select_ue(t_avg, rate, cfg.sched.floor)
                mcs = link[ue].mcs
                tb = math.floor(MCS_TABLE_64QAM[mcs].se * 12 * cfg.sim.prbs * symbols)
                proc = HarqProcess(tb_bits=tb, mcs_used=mcs, ue=ue)
                out.new_tx_bits += tb
            dl_slots += 1
            ue = proc.ue
            if mode == "genie":
                surface = own_beam[ue]
            nack = rng_blocks.random() < tables.bler[surface][ue][proc.mcs_used]
            out.record(surface, ue, proc.mcs_used, proc.tb_bits, nack, retx)
            if not nack:
                out.acked_bits += proc.tb_bits
                proc = None
            elif harq_on_nack(proc) == DISCARD:
                out.discarded_bits += proc.tb_bits
                proc = None
            link[ue].win_scheduled += 1
            link[ue].win_retx += retx
            ewma_update(t_avg, ue, rate, alpha, cfg.sched.floor)

        if (t + 1) % window_slots == 0:
            for k in range(n_ues):
                step_mcs(link[k], la.bler_low, la.bler_high)

    out.inflight_bits = proc.tb_bits if proc is not None else 0
    return out
