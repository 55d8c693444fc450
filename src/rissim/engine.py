"""Slot-ordered downlink MAC loop.

:func:`run` is three module-level phases: ``config.validate``,
:func:`simulate` (the slot loop and the whole-run bit counters) and
:func:`summarize` (the warm-up window's statistics).  :func:`simulate`
calls :func:`build_link_tables` once, before its loop: the link model's
one home, it builds one beam state per ``config.state_angles`` entry
(``array_model.upa_profiles``), each UE's line-of-sight channel and link
budget, and from them the run's link tables (SNR, spectral efficiency
and RSRP per row and UE of each coherence epoch) as one float64 array.
:func:`simulate` switches between the states every ``ris.ts_slots``, in
turn (periodic) or by an independent draw per interval (i.i.d.,
:func:`iid_state`).  :func:`simulate` and :func:`summarize` read each
UE's own state from ``config.aligned_states``.

The slot loop runs in event segments.  At a segment's first slot it
handles the events due there, in this order: the channel-coherence
refresh, the surface switch and the CQI refresh of the rate estimates;
the segment ends at the next slot where any of these, a BLER-window
boundary or the run's end falls.  Within a segment each UE's table row,
MCS and rate estimate are fixed, so its first slot also computes each
UE's new-block error probability, its EWMA gain (alpha times its rate
estimate) and PF's pick.  Its slots do only the TDD phase lookup and,
on downlink slots, the MAC work: take the UE (pending retransmissions
first, then the configured policy), size the transport block, draw its
outcome, and update HARQ and the retransmission counters; the EWMA pass
also picks the next slot's PF UE.  After a segment that ends on a window
boundary, every UE's MCS takes its window step, on the window's
retransmissions over its served slots, counted from the UE column.  The
scheduler and the EWMA see the CQI-cadence rate estimates, as a
CQI-driven MAC does; the block fails with the logistic block-error
probability of the true current SNR at its MCS, which is what produces
the measured-BLER excursions right after a surface switch.  A
retransmission's probability is computed when it is drawn, since its
block may come from an earlier segment.  The
per-slot rules (PF argmax, EWMA, round robin, the block-error curve,
HARQ, and the outer loop's CQI cap and BLER-window MCS step) are
written inline in :func:`simulate`, their state in plain per-UE lists;
the literal reference loop in ``tests/reference_engine.py`` restates
them one step at a time and is checked against it.

The run's one per-slot record is :class:`Trace`, which holds only the
loop's decisions: one byte per slot in each of four typed columns (UE,
MCS, NACK, retransmission), a log of the surface switches, and views of
the RSRP and SNR planes of the run's link-table array.
:meth:`Trace.chunks` is its one read: :data:`CSV_CHUNK` slots at a time,
it derives each slot's epoch, surface state (-1 without the surface,
also the slot's table row) and TB size with numpy, aligned with the
stored columns.  Its two consumers are :func:`summarize`, a reduction
over the chunks from the warm-up slot on, and :func:`write_trace_csv`,
which formats each chunk's lines as bytes.  Neither holds a copy of a
column or of the whole file.

All randomness derives from one master seed through three independent
streams (channel scatter, block outcomes, i.i.d. switching), so traces
are bit-reproducible and enabling scatter does not perturb HARQ draws.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .array_model import upa_profiles, upa_steering
from .cells import digit_cells, text_lines
from .config import (
    EPOCH_BLOCK, MAX_UES, SLOT_MS, ExperimentConfig, aligned_states, epoch_count, scaled,
    state_angles, to_slots, validate,
)

SUBCARRIERS_PER_PRB = 12
DRAW_CHUNK = 4096  # block-outcome uniforms drawn per refill
RSRP_FLOOR_DBM = -156.0  # NR reporting floor
# Slots per Trace.chunks() chunk, which the summary and the CSV writer's byte matrices read;
# at 8192 the writer raised the 80,000-slot fading run's peak RSS by 1.3 MiB.
CSV_CHUNK = 4096
IDLE = MAX_UES  # a trace's UE and MCS byte on an idle slot: one past the last UE index
# HARQ budget: 1 transmission + 3 retransmissions at the block's MCS, then it is discarded.
MAX_ATTEMPTS = 4

# Schedulable DL symbols per slot of one TDD period: 6 downlink, 1 mixed, 3 uplink.
TDD_DL_SYMBOLS = (13,) * 6 + (6,) + (0,) * 3


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
    """SNR anchor of the logistic block-error curve per MCS index: the
    Shannon limit of the entry's spectral efficiency plus ``impl_margin_db``."""
    return tuple(10.0 * math.log10(2.0 ** e.se - 1.0) + impl_margin_db for e in MCS_TABLE_64QAM)


def tb_table(prbs: int) -> dict[int, tuple[int, ...]]:
    """TB size per (schedulable DL symbols, MCS index) for one run: spectral
    efficiency times resource elements."""
    return {
        symbols: tuple(
            math.floor(entry.se * SUBCARRIERS_PER_PRB * prbs * symbols)
            for entry in MCS_TABLE_64QAM
        )
        for symbols in sorted(set(TDD_DL_SYMBOLS))
        if symbols > 0
    }


class Trace:
    """The slot loop's decisions, plus the link-table RSRP and SNR of each
    channel epoch.

    Each downlink slot stores one byte per column of served UE, MCS, NACK
    and retransmission; an uplink slot stores nothing and reads as idle
    (UE and MCS :data:`IDLE`, NACK and retransmission 0).  The surface
    state is a switch log of (first slot, state) entries, appended where
    :func:`simulate` switches (one entry at slot 0 in mode ``off``, state
    -1).  In genie mode the log is empty and a slot's state is the own
    state (``genie_states``) of the UE it serves, or of the last one
    served on an uplink slot.  The TB size is not stored: a new block's is
    ``phase_tb[t % 10][mcs]`` and a retransmission resends the in-flight
    block's.  :meth:`chunks` is the one read of the trace, and the one
    place that derives a slot's state and TB size.  ``rsrp`` and ``snr``
    are (epoch, row, UE) views of the run's :func:`build_link_tables`
    array: epoch ``e`` covers the slots from ``e * coherence`` on.
    """

    def __init__(
        self,
        n_slots: int,
        coherence: int,
        phase_tb: tuple[tuple[int, ...] | None, ...],
        genie_states: tuple[int, ...] | None,
        tables: np.ndarray,
    ):
        self.coherence = coherence
        self.phase_tb = phase_tb  # per TDD phase: None on uplink, else the TB size per MCS
        self.genie_states = genie_states
        self._ue = bytearray((IDLE,)) * n_slots
        self._mcs = bytearray((IDLE,)) * n_slots
        self._nack = bytearray(n_slots)
        self._retx = bytearray(n_slots)
        self._switch_slot = array("q")
        self._switch_state = array("q")
        self.snr, self.rsrp = tables[:, :, 0], tables[:, :, 2]  # views, per epoch, row, UE

    def switch(self, slot: int, state: int) -> None:
        """Log that the surface takes ``state`` from ``slot`` on."""
        self._switch_slot.append(slot)
        self._switch_state.append(state)

    def chunks(self):
        """Each :data:`CSV_CHUNK` slots as aligned arrays: (slot, epoch, state,
        UE, MCS, TB size, NACK, retransmission).

        The state is -1 without the surface; as an index it is also the
        slot's link-table row, since the tables' last row is the no-surface
        one.  UE and MCS are :data:`IDLE` on an idle slot, whose TB size is
        0.  In genie mode a slot's state is the own state of the last UE
        served at or before it (UE 0's before the first); that UE, and the
        size of the last new block, which a retransmission resends, carry
        across chunks.
        """
        n = len(self)
        span = self.coherence or n
        sizes = np.zeros((len(self.phase_tb), IDLE + 1), np.int64)  # an idle MCS reads 0
        for phase, row in enumerate(self.phase_tb):
            if row is not None:
                sizes[phase, :len(row)] = row
        firsts = np.frombuffer(self._switch_slot, np.int64)
        states = np.frombuffer(self._switch_state, np.int64)
        own = None if self.genie_states is None else np.array(self.genie_states)
        columns = [np.frombuffer(c, np.uint8) for c in (self._ue, self._mcs, self._nack, self._retx)]
        genie_ue = tb = 0
        for lo in range(0, n, CSV_CHUNK):
            slots = np.arange(lo, min(lo + CSV_CHUNK, n))
            ue, mcs, nack, retx = (column[lo:lo + CSV_CHUNK] for column in columns)
            served = ue != IDLE
            if own is None:
                rows = states[np.searchsorted(firsts, slots, "right") - 1]
            else:
                filled = _fill_forward(ue, served, genie_ue)
                genie_ue = int(filled[-1])
                rows = own[filled]
            filled = _fill_forward(sizes[slots % len(sizes), mcs], served & (retx == 0), tb)
            tb = int(filled[-1])
            yield slots, slots // span, rows, ue, mcs, np.where(served, filled, 0), nack, retx

    def __len__(self) -> int:
        return len(self._ue)


def _fill_forward(values: np.ndarray, keep: np.ndarray, carry: int) -> np.ndarray:
    """``values`` where ``keep``, elsewhere the last kept value before, or
    ``carry`` before the first."""
    last = np.where(keep, np.arange(1, len(values) + 1), 0)
    np.maximum.accumulate(last, out=last)
    return np.concatenate(([carry], values))[last]


@dataclass(eq=False)
class RunSummary:
    duration_s: float
    measured_s: float
    n_slots: int
    throughput_mbps: tuple[float, ...]
    aggregate_mbps: float
    long_run_bler: tuple[float, ...]
    mean_rsrp_aligned_dbm: tuple[float, ...]
    mean_rsrp_misaligned_dbm: tuple[float, ...]
    served_frac_aligned_dl: tuple[float, ...]
    served_frac_misaligned_dl: tuple[float, ...]
    served_frac_aligned_total: tuple[float, ...]
    served_frac_misaligned_total: tuple[float, ...]
    served_share: tuple[float, ...]
    new_tx_bits: int
    acked_bits: int
    discarded_bits: int
    inflight_bits: int

    def as_kv_text(self) -> str:
        lines = []
        for key, value in sorted(vars(self).items()):
            if isinstance(value, tuple):
                for k, v in enumerate(value):
                    lines.append(f"{key}.{k}={v:.6f}")
            elif isinstance(value, float):
                lines.append(f"{key}={value:.6f}")
            else:
                lines.append(f"{key}={value}")
        return "\n".join(lines) + "\n"


def build_link_tables(
    cfg: ExperimentConfig, rng_channel: np.random.Generator, n_epochs: int
) -> np.ndarray:
    """The link tables of ``n_epochs`` successive channel draws, one per
    coherence epoch, as one float64 array of shape (epoch, row, (SNR dB,
    SE, RSRP), UE).

    Rows are the surface states, then the no-surface scalar channel, so
    that state -1 (mode "off") indexes the last row.  Under a state a UE's
    link is the sum of the state's phasors times its cascaded channel, plus
    its direct leak.  With ``chan.rician_k_db``, each epoch draws scatter
    from ``rng_channel`` UE by UE, real parts before imaginary parts,
    :data:`EPOCH_BLOCK` (B) epochs at a time, into scratch of normals
    (B, K, 2, n), cascaded channels (B, K, n) and their products with one
    state's phasors (B, K, n): about 1.5 MiB for two UEs and 1,024
    elements.  ``np.sum`` over each contiguous row adds in the same order
    as over that row alone, so a block gives the bits of one epoch at a time.
    """
    g, ues = cfg.geom, cfg.ues
    amplitude = 1.0 / (g.n_h * g.n_v)
    los = upa_steering([(ue.nu_deg, ue.psi_deg) for ue in ues], g.n_h, g.n_v, g.spacing_ratio)
    los *= amplitude  # (K, n)
    weights = upa_profiles(state_angles(cfg), g.n_h, g.n_v, g.spacing_ratio, g.dither)
    # Per UE: the SNR gain 10 ** ((tx - pathloss - noise) / 10) and tx - pathloss.
    budget = (
        [10.0 ** ((cfg.tx_power_dbm - ue.pathloss_db - ue.noise_dbm) / 10.0) for ue in ues],
        [cfg.tx_power_dbm - ue.pathloss_db for ue in ues],
        cfg.rsrp_offset_db,
    )
    leaks = np.array([ue.direct_leak for ue in ues], complex)
    k_db = cfg.chan.rician_k_db
    # amplitude / sqrt(K): scatter power is LoS power / K.
    sigma = None if k_db is None else amplitude / math.sqrt(10.0 ** (k_db / 10.0))

    tables = np.empty((n_epochs, len(weights) + 1, 3, len(ues)))
    tables[:, -1] = _row_values([complex(ue.noris_gain) for ue in ues], *budget)
    b, (k, n) = min(EPOCH_BLOCK, n_epochs), los.shape
    scratch = (np.empty((b, k, 2, n)), np.empty((b, k, n), complex), np.empty((b, k, n), complex))
    for first in range(0, n_epochs, EPOCH_BLOCK):
        m = min(EPOCH_BLOCK, n_epochs - first)
        normals, h, prod = (a[:m] for a in scratch)
        if sigma is None:
            h[:] = los
        else:
            rng_channel.standard_normal(out=normals)
            # sigma * (re + 1j * im) / sqrt(2) as real operations, in that order;
            # numpy divides a complex by a real by multiplying by the reciprocal.
            normals *= sigma
            normals *= 1.0 / math.sqrt(2.0)
            np.add(los.real, normals[:, :, 0], out=h.real)
            np.add(los.imag, normals[:, :, 1], out=h.imag)
        for s, w in enumerate(weights):
            np.multiply(w, h, out=prod)
            effs = prod.sum(axis=-1)  # (epoch, UE)
            effs += leaks
            tables[first:first + m, s] = [_row_values(row, *budget) for row in effs.tolist()]
    return tables


def _row_values(
    effs: list[complex], snr_gain: list[float], rx_dbm: list[float], offset: float
) -> tuple[tuple[float, ...], ...]:
    """(SNR dB, Shannon spectral efficiency, RSRP) per UE of one table row, in scalar math.

    ``numpy``'s vectorised log and exp differ from ``math``'s in the last
    bit on some inputs, and the MAC decisions compare against these values.
    """
    values = []
    for h_eff, gain, rx in zip(effs, snr_gain, rx_dbm):
        mag = abs(h_eff)
        snr = mag ** 2 * gain
        rsrp = rx + 20.0 * math.log10(mag) + offset if mag else RSRP_FLOOR_DBM
        values.append((
            10.0 * math.log10(snr) if snr > 0 else -math.inf,
            math.log2(1.0 + snr),
            max(rsrp, RSRP_FLOOR_DBM),
        ))
    return tuple(zip(*values))


def iid_state(seed: int, interval: int, probs: Sequence[float]) -> int:
    """The state of switching interval ``interval`` under i.i.d. switching.

    One uniform from ``SeedSequence((seed, interval))`` against the
    cumulative probabilities, so each interval's state depends on the
    seed and the interval alone.
    """
    u = np.random.default_rng(np.random.SeedSequence((seed, interval))).random()
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if u < acc:
            return i
    return len(probs) - 1


def run(cfg: ExperimentConfig) -> tuple[Trace, RunSummary]:
    """Simulate one configuration; returns the slot trace and summary."""
    validate(cfg)
    trace, counters = simulate(cfg)
    return trace, summarize(cfg, trace, counters)


def simulate(cfg: ExperimentConfig) -> tuple[Trace, tuple[int, ...]]:
    """The slot loop over a valid ``cfg``: the trace, and the whole run's
    (new, acked, discarded, in-flight) bit counters."""
    n_ues = len(cfg.ues)
    alpha, ts_slots, window_slots, cqi_slots = scaled(cfg)
    n_slots = to_slots(cfg.sim.duration_s)

    ss_channel, ss_blocks, ss_ris = np.random.SeedSequence(cfg.sim.seed).spawn(3)
    rng_channel = np.random.default_rng(ss_channel)
    rng_blocks = np.random.default_rng(ss_blocks)
    ris_seed = cfg.ris.seed if cfg.ris.seed is not None else int(ss_ris.generate_state(1)[0])

    coherence = cfg.chan.coherence_slots
    n_states = len(state_angles(cfg))
    aligned_state = aligned_states(cfg)
    mode = cfg.ris.mode
    genie = mode == "genie"
    switching = mode in ("periodic", "iid")
    periodic = mode == "periodic"
    probs = cfg.ris.probs if cfg.ris.probs is not None else [1.0 / n_states] * n_states

    la = cfg.la
    floor = cfg.sched.floor
    decay = 1.0 - alpha
    round_robin = cfg.sched.kind == "rr"
    t_avg = [floor] * n_ues  # PF average rates
    # Outer loop, per UE: the MCS of new blocks, its CQI cap (first set at
    # slot 0, a CQI slot) and the current BLER window's counts.
    mcs_min = la.mcs_min
    mcs_of = [mcs_min] * n_ues
    cap_of = [len(MCS_TABLE_64QAM) - 1] * n_ues
    win_retx = [0] * n_ues
    thresholds = thresholds_db(la.impl_margin_db)
    cqi_levels = tuple(enumerate(thresholds))[mcs_min:]  # (index, threshold)
    slope = la.slope
    exp = math.exp

    # Per TDD phase: None on uplink slots, else the TB size per MCS index.
    phase_tb = tuple(map(tb_table(cfg.sim.prbs).get, TDD_DL_SYMBOLS))
    period = len(TDD_DL_SYMBOLS)
    tables = build_link_tables(cfg, rng_channel, epoch_count(n_slots, coherence))
    trace = Trace(n_slots, coherence, phase_tb, aligned_state if genie else None, tables)
    ues, mcss, nacks, retxs = trace._ue, trace._mcs, trace._nack, trace._retx
    # One uniform per transmission; chunked draws equal the scalar ones.
    bler_draw = chain.from_iterable(
        iter(lambda: rng_blocks.random(DRAW_CHUNK).tolist(), None)
    ).__next__

    rate_est = [0.0] * n_ues  # CQI-cadence rate estimates driving the scheduler
    gain = [0.0] * n_ues  # alpha * rate_est: what serving a UE adds to its PF average
    ue_range = range(n_ues)
    ewma_range = () if round_robin else ue_range  # round robin reads no average
    dl_counter = 0
    new_tx_bits = acked_bits = discarded_bits = 0
    # HARQ: at most one block is in flight, and a NACKed one preempts every
    # other UE in the next downlink slot, so the block is the previous
    # downlink slot's (ue, mcs, tb).  ``attempts`` counts its transmissions;
    # 0 means none is in flight.
    attempts = ue = mcs = tb = pick = 0
    row = -1 if mode == "off" else 0
    if mode == "off":
        trace.switch(0, row)
    # The slot of each event's next occurrence; n_slots where a mode has none.
    epoch_span = coherence or n_slots  # a static channel is one epoch
    next_coh = next_cqi = 0
    next_switch = 0 if switching else n_slots
    next_win = window_slots
    offset = cfg.ris.offset_slots

    t0 = 0
    while t0 < n_slots:
        # Scatter evolves on its own coherence grid, from its own stream.
        if t0 == next_coh:  # the epoch's SNR and SE per row and UE, as plain floats
            snr_tab, se_tab = tables[t0 // epoch_span, :, :2].swapaxes(0, 1).tolist()
            next_coh += epoch_span

        # One state per switching interval, set at its first slot.
        if t0 == next_switch:
            interval = (t0 + offset) // ts_slots
            row = interval % n_states if periodic else iid_state(ris_seed, interval, probs)
            trace.switch(t0, row)
            next_switch = (interval + 1) * ts_slots - offset

        # Each UE's table row (its own state in genie mode) and true SNR,
        # fixed until the next event.
        rows = aligned_state if genie else (row,) * n_ues
        snr = [snr_tab[r][k] for k, r in enumerate(rows)]

        # CQI cadence: refresh the scheduler-side rate estimates and caps
        # from the channel each UE currently measures.  The cap is the last
        # index whose threshold fits: index 16's threshold is above 17's.
        if t0 == next_cqi:
            for k in ue_range:
                limit = snr[k] - la.cqi_backoff_db
                cap = mcs_min
                for index, threshold in cqi_levels:
                    if threshold <= limit:
                        cap = index
                cap_of[k] = cap
                mcs_of[k] = min(max(mcs_of[k], mcs_min), cap)
                rate_est[k] = se_tab[rows[k]][k]
                gain[k] = alpha * rate_est[k]
            next_cqi += cqi_slots

        # Block error: logistic in the true SNR, midpoint at the MCS's
        # threshold.  Past x = 700 it is 0.0, and exp would overflow near 710.
        # A new block's probability is fixed for the segment; a retransmitted
        # block's MCS may differ from its UE's current one.
        p_new = []
        for k in ue_range:
            x = slope * (snr[k] - thresholds[mcs_of[k]])
            p_new.append(1.0 / (1.0 + exp(x)) if x <= 700.0 else 0.0)
        # PF: the largest rate / average, ties to the lowest index.  The
        # averages never fall below the floor (see the EWMA).
        best = -1.0
        for k in ewma_range:
            m = rate_est[k] / t_avg[k]
            if m > best:
                pick, best = k, m

        # A segment: the slots up to the next event, none of which falls inside it.
        seg_end = min(next_coh, next_switch, next_cqi, next_win, n_slots)
        for t in range(t0, seg_end):
            tb_row = phase_tb[t % period]
            if tb_row is None:
                continue  # uplink: an idle slot
            if attempts:  # the in-flight block's retransmission
                win_retx[ue] += 1
                retxs[t] = 1
                x = slope * (snr[ue] - thresholds[mcs])
                p = 1.0 / (1.0 + exp(x)) if x <= 700.0 else 0.0
            else:
                ue = dl_counter % n_ues if round_robin else pick
                mcs = mcs_of[ue]
                tb = tb_row[mcs]
                new_tx_bits += tb
                p = p_new[ue]
            attempts += 1
            dl_counter += 1
            if bler_draw() < p:
                nacks[t] = 1
                if attempts == MAX_ATTEMPTS:  # the last retransmission failed
                    discarded_bits += tb
                    attempts = 0
            else:
                acked_bits += tb
                attempts = 0

            # PF's EWMA: every UE decays, the served one adds its rate;
            # floored, as max(v, floor) would, without the call.  The same
            # pass picks the next slot's UE.
            best = -1.0
            for k in ewma_range:
                v = decay * t_avg[k] + gain[k] if k == ue else decay * t_avg[k]
                if floor > v:
                    v = floor
                t_avg[k] = v
                m = rate_est[k] / v
                if m > best:
                    pick, best = k, m

            ues[t] = ue
            mcss[t] = mcs

        # Outer loop: at the end of each BLER window every UE's MCS steps one
        # index on its retransmission ratio (0.0 for an empty window); the
        # UE column holds the window's served slots.
        if seg_end == next_win:
            lo = next_win - window_slots
            for k in ue_range:
                scheduled = ues.count(k, lo, next_win)
                ratio = win_retx[k] / scheduled if scheduled else 0.0
                step = 1 if ratio < la.bler_low else -1 if ratio > la.bler_high else 0
                mcs_of[k] = min(max(mcs_of[k] + step, mcs_min), cap_of[k])
            win_retx = [0] * n_ues
            next_win += window_slots
        t0 = seg_end

    return trace, (new_tx_bits, acked_bits, discarded_bits, tb if attempts else 0)


def summarize(cfg: ExperimentConfig, trace: Trace, counters: tuple[int, ...]) -> RunSummary:
    """The run summary: statistics over the slots from the warm-up boundary
    on, reduced one :meth:`Trace.chunks` chunk at a time, and
    :func:`simulate`'s whole-run bit counters."""
    n_ues = len(cfg.ues)
    n_slots = len(trace)
    warmup_slot = to_slots(cfg.sim.warmup_s)
    # Rates divide by the simulated span, a whole number of slots.
    measured_slots = max(n_slots - warmup_slot, 0)
    measured_s = measured_slots * SLOT_MS / 1000.0

    # A row is aligned to each UE whose own state it is; the last row, state
    # -1 (no surface), to none, even where a UE has no own state (-1) either.
    n_rows = len(state_angles(cfg)) + 1
    aligned = np.arange(n_rows)[:, None] == np.array(aligned_states(cfg))
    # Per (UE, row, retransmission): the served slots and their acknowledged
    # bits.  The float sums are exact: config.MAX_SLOTS blocks of any TB size
    # stay below 2 ** 53.
    counts = np.zeros(n_ues * n_rows * 2, np.int64)
    acked = np.zeros(n_ues * n_rows * 2)
    # Per UE, [misaligned, aligned]: every downlink slot adds each UE's RSRP at
    # the slot's row.  np.cumsum adds left to right, as slot-order += does, so
    # with the running sum added into a chunk's first value the means keep
    # their bits; np.sum adds pairwise, and sum() is compensated from Python 3.12 on.
    rsrp_sum = [[0.0, 0.0] for _ in range(n_ues)]
    rsrp_n = [[0, 0] for _ in range(n_ues)]
    for slots, epochs, rows, ues, _, tb, nack, retx in trace.chunks():
        dl = ues != IDLE
        dl[:max(warmup_slot - slots[0], 0)] = False
        if not dl.any():
            continue
        epochs, rows, ues = epochs[dl], rows[dl], ues[dl].astype(np.int64)
        keys = (ues * n_rows + rows % n_rows) * 2 + retx[dl]
        counts += np.bincount(keys, minlength=counts.size)
        acked += np.bincount(keys, np.where(nack[dl], 0, tb[dl]), counts.size)
        values = trace.rsrp[epochs, rows]
        for sums, n, column, hit in zip(rsrp_sum, rsrp_n, values.T, aligned[rows].T):
            for h, v in enumerate((column[~hit], column[hit])):
                if len(v):
                    v[0] += sums[h]
                    sums[h] = float(np.cumsum(v)[-1])
                    n[h] += len(v)
    counts = counts.reshape(n_ues, n_rows, 2)
    scheduled = counts.sum(axis=(1, 2)).tolist()
    served_aligned = (counts.sum(axis=2) * aligned.T).sum(axis=1).tolist()
    retx_count = counts[:, :, 1].sum(axis=1).tolist()
    window_acked = [int(b) for b in acked.reshape(n_ues, -1).sum(axis=1).tolist()]

    def mean_rsrp(hit: int) -> tuple[float, ...]:
        return tuple(s[hit] / n[hit] if n[hit] else float("nan") for s, n in zip(rsrp_sum, rsrp_n))

    def fractions(counts: list[int], total: int) -> tuple[float, ...]:
        return tuple(c / total if total else 0.0 for c in counts)

    served_misaligned = [s - a for s, a in zip(scheduled, served_aligned)]
    dl_slots = sum(scheduled)  # every downlink slot serves one UE
    tput = tuple((b / measured_s / 1e6) if measured_s > 0 else 0.0 for b in window_acked)
    new_tx_bits, acked_bits, discarded_bits, inflight_bits = counters
    return RunSummary(
        duration_s=n_slots * SLOT_MS / 1000.0,
        measured_s=measured_s,
        n_slots=n_slots,
        throughput_mbps=tput,
        aggregate_mbps=float(np.cumsum(tput)[-1]),  # left to right, unlike sum() on 3.12+
        long_run_bler=tuple((r / s) if s else 0.0 for r, s in zip(retx_count, scheduled)),
        mean_rsrp_aligned_dbm=mean_rsrp(1),
        mean_rsrp_misaligned_dbm=mean_rsrp(0),
        served_frac_aligned_dl=fractions(served_aligned, dl_slots),
        served_frac_misaligned_dl=fractions(served_misaligned, dl_slots),
        served_frac_aligned_total=fractions(served_aligned, measured_slots),
        served_frac_misaligned_total=fractions(served_misaligned, measured_slots),
        served_share=fractions(scheduled, dl_slots),
        new_tx_bits=new_tx_bits,
        acked_bits=acked_bits,
        discarded_bits=discarded_bits,
        inflight_bits=inflight_bits,
    )


def write_trace_csv(trace: Trace, path) -> None:
    """Exact trace schema: slot,time_ms,ris_state,ue,rsrp0_dbm,...,snr_db,mcs,tb_bits,outcome,is_retx.

    Each :meth:`Trace.chunks` chunk's lines are assembled as bytes by
    ``cells.text_lines``: the ``slot,time_ms,`` prefix from integer digits
    (``cells.digit_cells`` of the slot, and of five times the slot with one
    decimal place, which is the time in ms exactly), then a head
    ``ris_state,ue,rsrp...,snr_db,`` keyed on (epoch, state, UE) and a rest
    ``mcs,tb_bits,outcome,is_retx`` keyed on (MCS, TB size, NACK,
    retransmission), each formatted once per distinct key in the chunk.  So
    the writer's memory does not grow with the trace.
    """
    if SLOT_MS != 0.5:
        raise ValueError(f"the trace's time cell is written as slot / 2; SLOT_MS is {SLOT_MS}")
    n_rows, n_ues = trace.rsrp.shape[1:]
    rsrp_cols = ",".join(f"rsrp{k}_dbm" for k in range(n_ues))

    rsrp_cells = {}  # per (epoch, row) of one chunk: the UEs' RSRP cells

    def head(key: int) -> str:
        epoch, key = divmod(key, n_rows * (n_ues + 1))
        row, k = divmod(key, n_ues + 1)
        row -= 1
        rsrp = rsrp_cells.get((epoch, row))
        if rsrp is None:
            rsrp = rsrp_cells[epoch, row] = ",".join(f"{v:.4f}" for v in trace.rsrp[epoch, row])
        if k == n_ues:
            return f"{row},,{rsrp},,"
        return f"{row},{k},{rsrp},{trace.snr[epoch, row, k]:.4f},"

    def rest(key: int) -> str:
        tb, mcs, nack, retx = key >> 10, key >> 2 & 0xFF, key >> 1 & 1, key & 1
        if mcs == IDLE:
            return f",{tb},idle,{retx}\n"
        return f"{mcs},{tb},{'nack' if nack else 'ack'},{retx}\n"

    with open(path, "wb") as f:
        f.write(f"slot,time_ms,ris_state,ue,{rsrp_cols},snr_db,mcs,tb_bits,outcome,is_retx\n".encode())
        for slots, epochs, rows, ue, mcs, tb, nack, retx in trace.chunks():
            # The UE cell's key is the UE, or n_ues on an idle slot.
            heads = (epochs * n_rows + rows + 1) * (n_ues + 1) + np.minimum(ue, n_ues)
            rests = tb << 10 | mcs.astype(np.int64) << 2 | nack << 1 | retx
            rsrp_cells.clear()
            f.write(text_lines(
                digit_cells(slots), b",", digit_cells(slots * 5, 1), b",",
                _text_rows(heads, head), _text_rows(rests, rest),
            ))


def _text_rows(keys: np.ndarray, text) -> np.ndarray:
    """``text(key)`` of each key as a NUL-padded row of bytes; each distinct
    key is formatted once."""
    distinct, inverse = np.unique(keys, return_inverse=True)
    table = np.array([text(key).encode() for key in distinct.tolist()], dtype=bytes)
    return table.view(np.uint8).reshape(len(distinct), -1)[inverse]
