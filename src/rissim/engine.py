"""Slot-ordered downlink MAC loop.

:func:`run` is four phases, each a module-level function:
``config.validate``, :func:`link_setup`, :func:`simulate` (the slot
loop and the whole-run bit counters) and :func:`summarize` (the
warm-up window's statistics).  :func:`link_setup` builds one beam state
per ``config.state_angles`` entry, the realized reflection phasors of
the one-bit profile steered at its angles (``array_model.upa_profile``);
:func:`simulate` switches between them every ``ris.ts_slots``,
in turn (periodic) or by an independent draw per interval (i.i.d.,
:func:`iid_state`).  :func:`simulate` and :func:`summarize` read each
UE's own state from ``config.aligned_states``.  :func:`link_setup` is
also the link model's one home: each UE's line-of-sight channel, SNR
gain, transmit power minus path loss, and the scatter scale.  A run's
link tables (SNR, spectral efficiency and RSRP per row and UE), one per
coherence epoch, come from one :func:`build_link_tables` generator.

The slot loop runs in event segments.  At a segment's first slot it
handles the events due there, in this order: the channel-coherence
refresh, the surface switch and the CQI refresh of the rate estimates;
the segment ends at the next slot where any of these, a BLER-window
boundary or the run's end falls.  Its slots do only the TDD phase lookup
and, on downlink slots, the MAC work: pick the UE (pending
retransmissions first, then the configured policy), size the transport
block, draw its outcome, and update HARQ, EWMA and window counters.
After a segment that ends on a window boundary, every UE's MCS takes its
window step.  The scheduler and the EWMA see
the CQI-cadence rate estimates, as a CQI-driven MAC does; the block
fails with the logistic block-error probability of the true current SNR
at its MCS, computed when the outcome is drawn, which is what produces
the measured-BLER excursions right after a surface switch.  The
per-slot rules (PF argmax, EWMA, round robin, the block-error curve,
HARQ, and the outer loop's CQI cap and BLER-window MCS step) are
written inline in :func:`simulate`, their state in plain per-UE lists;
the literal reference loop in ``tests/reference_engine.py`` restates
them one step at a time and is checked against it.

The run's one per-slot record is :class:`Trace`, which holds only the
loop's decisions: one byte per slot in each of four typed columns (UE,
MCS, NACK, retransmission), a log of the surface switches, and the RSRP
and SNR tables of each channel epoch.  The surface state (-1 without the
surface, also the slot's table row) and the TB size are derived on
read, with numpy over :data:`CSV_CHUNK` slots of the columns at a time
(:meth:`Trace.row_chunks`, :meth:`Trace.tb_chunks`).  :func:`summarize`
counts the served slots in bulk per segment of one logged state and one
epoch, and its acknowledged bits per chunk.  :func:`write_trace_csv`
assembles each chunk's lines as bytes: the ``slot,time_ms,`` prefix
from the slot's integer digits (the time is ``slot >> 1`` then ``.0``
or ``.5``), then a head keyed on (epoch, state, UE) and a rest keyed on
(MCS, TB size, NACK, retransmission), each formatted once per distinct
key in the chunk.  Neither holds a copy of a column or of the whole
file.

All randomness derives from one master seed through three independent
streams (channel scatter, block outcomes, i.i.d. switching), so traces
are bit-reproducible and enabling scatter does not perturb HARQ draws.
"""

from __future__ import annotations

import math
import os
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from typing import NamedTuple

import numpy as np

from .array_model import steering_vector, upa_profile
from .config import (
    MAX_UES, SLOT_MS, ExperimentConfig, aligned_states, scaled, state_angles, to_slots, validate,
)
from .link_adapt import MAX_ATTEMPTS, MCS_TABLE_64QAM, thresholds_db

SUBCARRIERS_PER_PRB = 12
DRAW_CHUNK = 4096  # block-outcome uniforms drawn per refill
EPOCH_BLOCK = 16  # coherence epochs whose link tables are built together
RSRP_FLOOR_DBM = -156.0  # NR reporting floor
# Slots per chunk of the derived trace columns and of the CSV writer's byte matrices;
# at 8192 the writer raised the 80,000-slot fading run's peak RSS by 1.3 MiB.
CSV_CHUNK = 4096
IDLE = MAX_UES  # a trace's UE and MCS byte on an idle slot: one past the last UE index

# Schedulable DL symbols per slot of one TDD period: 6 downlink, 1 mixed, 3 uplink.
TDD_DL_SYMBOLS = (13,) * 6 + (6,) + (0,) * 3


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
    served on an uplink slot.  The TB size is derived: a new block's is
    ``phase_tb[t % 10][mcs]`` and a retransmission resends the in-flight
    block's.

    The accessors :meth:`row`, :meth:`ue`, :meth:`mcs`, :meth:`tb_bits`,
    :meth:`nack` and :meth:`retx` expand the columns as streams over every
    slot (:meth:`row` and :meth:`tb_bits` chained from :meth:`row_chunks`
    and :meth:`tb_chunks`): the state is -1 without the surface, and as an
    index it is also the slot's link-table row, since the tables' last row
    is the no-surface one; UE and MCS are None on idle (uplink) slots.  The
    tables change at every channel rebuild: epoch ``e`` covers the slots
    from ``e * coherence`` on.
    """

    def __init__(
        self,
        n_slots: int,
        coherence: int,
        phase_tb: tuple[tuple[int, ...] | None, ...],
        genie_states: tuple[int, ...] | None,
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
        # Only the RSRP and SNR tables, not whole LinkTables: also keeping each epoch's SE
        # rows raised the 4,000-epoch fading run's peak RSS from 45.0 to 46.7 MiB (+1.7).
        self.rsrp: list[list[tuple[float, ...]]] = []  # per epoch, per row, per UE
        self.snr: list[list[tuple[float, ...]]] = []  # per epoch, per row, per UE

    def add_epoch(self, rsrp: list[tuple[float, ...]], snr: list[tuple[float, ...]]) -> None:
        self.rsrp.append(rsrp)
        self.snr.append(snr)

    def switch(self, slot: int, state: int) -> None:
        """Log that the surface takes ``state`` from ``slot`` on."""
        self._switch_slot.append(slot)
        self._switch_state.append(state)

    def segments(self, start: int):
        """(first slot, end slot, state, RSRP rows) of each run of slots from
        ``start`` on with one logged state and one table epoch; the state is
        None in genie mode, where it follows the served UE."""
        n = len(self)
        if self.genie_states is None:
            firsts, states = self._switch_slot, self._switch_state
        else:
            firsts, states = (0,), (None,)
        span = self.coherence or n
        for first, end, state in zip(firsts, chain(islice(firsts, 1, None), (n,)), states):
            lo = max(first, start)
            while lo < end:
                hi = min(end, (lo // span + 1) * span)
                yield lo, hi, state, self.rsrp[lo // span]
                lo = hi

    def row(self):
        """Each slot's surface state, -1 without the surface."""
        return chain.from_iterable(map(np.ndarray.tolist, self.row_chunks()))

    def row_chunks(self):
        """Each slot's surface state as one int64 array per :data:`CSV_CHUNK` slots.

        In genie mode a slot's state is the own state of the last UE served
        at or before it (UE 0's before the first); that UE carries across
        chunks.
        """
        n = len(self)
        if self.genie_states is None:
            firsts = np.frombuffer(self._switch_slot, np.int64)
            states = np.frombuffer(self._switch_state, np.int64)
            for lo in range(0, n, CSV_CHUNK):
                slots = np.arange(lo, min(lo + CSV_CHUNK, n))
                yield states[np.searchsorted(firsts, slots, "right") - 1]
            return
        own = np.array(self.genie_states)
        column = np.frombuffer(self._ue, np.uint8)
        served = 0
        for lo in range(0, n, CSV_CHUNK):
            ues = column[lo:lo + CSV_CHUNK]
            filled = _fill_forward(ues, ues != IDLE, served)
            served = int(filled[-1])
            yield own[filled]

    def ue(self):
        """Each slot's served UE, None on an idle slot."""
        return _cells(self._ue)

    def mcs(self):
        """Each slot's MCS, None on an idle slot."""
        return _cells(self._mcs)

    def tb_bits(self):
        """Each slot's TB size in bits, 0 on an idle slot."""
        return chain.from_iterable(map(np.ndarray.tolist, self.tb_chunks()))

    def tb_chunks(self):
        """Each slot's TB size in bits (0 on an idle slot) as one int64 array
        per :data:`CSV_CHUNK` slots.

        A new block's size is ``phase_tb[t % 10][mcs]``; a retransmission
        resends the last new block, whose size carries across chunks.
        """
        sizes = np.zeros((len(self.phase_tb), IDLE + 1), np.int64)  # an idle MCS reads 0
        for phase, row in enumerate(self.phase_tb):
            if row is not None:
                sizes[phase, :len(row)] = row
        mcs_column = np.frombuffer(self._mcs, np.uint8)
        retx_column = np.frombuffer(self._retx, np.uint8)
        n = len(self)
        tb = 0
        for lo in range(0, n, CSV_CHUNK):
            hi = min(lo + CSV_CHUNK, n)
            mcs = mcs_column[lo:hi]
            served = mcs != IDLE
            new = served & (retx_column[lo:hi] == 0)
            filled = _fill_forward(sizes[np.arange(lo, hi) % len(sizes), mcs], new, tb)
            tb = int(filled[-1])
            yield np.where(served, filled, 0)

    def nack(self):
        """1 where a slot's transmission failed, else 0 (also on an idle slot)."""
        return iter(self._nack)

    def retx(self):
        """1 where a slot is a retransmission, else 0 (also on an idle slot)."""
        return iter(self._retx)

    def __len__(self) -> int:
        return len(self._ue)


def _fill_forward(values: np.ndarray, keep: np.ndarray, carry: int) -> np.ndarray:
    """``values`` where ``keep``, elsewhere the last kept value before, or
    ``carry`` before the first."""
    last = np.where(keep, np.arange(1, len(values) + 1), 0)
    np.maximum.accumulate(last, out=last)
    return np.concatenate(([carry], values))[last]


def _cells(column: bytearray):
    """A UE or MCS column's values, None for :data:`IDLE`."""
    return map([*range(IDLE), None].__getitem__, column)


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


class LinkTables(NamedTuple):
    """Per-(row, UE) channel constants of one coherence epoch, as plain floats.

    Rows are the surface states, then the no-surface scalar channel, so
    that state -1 (mode "off") indexes the last row and shares the lookup
    path.  Plain-float lookups are what make the slot loop cheap; RSRP
    rows are tuples because trace records share them.  A block's error
    probability is computed from its row's SNR when its outcome is drawn.
    """

    snr_db: list[tuple[float, ...]]  # per row, per UE
    se: list[tuple[float, ...]]
    rsrp: list[tuple[float, ...]]


@dataclass(frozen=True)
class LinkSetup:
    """The link model's per-run constants; only the scatter is redrawn,
    by :func:`build_link_tables`.  Under a surface state UE ``k``'s link is
    one complex scalar ``h``: SNR ``|h|**2 * snr_gain[k]``, RSRP
    ``rx_dbm[k] + 20 log10|h| + budget.rsrp_offset_db``, floored.
    """

    los: tuple[np.ndarray, ...]  # per UE: array response at its angles times 1 / (n_h * n_v)
    weights: tuple[np.ndarray, ...]  # per-state realized reflection weights
    snr_gain: tuple[float, ...]  # per UE: 10 ** ((tx - pathloss - noise) / 10)
    rx_dbm: tuple[float, ...]  # per UE: tx - pathloss
    scatter_sigma: float | None  # amplitude / sqrt(K): scatter power is LoS power / K
    thresholds_db: tuple[float, ...]  # per-MCS BLER midpoints

    def surface_channels(self, h: np.ndarray, prod: np.ndarray | None = None) -> np.ndarray:
        """Effective channel of every surface state over the cascaded channels ``h``.

        ``h`` holds the elements on its last axis; the states come first in
        the result.  ``np.sum`` over each contiguous row adds in the same
        order as over that row alone, so a block of channels gives the bits
        of one channel at a time.  ``prod`` is scratch of ``h``'s shape.
        """
        if prod is None:
            prod = np.empty(h.shape, dtype=complex)
        sums = np.empty((len(self.weights),) + h.shape[:-1], dtype=complex)
        for s, w in enumerate(self.weights):
            np.multiply(w, h, out=prod)
            sums[s] = prod.sum(axis=-1)
        return sums


def link_setup(cfg: ExperimentConfig) -> LinkSetup:
    """Compute the run constants of :func:`build_link_tables` once.

    State ``s`` is the realized reflection phasors that
    :func:`array_model.upa_profile` gives for the one-bit profile steered at
    ``config.state_angles(cfg)[s]``.
    """
    g = cfg.geom
    amplitude = 1.0 / (g.n_h * g.n_v)
    k_db = cfg.chan.rician_k_db
    return LinkSetup(
        los=tuple(
            amplitude * np.kron(
                steering_vector(ue.nu_deg, g.n_h, g.spacing_ratio),
                steering_vector(ue.psi_deg, g.n_v, g.spacing_ratio),
            )
            for ue in cfg.ues
        ),
        weights=tuple(
            upa_profile(nu, psi, g.n_h, g.n_v, g.spacing_ratio, g.dither)
            for nu, psi in state_angles(cfg)
        ),
        snr_gain=tuple(
            10.0 ** ((cfg.tx_power_dbm - ue.pathloss_db - ue.noise_dbm) / 10.0) for ue in cfg.ues
        ),
        rx_dbm=tuple(cfg.tx_power_dbm - ue.pathloss_db for ue in cfg.ues),
        scatter_sigma=None if k_db is None else amplitude / math.sqrt(10.0 ** (k_db / 10.0)),
        thresholds_db=thresholds_db(cfg.la.impl_margin_db),
    )


def build_link_tables(
    cfg: ExperimentConfig, setup: LinkSetup, rng_channel: np.random.Generator, n_epochs: int
):
    """Yield the link tables of ``n_epochs`` successive channel draws, one per coherence epoch.

    A run builds ``setup`` once with :func:`link_setup`, and one generator
    serves all its epochs.  Without ``chan.rician_k_db`` every epoch has
    the same tables.  With it, each epoch draws scatter from
    ``rng_channel`` UE by UE, real parts before imaginary parts, drawn
    :data:`EPOCH_BLOCK` epochs at a time into scratch allocated at the
    first block: normals (B, K, 2, n), cascaded channels (B, K, n) and
    their products with one state's weights (B, K, n), about 1.5 MiB for
    the presets' two UEs and 1,024 elements.
    """
    los = np.stack(setup.los)  # (K, n)
    leaks = [ue.direct_leak for ue in cfg.ues]
    off = _row_values([complex(ue.noris_gain) for ue in cfg.ues], setup, cfg.rsrp_offset_db)
    buffers = None
    for first in range(0, n_epochs, EPOCH_BLOCK):
        m = min(EPOCH_BLOCK, n_epochs - first)
        if setup.scatter_sigma is None:
            sums = setup.surface_channels(np.broadcast_to(los, (m,) + los.shape))
        else:
            if buffers is None:
                k, n = los.shape
                buffers = (
                    np.empty((EPOCH_BLOCK, k, 2, n)),
                    np.empty((EPOCH_BLOCK, k, n), dtype=complex),
                    np.empty((EPOCH_BLOCK, k, n), dtype=complex),
                )
            normals, h, prod = (a[:m] for a in buffers)
            rng_channel.standard_normal(out=normals)
            # sigma * (re + 1j * im) / sqrt(2) as real operations, in that order;
            # numpy divides a complex by a real by multiplying by the reciprocal.
            normals *= setup.scatter_sigma
            normals *= 1.0 / math.sqrt(2.0)
            np.add(los.real, normals[:, :, 0], out=h.real)
            np.add(los.imag, normals[:, :, 1], out=h.imag)
            sums = setup.surface_channels(h, prod)
        for rows in sums.transpose(1, 0, 2).tolist():  # per epoch: per state, per UE
            values = [
                _row_values(
                    [h_eff + leak for h_eff, leak in zip(row, leaks)], setup, cfg.rsrp_offset_db
                )
                for row in rows
            ] + [off]
            yield LinkTables(
                [snr for snr, _, _ in values],
                [se for _, se, _ in values],
                [rsrp for _, _, rsrp in values],
            )


def _row_values(
    effs: list[complex], setup: LinkSetup, offset: float
) -> tuple[tuple[float, ...], ...]:
    """(SNR dB, Shannon spectral efficiency, RSRP) per UE of one table row, in scalar math.

    ``numpy``'s vectorised log and exp differ from ``math``'s in the last
    bit on some inputs, and the MAC decisions compare against these values.
    """
    values = []
    for h_eff, gain, rx_dbm in zip(effs, setup.snr_gain, setup.rx_dbm):
        mag = abs(h_eff)
        snr = mag ** 2 * gain
        rsrp = rx_dbm + 20.0 * math.log10(mag) + offset if mag else RSRP_FLOOR_DBM
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
    setup = link_setup(cfg)
    trace, counters = simulate(cfg, setup)
    return trace, summarize(cfg, trace, counters)


def simulate(cfg: ExperimentConfig, setup: LinkSetup) -> tuple[Trace, tuple[int, ...]]:
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
    n_states = len(setup.weights)
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
    win_sched = [0] * n_ues
    win_retx = [0] * n_ues
    thresholds = setup.thresholds_db
    cqi_levels = tuple(enumerate(thresholds))[mcs_min:]  # (index, threshold)
    slope = la.slope
    exp = math.exp

    # Per TDD phase: None on uplink slots, else the TB size per MCS index.
    phase_tb = tuple(map(tb_table(cfg.sim.prbs).get, TDD_DL_SYMBOLS))
    period = len(TDD_DL_SYMBOLS)
    trace = Trace(n_slots, coherence, phase_tb, aligned_state if genie else None)
    ues, mcss, nacks, retxs = trace._ue, trace._mcs, trace._nack, trace._retx
    # One table per coherence epoch, from one generator.
    n_epochs = -(-max(n_slots, 1) // coherence) if coherence else 1
    next_tables = build_link_tables(cfg, setup, rng_channel, n_epochs).__next__
    snr_tab, se_tab, rsrp_tab = next_tables()
    trace.add_epoch(rsrp_tab, snr_tab)
    # One uniform per transmission; chunked draws equal the scalar ones.
    bler_draw = chain.from_iterable(
        iter(lambda: rng_blocks.random(DRAW_CHUNK).tolist(), None)
    ).__next__

    rate_est = [0.0] * n_ues  # CQI-cadence rate estimates driving the scheduler
    ue_range = range(n_ues)
    ewma_range = () if round_robin else ue_range  # round robin reads no average
    dl_counter = 0
    new_tx_bits = acked_bits = discarded_bits = 0
    # HARQ: at most one block is in flight, and a NACKed one preempts every
    # other UE in the next downlink slot, so the block is the previous
    # downlink slot's (ue, mcs, tb).  ``attempts`` counts its transmissions;
    # 0 means none is in flight.
    attempts = ue = mcs = tb = 0
    row = -1 if mode == "off" else aligned_state[0] if genie else 0
    if mode == "off":
        trace.switch(0, row)
    # The slot of each event's next occurrence; n_slots where a mode has none.
    next_coh = coherence or n_slots
    next_switch = 0 if switching else n_slots
    next_cqi = 0
    next_win = window_slots
    offset = cfg.ris.offset_slots

    t0 = 0
    while t0 < n_slots:
        # Scatter evolves on its own coherence grid, from its own stream.
        if t0 == next_coh:
            snr_tab, se_tab, rsrp_tab = next_tables()
            trace.add_epoch(rsrp_tab, snr_tab)
            next_coh += coherence

        # One state per switching interval, set at its first slot.
        if t0 == next_switch:
            interval = (t0 + offset) // ts_slots
            row = interval % n_states if periodic else iid_state(ris_seed, interval, probs)
            trace.switch(t0, row)
            next_switch = (interval + 1) * ts_slots - offset

        # CQI cadence: refresh the scheduler-side rate estimates and caps
        # from the channel each UE currently measures.  The cap is the last
        # index whose threshold fits: index 16's threshold is above 17's.
        if t0 == next_cqi:
            for k in ue_range:
                meas_row = aligned_state[k] if genie else row
                limit = snr_tab[meas_row][k] - la.cqi_backoff_db
                cap = mcs_min
                for index, threshold in cqi_levels:
                    if threshold <= limit:
                        cap = index
                cap_of[k] = cap
                mcs_of[k] = min(max(mcs_of[k], mcs_min), cap)
                rate_est[k] = se_tab[meas_row][k]
            next_cqi += cqi_slots

        # A segment: the slots up to the next event, none of which falls inside it.
        seg_end = min(next_coh, next_switch, next_cqi, next_win, n_slots)
        for t in range(t0, seg_end):
            tb_row = phase_tb[t % period]
            if tb_row is None:
                continue  # uplink: an idle slot
            retx = attempts > 0
            if not retx:
                if round_robin:
                    ue = dl_counter % n_ues
                else:  # PF: the largest rate / average, ties to the lowest index
                    # The averages never fall below the floor (see the EWMA).
                    ue, best = 0, -1.0
                    for k in ue_range:
                        m = rate_est[k] / t_avg[k]
                        if m > best:
                            ue, best = k, m
                mcs = mcs_of[ue]
                tb = tb_row[mcs]
                new_tx_bits += tb
            attempts += 1
            dl_counter += 1
            if genie:
                row = aligned_state[ue]

            # Block error: logistic in the true SNR, midpoint at the MCS's
            # threshold.  Past x = 700 it is 0.0, and exp would overflow near 710.
            x = slope * (snr_tab[row][ue] - thresholds[mcs])
            nack = bler_draw() < (1.0 / (1.0 + exp(x)) if x <= 700.0 else 0.0)
            if not nack:
                acked_bits += tb
                attempts = 0
            else:
                nacks[t] = 1
                if attempts == MAX_ATTEMPTS:  # the last retransmission failed
                    discarded_bits += tb
                    attempts = 0

            win_sched[ue] += 1
            if retx:
                win_retx[ue] += 1
                retxs[t] = 1

            # PF's EWMA: every UE decays, the served one adds its rate;
            # floored, as max(v, floor) would, without the call.
            for k in ewma_range:
                v = decay * t_avg[k] + (alpha * rate_est[k] if k == ue else 0.0)
                t_avg[k] = floor if floor > v else v

            ues[t] = ue
            mcss[t] = mcs

        # Outer loop: at the end of each BLER window every UE's MCS steps one
        # index on its retransmission ratio (0.0 for an empty window).
        if seg_end == next_win:
            for k in ue_range:
                scheduled = win_sched[k]
                ratio = win_retx[k] / scheduled if scheduled else 0.0
                step = 1 if ratio < la.bler_low else -1 if ratio > la.bler_high else 0
                mcs_of[k] = min(max(mcs_of[k] + step, mcs_min), cap_of[k])
            win_sched = [0] * n_ues
            win_retx = [0] * n_ues
            next_win += window_slots
        t0 = seg_end

    return trace, (new_tx_bits, acked_bits, discarded_bits, tb if attempts else 0)


def summarize(cfg: ExperimentConfig, trace: Trace, counters: tuple[int, ...]) -> RunSummary:
    """The run summary: statistics over the slots from the warm-up boundary
    on, and :func:`simulate`'s whole-run bit counters."""
    n_ues = len(cfg.ues)
    n_slots = len(trace)
    warmup_slot = to_slots(cfg.sim.warmup_s)
    own = aligned_states(cfg)
    # Rates divide by the simulated span, a whole number of slots.
    measured_slots = max(n_slots - warmup_slot, 0)
    measured_s = measured_slots * SLOT_MS / 1000.0

    # Window statistics over the slots from the warm-up slot on.  A state is
    # aligned to each UE whose own state it is; state -1, no surface, to
    # none, even where a UE has no own state (-1) either.
    aligned_rows = [[r == a for a in own] for r in range(len(state_angles(cfg)))]
    aligned_rows.append([False] * n_ues)
    ue_range = range(n_ues)
    ues = trace._ue
    scheduled, served_aligned = [0] * n_ues, [0] * n_ues
    rsrp_sum = [[0.0, 0.0] for _ in ue_range]  # per UE: [misaligned, aligned]
    rsrp_n = [[0, 0] for _ in ue_range]
    # Per segment (one logged state, one table epoch), the served slots are
    # counted in bulk, and every downlink slot adds each UE's RSRP at the
    # slot's row; the sums add in slot order, so the means keep their bits.
    for lo, hi, state, rsrp_rows in trace.segments(warmup_slot):
        counts = [ues.count(k, lo, hi) for k in ue_range]
        # The row of a slot serving each UE: the logged state, or in genie mode its own.
        rows = own if state is None else (state,) * n_ues
        for k in ue_range:
            scheduled[k] += counts[k]
            served_aligned[k] += counts[k] * aligned_rows[rows[k]][k]
            for j in ue_range:
                rsrp_n[k][aligned_rows[rows[j]][k]] += counts[j]
        if state is not None:
            n_dl = sum(counts)  # every downlink slot serves one UE
            for sums, hit, rsrp in zip(rsrp_sum, aligned_rows[state], rsrp_rows[state]):
                total = sums[hit]
                for _ in repeat(None, n_dl):
                    total += rsrp
                sums[hit] = total
        else:
            # Per served UE: what each UE's RSRP adds to.
            adds = [tuple(zip(rsrp_sum, aligned_rows[r], rsrp_rows[r])) for r in own]
            for ue in memoryview(ues)[lo:hi]:
                if ue != IDLE:
                    for sums, hit, rsrp in adds[ue]:
                        sums[hit] += rsrp
    served = memoryview(ues)[warmup_slot:]
    retx_ues = bytes(compress(served, memoryview(trace._retx)[warmup_slot:]))
    retx_count = [retx_ues.count(k) for k in ue_range]
    # Acked bits per UE, a chunk at a time; an idle slot carries 0 bits.  The
    # float sums are exact: config.MAX_SLOTS blocks of any TB size stay below 2 ** 53.
    acked = np.zeros(IDLE + 1)
    ue_column, nack_column = np.frombuffer(ues, np.uint8), np.frombuffer(trace._nack, np.uint8)
    lo = 0
    for tb in trace.tb_chunks():
        hi = lo + len(tb)
        first = max(lo, warmup_slot)
        if first < hi:
            bits = np.where(nack_column[first:hi], 0, tb[first - lo:])
            acked += np.bincount(ue_column[first:hi], bits, IDLE + 1)
        lo = hi
    window_acked = [int(b) for b in acked[:n_ues].tolist()]

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
        aggregate_mbps=float(sum(tput)),
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


def _summary(cfg: ExperimentConfig) -> RunSummary:
    return run(cfg)[1]


def run_summaries(cfgs: Sequence[ExperimentConfig]) -> list[RunSummary]:
    """The summaries of independent runs, in input order.

    With W = min(runs, usable CPUs), this process runs every W-th run
    (indices 0, W, 2W, ...) while a pool of W - 1 spawned worker
    processes runs the rest, and only each summary comes back.  Every
    run's seed is in its config, so the results do not depend on W; with
    W = 1 every run executes in this process and no pool is created.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    stride = min(len(cfgs), cpus)  # W
    if stride <= 1:
        return [_summary(cfg) for cfg in cfgs]
    # Imported here: at module top they add ~22 ms to every CLI start.
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    # Spawned, not forked: a fork inherits any lock another thread of the caller holds.
    with ProcessPoolExecutor(max_workers=stride - 1, mp_context=get_context("spawn")) as pool:
        pooled = {i: pool.submit(_summary, cfg) for i, cfg in enumerate(cfgs) if i % stride}
        own = {i: _summary(cfgs[i]) for i in range(0, len(cfgs), stride)}
        return [own[i] if i in own else pooled[i].result() for i in range(len(cfgs))]


def write_trace_csv(trace: Trace, path) -> None:
    """Exact trace schema: slot,time_ms,ris_state,ue,rsrp0_dbm,...,snr_db,mcs,tb_bits,outcome,is_retx.

    The columns are read :data:`CSV_CHUNK` slots at a time and each chunk's
    lines are assembled as bytes: the ``slot,time_ms,`` prefix from the slot
    number's digits (:func:`_slot_prefixes`), then a head
    ``ris_state,ue,rsrp...,snr_db,`` keyed on (epoch, state, UE) and a rest
    ``mcs,tb_bits,outcome,is_retx`` keyed on (MCS, TB size, NACK,
    retransmission), each formatted once per distinct key in the chunk.  So
    the writer's memory does not grow with the trace.
    """
    if SLOT_MS != 0.5:
        raise ValueError(f"the trace's time cell is written as slot / 2; SLOT_MS is {SLOT_MS}")
    n_rows, n_ues = len(trace.rsrp[0]), len(trace.rsrp[0][0])
    rsrp_cols = ",".join(f"rsrp{k}_dbm" for k in range(n_ues))
    span = trace.coherence or len(trace) or 1
    ue_column = np.frombuffer(trace._ue, np.uint8)
    mcs_column = np.frombuffer(trace._mcs, np.uint8)
    nack_column = np.frombuffer(trace._nack, np.uint8)
    retx_column = np.frombuffer(trace._retx, np.uint8)

    rsrp_cells = {}  # per (epoch, row) of one chunk: the UEs' RSRP cells

    def head(key: int) -> str:
        epoch, key = divmod(key, n_rows * (n_ues + 1))
        row, k = divmod(key, n_ues + 1)
        row -= 1
        rsrp = rsrp_cells.get((epoch, row))
        if rsrp is None:
            rsrp = rsrp_cells[epoch, row] = ",".join(f"{v:.4f}" for v in trace.rsrp[epoch][row])
        if k == n_ues:
            return f"{row},,{rsrp},,"
        return f"{row},{k},{rsrp},{trace.snr[epoch][row][k]:.4f},"

    def rest(key: int) -> str:
        tb, mcs, nack, retx = key >> 10, key >> 2 & 0xFF, key >> 1 & 1, key & 1
        if mcs == IDLE:
            return f",{tb},idle,{retx}\n"
        return f"{mcs},{tb},{'nack' if nack else 'ack'},{retx}\n"

    with open(path, "wb") as f:
        f.write(f"slot,time_ms,ris_state,ue,{rsrp_cols},snr_db,mcs,tb_bits,outcome,is_retx\n".encode())
        lo = 0
        for tb, rows in zip(trace.tb_chunks(), trace.row_chunks()):
            hi = lo + len(tb)
            slots = np.arange(lo, hi)
            # The UE cell's key is the UE, or n_ues on an idle slot.
            ue = np.minimum(ue_column[lo:hi], n_ues)
            heads = ((slots // span) * n_rows + rows + 1) * (n_ues + 1) + ue
            rests = (
                tb << 10 | mcs_column[lo:hi].astype(np.int64) << 2
                | nack_column[lo:hi] << 1 | retx_column[lo:hi]
            )
            rsrp_cells.clear()
            lines = np.concatenate(
                (_slot_prefixes(slots), _text_rows(heads, head), _text_rows(rests, rest)), axis=1
            )
            f.write(lines[lines != 0])
            lo = hi


def _text_rows(keys: np.ndarray, text) -> np.ndarray:
    """``text(key)`` of each key as a NUL-padded row of bytes; each distinct
    key is formatted once."""
    distinct, inverse = np.unique(keys, return_inverse=True)
    table = np.array([text(key).encode() for key in distinct.tolist()], dtype=bytes)
    return table.view(np.uint8).reshape(len(distinct), -1)[inverse]


def _slot_prefixes(slots: np.ndarray) -> np.ndarray:
    """``slot,time_ms,`` of each slot as a NUL-padded row of bytes.

    The time is the slot halved, ``slot >> 1`` then ``.0`` or ``.5``: the
    bytes of ``f"{slot * 0.5:.1f}"``, with no float formatting.
    """
    slot_digits, half_digits = _digits(slots), _digits(slots >> 1)
    width = slot_digits.shape[1]
    prefixes = np.empty((len(slots), width + half_digits.shape[1] + 4), np.uint8)
    prefixes[:, :width] = slot_digits
    prefixes[:, width] = ord(",")
    prefixes[:, width + 1:-3] = half_digits
    prefixes[:, -3] = ord(".")
    prefixes[:, -2] = ord("0") + 5 * (slots & 1)
    prefixes[:, -1] = ord(",")
    return prefixes


def _digits(values: np.ndarray) -> np.ndarray:
    """The decimal digits of non-negative integers, one row each, NUL-padded on the left."""
    width = len(str(int(values.max())))
    digits = np.empty((len(values), width), np.uint8)
    quotients = values
    for j in reversed(range(width)):
        quotients, digits[:, j] = np.divmod(quotients, 10)
    digits += ord("0")
    for j in range(width - 1):
        digits[values < 10 ** (width - 1 - j), j] = 0
    return digits
