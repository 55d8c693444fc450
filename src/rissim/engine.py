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

The run's one per-slot record is :class:`Trace`: six columns (surface
state, UE, MCS, TB bits, NACK, retransmission) plus the RSRP and SNR
tables of each channel epoch.  The state, -1 without the surface, is
also the slot's table row.  :func:`summarize` and the CSV writer read
those columns, each in one pass; the writer streams its lines in chunks
of :data:`CSV_CHUNK`, so neither holds a copy of a column or of the
whole file.

All randomness derives from one master seed through three independent
streams (channel scatter, block outcomes, i.i.d. switching), so traces
are bit-reproducible and enabling scatter does not perturb HARQ draws.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import chain, islice
from typing import NamedTuple

import numpy as np

from .array_model import steering_vector, upa_profile
from .config import (
    SLOT_MS, ExperimentConfig, aligned_states, scaled, state_angles, to_slots, validate,
)
from .link_adapt import MAX_ATTEMPTS, MCS_TABLE_64QAM, thresholds_db

SUBCARRIERS_PER_PRB = 12
DRAW_CHUNK = 4096  # block-outcome uniforms drawn per refill
EPOCH_BLOCK = 16  # coherence epochs whose link tables are built together
RSRP_FLOOR_DBM = -156.0  # NR reporting floor
CSV_CHUNK = 8192  # trace CSV lines joined per write

# Schedulable DL symbols per slot of one TDD period: 6 downlink, 1 mixed, 3 uplink.
TDD_DL_SYMBOLS = (13,) * 6 + (6,) + (0,) * 3


def tb_table(prbs: int = 106) -> dict[int, tuple[int, ...]]:
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
    """Per-slot trace held as columns, plus the link-table RSRP and SNR of
    each channel epoch.

    ``row`` is the surface state in force at the slot, -1 without the
    surface; as an index it is also the slot's link-table row, since the
    tables' last row is the no-surface one.  The tables change at every
    channel rebuild: epoch ``e`` covers the slots from ``e * coherence``
    on.  ``ue`` and ``mcs`` are None on idle (uplink) slots.  Two traces
    are equal when every column and epoch table is.
    """

    def __init__(self, n_slots: int, coherence: int):
        self.coherence = coherence
        self.row = [0] * n_slots
        self.ue: list[int | None] = [None] * n_slots
        self.mcs: list[int | None] = [None] * n_slots
        self.tb_bits = [0] * n_slots
        self.nack = [False] * n_slots
        self.retx = [False] * n_slots
        self.rsrp: list[list[tuple[float, ...]]] = []  # per epoch, per row, per UE
        self.snr: list[list[tuple[float, ...]]] = []  # per epoch, per row, per UE

    def add_epoch(self, rsrp: list[tuple[float, ...]], snr: list[tuple[float, ...]]) -> None:
        self.rsrp.append(rsrp)
        self.snr.append(snr)

    def epochs(self):
        """(first slot, end slot, RSRP rows, SNR rows) of each table epoch."""
        n = len(self.row)
        span = self.coherence or n
        for e, (rsrp, snr) in enumerate(zip(self.rsrp, self.snr)):
            yield e * span, min((e + 1) * span, n), rsrp, snr

    def __len__(self) -> int:
        return len(self.row)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)


@dataclass
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

    def __eq__(self, other):
        """Field by field, with NaN equal to NaN.

        A UE with no aligned (or no misaligned) slot has a NaN mean RSRP,
        and two identical runs must still compare equal.
        """
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            len(a) == len(b) and all(map(_same, a, b)) if isinstance(a, tuple) else _same(a, b)
            for a, b in zip(vars(self).values(), vars(other).values())
        )

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


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


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

    trace = Trace(n_slots, coherence)
    rows, ues, mcss, tbs, nacks, retxs = (
        trace.row, trace.ue, trace.mcs, trace.tb_bits, trace.nack, trace.retx,
    )
    # One table per coherence epoch, from one generator.
    n_epochs = -(-max(n_slots, 1) // coherence) if coherence else 1
    next_tables = build_link_tables(cfg, setup, rng_channel, n_epochs).__next__
    snr_tab, se_tab, rsrp_tab = next_tables()
    trace.add_epoch(rsrp_tab, snr_tab)

    # Per TDD phase: None on uplink slots, else the TB size per MCS index.
    phase_tb = tuple(map(tb_table(cfg.sim.prbs).get, TDD_DL_SYMBOLS))
    period = len(TDD_DL_SYMBOLS)
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
                rows[t] = row  # uplink: an idle row
                continue
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
            elif attempts == MAX_ATTEMPTS:  # the last retransmission failed
                discarded_bits += tb
                attempts = 0

            win_sched[ue] += 1
            if retx:
                win_retx[ue] += 1

            # PF's EWMA: every UE decays, the served one adds its rate;
            # floored, as max(v, floor) would, without the call.
            for k in ewma_range:
                v = decay * t_avg[k] + (alpha * rate_est[k] if k == ue else 0.0)
                t_avg[k] = floor if floor > v else v

            rows[t] = row
            ues[t] = ue
            mcss[t] = mcs
            tbs[t] = tb
            nacks[t] = nack
            retxs[t] = retx

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

    # Window statistics: one pass over the trace columns from the warm-up
    # slot on.  RSRP sums add in slot order, so the means keep their bits.
    # A state is aligned to each UE whose own state it is; state -1, no
    # surface, to none, even where a UE has no own state (-1) either.
    aligned_rows = [[r == a for a in own] for r in range(len(state_angles(cfg)))]
    aligned_rows.append([False] * n_ues)
    scheduled, served_aligned, retx_count, window_acked = ([0] * n_ues for _ in range(4))
    rsrp_sum = [[0.0, 0.0] for _ in range(n_ues)]  # per UE: [misaligned, aligned]
    rsrp_n = [[0, 0] for _ in range(n_ues)]
    columns = (trace.row, trace.ue, trace.tb_bits, trace.nack, trace.retx)
    window = zip(*(islice(c, warmup_slot, None) for c in columns))  # no column copies
    for lo, hi, rsrp_rows, _ in trace.epochs():
        # Per table row: what each UE's RSRP adds to on a downlink slot.
        adds = [
            tuple(zip(rsrp_sum, rsrp_n, hits, rsrp)) for rsrp, hits in zip(rsrp_rows, aligned_rows)
        ]
        for row, ue, tb, nack, retx in islice(window, max(hi - max(lo, warmup_slot), 0)):
            if ue is None:
                continue
            scheduled[ue] += 1
            served_aligned[ue] += aligned_rows[row][ue]
            retx_count[ue] += retx
            if not nack:
                window_acked[ue] += tb
            for sums, counts, hit, rsrp in adds[row]:
                sums[hit] += rsrp
                counts[hit] += 1

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


def _alpha_configs(cfg: ExperimentConfig, alphas: list[float]) -> list[ExperimentConfig]:
    """One config per EWMA weight, each with its own seed derived from the master seed."""
    if not alphas:
        raise ValueError("alphas must be non-empty")
    cfgs = []
    for i, alpha in enumerate(alphas):
        sub_seed = int(np.random.SeedSequence((cfg.sim.seed, i)).generate_state(1)[0])
        cfgs.append(
            replace(cfg, sched=replace(cfg.sched, alpha=alpha), sim=replace(cfg.sim, seed=sub_seed))
        )
    return cfgs


def sweep_table(cfg: ExperimentConfig, alphas: list[float]) -> list[RunSummary]:
    """One independent run per EWMA weight, then the genie round-robin and
    no-surface references: ``len(alphas) + 2`` summaries in that order.

    Each alpha run gets an independent seed derived from the master seed;
    the configured time-compression factor applies to every point, so the
    (alpha, switching-interval) pairing is preserved across the sweep.  The
    reference runs keep the master seed and ``sched.alpha``, and drop the
    i.i.d.-only ``ris.seed`` and ``ris.probs``.  All the runs go to one
    :func:`run_summaries` call.
    """
    ris = replace(cfg.ris, seed=None, probs=None)
    return run_summaries(_alpha_configs(cfg, alphas) + [
        replace(cfg, ris=replace(ris, mode="genie"), sched=replace(cfg.sched, kind="rr")),
        replace(cfg, ris=replace(ris, mode="off")),
    ])


def _trace_lines(trace: Trace):
    """The trace CSV's lines, header first, each ending in a newline.

    One ``zip`` over the columns serves every epoch, which takes its
    slots with ``islice``; slicing each column per epoch would copy it.
    """
    rsrp_cols = ",".join(f"rsrp{k}_dbm" for k in range(len(trace.rsrp[0][0])))
    yield f"slot,time_ms,ris_state,ue,{rsrp_cols},snr_db,mcs,tb_bits,outcome,is_retx\n"
    slots = zip(trace.row, trace.ue, trace.mcs, trace.tb_bits, trace.nack, trace.retx)
    for lo, hi, rsrp_rows, snr_rows in trace.epochs():
        # Per epoch, each table row in force and everything after the time of
        # each distinct slot are formatted once, not once per slot.
        heads, tails = {}, {}
        for t, key in zip(range(lo, hi), islice(slots, hi - lo)):
            tail = tails.get(key)
            if tail is None:
                row, ue, mcs, tb, nack, retx = key
                head = heads.get(row)
                if head is None:
                    head = heads[row] = (
                        f"{row},",
                        "," + ",".join(f"{v:.4f}" for v in rsrp_rows[row]),
                        [f"{v:.4f}" for v in snr_rows[row]],
                    )
                state, rsrps, snrs = head
                if ue is None:
                    tail = f"{state}{rsrps},,,{tb},idle,{int(retx)}"
                else:
                    tail = (
                        f"{state}{ue}{rsrps},{snrs[ue]},{mcs},{tb},"
                        f"{'nack' if nack else 'ack'},{int(retx)}"
                    )
                tails[key] = tail
            yield f"{t},{t * SLOT_MS:.1f},{tail}\n"


def write_trace_csv(trace: Trace, path) -> None:
    """Exact trace schema: slot,time_ms,ris_state,ue,rsrp0_dbm,...,snr_db,mcs,tb_bits,outcome,is_retx.

    The lines come from one pass over the columns and are written
    :data:`CSV_CHUNK` at a time, so the writer's memory does not grow
    with the trace.
    """
    lines = _trace_lines(trace)
    with open(path, "w", newline="") as f:
        while chunk := "".join(islice(lines, CSV_CHUNK)):
            f.write(chunk)
