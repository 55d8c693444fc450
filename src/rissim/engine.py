"""Slot-ordered downlink MAC loop.

Per slot: advance the surface state, refresh CQI-derived rate estimates
on their cadence, pick the UE (pending retransmissions first, then the
configured policy), size the transport block, draw its outcome from the
block-error model, and update HARQ, EWMA and window counters.  The
scheduler and the EWMA see the CQI-cadence rate estimates, as a
CQI-driven MAC does; the block outcome is drawn against the true
current SNR, which is what produces the measured-BLER excursions right
after a surface switch.  The per-slot rules (PF argmax, EWMA, round
robin, HARQ) are written inline in :func:`run`; the literal reference
loop in ``tests/reference_engine.py`` restates them one step at a time
and is checked against it.

The run's one per-slot record is :class:`Trace`: six columns (table
row, UE, MCS, TB bits, NACK, retransmission) plus the RSRP and SNR
tables of each channel epoch.  The summary pass and the CSV writer read
those columns.

All randomness derives from one master seed through three independent
streams (channel scatter, block outcomes, i.i.d. switching), so traces
are bit-reproducible and enabling scatter does not perturb HARQ draws.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property, partial
from itertools import chain, islice
from typing import NamedTuple

import numpy as np

from . import channel as ch
from . import link_adapt as la_mod
from . import ris_control as rc
from .array_model import design_phase_offsets, upa_profile
from .config import SLOT_MS, ConfigError, ExperimentConfig, scaled, to_slots, validate
from .link_adapt import MAX_ATTEMPTS, MCS_TABLE_64QAM, LinkAdaptState

SUBCARRIERS_PER_PRB = 12
DRAW_CHUNK = 4096  # block-outcome uniforms drawn per refill
EPOCH_BLOCK = 16  # coherence epochs whose link tables are built together

# One TDD period: slot roles and schedulable DL symbols, 6 downlink, 1 mixed, 3 uplink.
TDD_KINDS = ("dl",) * 6 + ("mixed",) + ("ul",) * 3
TDD_DL_SYMBOLS = (13,) * 6 + (6,) + (0,) * 3


def tb_bits(mcs: int, prbs: int = 106, symbols: int = 13) -> int:
    """Transport-block size: spectral efficiency times resource elements."""
    if symbols <= 0:
        raise ValueError(f"symbols must be positive, got {symbols}")
    if prbs < 1:
        raise ValueError(f"prbs must be >= 1, got {prbs}")
    return math.floor(MCS_TABLE_64QAM[mcs].se * SUBCARRIERS_PER_PRB * prbs * symbols)


def tb_table(prbs: int = 106) -> dict[int, tuple[int, ...]]:
    """TB size per (schedulable DL symbols, MCS index) for one run."""
    return {
        symbols: tuple(tb_bits(mcs, prbs, symbols) for mcs in range(len(MCS_TABLE_64QAM)))
        for symbols in sorted(set(TDD_DL_SYMBOLS))
        if symbols > 0
    }


class Trace:
    """Per-slot trace held as columns, plus the link-table RSRP and SNR of
    each channel epoch.

    ``row`` is the link-table row in force at the slot, which is the
    surface state except in mode "off" (the last row, state -1).  The
    tables change at every channel rebuild: epoch ``e`` covers the slots
    from ``e * coherence`` on.  ``ue`` and ``mcs`` are None on idle
    (uplink) slots.  ``aligned_state`` is the run's per-UE own beam
    state (``LinkSetup.aligned_state``).  Two traces are equal when every
    column and epoch table is.
    """

    def __init__(self, n_slots: int, off_row: int, coherence: int, aligned_state: tuple[int, ...]):
        self.off_row = off_row
        self.coherence = coherence
        self.aligned_state = aligned_state
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

    def state_of(self, row: int) -> int:
        return -1 if row == self.off_row else row

    def is_aligned(self, row: int, ue: int) -> bool:
        """Whether a slot on table ``row`` is aligned to UE ``ue``: the row is
        the UE's own beam state, and the no-surface row never is.

        The run summary's aligned and misaligned fields use this rule.
        """
        return row != self.off_row and row == self.aligned_state[ue]

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

    def conservation_holds(self) -> bool:
        return self.new_tx_bits == self.acked_bits + self.discarded_bits + self.inflight_bits

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
    that mode "off" shares the lookup path.  Plain-float lookups are what
    make the slot loop cheap; RSRP rows are tuples because trace records
    share them.  A BLER row is computed when it is first indexed (see
    :class:`_BlerOnFirstUse`); ``bler[row][ue][:]`` gives the whole row.
    """

    snr_db: list[tuple[float, ...]]  # per row, per UE
    se: list[tuple[float, ...]]
    rsrp: list[tuple[float, ...]]
    bler: list[list]  # per row, per UE: block-error probability per MCS index


class _BlerOnFirstUse:
    """The BLER row of one (table row, UE) until it is first indexed.

    A Rician epoch lasts a few slots, in which the slot loop reads the
    row in force for the UEs it serves, not every row.  The first index
    computes the row from its SNR and puts the list in this placeholder's
    place, so later lookups are plain list indexing.
    """

    __slots__ = ("cells", "ue", "snr_db", "curve")

    def __init__(self, cells: list, ue: int, snr_db: float, curve):
        self.cells, self.ue, self.snr_db, self.curve = cells, ue, snr_db, curve

    def __getitem__(self, index):
        row = self.cells[self.ue] = self.curve(self.snr_db)
        return row[index]


@dataclass(frozen=True)
class LinkSetup:
    """The parts of the link tables that stay fixed over a run.

    Only the scatter term is redrawn when the tables are rebuilt, into
    the buffers of :attr:`block_buffers`.
    """

    los: tuple[np.ndarray, ...]  # per-UE line-of-sight cascaded channel
    weights: tuple[np.ndarray, ...]  # per-state realized reflection weights
    budgets: tuple[ch.LinkBudget, ...]  # per UE
    thresholds_db: tuple[float, ...]  # per-MCS BLER midpoints
    aligned_state: tuple[int, ...]  # per-UE index of its own beam state, or -1

    @cached_property
    def block_buffers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Scratch for :data:`EPOCH_BLOCK` epochs of scatter, allocated on first use.

        Normals (B, K, 2, n), cascaded channels (B, K, n) and their
        products with one state's weights (B, K, n); about 1.5 MiB for the
        presets' two UEs and 1,024 elements.
        """
        k, n = len(self.los), self.los[0].size
        return (
            np.empty((EPOCH_BLOCK, k, 2, n)),
            np.empty((EPOCH_BLOCK, k, n), dtype=complex),
            np.empty((EPOCH_BLOCK, k, n), dtype=complex),
        )

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


def link_setup(cfg: ExperimentConfig, dist: rc.SamplingDistribution) -> LinkSetup:
    """Compute the run constants of :func:`build_link_tables` once."""
    g = cfg.geom
    aligned = []
    for ue in cfg.ues:
        try:
            aligned.append(rc.genie_state_for(ue, dist))
        except LookupError:
            aligned.append(-1)
    return LinkSetup(
        los=tuple(
            ch.los_cascaded_channel(
                ue.nu_deg, ue.psi_deg, g.n_h, g.n_v, g.spacing_ratio, amplitude=_amplitude(cfg)
            )
            for ue in cfg.ues
        ),
        weights=tuple(state.reflection_weights() for state in dist.states),
        budgets=tuple(
            ch.LinkBudget(
                tx_power_dbm=cfg.tx_power_dbm,
                pathloss_db=ue.pathloss_db,
                noise_dbm=ue.noise_dbm,
                rsrp_offset_db=cfg.rsrp_offset_db,
            )
            for ue in cfg.ues
        ),
        thresholds_db=la_mod.thresholds_db(cfg.la.impl_margin_db),
        aligned_state=tuple(aligned),
    )


def _amplitude(cfg: ExperimentConfig) -> float:
    """Per-element amplitude of the line-of-sight cascaded channel."""
    return 1.0 / (cfg.geom.n_h * cfg.geom.n_v)


def build_link_tables(
    cfg: ExperimentConfig, setup: LinkSetup, rng_channel: np.random.Generator, n_epochs: int = 1
) -> list[LinkTables]:
    """Link tables of ``n_epochs`` successive channel draws, one per coherence epoch.

    ``setup`` carries the per-run constants; a run builds it once with
    :func:`link_setup` and passes it to every call.  Without
    ``chan.rician_k_db`` every epoch has the same tables.  With it, each
    epoch draws scatter from ``rng_channel`` UE by UE, real parts before
    imaginary parts: the stream of successive
    :func:`channel.rician_scatter` calls, drawn :data:`EPOCH_BLOCK`
    epochs per call into ``setup.block_buffers``.
    """
    los = np.stack(setup.los)  # (K, n)
    leaks = [ue.direct_leak for ue in cfg.ues]
    off = _row_values([complex(ue.noris_gain) for ue in cfg.ues], setup.budgets)
    curve = partial(la_mod.bler_curve, thresholds_db=setup.thresholds_db, model_slope=cfg.la.slope)
    tables = []
    for first in range(0, n_epochs, EPOCH_BLOCK):
        m = min(EPOCH_BLOCK, n_epochs - first)
        if cfg.chan.rician_k_db is None:
            sums = setup.surface_channels(np.broadcast_to(los, (m,) + los.shape))
        else:
            normals, h, prod = (a[:m] for a in setup.block_buffers)
            rng_channel.standard_normal(out=normals)
            # rician_scatter's complex operations as real ones, in its order;
            # numpy divides a complex by a real by multiplying by the reciprocal.
            normals *= ch.scatter_sigma(_amplitude(cfg), cfg.chan.rician_k_db)
            normals *= 1.0 / math.sqrt(2.0)
            np.add(los.real, normals[:, :, 0], out=h.real)
            np.add(los.imag, normals[:, :, 1], out=h.imag)
            sums = setup.surface_channels(h, prod)
        surface = sums.transpose(1, 0, 2).tolist()
        off_bler = _lazy_bler(off[0], curve)  # the no-surface row is the same in every epoch
        for rows in surface:  # per epoch: per state, per UE
            values = [
                _row_values([h_eff + leak for h_eff, leak in zip(row, leaks)], setup.budgets)
                for row in rows
            ] + [off]
            snr_db = [snr for snr, _, _ in values]
            tables.append(LinkTables(
                snr_db,
                [se for _, se, _ in values],
                [rsrp for _, _, rsrp in values],
                [_lazy_bler(snr, curve) for snr in snr_db[:-1]] + [off_bler],
            ))
    return tables


def _row_values(effs: list[complex], budgets) -> tuple[tuple[float, ...], ...]:
    """(SNR dB, spectral efficiency, RSRP) per UE of one table row, in scalar math.

    ``numpy``'s vectorised log and exp differ from ``math``'s in the last
    bit on some inputs, and the MAC decisions compare against these values.
    """
    values = []
    for h_eff, budget in zip(effs, budgets):
        lin = ch.snr_linear(h_eff, budget)
        values.append((
            10.0 * math.log10(lin) if lin > 0 else -math.inf,
            ch.spectral_efficiency(lin),
            ch.rsrp_dbm(h_eff, budget),
        ))
    return tuple(zip(*values))


def _lazy_bler(snr_db: tuple[float, ...], curve) -> list:
    """One table row's per-UE BLER rows, each computed from ``snr_db`` on first use."""
    cells = [None] * len(snr_db)
    for k, snr in enumerate(snr_db):
        cells[k] = _BlerOnFirstUse(cells, k, snr, curve)
    return cells


def build_distribution(cfg: ExperimentConfig) -> rc.SamplingDistribution:
    g = cfg.geom
    offsets = design_phase_offsets(g.n_h, g.n_v) if g.dither else None
    angles = cfg.ris.angles if cfg.ris.angles is not None else [
        (ue.nu_deg, ue.psi_deg) for ue in cfg.ues
    ]
    states = [
        upa_profile(nu, psi, g.n_h, g.n_v, g.spacing_ratio, offsets) for nu, psi in angles
    ]
    probs = list(cfg.ris.probs) if cfg.ris.probs is not None else [1.0 / len(states)] * len(states)
    return rc.SamplingDistribution(states=states, probs=probs)


def run(cfg: ExperimentConfig) -> tuple[Trace, RunSummary]:
    """Simulate one configuration; returns the slot trace and summary.

    Summary statistics cover slots at or after the warm-up boundary;
    the bit-conservation counters cover the whole run.
    """
    validate(cfg)
    n_ues = len(cfg.ues)
    alpha, ts_slots = scaled(cfg)
    n_slots = to_slots(cfg.sim.duration_s)
    warmup_slot = to_slots(cfg.sim.warmup_s)
    window_slots = max(1, round(cfg.la.window_ms / SLOT_MS / cfg.sim.ts_scaling))
    cqi_slots = max(1, round(cfg.la.cqi_period_ms / SLOT_MS / cfg.sim.ts_scaling))

    seed_root = np.random.SeedSequence(cfg.sim.seed)
    ss_channel, ss_blocks, ss_ris = seed_root.spawn(3)
    rng_channel = np.random.default_rng(ss_channel)
    rng_blocks = np.random.default_rng(ss_blocks)
    ris_seed = cfg.ris.seed if cfg.ris.seed is not None else int(ss_ris.generate_state(1)[0])

    dist = build_distribution(cfg)
    coherence = cfg.chan.coherence_slots if cfg.chan.rician_k_db is not None else 0
    setup = link_setup(cfg, dist)
    off_row = len(dist)  # lookup row for mode "off"
    aligned_state = setup.aligned_state
    mode = cfg.ris.mode
    genie = mode == "genie"
    switching = mode in ("periodic", "iid")
    if genie and any(a < 0 for a in aligned_state):
        raise ConfigError("ris.mode: genie requires a state aligned to every UE (ris.angles)")
    policy = rc.SwitchPolicy(mode, ts_slots, ris_seed, cfg.ris.offset_slots) if switching else None

    la = cfg.la
    floor = cfg.sched.floor
    decay = 1.0 - alpha
    round_robin = cfg.sched.kind == "rr"
    t_avg = [floor] * n_ues  # PF average rates
    la_states = [LinkAdaptState(mcs=la.mcs_min, mcs_min=la.mcs_min) for _ in range(n_ues)]
    cqi_update, step_mcs = la_mod.cqi_update, la_mod.step_mcs

    trace = Trace(n_slots, off_row, coherence, aligned_state)
    rows, ues, mcss, tbs, nacks, retxs = (
        trace.row, trace.ue, trace.mcs, trace.tb_bits, trace.nack, trace.retx,
    )
    # One table per coherence epoch, built EPOCH_BLOCK epochs at a time.
    n_epochs = -(-max(n_slots, 1) // coherence) if coherence else 1
    next_tables = chain.from_iterable(
        build_link_tables(cfg, setup, rng_channel, min(EPOCH_BLOCK, n_epochs - first))
        for first in range(0, n_epochs, EPOCH_BLOCK)
    ).__next__
    snr_tab, se_tab, rsrp_tab, bler_tab = next_tables()
    trace.add_epoch(rsrp_tab, snr_tab)

    # Per TDD phase: None on uplink slots, else the TB size per MCS index.
    phase_tb = tuple(map(tb_table(cfg.sim.prbs).get, TDD_DL_SYMBOLS))
    period = len(TDD_DL_SYMBOLS)
    # One uniform per transmission; chunked draws equal the scalar ones.
    bler_draw = chain.from_iterable(
        iter(lambda: rng_blocks.random(DRAW_CHUNK).tolist(), None)
    ).__next__

    rate_est = [0.0] * n_ues  # CQI-cadence rate estimates driving the scheduler
    dl_counter = 0
    new_tx_bits = acked_bits = discarded_bits = 0
    # HARQ: at most one block is in flight, and a NACKed one preempts every
    # other UE in the next downlink slot, so the block is the previous
    # downlink slot's (ue, mcs, tb).  ``attempts`` counts its transmissions;
    # 0 means none is in flight.
    attempts = ue = mcs = tb = 0
    next_switch, offset = 0, cfg.ris.offset_slots
    if mode == "off":
        row = off_row
    else:
        row = aligned_state[0] if genie else 0

    for t in range(n_slots):
        # Scatter evolves on its own coherence grid, from its own stream.
        if coherence and t and t % coherence == 0:
            snr_tab, se_tab, rsrp_tab, bler_tab = next_tables()
            trace.add_epoch(rsrp_tab, snr_tab)

        # State draws are per switching interval.
        if switching and t == next_switch:
            row = rc.state_at_slot(t, policy, dist)
            next_switch = ((t + offset) // ts_slots + 1) * ts_slots - offset

        # CQI cadence: refresh the scheduler-side rate estimates and caps
        # from the channel each UE currently measures.
        if t % cqi_slots == 0:
            for k in range(n_ues):
                meas_row = aligned_state[k] if genie else row
                las = la_states[k]
                las.mcs_max_from_cqi = cqi_update(
                    snr_tab[meas_row][k], setup.thresholds_db, la.cqi_backoff_db, la.mcs_min
                )
                las.clamp()
                rate_est[k] = se_tab[meas_row][k]

        tb_row = phase_tb[t % period]
        if tb_row is None:
            rows[t] = row  # uplink: an idle row
        else:
            retx = attempts > 0
            if not retx:
                if round_robin:
                    ue = dl_counter % n_ues
                else:  # PF: the largest rate / average, ties to the lowest index
                    ue, best = 0, -1.0
                    for k in range(n_ues):
                        m = rate_est[k] / max(t_avg[k], floor)
                        if m > best:
                            ue, best = k, m
                mcs = la_states[ue].mcs
                tb = tb_row[mcs]
                new_tx_bits += tb
            attempts += 1
            dl_counter += 1
            if genie:
                row = aligned_state[ue]

            nack = bler_draw() < bler_tab[row][ue][mcs]
            if not nack:
                acked_bits += tb
                attempts = 0
            elif attempts == MAX_ATTEMPTS:  # the last retransmission failed
                discarded_bits += tb
                attempts = 0

            las = la_states[ue]
            las.win_scheduled += 1
            if retx:
                las.win_retx += 1

            # EWMA: every UE decays, the served one adds its rate.
            for k in range(n_ues):
                target = alpha * rate_est[k] if k == ue else 0.0
                t_avg[k] = max(decay * t_avg[k] + target, floor)

            rows[t] = row
            ues[t] = ue
            mcss[t] = mcs
            tbs[t] = tb
            nacks[t] = nack
            retxs[t] = retx

        # Outer loop: step every UE's MCS at the end of each BLER window.
        if (t + 1) % window_slots == 0:
            for las in la_states:
                step_mcs(las, la.bler_low, la.bler_high)

    inflight_bits = tb if attempts else 0
    # Rates divide by the simulated span, a whole number of slots.
    measured_slots = max(n_slots - warmup_slot, 0)
    measured_s = measured_slots * SLOT_MS / 1000.0

    # Window statistics: one pass over the trace columns from the warm-up
    # slot on.  RSRP sums add in slot order, so the means keep their bits.
    aligned_rows = [[trace.is_aligned(r, k) for k in range(n_ues)] for r in range(off_row + 1)]
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
    summary = RunSummary(
        duration_s=cfg.sim.duration_s,
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
    return trace, summary


def _summary(cfg: ExperimentConfig) -> RunSummary:
    return run(cfg)[1]


def run_summaries(cfgs: Sequence[ExperimentConfig]) -> list[RunSummary]:
    """The summaries of independent runs, in input order.

    The runs go to up to min(runs, usable CPUs) worker processes, and only
    each summary comes back.  Every run's seed is in its config, so the
    results do not depend on the worker count; with one worker the runs
    execute in this process and no pool is created.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    workers = min(len(cfgs), cpus)
    if workers <= 1:
        return [_summary(cfg) for cfg in cfgs]
    # Imported here: at module top they add ~22 ms to every CLI start.
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    # Spawned, not forked: a fork inherits any lock another thread of the caller holds.
    with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn")) as pool:
        return list(pool.map(_summary, cfgs))


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
    reference runs keep the master seed and ``sched.alpha``.  All the runs
    go to one :func:`run_summaries` call.
    """
    return run_summaries(_alpha_configs(cfg, alphas) + [
        cfg.with_overrides({"ris.mode": "genie", "sched.kind": "rr"}),
        cfg.with_overrides({"ris.mode": "off"}),
    ])


def write_trace_csv(trace: Trace, path) -> None:
    """Exact trace schema: slot,time_ms,ris_state,ue,rsrp0_dbm,...,snr_db,mcs,tb_bits,outcome,is_retx."""
    rsrp_cols = ",".join(f"rsrp{k}_dbm" for k in range(len(trace.aligned_state)))
    lines = [f"slot,time_ms,ris_state,ue,{rsrp_cols},snr_db,mcs,tb_bits,outcome,is_retx"]
    columns = (trace.row, trace.ue, trace.mcs, trace.tb_bits, trace.nack, trace.retx)
    for lo, hi, rsrp_rows, snr_rows in trace.epochs():
        # Per epoch, each table row in force and everything after the time of
        # each distinct slot are formatted once, not once per slot.
        heads, tails = {}, {}
        for t, key in zip(range(lo, hi), zip(*(c[lo:hi] for c in columns))):
            tail = tails.get(key)
            if tail is None:
                row, ue, mcs, tb, nack, retx = key
                head = heads.get(row)
                if head is None:
                    head = heads[row] = (
                        f"{trace.state_of(row)},",
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
            lines.append(f"{t},{t * SLOT_MS:.1f},{tail}")
    with open(path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")
