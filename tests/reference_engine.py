"""A slow, literal reference of the downlink MAC loop, written from the
README's "What is modeled" and checked against ``engine.run``.

Every per-slot rule is spelled out one step at a time: the surface
state is worked out from the slot's switching interval in every slot, a
``HarqProcess`` object carries each transport block, proportional fair
and its EWMA keep per-UE dicts, round robin counts downlink slots, and
an ``OuterLoop`` record per UE holds its MCS, CQI cap and BLER window,
which is checked in every slot.  The rules live here and not in the
package: ``engine.run`` inlines them, and
``tests/test_reference_engine.py`` asserts that both give the same
trace columns and bit counters.  Only the MCS table and the HARQ budget
come from ``rissim.engine``; the block-error curve is
:func:`bler_curve`, evaluated at every MCS index for each transmission.

Rules (README "What is modeled"):

- TDD: 6 downlink, 1 mixed (6 downlink symbols) and 3 uplink slots per
  10-slot period; one UE per downlink slot on all PRBs.
- Randomness: one master seed spawns three streams, for channel
  scatter, block outcomes and i.i.d. switching (unless ``ris.seed``
  is set).  One block-outcome uniform is drawn per transmission.
- Surface: one beam state per ``ris.angles`` pair, or per UE when that
  is unset.  A UE's own beam is the first state at its angles.  Slot
  ``t`` lies in interval ``(t + ris.offset_slots) // ts_slots``;
  periodic switching takes the states in turn, one per interval, and
  i.i.d. switching draws one uniform from ``SeedSequence((seed,
  interval))`` against the cumulative ``ris.probs`` (uniform if unset).
- Link tables come from a one-epoch ``engine.build_link_tables`` call
  per coherence epoch (``tests/test_fast_paths.py`` checks them against
  :func:`rician_scatter` and the literal SNR, SE and RSRP formulas).
- CQI cadence: each UE's rate estimate and MCS cap come from the
  channel it measures: its own beam under genie, else the state in
  force.
- Block outcome: a transmission fails when its uniform is below the
  logistic block-error probability ``1 / (1 + exp(la.slope * (SNR -
  threshold)))`` of the current surface state's SNR at the block's MCS.
- Retransmission priority: a NACKed block is resent in the next
  downlink slot, at its MCS and size, up to 4 transmissions in all.
- PF: argmax of rate / max(average, floor), ties to the lowest index;
  after every downlink slot every UE's average decays and the served
  UE's adds alpha times its rate, floored.
- Round robin: new blocks go to UE ``downlink slots so far % K``.  The
  count includes retransmission slots, so a UE's retransmissions move
  it: at ``la.mcs_min = 27``, where most blocks take 4 transmissions,
  K=2 and K=4 runs can serve UE 0 alone.
- Outer loop: every MCS starts at ``la.mcs_min``.  At each CQI slot a
  UE's cap becomes the highest index from ``la.mcs_min`` on whose
  threshold is at most its SNR minus ``la.cqi_backoff_db`` (else
  ``la.mcs_min``), and its MCS is clamped into [``la.mcs_min``, cap].
  At the end of each BLER window every UE's MCS steps up below
  ``la.bler_low`` and down above ``la.bler_high`` of its window's
  retransmission ratio (0.0 for an empty window), is clamped, and the
  window restarts.

The module also holds what several test files share: per-slot views of
an engine trace (:func:`slot_columns`), the summary comparison
(:func:`same_summary`), the generated configurations
(:func:`small_configs`) and the stack the byte pins were taken on
(:data:`PIN_STACK`, :func:`stacks`).
"""

from __future__ import annotations

import math
import platform
from dataclasses import dataclass, field, replace

import numpy as np
from hypothesis import strategies as st

from rissim import engine
from rissim.config import (
    SLOT_MS,
    ChannelConfig,
    ExperimentConfig,
    GeometryConfig,
    LaConfig,
    RisConfig,
    SchedConfig,
    SimConfig,
    UeConfig,
    scaled,
    to_slots,
    validate,
)
from rissim.engine import MCS_TABLE_64QAM, MAX_ATTEMPTS

# Schedulable downlink symbols per slot of one TDD period: 6 DL, 1 mixed, 3 UL.
DL_SYMBOLS = (13, 13, 13, 13, 13, 13, 6, 0, 0, 0)


def effective_channel(phi, h_c) -> complex:
    """Scalar effective channel of a continuous phase vector ``phi`` over
    ``h_c``, in the conjugated-phase convention: the result is ``phi^H h``,
    maximal and real when ``phi`` matches the element-wise phase of ``h``.

    A realized beam state (:func:`rissim.array_model.upa_profiles`) applies
    its reflection phasors unconjugated instead: ``np.sum(w * h)``.
    """
    h = np.asarray(h_c, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    if phi.size != h.size:
        raise ValueError(f"phase-vector length {phi.size} does not match channel length {h.size}")
    return complex(np.vdot(phi, h))


def rician_scatter(
    amplitude: float, rician_k_db: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Complex Gaussian scatter with per-element power ``amplitude**2 / K``,
    so the line-of-sight-to-scatter power ratio equals the K-factor.

    Draws the ``n`` real parts, then the ``n`` imaginary parts;
    ``engine.build_link_tables`` draws this stream for a block of epochs
    at once.
    """
    sigma = amplitude / math.sqrt(10.0 ** (rician_k_db / 10.0))
    return sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)


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
    """Round robin over a downlink-slot counter, which retransmission slots advance too."""
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
class OuterLoop:
    """One UE's outer-loop state: the MCS of its new blocks, its CQI cap,
    and the scheduled and retransmission slots of the current window."""

    mcs: int
    mcs_min: int
    cqi_cap: int = 28
    win_scheduled: int = 0
    win_retx: int = 0


def clamp_mcs(link: OuterLoop) -> None:
    """Hold the MCS within [``mcs_min``, CQI cap]."""
    link.mcs = min(max(link.mcs, link.mcs_min), link.cqi_cap)


def cqi_update(snr_db: float, thresholds_db, cqi_backoff_db: float, mcs_min: int) -> int:
    """The CQI cap: the highest index from ``mcs_min`` on whose threshold
    is at most ``snr_db - cqi_backoff_db``, else ``mcs_min``.

    Every index is tried: thresholds are not monotone (16 is above 17).
    """
    fits = [
        index
        for index in range(mcs_min, len(thresholds_db))
        if thresholds_db[index] <= snr_db - cqi_backoff_db
    ]
    return max(fits, default=mcs_min)


def step_mcs(link: OuterLoop, bler_low: float, bler_high: float) -> None:
    """The window-end step: one index up below ``bler_low``, down above
    ``bler_high``, then clamped; the window restarts."""
    if link.win_scheduled == 0:
        measured = 0.0
    else:
        measured = link.win_retx / link.win_scheduled
    if measured < bler_low:
        link.mcs += 1
    elif measured > bler_high:
        link.mcs -= 1
    clamp_mcs(link)
    link.win_scheduled = 0
    link.win_retx = 0


@dataclass
class ReferenceRun:
    """Per-slot columns in ``engine.Trace``'s form, each slot's RSRP row
    (every UE's RSRP under the slot's state), and the whole-run bit counters."""

    row: list = field(default_factory=list)
    ue: list = field(default_factory=list)
    mcs: list = field(default_factory=list)
    tb_bits: list = field(default_factory=list)
    nack: list = field(default_factory=list)
    retx: list = field(default_factory=list)
    rsrp: list = field(default_factory=list)
    new_tx_bits: int = 0
    acked_bits: int = 0
    discarded_bits: int = 0
    inflight_bits: int = 0

    def record(self, row, rsrp, ue=None, mcs=None, tb_bits=0, nack=False, retx=False) -> None:
        self.row.append(row)
        self.rsrp.append(rsrp)
        self.ue.append(ue)
        self.mcs.append(mcs)
        self.tb_bits.append(tb_bits)
        self.nack.append(nack)
        self.retx.append(retx)


def own_beams(cfg: ExperimentConfig) -> dict[int, int]:
    """UE -> the first state steered at it; a UE without one is left out."""
    if cfg.ris.angles is not None:
        state_angles = list(cfg.ris.angles)
    else:
        state_angles = [(ue.nu_deg, ue.psi_deg) for ue in cfg.ues]
    own_beam = {}
    for k, ue in enumerate(cfg.ues):
        for s, (nu, psi) in enumerate(state_angles):
            if abs(nu - ue.nu_deg) <= 1e-9 and abs(psi - ue.psi_deg) <= 1e-9:
                own_beam[k] = s
                break
    return own_beam


def run(cfg: ExperimentConfig) -> ReferenceRun:
    """Simulate ``cfg`` one slot at a time."""
    validate(cfg)
    la, n_ues = cfg.la, len(cfg.ues)
    alpha, ts_slots = scaled(cfg)[:2]
    n_slots = to_slots(cfg.sim.duration_s)
    window_slots = max(1, round(la.window_ms / SLOT_MS / cfg.sim.ts_scaling))
    cqi_slots = max(1, round(la.cqi_period_ms / SLOT_MS / cfg.sim.ts_scaling))

    ss_channel, ss_blocks, ss_ris = np.random.SeedSequence(cfg.sim.seed).spawn(3)
    rng_channel = np.random.default_rng(ss_channel)
    rng_blocks = np.random.default_rng(ss_blocks)
    ris_seed = cfg.ris.seed if cfg.ris.seed is not None else int(ss_ris.generate_state(1)[0])

    thresholds = engine.thresholds_db(la.impl_margin_db)
    coherence = cfg.chan.coherence_slots if cfg.chan.rician_k_db is not None else 0
    mode = cfg.ris.mode
    if cfg.ris.angles is not None:
        state_angles = list(cfg.ris.angles)
    else:
        state_angles = [(ue.nu_deg, ue.psi_deg) for ue in cfg.ues]
    n_states = len(state_angles)
    probs = list(cfg.ris.probs) if cfg.ris.probs is not None else [1.0 / n_states] * n_states
    own_beam = own_beams(cfg)  # genie runs need one for every UE
    no_surface_row = -1  # the surface state without the surface: the link tables' last row

    t_avg = {k: cfg.sched.floor for k in range(n_ues)}
    rate = {k: 0.0 for k in range(n_ues)}
    link = {k: OuterLoop(mcs=la.mcs_min, mcs_min=la.mcs_min) for k in range(n_ues)}
    proc: HarqProcess | None = None
    dl_slots = 0
    # The surface stays where it was last set: genie starts on UE 0's beam,
    # and the switching modes set it at slot 0.
    surface = no_surface_row if mode == "off" else own_beam.get(0)
    out = ReferenceRun()

    for t in range(n_slots):
        if t == 0 or (coherence and t % coherence == 0):
            (epoch,) = engine.build_link_tables(cfg, rng_channel, 1)
            snr_db, se, rsrp = epoch.swapaxes(0, 1).tolist()  # per row, per UE
        if mode in ("periodic", "iid"):
            interval = (t + cfg.ris.offset_slots) // ts_slots
            if mode == "periodic":
                surface = interval % n_states
            else:
                u = np.random.default_rng(np.random.SeedSequence((ris_seed, interval))).random()
                surface = n_states - 1
                cumulative = 0.0
                for s, p in enumerate(probs):
                    cumulative += p
                    if u < cumulative:
                        surface = s
                        break

        if t % cqi_slots == 0:
            for k in range(n_ues):
                measured = own_beam[k] if mode == "genie" else surface
                link[k].cqi_cap = cqi_update(
                    snr_db[measured][k], thresholds, la.cqi_backoff_db, la.mcs_min
                )
                clamp_mcs(link[k])
                rate[k] = se[measured][k]

        symbols = DL_SYMBOLS[t % len(DL_SYMBOLS)]
        if symbols == 0:
            out.record(surface, rsrp[surface])
        else:
            retx = proc is not None
            if not retx:
                if cfg.sched.kind == "rr":
                    ue = rr_select(dl_slots, n_ues)
                else:
                    ue = select_ue(t_avg, rate, cfg.sched.floor)
                mcs = link[ue].mcs
                tb = math.floor(MCS_TABLE_64QAM[mcs] * 12 * cfg.sim.prbs * symbols)
                proc = HarqProcess(tb_bits=tb, mcs_used=mcs, ue=ue)
                out.new_tx_bits += tb
            dl_slots += 1
            ue = proc.ue
            if mode == "genie":
                surface = own_beam[ue]
            curve = bler_curve(snr_db[surface][ue], thresholds, la.slope)
            nack = rng_blocks.random() < curve[proc.mcs_used]
            out.record(surface, rsrp[surface], ue, proc.mcs_used, proc.tb_bits, nack, retx)
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


def summarize(cfg: ExperimentConfig, out: ReferenceRun) -> engine.RunSummary:
    """The run summary of ``out``, one slot at a time from the warm-up slot on.

    Each downlink slot counts for the UE it serves: one scheduled slot, one
    retransmission if it resends, its TB bits as acknowledged unless it
    is NACKed, and one aligned slot if its state is the UE's own beam.
    State -1, no surface, is aligned to no UE, even one without an own
    beam.  Each downlink slot also adds every UE's RSRP under the slot's
    state to that UE's aligned or misaligned sum, in slot order.  Rates
    divide by the slots from the warm-up slot on; a fraction or ratio over
    nothing is 0.0, a mean RSRP over no slot NaN.  The bit counters are
    the run's own.
    """
    n_ues = len(cfg.ues)
    own_beam = own_beams(cfg)
    n_slots = len(out.row)
    warmup_slot = to_slots(cfg.sim.warmup_s)
    scheduled, aligned, retx, acked = [0] * n_ues, [0] * n_ues, [0] * n_ues, [0] * n_ues
    rsrp_sum = [{True: 0.0, False: 0.0} for _ in range(n_ues)]
    rsrp_n = [{True: 0, False: 0} for _ in range(n_ues)]
    for t in range(warmup_slot, n_slots):
        ue = out.ue[t]
        if ue is None:
            continue
        row = out.row[t]
        scheduled[ue] += 1
        if out.retx[t]:
            retx[ue] += 1
        if not out.nack[t]:
            acked[ue] += out.tb_bits[t]
        for k in range(n_ues):
            hit = row != -1 and own_beam.get(k) == row
            if k == ue and hit:
                aligned[ue] += 1
            rsrp_sum[k][hit] += out.rsrp[t][k]
            rsrp_n[k][hit] += 1

    measured_slots = max(n_slots - warmup_slot, 0)
    measured_s = measured_slots * SLOT_MS / 1000.0
    dl_slots = sum(scheduled)
    misaligned = [scheduled[k] - aligned[k] for k in range(n_ues)]

    def fractions(counts, total):
        return tuple(c / total if total else 0.0 for c in counts)

    def mean_rsrp(hit):
        return tuple(
            rsrp_sum[k][hit] / rsrp_n[k][hit] if rsrp_n[k][hit] else float("nan")
            for k in range(n_ues)
        )

    tput = tuple(b / measured_s / 1e6 if measured_s > 0 else 0.0 for b in acked)
    aggregate = 0.0
    for v in tput:  # left to right: sum() is compensated from Python 3.12 on
        aggregate += v
    return engine.RunSummary(
        duration_s=n_slots * SLOT_MS / 1000.0,
        measured_s=measured_s,
        n_slots=n_slots,
        throughput_mbps=tput,
        aggregate_mbps=aggregate,
        long_run_bler=tuple(r / s if s else 0.0 for r, s in zip(retx, scheduled)),
        mean_rsrp_aligned_dbm=mean_rsrp(True),
        mean_rsrp_misaligned_dbm=mean_rsrp(False),
        served_frac_aligned_dl=fractions(aligned, dl_slots),
        served_frac_misaligned_dl=fractions(misaligned, dl_slots),
        served_frac_aligned_total=fractions(aligned, measured_slots),
        served_frac_misaligned_total=fractions(misaligned, measured_slots),
        served_share=fractions(scheduled, dl_slots),
        new_tx_bits=out.new_tx_bits,
        acked_bits=out.acked_bits,
        discarded_bits=out.discarded_bits,
        inflight_bits=out.inflight_bits,
    )


def trace_fields(trace: engine.Trace) -> dict:
    """``vars(trace)`` with the link-table views as nested lists, so that
    two traces compare field by field with ``==``."""
    return {
        key: value.tolist() if isinstance(value, np.ndarray) else value
        for key, value in vars(trace).items()
    }


def same_summary(a: engine.RunSummary, b: engine.RunSummary) -> bool:
    """Field by field, with NaN equal to NaN.

    A UE with no aligned (or no misaligned) slot has a NaN mean RSRP, and
    two identical runs must still compare equal.
    """

    def same(x: float, y: float) -> bool:
        return x == y or (math.isnan(x) and math.isnan(y))

    return type(a) is type(b) and all(
        len(x) == len(y) and all(map(same, x, y)) if isinstance(x, tuple) else same(x, y)
        for x, y in zip(vars(a).values(), vars(b).values())
    )


def conserves_bits(summary: engine.RunSummary) -> bool:
    """Every new-transmission bit is acknowledged, discarded or still in flight."""
    return summary.new_tx_bits == summary.acked_bits + summary.discarded_bits + summary.inflight_bits


def slot_columns(trace: engine.Trace) -> dict[str, list]:
    """``trace.chunks()`` expanded per slot into the columns of
    :class:`ReferenceRun` (surface state, UE, MCS, TB size, NACK,
    retransmission), with UE and MCS None on an idle slot."""
    columns = {name: [] for name in ("row", "ue", "mcs", "tb_bits", "nack", "retx")}
    for _, _, rows, ues, mcss, tbs, nacks, retxs in trace.chunks():
        for name, values in zip(columns, (rows, ues, mcss, tbs, nacks, retxs)):
            columns[name] += values.tolist()
    for name in ("ue", "mcs"):
        columns[name] = [None if v == engine.IDLE else v for v in columns[name]]
    return columns


def tb_sizes(trace: engine.Trace) -> list[int]:
    """Each slot's TB size, one slot at a time from the stored MCS and
    retransmission bytes: 0 on an uplink slot, a new block's from its TDD
    phase's TB table at its MCS, and a retransmission's the in-flight
    block's, the last new one."""
    sizes, inflight = [], 0
    for t, (mcs, retx) in enumerate(zip(trace._mcs, trace._retx)):
        phase_sizes = trace.phase_tb[t % len(trace.phase_tb)]
        if phase_sizes is None:
            sizes.append(0)
            continue
        if not retx:
            inflight = phase_sizes[mcs]
        sizes.append(inflight)
    return sizes


def surface_rows(trace: engine.Trace) -> list[int]:
    """Each slot's surface state, one slot at a time: the last logged state
    at or before the slot, or in genie mode the own state of the last UE
    served (UE 0's before the first)."""
    rows = []
    if trace.genie_states is None:
        switches = dict(zip(trace._switch_slot, trace._switch_state))
        state = None
        for t in range(len(trace)):
            state = switches.get(t, state)
            rows.append(state)
        return rows
    state = trace.genie_states[0]
    for ue in trace._ue:
        if ue != engine.IDLE:
            state = trace.genie_states[ue]
        rows.append(state)
    return rows


def trace_csv(trace: engine.Trace) -> str:
    """The text of ``engine.write_trace_csv(trace, path)``, one slot at a time.

    Each line is formatted from its own cells: no memo, no chunks.  The
    state and TB size are restated slot by slot (:func:`surface_rows`,
    :func:`tb_sizes`), not read from the engine's chunked derivations.
    The RSRP and SNR come from the slot's channel epoch,
    ``t // coherence``.
    """
    n_ues = len(trace.rsrp[0][0])
    rsrp_names = [f"rsrp{k}_dbm" for k in range(n_ues)]
    header = ["slot", "time_ms", "ris_state", "ue", *rsrp_names]
    header += ["snr_db", "mcs", "tb_bits", "outcome", "is_retx"]
    lines = [",".join(header)]
    slots = zip(surface_rows(trace), trace._ue, trace._mcs, tb_sizes(trace), trace._nack, trace._retx)
    for t, (row, ue, mcs, tb_bits, nack, retx) in enumerate(slots):
        epoch = t // trace.coherence if trace.coherence else 0
        rsrp = [f"{v:.4f}" for v in trace.rsrp[epoch][row]]
        if ue == engine.IDLE:
            ue_cell = snr = mcs_cell = ""
            outcome = "idle"
        else:
            ue_cell = str(ue)
            snr = f"{trace.snr[epoch][row][ue]:.4f}"
            mcs_cell = str(mcs)
            outcome = "nack" if nack else "ack"
        cells = [str(t), f"{t * SLOT_MS:.1f}", str(row), ue_cell, *rsrp]
        cells += [snr, mcs_cell, str(tb_bits), outcome, str(int(retx))]
        lines.append(",".join(cells))
    return "".join(line + "\n" for line in lines)


# The stack the pins were taken on.  Another stack may give other bits (README
# "Reproducibility"), so a mismatch names both.
PIN_STACK = "Python 3.11.7, numpy 2.4.6, glibc 2.36, x86-64"


def stacks() -> str:
    """The failure message of a digest mismatch: the pins' stack and this one."""
    libc, version = platform.libc_ver()
    running = (
        f"Python {platform.python_version()}, numpy {np.__version__}, "
        f"{libc or 'libc'} {version or '?'}, {platform.machine()}"
    )
    return f"pinned on {PIN_STACK}; running on {running}"


def _angle_pairs(n):
    angle = st.floats(-60.0, 60.0)
    return st.lists(st.tuples(angle, st.sampled_from([0.0, 10.0])), min_size=n, max_size=n)


@st.composite
def small_configs(draw, mode: str, kind: str):
    """Small surfaces, 1 to 4 UEs whose aligned SNRs span the MCS table, runs under 2 s."""
    n_ues = draw(st.integers(1, 4))
    tx_dbm, pathloss_db = 23.0, 60.0
    ues = tuple(
        UeConfig(
            nu_deg=nu,
            psi_deg=psi,
            pathloss_db=pathloss_db,
            # tx - pathloss - noise: the SNR of a unit effective channel.
            noise_dbm=tx_dbm - pathloss_db - draw(st.floats(1.0, 40.0)),
            direct_leak=complex(draw(st.floats(-0.2, 0.2)), draw(st.floats(-0.2, 0.2))),
            noris_gain=draw(st.just(0.0) | st.floats(0.0, 1.0)),
        )
        for nu, psi in draw(_angle_pairs(n_ues))
    )
    if draw(st.booleans()):
        # Identical UEs tie on the PF metric, which the lowest index must win.
        ues = ues[:1] * n_ues
    # Genie needs every UE's own beam: its states are the UE angles.
    angles = None if mode == "genie" else draw(
        st.none() | st.integers(1, 4).flatmap(_angle_pairs).map(tuple)
    )
    n_states = n_ues if angles is None else len(angles)
    probs = None
    if mode == "iid" and draw(st.booleans()):
        weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n_states, max_size=n_states))
        probs = tuple(w / sum(weights) for w in weights)
    rician_k_db = draw(st.none() | st.floats(-3.0, 10.0))
    n_slots = draw(st.integers(0, 3999))
    bler_low, bler_high = draw(st.sampled_from([(0.05, 0.15), (0.3, 0.6), (0.0, 1.0)]))
    cfg = ExperimentConfig(
        geom=GeometryConfig(
            n_h=draw(st.integers(1, 6)),
            n_v=draw(st.integers(1, 3)),
            spacing_ratio=draw(st.sampled_from([0.25, 0.5])),
            dither=draw(st.booleans()),
        ),
        ues=ues,
        ris=RisConfig(
            mode=mode,
            ts_slots=draw(st.integers(1, 60)),
            seed=draw(st.none() | st.integers(0, 1000)),
            offset_slots=draw(st.integers(0, 60)),
            angles=angles,
            probs=probs,
        ),
        sched=SchedConfig(
            kind=kind,
            alpha=draw(st.floats(1e-4, 0.3)),
            floor=draw(st.sampled_from([1e-6, 0.05, 0.5, 1.0])),
        ),
        la=LaConfig(
            impl_margin_db=draw(st.sampled_from([3.0, 0.0])),
            slope=draw(st.sampled_from([2.0, 0.7])),
            cqi_backoff_db=draw(st.sampled_from([2.0, 0.0])),
            window_ms=draw(st.sampled_from([100.0, 3.0, 0.5])),
            cqi_period_ms=draw(st.sampled_from([80.0, 7.0, 0.5])),
            bler_low=bler_low,
            bler_high=bler_high,
            mcs_min=draw(st.sampled_from([3, 0, 27])),
        ),
        sim=SimConfig(
            duration_s=n_slots / 2000,
            warmup_s=draw(st.integers(0, max(n_slots - 1, 0))) / 2000,
            seed=draw(st.integers(0, 2**32)),
            # Not 1: the CQI and window cadences then fall off the 10-slot TDD period.
            ts_scaling=draw(st.sampled_from([1.0, 0.6, 1.7, 3.0])),
            prbs=draw(st.sampled_from([106, 7])),
        ),
        chan=ChannelConfig(
            rician_k_db=rician_k_db,
            coherence_slots=0 if rician_k_db is None else draw(st.sampled_from([0, 1, 13])),
        ),
        tx_power_dbm=tx_dbm,
        rsrp_offset_db=0.0,
    )
    # Only i.i.d. switching reads ris.seed; the other modes reject it.
    return cfg if mode == "iid" else replace(cfg, ris=replace(cfg.ris, seed=None))
