"""``engine.run`` against the literal reference loop, over generated configs.

The trace columns and the bit counters must be equal slot for slot, and
the summary equal, field by field, to the reference's slot-by-slot one.  On
the same configs the engine keeps bit conservation, MCS within
[``la.mcs_min``, 28], served shares summing to 1, and determinism.
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

import reference_engine
from rissim import presets
from rissim.config import (
    RIS_MODES,
    SCHED_KINDS,
    ChannelConfig,
    ExperimentConfig,
    GeometryConfig,
    LaConfig,
    RisConfig,
    SchedConfig,
    SimConfig,
    UeConfig,
    to_slots,
)
from rissim.engine import TDD_DL_SYMBOLS, run, thresholds_db

COLUMNS = ("row", "ue", "mcs", "tb_bits", "nack", "retx")
BITS = ("new_tx_bits", "acked_bits", "discarded_bits", "inflight_bits")


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


def _assert_engine_equals_reference(cfg):
    trace, summary = run(cfg)
    ref = reference_engine.run(cfg)
    columns = reference_engine.slot_columns(trace)
    for name in COLUMNS:
        assert columns[name] == getattr(ref, name), name
    for name in BITS:
        assert getattr(summary, name) == getattr(ref, name), name
    want = reference_engine.summarize(cfg, ref)
    assert reference_engine.same_summary(summary, want), (summary, want)
    return trace, summary


@pytest.mark.parametrize("kind", SCHED_KINDS)
@pytest.mark.parametrize("mode", RIS_MODES)
@given(data=st.data())
@settings(
    max_examples=6,
    derandomize=True,
    deadline=None,
    phases=[Phase.explicit, Phase.generate],  # no shrinking: a failure reports at once
    suppress_health_check=[HealthCheck.too_slow],
)
def test_engine_equals_reference(mode, kind, data):
    cfg = data.draw(small_configs(mode, kind))
    trace, summary = _assert_engine_equals_reference(cfg)
    columns = reference_engine.slot_columns(trace)
    # The restatements the reference CSV formatter reads, against the engine's columns.
    assert reference_engine.tb_sizes(trace) == columns["tb_bits"]
    assert reference_engine.surface_rows(trace) == columns["row"]

    assert reference_engine.conserves_bits(summary)
    served_mcs = [m for m in columns["mcs"] if m is not None]
    assert all(cfg.la.mcs_min <= m <= 28 for m in served_mcs)
    warmup_slot = round(cfg.sim.warmup_s * 2000)
    if any(ue is not None for ue in columns["ue"][warmup_slot:]):
        assert sum(summary.served_share) == pytest.approx(1.0)
    else:
        assert summary.served_share == (0.0,) * len(cfg.ues)

    trace2, summary2 = run(cfg)
    assert reference_engine.same_summary(summary2, summary)
    assert reference_engine.slot_columns(trace2) == columns
    assert trace2.rsrp.tolist() == trace.rsrp.tolist() and trace2.snr.tolist() == trace.snr.tolist()


# Event cadences in slots: coherence, switch, CQI (la.cqi_period_ms / 0.5)
# and window (la.window_ms / 0.5).
SEGMENT_EDGES = {
    "every cadence at 1 slot": {
        "chan.coherence_slots": "1", "ris.ts_slots": "1",
        "la.cqi_period_ms": "0.5", "la.window_ms": "0.5",
    },
    # Every 8th slot; slots 8, 48, 88, ... are uplink (TDD phase 8).
    "all four on an uplink slot": {
        "chan.coherence_slots": "8", "ris.ts_slots": "8", "ris.offset_slots": "0",
        "la.cqi_period_ms": "4", "la.window_ms": "4",
    },
    "coprime, offset past the dwell": {
        "chan.coherence_slots": "11", "ris.ts_slots": "7", "ris.offset_slots": "17",
        "la.cqi_period_ms": "2.5", "la.window_ms": "1.5",
    },
    "no slots": {"sim.duration_s": "0"},
}


@pytest.mark.parametrize("edges", SEGMENT_EDGES.values(), ids=SEGMENT_EDGES)
@pytest.mark.parametrize("kind", SCHED_KINDS)
@pytest.mark.parametrize("mode", RIS_MODES)
def test_segment_boundaries_equal_reference(mode, kind, edges):
    # simulate runs the slots between events as one segment; the reference
    # checks every event in every slot.
    cfg = presets.schedule_config(mode).with_overrides({
        "geom.n_h": "4",
        "geom.n_v": "2",
        "chan.rician_k_db": "6",
        "sched.kind": kind,
        "sched.alpha": "0.01",
        "sim.duration_s": "0.3",
        "sim.warmup_s": "0",
        **edges,
    })
    trace, summary = _assert_engine_equals_reference(cfg)
    assert TDD_DL_SYMBOLS[8] == 0
    assert len(trace) == to_slots(cfg.sim.duration_s)
    assert reference_engine.conserves_bits(summary)


def _short(mode, **overrides):
    """A 0.1 s run of the two-UE preset on a small surface, from slot 0."""
    return presets.schedule_config(mode).with_overrides({
        "geom.n_h": "4", "geom.n_v": "2", "sim.duration_s": "0.1", "sim.warmup_s": "0",
        **overrides,
    })


class TestSwitchLog:
    """The state column is a log of the loop's switches, expanded on read."""

    @pytest.mark.parametrize("offset,first_switch", [("0", 5), ("4", 1)])
    def test_switch_at_slot_0(self, offset, first_switch):
        # Slot 0 always opens the log; with offset 0 it is also a dwell boundary.
        cfg = _short("periodic", **{"ris.ts_slots": "5", "ris.offset_slots": offset})
        trace, _ = _assert_engine_equals_reference(cfg)
        rows = reference_engine.slot_columns(trace)["row"]
        assert rows[:first_switch] == [0] * first_switch and rows[first_switch] == 1

    @pytest.mark.parametrize("mode", ["periodic", "iid"])
    def test_switch_on_an_uplink_slot(self, mode):
        # (t + 3) % 10 == 0: every switch falls on slot 7 of a TDD period, an uplink slot.
        cfg = _short(mode, **{"ris.ts_slots": "10", "ris.offset_slots": "3"})
        trace, _ = _assert_engine_equals_reference(cfg)
        rows = reference_engine.slot_columns(trace)["row"]
        changes = [t for t in range(1, len(rows)) if rows[t] != rows[t - 1]]
        assert TDD_DL_SYMBOLS[7] == 0
        assert changes and all(t % 10 == 7 for t in changes)

    def test_genie_uplink_slots_keep_the_last_served_state(self):
        # Round robin alternates the UEs, so slot 6 serves another UE than slot 5,
        # and the uplink slots 7 to 9 keep slot 6's state.
        cfg = _short("genie")
        trace, _ = _assert_engine_equals_reference(cfg)
        columns = reference_engine.slot_columns(trace)
        rows, ues = columns["row"], columns["ue"]
        assert ues[5] != ues[6] and ues[7:10] == [None] * 3
        assert rows[7:10] == [rows[6]] * 3 and rows[6] != rows[5]

    def test_off_row_is_minus_1_throughout(self):
        trace, _ = _assert_engine_equals_reference(_short("off"))
        rows = reference_engine.slot_columns(trace)["row"]
        assert set(rows) == {-1} and len(rows) == len(trace) == 200


@pytest.mark.parametrize("slope", ["2", "30"])
def test_bler_is_zero_past_the_overflow_guard(slope):
    # Link gains of ~380 dB: slope * (SNR - threshold) passes 700 on every
    # transmission, where the curve is 0.0 and exp would overflow near 710.
    cfg = presets.schedule_config().with_overrides({
        "ue.pathloss_db": "-300,-300",
        "la.slope": slope,
        "ris.ts_slots": "20",
        "sim.duration_s": "0.5",
        "sim.warmup_s": "0",
    })
    trace, summary = _assert_engine_equals_reference(cfg)
    assert min(trace.snr[0][-2]) > 350.0
    assert not any(reference_engine.slot_columns(trace)["nack"])
    assert summary.acked_bits == summary.new_tx_bits > 0


def test_a_ue_without_signal_loses_every_block():
    # No surface and no direct path to UE 0: its SNR is -inf, every
    # transmission fails and every block is discarded.
    cfg = presets.schedule_config("off").with_overrides({
        "ue.noris_gain": "0,0.1",
        "sched.kind": "rr",
        "sim.duration_s": "0.5",
        "sim.warmup_s": "0",
    })
    trace, summary = _assert_engine_equals_reference(cfg)
    assert trace.snr[0][-1][0] == float("-inf")
    columns = reference_engine.slot_columns(trace)
    ue0 = [nack for ue, nack in zip(columns["ue"], columns["nack"]) if ue == 0]
    assert ue0 and all(ue0)
    assert summary.discarded_bits > 0


def _three_ue_pf(mode, ues, floor):
    return ExperimentConfig(
        geom=GeometryConfig(n_h=4, n_v=2),
        ues=ues,
        ris=RisConfig(mode=mode, ts_slots=30),
        sched=SchedConfig(alpha=0.01, floor=floor),
        sim=SimConfig(duration_s=0.5, warmup_s=0.0),
    )


@pytest.mark.parametrize("mode", RIS_MODES)
def test_pf_ties_go_to_the_lowest_index(mode):
    # Three identical UEs: every PF metric ties at the first downlink slot,
    # and whenever the averages sit on the floor.
    cfg = _three_ue_pf(mode, (UeConfig(nu_deg=30.0, noise_dbm=-50.0, noris_gain=0.5),) * 3, 1.0)
    trace, _ = run(cfg)
    ues = reference_engine.slot_columns(trace)["ue"]
    assert ues[0] == 0
    assert ues == reference_engine.run(cfg).ue


@pytest.mark.parametrize("mode", RIS_MODES)
def test_ewma_floor_holds_the_averages(mode):
    # Averages of UEs left unserved decay onto a floor near the served rates.
    ues = (
        UeConfig(nu_deg=30.0, noise_dbm=-50.0, noris_gain=0.5),
        UeConfig(nu_deg=-20.0, noise_dbm=-53.0, noris_gain=0.3),
        UeConfig(nu_deg=10.0, noise_dbm=-46.0, noris_gain=0.2),
    )
    cfg = _three_ue_pf(mode, ues, 0.5)
    assert reference_engine.slot_columns(run(cfg)[0])["ue"] == reference_engine.run(cfg).ue


def test_cqi_cap_reaches_17_across_the_table_inversion():
    # MCS 17's threshold lies below 16's.  With the CQI limit between them
    # the cap is 17, which a scan that stopped at 16 (the first index that
    # does not fit) would miss.
    thr = thresholds_db(LaConfig.impl_margin_db)
    snr_db = (thr[16] + thr[17]) / 2 + LaConfig.cqi_backoff_db
    cfg = ExperimentConfig(
        geom=GeometryConfig(n_h=1, n_v=1),
        # The no-surface channel of amplitude 1: the SNR is tx - pathloss - noise.
        ues=(UeConfig(nu_deg=0.0, noise_dbm=23.0 - 60.0 - snr_db, noris_gain=1.0),),
        ris=RisConfig(mode="off"),
        la=LaConfig(window_ms=3.0, mcs_min=14),
        sim=SimConfig(duration_s=0.1, warmup_s=0.0),
    )
    trace, _ = run(cfg)
    assert thr[17] <= trace.snr[0][-1][0] - cfg.la.cqi_backoff_db < thr[16]
    mcs = reference_engine.slot_columns(trace)["mcs"]
    assert max(m for m in mcs if m is not None) == 17
    assert mcs == reference_engine.run(cfg).mcs
