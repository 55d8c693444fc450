"""Facts the slot loop and the link-table builder rely on for exact traces."""

import math

import numpy as np
import pytest

from rissim import channel as ch
from rissim import link_adapt as la
from rissim import presets
from rissim.config import ChannelConfig
from rissim.engine import (
    DRAW_CHUNK,
    MCS_TABLE_64QAM,
    build_distribution,
    build_link_tables,
    link_setup,
    tb_bits,
    tb_table,
)


@pytest.mark.parametrize("prbs", [106, 51])
def test_tb_table_matches_tb_bits(prbs):
    table = tb_table(prbs)
    assert sorted(table) == [6, 13]
    for symbols in (6, 13):
        assert len(table[symbols]) == 29
        for mcs in range(29):
            assert table[symbols][mcs] == tb_bits(mcs, prbs=prbs, symbols=symbols)


def test_chunked_uniforms_equal_scalar_draws():
    chunked = np.random.default_rng(np.random.SeedSequence(11))
    scalar = np.random.default_rng(np.random.SeedSequence(11))
    draws = chunked.random(DRAW_CHUNK).tolist() + chunked.random(DRAW_CHUNK).tolist()
    assert draws == [scalar.random() for _ in range(2 * DRAW_CHUNK)]
    assert chunked.random() == scalar.random()


def _reference_tables(cfg, dist, rng, rician_k_db):
    """The link tables computed call by call, one (state, UE, MCS) at a time."""
    g = cfg.geom
    n_rows = len(dist) + 1
    snr_db = np.zeros((n_rows, len(cfg.ues)))
    se = np.zeros_like(snr_db)
    rsrp = np.zeros_like(snr_db)
    bler = np.zeros((n_rows, len(cfg.ues), len(MCS_TABLE_64QAM)))
    for k, ue in enumerate(cfg.ues):
        budget = ch.LinkBudget(cfg.tx_power_dbm, ue.pathloss_db, ue.noise_dbm, cfg.rsrp_offset_db)
        h_c = ch.los_cascaded_channel(
            ue.nu_deg, ue.psi_deg, g.n_h, g.n_v, g.spacing_ratio,
            amplitude=1.0 / (g.n_h * g.n_v), rician_k_db=rician_k_db, rng=rng,
        )
        effs = [ch.effective_channel(state, h_c) + ue.direct_leak for state in dist.states]
        effs.append(complex(ue.noris_gain))
        for s, h_eff in enumerate(effs):
            lin = ch.snr_linear(h_eff, budget)
            snr_db[s, k] = 10.0 * math.log10(lin) if lin > 0 else -np.inf
            se[s, k] = ch.spectral_efficiency(lin)
            rsrp[s, k] = ch.rsrp_dbm(h_eff, budget)
            for e in MCS_TABLE_64QAM:
                thr = MCS_TABLE_64QAM.threshold_db(e.index, cfg.la.impl_margin_db)
                bler[s, k, e.index] = la.bler_curve(snr_db[s, k], (thr,), cfg.la.slope)[0]
    return snr_db, se, rsrp, bler


def _three_ue_config():
    cfg = presets.schedule_config(duration_s=1.0, warmup_s=0.0)
    return cfg.with_overrides(
        {
            "ue.angles": "20:0,40:5,-30:0",
            "ue.pathloss_db": "60.0,61.5,59.0",
            "ue.noise_dbm": "-60.0,-58.5,-61.0",
            "ue.direct_leak": "0.01+0.02j,-0.015+0.005j,0j",
            "ue.noris_gain": "0.1,0.0,0.08",  # UE 1 has no signal without the surface
            "la.slope": "1.5",
            "la.impl_margin_db": "2.5",
        }
    )


@pytest.mark.parametrize("rician_k_db", [None, 6.0, -3.0])
def test_hoisted_builder_is_bitwise_equal_to_reference(rician_k_db):
    cfg = _three_ue_config()
    if rician_k_db is not None:
        cfg = cfg.with_overrides(
            {"chan.rician_k_db": str(rician_k_db), "chan.coherence_slots": "20"}
        )
    dist = build_distribution(cfg)
    setup = link_setup(cfg, dist)
    rng_fast = np.random.default_rng(5)
    rng_ref = np.random.default_rng(5)
    for _ in range(4):
        tables = build_link_tables(cfg, dist, rng_fast, setup)
        reference = _reference_tables(cfg, dist, rng_ref, rician_k_db)
        for got, want in zip((tables.snr_db, tables.se, tables.rsrp, tables.bler), reference):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
    # Both consumed the channel stream identically.
    assert rng_fast.random() == rng_ref.random()
    assert np.isneginf(tables.snr_db[-1, 1]) and tables.rsrp[-1, 1] == ch.RSRP_FLOOR_DBM


def test_builder_without_setup_matches_hoisted():
    cfg = _three_ue_config()
    cfg = cfg.with_overrides({"chan.rician_k_db": "10", "chan.coherence_slots": "20"})
    dist = build_distribution(cfg)
    fresh = build_link_tables(cfg, dist, np.random.default_rng(2))
    hoisted = build_link_tables(cfg, dist, np.random.default_rng(2), link_setup(cfg, dist))
    assert fresh.bler.tobytes() == hoisted.bler.tobytes()
    assert fresh.aligned_state == hoisted.aligned_state == (0, 1, 2)


def test_trace_is_a_sequence_of_slot_records():
    from dataclasses import replace

    from rissim.engine import SlotRecord, run

    cfg = presets.schedule_config(duration_s=0.5, warmup_s=0.0)
    cfg = replace(cfg, chan=ChannelConfig(rician_k_db=6.0, coherence_slots=20))
    trace, summary = run(cfg)
    records = list(trace)
    assert len(trace) == len(records) == summary.n_slots == 1000
    assert all(isinstance(r, SlotRecord) for r in records)
    assert [r.slot for r in records] == list(range(1000))
    assert trace[0] == records[0] and trace[-1] == records[-1]
    assert trace[17:43] == records[17:43] and trace[::7] == records[::7]
    assert trace == records and records == trace and trace != records[:-1]
    with pytest.raises(IndexError):
        trace[1000]
    # Each 20-slot channel epoch carries its own table values.
    assert records[19].rsrp_dbm != records[20].rsrp_dbm
    idle = records[7]
    assert (idle.ue, idle.snr_db, idle.mcs, idle.outcome) == (None, None, None, "idle")
