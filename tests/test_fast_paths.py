"""Facts the slot loop and the link-table builder rely on for exact traces."""

import math

import numpy as np
import pytest

from rissim import channel as ch
from rissim import engine
from rissim import link_adapt as la
from rissim import presets
from rissim.config import ChannelConfig
from rissim.engine import (
    DRAW_CHUNK,
    EPOCH_BLOCK,
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


def test_block_draw_equals_successive_scatter_calls():
    n_ues, n = 3, 64
    block, successive = np.random.default_rng(7), np.random.default_rng(7)
    normals = np.empty((EPOCH_BLOCK, n_ues, 2, n))
    block.standard_normal(out=normals)
    sigma = ch.scatter_sigma(0.01, 6.0)
    for epoch in normals:
        for re, im in epoch:
            want = ch.rician_scatter(0.01, 6.0, n, successive)
            assert (sigma * (re + 1j * im) / math.sqrt(2.0)).tobytes() == want.tobytes()
    assert block.bit_generator.state == successive.bit_generator.state


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
            for mcs, e in enumerate(MCS_TABLE_64QAM):
                thr = 10.0 * math.log10(2.0**e.se - 1.0) + cfg.la.impl_margin_db
                bler[s, k, mcs] = la.bler_curve(snr_db[s, k], (thr,), cfg.la.slope)[0]
    return snr_db, se, rsrp, bler


def _arrays(tables):
    """(snr, se, rsrp, bler) of one epoch's tables as arrays, every BLER row in full."""
    bler = [[row[:] for row in cells] for cells in tables.bler]
    return tuple(np.array(a) for a in (tables.snr_db, tables.se, tables.rsrp, bler))


THREE_UES = {
    "ue.angles": ("20:0", "40:5", "-30:0"),
    "ue.pathloss_db": ("60.0", "61.5", "59.0"),
    "ue.noise_dbm": ("-60.0", "-58.5", "-61.0"),
    "ue.direct_leak": ("0.01+0.02j", "-0.015+0.005j", "0j"),
    "ue.noris_gain": ("0.1", "0.0", "0.08"),  # UE 1 has no signal without the surface
}


def _three_ue_config(n_ues=3):
    """The first ``n_ues`` of three UEs with distinct budgets."""
    cfg = presets.schedule_config(duration_s=1.0, warmup_s=0.0)
    overrides = {key: ",".join(values[:n_ues]) for key, values in THREE_UES.items()}
    return cfg.with_overrides({**overrides, "la.slope": "1.5", "la.impl_margin_db": "2.5"})


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
    # A full and a partial block in one call, then a second call on the same stream.
    epochs = [
        *build_link_tables(cfg, dist, rng_fast, setup, EPOCH_BLOCK + 1),
        *build_link_tables(cfg, dist, rng_fast, setup),
    ]
    for tables in epochs:
        reference = _reference_tables(cfg, dist, rng_ref, rician_k_db)
        for got, want in zip(_arrays(tables), reference):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
    # Both consumed the channel stream identically.
    assert rng_fast.random() == rng_ref.random()
    assert np.isneginf(tables.snr_db[-1][1]) and tables.rsrp[-1][1] == ch.RSRP_FLOOR_DBM


@pytest.mark.parametrize("n_epochs", [EPOCH_BLOCK - 1, EPOCH_BLOCK, EPOCH_BLOCK + 1])
@pytest.mark.parametrize("coherence", [1, 13, 20])
@pytest.mark.parametrize("n_ues", [1, 2, 3])
def test_run_tables_are_bitwise_equal_to_reference(n_ues, coherence, n_epochs, monkeypatch):
    # Genie mode reads every UE's aligned row at each CQI report.
    cfg = _three_ue_config(n_ues).with_overrides(
        {
            "ris.mode": "genie",
            "chan.rician_k_db": "6",
            "chan.coherence_slots": str(coherence),
            # The last epoch is cut short where it can be.
            "sim.duration_s": str((n_epochs * coherence - coherence // 2) * 0.5e-3),
        }
    )
    built = []

    def spy(*args):
        tables = build_link_tables(*args)
        built.extend(tables)
        return tables

    monkeypatch.setattr(engine, "build_link_tables", spy)
    trace, _ = engine.run(cfg)
    assert len(trace) == n_epochs * coherence - coherence // 2
    assert len(built) == len(trace.snr) == n_epochs
    rng_ref = np.random.default_rng(np.random.SeedSequence(cfg.sim.seed).spawn(3)[0])
    dist = build_distribution(cfg)
    for tables, snr, rsrp in zip(built, trace.snr, trace.rsrp):
        assert snr is tables.snr_db and rsrp is tables.rsrp
        reference = _reference_tables(cfg, dist, rng_ref, 6.0)
        for got, want in zip(_arrays(tables), reference):
            assert got.tobytes() == want.tobytes()


def test_builder_without_setup_matches_hoisted():
    cfg = _three_ue_config()
    cfg = cfg.with_overrides({"chan.rician_k_db": "10", "chan.coherence_slots": "20"})
    dist = build_distribution(cfg)
    setup = link_setup(cfg, dist)
    [fresh] = build_link_tables(cfg, dist, np.random.default_rng(2))
    [hoisted] = build_link_tables(cfg, dist, np.random.default_rng(2), setup)
    for got, want in zip(_arrays(fresh), _arrays(hoisted)):
        assert got.tobytes() == want.tobytes()
    assert setup.aligned_state == (0, 1, 2)


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
