"""Facts the slot loop and the link-table builder rely on for exact traces."""

import math
from itertools import chain, islice

import numpy as np
import pytest

from reference_engine import rician_scatter
from rissim import engine
from rissim import presets
from rissim.array_model import steering_vector, upa_profiles
from rissim.config import aligned_states
from rissim.engine import (
    DRAW_CHUNK,
    EPOCH_BLOCK,
    MCS_TABLE_64QAM,
    RSRP_FLOOR_DBM,
    build_link_tables,
    tb_table,
)
from rissim.streams import uniform_blocks


@pytest.mark.parametrize("prbs", [106, 51])
def test_tb_table_matches_tb_bits(prbs):
    table = tb_table(prbs)
    assert sorted(table) == [6, 13]
    for symbols in (6, 13):
        assert len(table[symbols]) == 29
        for mcs in range(29):
            se = MCS_TABLE_64QAM[mcs].se
            assert table[symbols][mcs] == math.floor(se * 12 * prbs * symbols)


def test_chunked_uniforms_equal_scalar_draws():
    # The slot loop reads streams' DRAW_CHUNK blocks through a memoryview; the
    # reference engine draws numpy's uniforms one at a time.
    chunked = chain.from_iterable(map(memoryview, uniform_blocks(11, DRAW_CHUNK)))
    scalar = np.random.default_rng(np.random.SeedSequence(11))
    n = 2 * DRAW_CHUNK + 1
    assert list(islice(chunked, n)) == [scalar.random() for _ in range(n)]


def test_block_draw_equals_successive_scatter_calls():
    n_ues, n = 3, 64
    block, successive = np.random.default_rng(7), np.random.default_rng(7)
    normals = np.empty((EPOCH_BLOCK, n_ues, 2, n))
    block.standard_normal(out=normals)
    sigma = 0.01 / math.sqrt(10.0 ** (6.0 / 10.0))
    for epoch in normals:
        for re, im in epoch:
            want = rician_scatter(0.01, 6.0, n, successive)
            assert (sigma * (re + 1j * im) / math.sqrt(2.0)).tobytes() == want.tobytes()
    assert block.bit_generator.state == successive.bit_generator.state


def _states(cfg):
    """The surface's beam-state weights: one per UE, as no ``ris.angles`` is set."""
    g = cfg.geom
    return [
        upa_profiles([(ue.nu_deg, ue.psi_deg)], g.n_h, g.n_v, g.spacing_ratio, g.dither)[0]
        for ue in cfg.ues
    ]


def _reference_tables(cfg, states, rng, rician_k_db):
    """The link tables computed call by call, one (state, UE) at a time,
    from the literal line-of-sight, SNR, SE and RSRP formulas."""
    g = cfg.geom
    n_rows = len(states) + 1
    snr_db = np.zeros((n_rows, len(cfg.ues)))
    se = np.zeros_like(snr_db)
    rsrp = np.zeros_like(snr_db)
    for k, ue in enumerate(cfg.ues):
        amplitude = 1.0 / (g.n_h * g.n_v)
        h_c = amplitude * np.kron(
            steering_vector(ue.nu_deg, g.n_h, g.spacing_ratio),
            steering_vector(ue.psi_deg, g.n_v, g.spacing_ratio),
        )
        if rician_k_db is not None:
            h_c = h_c + rician_scatter(amplitude, rician_k_db, g.n_h * g.n_v, rng)
        effs = [complex(np.sum(state * h_c)) + ue.direct_leak for state in states]
        effs.append(complex(ue.noris_gain))
        for s, h_eff in enumerate(effs):
            gain = 10.0 ** ((cfg.tx_power_dbm - ue.pathloss_db - ue.noise_dbm) / 10.0)
            lin = float(abs(h_eff) ** 2 * gain)
            snr_db[s, k] = 10.0 * math.log10(lin) if lin > 0 else -np.inf
            se[s, k] = math.log2(1.0 + lin)
            if abs(h_eff) == 0.0:
                rsrp[s, k] = RSRP_FLOOR_DBM
            else:
                rsrp[s, k] = max(
                    cfg.tx_power_dbm
                    - ue.pathloss_db
                    + 20.0 * math.log10(abs(h_eff))
                    + cfg.rsrp_offset_db,
                    RSRP_FLOOR_DBM,
                )
    return snr_db, se, rsrp


def _arrays(tables):
    """(snr, se, rsrp) per row and UE of one epoch of the builder's array."""
    return tuple(tables.swapaxes(0, 1))


THREE_UES = {
    "ue.angles": ("20:0", "40:5", "-30:0"),
    "ue.pathloss_db": ("60.0", "61.5", "59.0"),
    "ue.noise_dbm": ("-60.0", "-58.5", "-61.0"),
    "ue.direct_leak": ("0.01+0.02j", "-0.015+0.005j", "0j"),
    "ue.noris_gain": ("0.1", "0.0", "0.08"),  # UE 1 has no signal without the surface
}


def _three_ue_config(n_ues=3):
    """The first ``n_ues`` of three UEs with distinct budgets."""
    overrides = {key: ",".join(values[:n_ues]) for key, values in THREE_UES.items()}
    return presets.schedule_config().with_overrides({
        **overrides,
        "la.slope": "1.5",
        "la.impl_margin_db": "2.5",
        "sim.duration_s": "1",
        "sim.warmup_s": "0",
    })


@pytest.mark.parametrize("rician_k_db", [None, 6.0, -3.0])
def test_hoisted_builder_is_bitwise_equal_to_reference(rician_k_db):
    cfg = _three_ue_config()
    if rician_k_db is not None:
        cfg = cfg.with_overrides(
            {"chan.rician_k_db": str(rician_k_db), "chan.coherence_slots": "20"}
        )
    states = _states(cfg)
    rng_fast = np.random.default_rng(5)
    rng_ref = np.random.default_rng(5)
    # A full and a partial block in one call, then a second call on the same stream.
    epochs = [
        *build_link_tables(cfg, rng_fast, EPOCH_BLOCK + 1),
        *build_link_tables(cfg, rng_fast, 1),
    ]
    for tables in epochs:
        reference = _reference_tables(cfg, states, rng_ref, rician_k_db)
        for got, want in zip(_arrays(tables), reference):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
    # Both consumed the channel stream identically.
    assert rng_fast.random() == rng_ref.random()
    snr_db, _, rsrp = _arrays(tables)
    assert np.isneginf(snr_db[-1][1]) and rsrp[-1][1] == RSRP_FLOOR_DBM
    assert aligned_states(cfg) == (0, 1, 2)


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
        built.append(build_link_tables(*args))
        return built[-1]

    monkeypatch.setattr(engine, "build_link_tables", spy)
    trace, _ = engine.run(cfg)
    assert len(trace) == n_epochs * coherence - coherence // 2
    (array,) = built  # one call per run
    assert len(array) == len(trace.snr) == n_epochs
    # The trace's tables are views of the built array, not copies.
    assert trace.snr.base is array and trace.rsrp.base is array
    rng_ref = np.random.default_rng(np.random.SeedSequence(cfg.sim.seed).spawn(3)[0])
    states = _states(cfg)
    for tables, snr, rsrp in zip(array, trace.snr, trace.rsrp):
        assert snr.tobytes() == tables[:, 0].tobytes() and rsrp.tobytes() == tables[:, 2].tobytes()
        reference = _reference_tables(cfg, states, rng_ref, 6.0)
        for got, want in zip(_arrays(tables), reference):
            assert got.tobytes() == want.tobytes()
