"""``engine.run`` against the literal reference loop, over generated configs.

The trace columns and the bit counters must be equal slot for slot.  On
the same configs the engine keeps bit conservation, MCS within
[``la.mcs_min``, 28], served shares summing to 1, and determinism.
"""

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

import reference_engine
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
)
from rissim.engine import run

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
    return ExperimentConfig(
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
    trace, summary = run(cfg)
    ref = reference_engine.run(cfg)
    for name in COLUMNS:
        assert getattr(trace, name) == getattr(ref, name), name
    for name in BITS:
        assert getattr(summary, name) == getattr(ref, name), name

    assert summary.conservation_holds()
    served_mcs = [m for m in trace.mcs if m is not None]
    assert all(cfg.la.mcs_min <= m <= 28 for m in served_mcs)
    warmup_slot = round(cfg.sim.warmup_s * 2000)
    if any(ue is not None for ue in trace.ue[warmup_slot:]):
        assert sum(summary.served_share) == pytest.approx(1.0)
    else:
        assert summary.served_share == (0.0,) * len(cfg.ues)

    trace2, summary2 = run(cfg)
    assert summary2 == summary
    assert all(getattr(trace2, name) == getattr(trace, name) for name in COLUMNS)
    assert trace2.rsrp == trace.rsrp and trace2.snr == trace.snr


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
    assert trace.ue[0] == 0
    assert trace.ue == reference_engine.run(cfg).ue


@pytest.mark.parametrize("mode", RIS_MODES)
def test_ewma_floor_holds_the_averages(mode):
    # Averages of UEs left unserved decay onto a floor near the served rates.
    ues = (
        UeConfig(nu_deg=30.0, noise_dbm=-50.0, noris_gain=0.5),
        UeConfig(nu_deg=-20.0, noise_dbm=-53.0, noris_gain=0.3),
        UeConfig(nu_deg=10.0, noise_dbm=-46.0, noris_gain=0.2),
    )
    cfg = _three_ue_pf(mode, ues, 0.5)
    assert run(cfg)[0].ue == reference_engine.run(cfg).ue
