"""Relations between two engine runs, over generated configs.

The reference loop restates the engine's per-slot rules, so the two agree
on any rule that both misread, and on whatever both call (the link tables
of ``engine.build_link_tables``, ``config.scaled``).  A relation between
two runs follows from the set-up itself:

- R1: without the surface (``ris.mode=off``) no beam state is read, so
  ``ris.angles`` changes nothing;
- R2: two periodic states in reverse order, with ``ris.offset_slots``
  advanced by one dwell, put the same beam on the surface in every slot,
  so only the state's index swaps, in the row column and the link tables;
- R3: no slot depends on how long the run goes on after it, so a shorter
  run's slot columns and link tables are a prefix of a longer run's;
- R4: ``sim.ts_scaling=2`` compresses time by an exact power of two, so it
  equals the unscaled run with an even ``ris.ts_slots``, ``la.window_ms``
  and ``la.cqi_period_ms`` halved and ``sched.alpha`` doubled.
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

import reference_engine
from reference_engine import small_configs
from rissim.config import GENIE_TOL_DEG, RIS_MODES, SCHED_KINDS, scaled, to_slots
from rissim.engine import run

COLUMNS = ("row", "ue", "mcs", "tb_bits", "nack", "retx")


def relation_settings(max_examples):
    return settings(
        max_examples=max_examples,
        derandomize=True,
        deadline=None,
        phases=[Phase.explicit, Phase.generate],  # no shrinking: a failure reports at once
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )


def _with_ris(cfg, **changes):
    return replace(cfg, ris=replace(cfg.ris, **changes))


def _angles():
    return st.tuples(st.floats(-60.0, 60.0), st.sampled_from([0.0, 10.0]))


def _tables(trace):
    """The run's link tables as (SNR, RSRP) lists per epoch, row and UE."""
    return trace.snr.tolist(), trace.rsrp.tolist()


@pytest.mark.parametrize("kind", SCHED_KINDS)
@given(data=st.data())
@relation_settings(8)
def test_r1_no_surface_ignores_the_states(kind, data):
    cfg = data.draw(small_configs("off", kind))
    angles = data.draw(st.none() | st.lists(_angles(), min_size=1, max_size=4).map(tuple))
    trace, summary = run(cfg)
    other, other_summary = run(_with_ris(cfg, angles=angles))
    assert reference_engine.slot_columns(other) == reference_engine.slot_columns(trace)
    assert reference_engine.same_summary(other_summary, summary)
    # Only the no-surface row is read; the state rows are the states'.
    assert other.snr[:, -1].tolist() == trace.snr[:, -1].tolist()
    assert other.rsrp[:, -1].tolist() == trace.rsrp[:, -1].tolist()


def _apart(states):
    """No UE can be within ``GENIE_TOL_DEG`` of both states, so each UE's own
    state, if any, is the same beam under either order."""
    (nu_a, psi_a), (nu_b, psi_b) = states
    return max(abs(nu_a - nu_b), abs(psi_a - psi_b)) > 2 * GENIE_TOL_DEG


@pytest.mark.parametrize("kind", SCHED_KINDS)
@given(data=st.data())
@relation_settings(8)
def test_r2_reversed_periodic_states_one_dwell_later(kind, data):
    cfg = data.draw(small_configs("periodic", kind))
    # Each state is a UE's own beam or a beam at no UE.
    state = st.sampled_from([(ue.nu_deg, ue.psi_deg) for ue in cfg.ues]) | _angles()
    states = data.draw(st.tuples(state, state).filter(_apart))
    dwell = scaled(cfg)[1]
    trace, summary = run(_with_ris(cfg, angles=states))
    other, other_summary = run(
        _with_ris(cfg, angles=states[::-1], offset_slots=cfg.ris.offset_slots + dwell)
    )
    columns, other_columns = (reference_engine.slot_columns(t) for t in (trace, other))
    assert other_columns["row"] == [1 - row for row in columns["row"]]
    for name in COLUMNS[1:]:
        assert other_columns[name] == columns[name], name
    assert reference_engine.same_summary(other_summary, summary)
    swapped = [1, 0, 2]  # the state rows swap; the no-surface row stays last
    assert (other.snr[:, swapped].tolist(), other.rsrp[:, swapped].tolist()) == _tables(trace)


@pytest.mark.parametrize("kind", SCHED_KINDS)
@pytest.mark.parametrize("mode", RIS_MODES)
@given(data=st.data())
@relation_settings(4)
def test_r3_shorter_run_is_a_prefix(mode, kind, data):
    cfg = data.draw(small_configs(mode, kind))
    n_slots = data.draw(st.integers(0, to_slots(cfg.sim.duration_s)))
    # The warm-up shapes only the summary, which is no prefix.
    short_cfg = replace(cfg, sim=replace(cfg.sim, duration_s=n_slots / 2000, warmup_s=0.0))
    trace, _ = run(cfg)
    short, _ = run(short_cfg)
    columns, short_columns = (reference_engine.slot_columns(t) for t in (trace, short))
    for name in COLUMNS:
        assert short_columns[name] == columns[name][:n_slots], name
    n_epochs = len(short.snr)
    assert _tables(short) == (trace.snr[:n_epochs].tolist(), trace.rsrp[:n_epochs].tolist())


@pytest.mark.parametrize("kind", SCHED_KINDS)
@pytest.mark.parametrize("mode", RIS_MODES)
@given(data=st.data())
@relation_settings(3)
def test_r4_time_scaling_by_two_is_halved_timing(mode, kind, data):
    cfg = data.draw(small_configs(mode, kind))
    # The scaled run's dwell is even; the other run takes it, and every other time, halved.
    doubled = replace(
        _with_ris(cfg, ts_slots=2 * cfg.ris.ts_slots), sim=replace(cfg.sim, ts_scaling=2.0)
    )
    halved = replace(
        cfg,
        la=replace(cfg.la, window_ms=cfg.la.window_ms / 2, cqi_period_ms=cfg.la.cqi_period_ms / 2),
        sched=replace(cfg.sched, alpha=2 * cfg.sched.alpha),
        sim=replace(cfg.sim, ts_scaling=1.0),
    )
    trace, summary = run(doubled)
    other, other_summary = run(halved)
    assert reference_engine.slot_columns(other) == reference_engine.slot_columns(trace)
    assert reference_engine.same_summary(other_summary, summary)
    assert _tables(other) == _tables(trace)
