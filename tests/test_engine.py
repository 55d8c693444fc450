"""Slot loop: TDD structure, transport blocks, accounting, traces."""

import functools
import math
import operator
import os
import re
import subprocess
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import reference_engine
from reference_engine import conserves_bits, same_summary, trace_fields
from rissim import engine, presets
from rissim.cli import main, sweep_rows
from rissim.config import (
    MAX_UES,
    ChannelConfig,
    ConfigError,
    ExperimentConfig,
    GeometryConfig,
    RisConfig,
    SchedConfig,
    SimConfig,
    UeConfig,
    aligned_states,
)
from rissim.engine import (
    MAX_ATTEMPTS,
    TDD_DL_SYMBOLS,
    run,
    write_trace_csv,
)


def timed(cfg, duration_s, warmup_s, seed=1):
    """``cfg`` run for ``duration_s`` seconds with seed ``seed``, the first
    ``warmup_s`` of them left out of the summary."""
    return cfg.with_overrides(
        {"sim.duration_s": str(duration_s), "sim.warmup_s": str(warmup_s), "sim.seed": str(seed)}
    )


def short_schedule(duration_s=12.0, warmup_s=2.0, seed=1):
    cfg = timed(presets.schedule_config(), duration_s, warmup_s, seed)
    # Compress the dwell so short runs still see several switches.
    return replace(cfg, ris=replace(cfg.ris, ts_slots=4000))


def served_fractions(trace, aligned_state, start):
    """The summary's four ``served_frac_*`` fields, counted slot by slot: a
    served slot is aligned when the surface is in the served UE's own beam
    state, which a slot without the surface (state -1) never is."""
    counts = {True: [0] * len(aligned_state), False: [0] * len(aligned_state)}
    columns = reference_engine.slot_columns(trace)
    for row, ue in zip(columns["row"][start:], columns["ue"][start:]):
        if ue is not None:
            counts[0 <= row == aligned_state[ue]][ue] += 1
    dl = sum(counts[True]) + sum(counts[False])
    measured = len(trace) - start
    return tuple(
        tuple(c / d for c in counts[hit]) for d in (dl, measured) for hit in (True, False)
    )


def rsrp_of(trace, k):
    """UE ``k``'s RSRP at every slot of a run with one channel epoch."""
    (table,) = trace.rsrp
    return np.array([table[row][k] for row in reference_engine.slot_columns(trace)["row"]])


def summary_fractions(summary):
    return (
        summary.served_frac_aligned_dl,
        summary.served_frac_misaligned_dl,
        summary.served_frac_aligned_total,
        summary.served_frac_misaligned_total,
    )


class TestTddStructure:
    """One TDD period as the slot loop reads it: slot ``t`` has phase ``t % 10``."""

    def test_period_composition(self):
        assert TDD_DL_SYMBOLS == (13, 13, 13, 13, 13, 13, 6, 0, 0, 0)


def _many_ues(n_ues):
    """``n_ues`` identical UEs served round robin without the surface, 400 slots."""
    return ExperimentConfig(
        geom=GeometryConfig(n_h=1, n_v=1),
        ues=(UeConfig(nu_deg=0.0, noise_dbm=-50.0, noris_gain=0.5),) * n_ues,
        ris=RisConfig(mode="off"),
        sched=SchedConfig(kind="rr"),
        sim=SimConfig(duration_s=0.2, warmup_s=0.0),
    )


class TestTraceLayout:
    """The trace keeps about four bytes per slot: one per typed column."""

    def test_simulate_memory_per_slot(self):
        # 40,000 slots of the genie preset read about 9 bytes a slot.  Six
        # 8-byte list cells per slot read 53, and one list column reads 16.
        cfg = presets.schedule_config("genie").with_overrides(
            {"sim.duration_s": "20", "sim.warmup_s": "1"}
        )
        tracemalloc.start()
        try:
            trace, _ = engine.simulate(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace) == 40_000
        assert peak / len(trace) < 12.0

    def test_trace_retains_its_table_array_and_columns(self):
        # One channel epoch per slot: the trace keeps 3 rows x (SNR, SE, RSRP) x 2 UEs
        # of float64, 144 bytes a slot, next to its 4 column bytes.  Tables of nested
        # float tuples kept 587 bytes a slot here.
        cfg = presets.schedule_config().with_overrides({
            "chan.rician_k_db": "6", "chan.coherence_slots": "1",
            "sim.duration_s": "2", "sim.warmup_s": "1",
        })
        run(cfg)  # fills the module caches before the count
        tracemalloc.start()
        try:
            trace, _ = run(cfg)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained / len(trace) < 200
        assert trace.rsrp.base.nbytes == 144 * len(trace) == 144 * 4000
        assert 0 <= retained - trace.rsrp.base.nbytes - 4 * len(trace) < 16 * 1024

    def test_last_ue_index_fits_its_byte(self):
        # Round robin reaches UE 254 in the 255th downlink slot.
        cfg = _many_ues(MAX_UES)
        trace, summary = run(cfg)
        ues = reference_engine.slot_columns(trace)["ue"]
        assert max(u for u in ues if u is not None) == MAX_UES - 1
        assert ues == reference_engine.run(cfg).ue
        assert summary.served_share[-1] > 0.0

    def test_one_ue_past_the_limit_exits_2(self, tmp_path, capsys):
        message = f"ue.angles: must be 1 to {MAX_UES} UEs, got {MAX_UES + 1}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run(_many_ues(MAX_UES + 1))
        config = tmp_path / "many.txt"
        config.write_text(f"ue.angles = {','.join(['0:0'] * (MAX_UES + 1))}\nris.mode = off\n")
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out-dir", str(out), "schedule"]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestRunBasics:
    def test_zero_duration_gives_empty_trace(self):
        cfg = timed(presets.schedule_config(), 0.0, 0.0)
        trace, summary = run(cfg)
        assert len(trace) == 0
        assert summary.aggregate_mbps == 0.0
        assert summary.new_tx_bits == 0

    def test_empty_trace_csv_header_names_every_ue(self, tmp_path):
        trace, _ = run(timed(presets.schedule_config(), 0.0, 0.0))
        path = tmp_path / "empty.csv"
        write_trace_csv(trace, path)
        assert path.read_text() == (
            "slot,time_ms,ris_state,ue,rsrp0_dbm,rsrp1_dbm,snr_db,mcs,tb_bits,outcome,is_retx\n"
        )

    def test_throughput_divides_by_the_simulated_span(self):
        # 1.3 ms is not a whole number of slots: the run simulates 3 slots, 1.5 ms.
        trace, summary = run(timed(presets.schedule_config(), 0.0013, 0.0))
        assert len(trace) == summary.n_slots == 3
        assert summary.measured_s == summary.duration_s == 0.0015
        assert summary.acked_bits > 0
        assert summary.aggregate_mbps == pytest.approx(summary.acked_bits / 0.0015 / 1e6)

    def test_aggregate_adds_throughputs_left_to_right(self):
        # With 6 to 8 UEs the order of the additions shows in the last bits:
        # sum() is compensated from Python 3.12 on, so the aggregate's bits
        # would depend on the Python version.
        aggregates = []
        for n_ues in (6, 7, 8):
            cfg = short_schedule(duration_s=2.0, warmup_s=0.5).with_overrides({
                "ris.ts_slots": "400",
                "ue.angles": ",".join(f"{-60 + 120 * k / (n_ues - 1):g}:0" for k in range(n_ues)),
                "ue.pathloss_db": ",".join(f"{60 + 0.7 * k:g}" for k in range(n_ues)),
                "ue.noise_dbm": ",".join(f"{-60 + 0.3 * k:g}" for k in range(n_ues)),
                "ue.direct_leak": ",".join(["0j"] * n_ues),
                "ue.noris_gain": ",".join(f"{0.1 + 0.01 * k:g}" for k in range(n_ues)),
            })
            summary = run(cfg)[1]
            tput = summary.throughput_mbps
            assert summary.aggregate_mbps == functools.reduce(operator.add, tput)
            aggregates.append(summary.aggregate_mbps != math.fsum(tput))
        # At least one left-to-right sum differs from the correctly rounded one.
        assert any(aggregates)

    def test_bit_conservation(self):
        trace, summary = run(short_schedule())
        assert conserves_bits(summary)
        # Retransmission slots never add new-transmission bits.
        columns = reference_engine.slot_columns(trace)
        new_bits_from_trace = sum(
            tb for ue, tb, retx in zip(columns["ue"], columns["tb_bits"], columns["retx"])
            if ue is not None and not retx
        )
        assert new_bits_from_trace == summary.new_tx_bits
        assert summary.aggregate_mbps == pytest.approx(sum(summary.throughput_mbps))
        served = sum(summary.served_frac_aligned_dl) + sum(summary.served_frac_misaligned_dl)
        assert served <= 1.0 + 1e-12

    def test_throughput_counts_acked_bits_once(self):
        trace, summary = run(short_schedule())
        assert summary.acked_bits <= summary.new_tx_bits
        columns = reference_engine.slot_columns(trace)
        acked_rows = sum(
            tb for ue, tb, nack in zip(columns["ue"], columns["tb_bits"], columns["nack"])
            if ue is not None and not nack
        )
        # A block acked on a retransmission is credited once even though
        # several rows carry its bits.
        assert summary.acked_bits <= acked_rows

    def test_run_is_its_four_phases_once_each(self, monkeypatch):
        # The phases are module-level functions that a benchmark can wrap by name.
        cfg = short_schedule(duration_s=2.0, warmup_s=0.5)
        unwrapped = run(cfg)
        calls = dict.fromkeys(["validate", "build_link_tables", "simulate", "summarize"], 0)
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(engine, name)):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(engine, name, counted)
        trace, summary = run(cfg)
        assert trace_fields(trace) == trace_fields(unwrapped[0]) and same_summary(summary, unwrapped[1])
        assert calls == dict.fromkeys(calls, 1)

    def test_idle_rows_only_on_uplink_slots(self):
        trace, _ = run(short_schedule(duration_s=5.0, warmup_s=1.0))
        columns = reference_engine.slot_columns(trace)
        for t, (ue, mcs, tb, nack, retx) in enumerate(
            zip(columns["ue"], columns["mcs"], columns["tb_bits"], columns["nack"], columns["retx"])
        ):
            if TDD_DL_SYMBOLS[t % len(TDD_DL_SYMBOLS)] == 0:
                assert (ue, mcs, tb, nack, retx) == (None, None, 0, False, False)
            else:
                assert ue is not None and mcs is not None and tb > 0


class TestDeterminism:
    def test_identical_runs_identical_traces(self, tmp_path):
        cfg = short_schedule(duration_s=6.0, warmup_s=1.0)
        t1, s1 = run(cfg)
        t2, s2 = run(cfg)
        assert trace_fields(t1) == trace_fields(t2)
        assert same_summary(s1, s2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(t1, p1)
        write_trace_csv(t2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_summaries_with_nan_rsrp_compare_equal(self):
        # Mode "off" has no aligned slot, so every aligned mean RSRP is NaN.
        cfg = timed(presets.schedule_config("off"), 0.5, 0.0)
        _, s1 = run(cfg)
        _, s2 = run(cfg)
        assert all(math.isnan(v) for v in s1.mean_rsrp_aligned_dbm)
        assert same_summary(s1, s2)
        assert not same_summary(s1, replace(s1, acked_bits=s1.acked_bits + 1))
        assert not same_summary(s1, replace(s1, mean_rsrp_aligned_dbm=(0.0,) * len(cfg.ues)))
        assert not same_summary(s1, replace(s1, served_share=s1.served_share[:1]))

    def test_seed_changes_outcomes(self):
        t1, _ = run(short_schedule(duration_s=6.0, warmup_s=1.0, seed=1))
        t2, _ = run(short_schedule(duration_s=6.0, warmup_s=1.0, seed=2))
        assert reference_engine.slot_columns(t1)["nack"] != reference_engine.slot_columns(t2)["nack"]

    def test_scatter_runs_are_reproducible(self):
        cfg = short_schedule(duration_s=6.0, warmup_s=1.0)
        cfg = replace(cfg, chan=ChannelConfig(rician_k_db=15.0, coherence_slots=500))
        t1, s1 = run(cfg)
        t2, s2 = run(cfg)
        assert trace_fields(t1) == trace_fields(t2) and same_summary(s1, s2)
        assert conserves_bits(s1)

    def test_block_outcome_stream_insulated_from_scatter(self):
        # A vanishing scatter term consumes the channel stream without
        # touching the block-outcome stream, so HARQ realizations match
        # the pure line-of-sight run slot for slot.
        base = short_schedule(duration_s=6.0, warmup_s=1.0)
        faint = replace(base, chan=ChannelConfig(rician_k_db=200.0, coherence_slots=500))
        t1, _ = run(base)
        t2, _ = run(faint)
        c1, c2 = reference_engine.slot_columns(t1), reference_engine.slot_columns(t2)
        assert c1["nack"] == c2["nack"]
        assert c1["ue"] == c2["ue"]


class TestRsrpAlternation:
    def test_two_levels_constant_within_dwell(self):
        cfg = short_schedule(duration_s=16.0, warmup_s=2.0)
        trace, _ = run(cfg)
        ts = 4000
        for k in range(2):
            vals = rsrp_of(trace, k)
            assert len(np.unique(vals.round(9))) == 2
            offset = cfg.ris.offset_slots
            for start in range(0, len(vals) - ts, ts):
                seg = vals[start + (ts - offset) : start + 2 * ts - offset]
                if seg.size:
                    assert len(np.unique(seg.round(9))) == 1

    def test_levels_anti_phased_between_ues(self):
        trace, _ = run(short_schedule(duration_s=16.0, warmup_s=2.0))
        r0, r1 = rsrp_of(trace, 0), rsrp_of(trace, 1)
        hi0, hi1 = r0.max(), r1.max()
        assert np.all((r0 == hi0) == (r1 != hi1))


class TestHistogram:
    """The served-slot histogram is the summary's four ``served_frac_*`` fields."""

    def test_genie_has_no_misaligned_service(self):
        _, summary = run(timed(presets.schedule_config("genie"), 8.0, 1.0))
        assert summary.served_frac_misaligned_dl == (0.0, 0.0)
        assert all(f > 0.0 for f in summary.served_frac_aligned_dl)

    def test_round_robin_aligned_quarter_on_dl_basis(self):
        # Independence of the round-robin phase and the surface phase
        # puts each UE's aligned service at ~25% of DL-schedulable slots.
        # Retransmission priority couples the two (failed blocks cluster
        # in the misaligned state and preempt the rotation), so the
        # independence claim is checked at an operating point where both
        # states decode cleanly and retransmissions vanish.
        cfg = timed(presets.schedule_config(), 60.0, 2.0)
        quiet = tuple(replace(u, noise_dbm=u.noise_dbm - 20.0) for u in cfg.ues)
        cfg = replace(
            cfg,
            ues=quiet,
            sched=replace(cfg.sched, kind="rr"),
            ris=replace(cfg.ris, ts_slots=3000),
        )
        _, summary = run(cfg)
        assert sum(summary.long_run_bler) < 0.01
        for frac in summary.served_frac_aligned_dl:
            assert frac == pytest.approx(0.25, abs=0.03)


class TestGenieAggregates:
    def test_genie_rr_matches_mean_of_single_ue_runs(self):
        singles = []
        for k in range(2):
            _, s = run(timed(presets.single_ue_config(k, ris_on=True), 30.0, 5.0))
            singles.append(s.throughput_mbps[0])
        single = presets._calibrate(presets.SNR_ALIGNED_SINGLE_DB)
        cfg = timed(presets.schedule_config("genie"), 30.0, 5.0)
        cfg = replace(cfg, ues=single.ues, rsrp_offset_db=single.rsrp_offset_db)
        _, sg = run(cfg)
        assert sg.aggregate_mbps == pytest.approx(np.mean(singles), rel=0.02)


class TestRetransmissions:
    """The engine's own HARQ rule: a NACKed block that is not discarded is
    retransmitted in the next downlink slot, before any new block."""

    @pytest.mark.parametrize("kind", ["pf", "rr"])
    def test_nack_retransmits_same_block_next_downlink_slot(self, kind):
        # A high BLER band keeps the MCS aggressive: many NACKs and discards.
        cfg = timed(presets.schedule_config(), 4.0, 1.0).with_overrides(
            {"la.bler_low": "0.6", "la.bler_high": "0.9", "sched.kind": kind}
        )
        trace, summary = run(cfg)
        pending = None  # (ue, mcs, tb_bits) of the block awaiting retransmission
        attempts = retx_slots = discards = discarded_bits = 0
        columns = reference_engine.slot_columns(trace)
        slots = zip(columns["ue"], columns["mcs"], columns["tb_bits"], columns["nack"], columns["retx"])
        for t, (ue, mcs, tb, nack, retx) in enumerate(slots):
            if ue is None:
                continue
            block = (ue, mcs, tb)
            if pending is None:
                assert not retx, f"slot {t}: retransmission without a pending block"
                attempts = 1
            else:
                assert retx and block == pending, f"slot {t}: pending block not resent"
                attempts += 1
                retx_slots += 1
            pending = None
            if nack:
                if attempts < MAX_ATTEMPTS:
                    pending = block
                else:  # discarded: the next downlink slot starts a new block
                    discards += 1
                    discarded_bits += block[2]
        assert retx_slots > 0 and discards > 0
        assert discarded_bits == summary.discarded_bits
        assert summary.inflight_bits == (pending[2] if pending else 0)


class TestAlignmentRule:
    """The summary's served fractions, which the CLI writes as the histogram,
    follow one rule: a served slot is aligned when its table row is the
    served UE's own beam state, and the no-surface row never is."""

    def test_no_surface_slot_is_never_aligned(self):
        # Neither state points at a UE, so both UEs have no beam state.
        cfg = timed(presets.schedule_config("off"), 2.0, 0.5)
        cfg = cfg.with_overrides({"ris.angles": "10:0,60:0"})
        trace, summary = run(cfg)
        assert summary.served_frac_aligned_dl == (0.0, 0.0)
        assert summary.served_frac_aligned_total == (0.0, 0.0)
        assert sum(summary.served_frac_misaligned_dl) == pytest.approx(1.0)
        assert all(np.isnan(summary.mean_rsrp_aligned_dbm))
        assert aligned_states(cfg) == (-1, -1)
        assert served_fractions(trace, (-1, -1), 1000) == summary_fractions(summary)

    def test_summary_matches_histogram_under_swapped_states(self):
        # State 0 points at UE 1 and state 1 at UE 0: the summary follows the
        # run's own mapping, not state k for UE k.
        cfg = short_schedule(duration_s=4.0, warmup_s=1.0)
        cfg = cfg.with_overrides({"ris.angles": "45:0,30:0"})
        trace, summary = run(cfg)
        assert aligned_states(cfg) == (1, 0)
        assert served_fractions(trace, (1, 0), 2000) == summary_fractions(summary)
        assert served_fractions(trace, (0, 1), 2000) != summary_fractions(summary)
        assert summary.served_frac_aligned_dl[0] > summary.served_frac_misaligned_dl[0]


class TestSweep:
    def test_single_alpha_row_matches_run(self):
        cfg = short_schedule(duration_s=4.0, warmup_s=1.0)
        (*_, alpha_cfg), _, _ = sweep_rows(cfg, [cfg.sched.alpha])
        seed = int(np.random.SeedSequence((cfg.sim.seed, 0)).generate_state(1)[0])
        assert alpha_cfg == replace(cfg, sim=replace(cfg.sim, seed=seed))
        assert run(alpha_cfg)[1].aggregate_mbps > 0.0

    def test_table_is_alpha_runs_then_references(self):
        cfg = short_schedule(duration_s=4.0, warmup_s=1.0)
        alphas = [0.01, cfg.sched.alpha]
        table = sweep_rows(cfg, alphas)
        assert [(mode, label) for mode, label, _, _ in table] == [
            ("random", "alpha=0.01"), ("random", f"alpha={cfg.sched.alpha:g}"),
            ("genie", "genie"), ("no_ris", "no-ris"),
        ]
        assert [alpha for _, _, alpha, _ in table[:2]] == alphas
        assert all(math.isnan(alpha) for _, _, alpha, _ in table[2:])
        *rows, genie, off = [run(run_cfg)[1] for *_, run_cfg in table]
        assert all(s.aggregate_mbps > 0.0 for s in rows)
        genie_alone = run(cfg.with_overrides({"ris.mode": "genie", "sched.kind": "rr"}))[1]
        assert same_summary(genie, genie_alone)
        assert same_summary(off, run(cfg.with_overrides({"ris.mode": "off"}))[1])

    def test_references_keep_master_seed_and_drop_iid_keys(self):
        cfg = short_schedule().with_overrides(
            {"ris.mode": "iid", "ris.probs": "0.9,0.1", "ris.seed": "5"}
        )
        *alpha_rows, (_, _, _, genie), (_, _, _, off) = sweep_rows(cfg, [0.01, 0.02])
        assert [c.sim.seed for *_, c in alpha_rows] == [
            int(np.random.SeedSequence((cfg.sim.seed, i)).generate_state(1)[0]) for i in (0, 1)
        ]
        assert all(c.ris == cfg.ris for *_, c in alpha_rows)
        assert genie.sim == off.sim == cfg.sim
        assert genie.sched == replace(cfg.sched, kind="rr") and off.sched == cfg.sched
        assert (genie.ris.mode, off.ris.mode) == ("genie", "off")
        assert all(c.ris.seed is None and c.ris.probs is None for c in (genie, off))

    def test_empty_alphas_exit_2(self, tmp_path, capsys):
        # --alphas takes one or more values, so argparse rejects an empty list.
        with pytest.raises(SystemExit) as exc:
            main(["--out-dir", str(tmp_path), "sweep-alpha", "--alphas"])
        assert exc.value.code == 2
        assert "--alphas" in capsys.readouterr().err
        assert not (tmp_path / "sweep_alpha.csv").exists()

    def test_custom_state_angles_override_ue_angles(self):
        # A state set pointing away from both UEs leaves every served
        # slot misaligned.
        cfg = short_schedule(duration_s=4.0, warmup_s=1.0)
        cfg = replace(cfg, ris=replace(cfg.ris, angles=((10.0, 0.0), (60.0, 0.0))))
        trace, summary = run(cfg)
        assert aligned_states(cfg) == (-1, -1)
        assert summary.served_frac_aligned_dl == (0.0, 0.0)

    def test_ts_scaling_compresses_dwells(self):
        # Doubling the compression factor halves the dwell in slots: the
        # state sequence switches twice as often.
        base = short_schedule(duration_s=10.0, warmup_s=1.0)
        fast = replace(base, sim=replace(base.sim, ts_scaling=2.0))
        t1, _ = run(base)
        t2, _ = run(fast)
        rows1, rows2 = (reference_engine.slot_columns(t)["row"] for t in (t1, t2))
        switches1 = sum(a != b for a, b in zip(rows1, rows1[1:]))
        switches2 = sum(a != b for a, b in zip(rows2, rows2[1:]))
        assert switches2 == pytest.approx(2 * switches1, abs=1)

    def test_summaries_equal_per_config_runs_in_input_order(self, tmp_path, monkeypatch):
        forbid_child_processes(monkeypatch)
        overrides = {"sim.duration_s": "2", "sim.warmup_s": "0.5", "ris.ts_slots": "400"}
        args = [f"--set={key}={value}" for key, value in overrides.items()]
        rows = sweep_rows(presets.sweep_config().with_overrides(overrides), [0.01, 0.002])
        runs = recording_runs(monkeypatch)
        assert main(["--out-dir", str(tmp_path), *args, "sweep-alpha", "--alphas", "0.01", "0.002"]) == 0
        cfgs = [cfg for *_, cfg in rows]
        assert [cfg for cfg, _ in runs] == cfgs
        # as_kv_text, not ==: mode off has a NaN mean RSRP, and NaN != NaN.
        serial = [run(cfg)[1].as_kv_text() for cfg in cfgs]
        assert [s.as_kv_text() for _, s in runs] == serial
        assert len(set(serial)) == len(rows)
        lines = (tmp_path / "sweep_alpha.csv").read_text().splitlines()[1:]
        assert [line.split(",")[3] for line in lines] == [f"{s.aggregate_mbps:.6f}" for _, s in runs]


def forbid_child_processes(monkeypatch):
    """Make every way of starting a child process raise AssertionError."""

    def no_child(*args, **kwargs):
        raise AssertionError("a child process was started")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_child)
    monkeypatch.setattr("multiprocessing.get_context", no_child)
    monkeypatch.setattr("multiprocessing.process.BaseProcess.start", no_child)
    monkeypatch.setattr(subprocess, "Popen", no_child)
    monkeypatch.setattr(os, "fork", no_child)


def recording_runs(monkeypatch):
    """``engine.run`` wrapped to record each config with its summary."""
    runs = []

    def recorded(cfg):
        trace, summary = run(cfg)
        runs.append((cfg, summary))
        return trace, summary

    monkeypatch.setattr(engine, "run", recorded)
    return runs


class TestRunSummaries:
    """Each config's summary is ``run(cfg)[1]``, computed in this process."""

    # as_kv_text, not ==: mode off has a NaN mean RSRP, and NaN != NaN.
    SHORT = ["--duration-s", "1", "--set", "sim.warmup_s=0.5"]

    def test_single_config_runs_in_process(self, tmp_path, monkeypatch):
        forbid_child_processes(monkeypatch)
        runs = recording_runs(monkeypatch)
        assert main(["--out-dir", str(tmp_path), *self.SHORT, "schedule"]) == 0
        ((cfg, summary),) = runs
        assert summary.as_kv_text() == run(cfg)[1].as_kv_text()
        assert (tmp_path / "schedule_periodic_summary.txt").read_text() == summary.as_kv_text()

    def test_sweep_error_exits_2_naming_the_key(self, tmp_path, monkeypatch, capsys):
        # The genie reference is invalid; main reports its ConfigError before any row runs.
        runs = recording_runs(monkeypatch)
        argv = ["--out-dir", str(tmp_path), *self.SHORT, "--set", "ris.angles=10:0,60:0"]
        assert main([*argv, "sweep-alpha", "--alphas", "0.01"]) == 2
        assert runs == []
        err = capsys.readouterr().err
        assert err == "config error: ris.mode: genie requires a state aligned to every UE (ris.angles)\n"
        assert not (tmp_path / "sweep_alpha.csv").exists()
