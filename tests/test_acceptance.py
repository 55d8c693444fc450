"""Acceptance suite: one test per criterion, each printing a PASS line.

Expensive runs are shared through module-scoped fixtures.  Tolerances
are fixed here, not tuned at runtime.  Run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from reference_engine import conserves_bits, ewma_update, select_ue, slot_columns
from rissim import presets
from rissim.array_model import beam_metrics, quantize_one_bit, upa_profiles
from rissim.config import ExperimentConfig, SchedConfig
from rissim.cli import sweep_rows
from rissim.engine import run, write_trace_csv

WARMUP_S = 20.0


def _report(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


@pytest.fixture(scope="module")
def schedule_run():
    cfg = presets.schedule_config().with_overrides(
        {"sim.duration_s": "120", "sim.warmup_s": str(WARMUP_S)}
    )
    trace, summary = run(cfg)
    return cfg, trace, summary


@pytest.fixture(scope="module")
def sweep_results():
    # The CLI's table: the alpha rows, then both references.
    rows = sweep_rows(presets.sweep_config(), list(presets.SWEEP_ALPHAS))
    return [run(cfg)[1] for *_, cfg in rows]


def test_criterion_1_beam_geometry():
    """Steered one-bit patterns: peak error, boresight width, sidelobes."""
    g = presets.GEOMETRY
    worst_err, worst_sll = 0.0, -np.inf
    for target in range(0, 61, 5):
        w = upa_profiles([(float(target), 0.0)], g.n_h, g.n_v, g.spacing_ratio, g.dither)[0]
        m = beam_metrics(w, g.n_h, g.n_v, g.spacing_ratio, grid_step_deg=0.05)
        err = abs(m.peak_angle_deg - target)
        worst_err = max(worst_err, err)
        worst_sll = max(worst_sll, m.sll_db)
        assert err <= 0.5, f"peak error {err:.2f} deg at {target} deg"
        assert m.sll_db <= -9.0, f"sidelobe {m.sll_db:.2f} dB at {target} deg"
        if target == 0:
            assert 5.5 <= m.hpbw_deg <= 7.0
            hpbw0 = m.hpbw_deg
    _report(
        "criterion 1 (beam geometry)",
        f"worst peak err {worst_err:.2f} deg, worst SLL {worst_sll:.2f} dB, "
        f"boresight HPBW {hpbw0:.2f} deg",
    )


def test_criterion_2_one_bit_loss():
    """Quantization loss near (2/pi)^2 and exhaustive binary-code bounds."""
    rng = np.random.default_rng(2024)
    n = 1024
    ratios = []
    for _ in range(200):
        h = np.exp(2j * np.pi * rng.random(n))
        code = quantize_one_bit(np.exp(-1j * np.angle(h)))
        w = np.exp(1j * np.pi * code)
        ratios.append(abs(np.sum(w * h)) ** 2 / float(np.sum(np.abs(h))) ** 2)
    loss_db = 10.0 * np.log10(np.mean(ratios))
    assert -4.5 <= loss_db <= -3.5

    for size in range(1, 13):
        h = np.exp(2j * np.pi * rng.random(size)) * (0.5 + rng.random(size))
        bound = float(np.sum(np.abs(h)))
        code = quantize_one_bit(np.exp(-1j * np.angle(h)))
        achieved_re = np.sum(np.exp(1j * np.pi * code) * h).real
        best_abs, best_re = 0.0, -np.inf
        for signs in itertools.product((1.0, -1.0), repeat=size):
            val = np.sum(np.array(signs) * h)
            best_abs = max(best_abs, abs(val))
            best_re = max(best_re, val.real)
        assert best_abs <= bound + 1e-9
        assert achieved_re == pytest.approx(best_re, abs=1e-9)
    _report(
        "criterion 2 (one-bit loss)",
        f"mean loss {loss_db:.2f} dB in [-4.5, -3.5]; exhaustive bound and "
        f"real-part optimality hold up to N=12",
    )


def test_criterion_3_single_ue_table():
    """Calibrated RSRP levels and the 20-25% throughput gain band."""
    # Results in (UE, surface) order.
    n_ues = len(ExperimentConfig().ues)  # the lab's UEs
    cases = [(k, on) for k in range(n_ues) for on in (True, False)]
    summaries = [run(presets.single_ue_config(k, ris_on=on))[1] for k, on in cases]
    tput = {}
    for (k, on), s in zip(cases, summaries):
        tput[k, on] = s.throughput_mbps[0]
        rsrp = s.mean_rsrp_aligned_dbm[0] if on else s.mean_rsrp_misaligned_dbm[0]
        target = presets.RSRP_ALIGNED_DBM[k] if on else presets.RSRP_NO_SURFACE_DBM[k]
        assert rsrp == pytest.approx(target, abs=1.0)
    details = []
    for k in range(n_ues):
        gain_pct = (tput[k, True] / tput[k, False] - 1.0) * 100.0
        assert 15.0 <= gain_pct <= 30.0
        details.append(f"UE{k + 1} gain {gain_pct:.1f}%")
    _report("criterion 3 (single-UE table)", "; ".join(details))


def test_criterion_4_bler_regulation(schedule_run):
    """Long-run BLER band plus the per-transition excursion signs."""
    cfg, trace, summary = schedule_run
    # Two UEs, two states: the state promoting one UE demotes the other.
    assert len(cfg.ues) == 2
    for k, b in enumerate(summary.long_run_bler):
        assert 0.05 <= b <= 0.15, f"UE{k} long-run BLER {b:.3f}"

    warm = round(WARMUP_S * 1000 / 0.5)
    columns = slot_columns(trace)
    states = columns["row"]
    transitions = [t for t in range(max(1, warm), len(trace)) if states[t] != states[t - 1]]
    assert transitions, "no dwell transitions inside the measured span"
    win = 200
    for t0 in transitions:
        promoted = states[t0]
        demoted = 1 - promoted
        served = list(itertools.islice(zip(columns["ue"], columns["retx"]), t0, t0 + win))
        for ue, kind in ((demoted, "high-to-low"), (promoted, "low-to-high")):
            sched = sum(1 for u, _ in served if u == ue)
            retx = sum(1 for u, is_retx in served if u == ue and is_retx)
            assert sched > 0, f"{kind} UE{ue} unscheduled after transition at {t0}"
            measured = retx / sched
            if kind == "high-to-low":
                assert measured > 0.15, f"{kind} at {t0}: {measured:.3f}"
            else:
                assert measured < 0.05, f"{kind} at {t0}: {measured:.3f}"
    _report(
        "criterion 4 (BLER regulation)",
        f"long-run BLER {[f'{b:.3f}' for b in summary.long_run_bler]}; "
        f"{len(transitions)} transitions all show the correct excursion sign",
    )


def test_criterion_5_rsrp_alternation(schedule_run):
    """Two RSRP levels at least 7 dB apart, anti-phased between UEs."""
    cfg, trace, _ = schedule_run
    assert len(cfg.ues) == 2  # anti-phase is a two-UE property
    warm = round(WARMUP_S * 1000 / 0.5)
    (table,) = trace.rsrp  # one channel epoch: no scatter
    rsrp = np.array(table)[slot_columns(trace)["row"][warm:]]  # per measured slot, per UE
    levels = []
    for k in range(len(cfg.ues)):
        uniq = np.unique(rsrp[:, k].round(9))
        assert uniq.size == 2, f"UE{k} has {uniq.size} RSRP levels"
        assert uniq[1] - uniq[0] >= 7.0
        levels.append(uniq)
    r0, r1 = rsrp[:, 0], rsrp[:, 1]
    assert np.all((r0 == levels[0][1]) == (r1 == levels[1][0]))
    _report(
        "criterion 5 (RSRP alternation)",
        f"UE1 levels {levels[0].tolist()} dBm, UE2 levels {levels[1].tolist()} dBm, anti-phased",
    )


def test_criterion_6_throughput_vs_alpha(sweep_results):
    """Monotone gain with smaller EWMA weight, near-genie at the smallest."""
    *rows, genie, off = sweep_results
    by_alpha = {a: s.aggregate_mbps for a, s in zip(presets.SWEEP_ALPHAS, rows, strict=True)}
    a_hi, a_mid, a_lo = presets.SWEEP_ALPHAS
    assert by_alpha[a_lo] >= by_alpha[a_mid] >= by_alpha[a_hi]
    ratio = by_alpha[a_lo] / genie.aggregate_mbps
    assert ratio >= 0.95
    for agg in by_alpha.values():
        assert agg >= off.aggregate_mbps
    _report(
        "criterion 6 (throughput vs EWMA weight)",
        f"aggregates {by_alpha[a_hi]:.1f} <= {by_alpha[a_mid]:.1f} <= {by_alpha[a_lo]:.1f} Mbit/s; "
        f"smallest-alpha/genie = {ratio:.3f}; no-surface {off.aggregate_mbps:.1f}",
    )


def test_criterion_7_scheduling_fractions(schedule_run):
    """Aligned service near 40% of all slots and retx-only misalignment."""
    cfg, trace, summary = schedule_run
    warm = round(WARMUP_S * 1000 / 0.5)  # the summary's warm-up slot
    details = []
    for k, (frac_total, aligned, misaligned) in enumerate(zip(
        summary.served_frac_aligned_total,
        summary.served_frac_aligned_dl,
        summary.served_frac_misaligned_dl,
    )):
        assert 0.32 <= frac_total <= 0.48, f"UE{k} aligned fraction {frac_total:.3f}"
        own = aligned / (aligned + misaligned)
        assert own >= 0.75, f"UE{k} aligned share of own service {own:.3f}"
        details.append(f"UE{k + 1} {frac_total:.3f} total / {own:.3f} own")
    n_ues = len(cfg.ues)
    mis_non_retx = [0] * n_ues
    served = [0] * n_ues
    columns = slot_columns(trace)
    slots = zip(columns["row"], columns["ue"], columns["retx"])
    for row, ue, retx in itertools.islice(slots, warm, None):
        if ue is None:
            continue
        served[ue] += 1
        if row != ue and not retx:
            mis_non_retx[ue] += 1
    for k in range(n_ues):
        residual = mis_non_retx[k] / served[k]
        assert residual <= 0.05, f"UE{k} non-retx misaligned residual {residual:.3f}"
    _report("criterion 7 (scheduling fractions)", "; ".join(details))


def test_criterion_8_determinism_and_conservation(schedule_run, tmp_path):
    """Byte-identical traces, bit conservation, and the two property suites."""
    cfg, trace, summary = schedule_run
    assert conserves_bits(summary)

    small = replace(cfg, sim=replace(cfg.sim, duration_s=10.0, warmup_s=2.0))
    small = replace(small, ris=replace(small.ris, ts_slots=4000))
    for mode in ("periodic", "iid"):
        cfg_m = replace(small, ris=replace(small.ris, mode=mode))
        t1, s1 = run(cfg_m)
        t2, s2 = run(cfg_m)
        assert conserves_bits(s1)
        p1, p2 = tmp_path / f"{mode}_1.csv", tmp_path / f"{mode}_2.csv"
        write_trace_csv(t1, p1)
        write_trace_csv(t2, p2)
        assert p1.read_bytes() == p2.read_bytes(), f"{mode} trace not reproducible"

    # The property suites call the reference loop's PF and EWMA rules, which
    # tests/test_reference_engine.py checks against engine.run.
    rng = np.random.default_rng(99)
    floor = SchedConfig.floor
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        t_avgs = rng.uniform(1e-3, 1e3, n)
        rates = rng.uniform(0.0, 1e3, n)
        c = rng.uniform(1e-2, 1e2)
        base = select_ue(t_avgs.tolist(), rates.tolist(), floor)
        scaled_pick = select_ue((t_avgs * c).tolist(), (rates * c).tolist(), floor)
        assert base == scaled_pick

    for _ in range(1000):
        alpha = float(rng.uniform(0.01, 0.99))
        rate = float(rng.uniform(0.01, 10.0))
        t_avg = [floor]
        for _ in range(int(np.ceil(5.0 / alpha))):
            ewma_update(t_avg, 0, [rate], alpha, floor)
        assert abs(t_avg[0] - rate) <= 0.01 * rate

    _report(
        "criterion 8 (determinism and conservation)",
        "byte-identical traces (periodic and iid), bit conservation holds, "
        "1000-instance scale-invariance and EWMA fixed-point suites pass",
    )
