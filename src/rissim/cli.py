"""Command-line front end.

Subcommands map to the standard experiments: ``beam-pattern`` dumps
far-field cuts of the coded surface, ``single-ue`` runs one connected
UE with the surface beamformed at it or absent, ``schedule`` runs the
two-UE alternating-surface scenario, and ``sweep-alpha`` produces the
throughput-vs-EWMA-weight table with genie and no-surface reference
rows.  Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import presets  # presets load array_model, not the engine
from .array_model import DegeneratePatternError, beam_metrics, pattern_gains, upa_profiles
from .cells import fixed4_cells, table_text, text_lines
from .config import (
    MEMORY_BUDGET, PHASOR_BUILD_BYTES, RIS_MODES, ConfigError, ExperimentConfig, SchedConfig,
    parse_text, serialize, validate,
)
from .streams import seed_words

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# beam-pattern evaluates its targets this many at a time: one phasor build
# and one formatting of the gain cells per block, and its arrays stay small.
BEAM_BLOCK = 8
MIN_STEP_DEG = 0.001  # beam-pattern's finest angle step: 90,001 angles from 0 to 90 deg


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rissim", description=__doc__)
    p.add_argument("--config", type=Path, help="flat key=value config file")
    p.add_argument("--seed", type=int, help="master seed override")
    p.add_argument("--duration-s", type=float, help="run duration override")
    p.add_argument("--out-dir", type=Path, default=Path("."), help="output directory")
    p.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="config override, repeatable",
    )
    sub = p.add_subparsers(dest="command", required=True)

    bp = sub.add_parser("beam-pattern", help="far-field pattern of steered one-bit profiles")
    bp.add_argument("--steer-deg", type=float, nargs="+", default=[30.0])
    bp.add_argument("--grid-step-deg", type=float, default=0.05)
    bp.add_argument("--csv-step-deg", type=float, default=0.1)

    su = sub.add_parser("single-ue", help="one connected UE, surface on or off")
    su.add_argument("--ue", type=int, choices=(1, 2), help="preset UE; required without --config")
    su.add_argument("--ris", choices=("on", "off"), help="ris.mode genie or off (preset: on)")

    sc = sub.add_parser("schedule", help="two-UE alternating-surface run")
    sc.add_argument("--alpha", type=float, help=f"sched.alpha (preset: {SchedConfig.alpha!r})")
    sc.add_argument("--mode", choices=RIS_MODES, help="ris.mode (preset: periodic)")

    sw = sub.add_parser("sweep-alpha", help="throughput vs EWMA weight table")
    sw.add_argument("--alphas", type=float, nargs="+", default=list(presets.SWEEP_ALPHAS))
    return p


# Flags that stand for a flat key: argparse dest -> (key, value text).
_FLAG_KEYS = {
    "alpha": ("sched.alpha", repr),
    "mode": ("ris.mode", str),
    "ris": ("ris.mode", {"on": "genie", "off": "off"}.get),
    "seed": ("sim.seed", str),
    "duration_s": ("sim.duration_s", repr),
}


def _overrides(args) -> dict[str, str]:
    """``--set``, then the flags of ``_FLAG_KEYS`` given, as flat-key overrides."""
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    for dest, (key, text) in _FLAG_KEYS.items():
        value = getattr(args, dest, None)  # a subcommand's flags exist on it only
        if value is not None:
            overrides[key] = text(value)
    return overrides


def _config(args, base) -> ExperimentConfig:
    """The one config path: ``--config`` or the preset ``base()``, then the overrides."""
    cfg = parse_text(args.config.read_text()) if args.config is not None else base()
    overrides = _overrides(args)
    return cfg.with_overrides(overrides) if overrides else cfg


def _check_beam_flags(args) -> None:
    """The ranges the pattern code accepts; NaN fails every comparison.

    The metrics and the CSV observe 0 to 90 deg, so a negative target's
    main lobe would be off the grid.  A step below :data:`MIN_STEP_DEG`
    would ask for a grid too large to allocate.
    """
    bad = [
        f"--steer-deg: must be in [0, 90], got {s!r}"
        for s in args.steer_deg
        if not 0.0 <= s <= 90.0
    ]
    if not MIN_STEP_DEG <= args.grid_step_deg <= 0.1:
        bad.append(f"--grid-step-deg: must be in [{MIN_STEP_DEG}, 0.1], got {args.grid_step_deg!r}")
    if not MIN_STEP_DEG <= args.csv_step_deg < math.inf:
        bad.append(f"--csv-step-deg: must be >= {MIN_STEP_DEG} and finite, got {args.csv_step_deg!r}")
    if bad:
        raise ConfigError("; ".join(bad))


def cmd_beam_pattern(args) -> int:
    """Write each target's pattern CSV and print its metrics, in target order.

    The gain cells are computed and formatted :data:`BEAM_BLOCK` targets at a
    time; then each target of the block gets its metrics, its CSV and its
    line in one pass.  A target whose beam is wider than the grid exits 2 at
    once, so every target before it has its CSV and its line already.
    """
    _check_beam_flags(args)
    # Only the geometry shapes a pattern: any other override would be ignored.
    ignored = [key for key in _overrides(args) if not key.startswith("geom.")]
    if ignored:
        raise ConfigError(f"{', '.join(ignored)}: beam-pattern takes only geom.* overrides")
    g = _config(args, ExperimentConfig).geom  # the lab geometry, without the presets' calibration
    out_dir: Path = args.out_dir
    n = g.n_h * g.n_v
    # The CSV ends at the last multiple of the step within 90 deg; rounding absorbs
    # the float error of 90 / step (the default 0.1 deg gives 901 angles, 0 to 90).
    n_csv = math.floor(round(90.0 / args.csv_step_deg, 9)) + 1
    # pattern_gains caches one complex basis row of geom.n_h per angle of each grid,
    # and upa_profiles builds one block's phasors at a time.
    n_grid = math.ceil((90.0 + args.grid_step_deg / 2) / args.grid_step_deg)
    n_block = min(BEAM_BLOCK, len(args.steer_deg))
    if (size := (n_grid + n_csv) * g.n_h * 16 + n_block * n * PHASOR_BUILD_BYTES) > MEMORY_BUDGET:
        raise ConfigError(
            f"geom.n_h/--grid-step-deg/--csv-step-deg: must be at most {MEMORY_BUDGET} bytes of "
            f"observation bases and target phasors, got ({n_grid} + {n_csv} angles) x {g.n_h} "
            f"x 16 B + {n_block} targets x {g.n_h} x geom.n_v={g.n_v} elements "
            f"x {PHASOR_BUILD_BYTES} B = {size}"
        )
    angles = np.arange(n_csv) * args.csv_step_deg
    angle_cells = fixed4_cells(angles)
    for start in range(0, len(args.steer_deg), BEAM_BLOCK):
        block = args.steer_deg[start : start + BEAM_BLOCK]
        profiles = upa_profiles(
            [(steer, 0.0) for steer in block], g.n_h, g.n_v, g.spacing_ratio, g.dither
        )
        gains = [np.abs(pattern_gains(w, angles, g.n_h, g.n_v, g.spacing_ratio)) for w in profiles]
        db = 20.0 * np.log10(np.maximum(gains, 1e-12) / n)
        for steer, w, gain_cells in zip(block, profiles, fixed4_cells(db)):
            try:
                m = beam_metrics(w, g.n_h, g.n_v, g.spacing_ratio, grid_step_deg=args.grid_step_deg)
            except DegeneratePatternError:
                raise ConfigError(
                    f"--steer-deg {steer:g}: the beam of geom.n_h={g.n_h} elements at "
                    f"geom.spacing_ratio={g.spacing_ratio!r} is wider than the 0-90 deg grid "
                    "(no -3 dB crossing inside it)"
                ) from None
            if not out_dir.is_dir():  # only once a target has a pattern to write
                out_dir.mkdir(parents=True)
            path = out_dir / f"pattern_{steer:g}deg.csv"
            rows = text_lines(angle_cells, b",", gain_cells, b"\n")
            path.write_bytes(b"angle_deg,gain_db\n" + rows.tobytes())  # one write call
            print(
                f"steer={steer:g} peak={m.peak_angle_deg:.2f} deg "
                f"peak_gain={m.peak_gain_db:.2f} dB hpbw={m.hpbw_deg:.2f} deg "
                f"sll={m.sll_db:.2f} dB -> {path}"
            )
    return EXIT_OK


def _emit_run(cfg: ExperimentConfig, out_dir: Path, tag: str, histogram: bool = False) -> None:
    from . import engine  # only the commands that simulate load the engine

    out_dir.mkdir(parents=True, exist_ok=True)
    trace, summary = engine.run(cfg)
    trace_path = out_dir / f"{tag}_trace.csv"
    engine.write_trace_csv(trace, trace_path)
    summary_path = out_dir / f"{tag}_summary.txt"
    summary_text = summary.as_kv_text()
    summary_path.write_text(summary_text)
    (out_dir / f"{tag}_config.txt").write_text(serialize(cfg))
    print(f"trace -> {trace_path}")
    print(f"summary -> {summary_path}")
    print(summary_text, end="")
    if histogram:
        hist_path = out_dir / f"{tag}_histogram.csv"
        fractions = zip(
            summary.served_frac_aligned_dl,
            summary.served_frac_misaligned_dl,
            summary.served_frac_aligned_total,
            summary.served_frac_misaligned_total,
        )
        columns = ["ue", "aligned_fraction", "misaligned_fraction"]
        columns += ["aligned_fraction_total", "misaligned_fraction_total"]
        hist_path.write_text(table_text(columns, enumerate(fractions)))
        print(f"histogram -> {hist_path}")


def cmd_single_ue(args) -> int:
    def preset():
        if args.ue is None:
            raise ConfigError("--ue: required without --config")
        return presets.single_ue_config(args.ue - 1, ris_on=args.ris != "off")

    cfg = _config(args, preset)
    if args.config is not None and args.ue is not None:
        raise ConfigError("--ue: picks a preset UE and has no config key; --config sets the UEs")
    ue = "" if args.ue is None else args.ue
    _emit_run(cfg, args.out_dir, f"single_ue{ue}_{'off' if cfg.ris.mode == 'off' else 'on'}")
    return EXIT_OK


def cmd_schedule(args) -> int:
    # Without --config the mode picks the preset: genie runs round robin.
    cfg = _config(args, lambda: presets.schedule_config(mode=args.mode or "periodic"))
    _emit_run(cfg, args.out_dir, f"schedule_{cfg.ris.mode}", histogram=True)
    return EXIT_OK


def sweep_rows(
    cfg: ExperimentConfig, alphas: list[float]
) -> list[tuple[str, str, float, ExperimentConfig]]:
    """The sweep table's rows in order: (CSV mode, stdout label, alpha cell, config).

    First one run per EWMA weight, each with an independent seed derived
    from the master seed; the configured time-compression factor applies
    to every point, so the (alpha, switching-interval) pairing holds
    across the sweep.  Then the genie round-robin and no-surface
    references: they keep the master seed and ``sched.alpha``, drop the
    i.i.d.-only ``ris.seed`` and ``ris.probs``, and show a NaN alpha.
    """
    rows = []
    for i, alpha in enumerate(alphas):
        seed = seed_words((cfg.sim.seed, i), 1)[0]  # SeedSequence((sim.seed, i))'s first word
        sub = replace(cfg, sched=replace(cfg.sched, alpha=alpha), sim=replace(cfg.sim, seed=seed))
        rows.append(("random", f"alpha={alpha:g}", alpha, sub))
    ris = replace(cfg.ris, seed=None, probs=None)
    genie = replace(cfg, ris=replace(ris, mode="genie"), sched=replace(cfg.sched, kind="rr"))
    rows.append(("genie", "genie", math.nan, genie))
    rows.append(("no_ris", "no-ris", math.nan, replace(cfg, ris=replace(ris, mode="off"))))
    return rows


def cmd_sweep(args) -> int:
    from . import engine

    cfg = _config(args, presets.sweep_config)
    rows = sweep_rows(cfg, args.alphas)
    for *_, run_cfg in rows:
        validate(run_cfg)  # a bad row exits 2 before the first run, not after the rows before it
    summaries = [engine.run(run_cfg)[1] for *_, run_cfg in rows]
    out_dir: Path = args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "sweep_alpha.csv"
    ks = range(len(cfg.ues))
    columns = ["mode", "alpha", "inv_alpha", "aggregate_mbps"]
    columns += [f"throughput{k}_mbps" for k in ks] + [f"served_share{k}" for k in ks]
    path.write_text(table_text(columns, [
        (mode, [alpha, 1.0 / alpha, s.aggregate_mbps, *s.throughput_mbps, *s.served_share])
        for (mode, _, alpha, _), s in zip(rows, summaries)
    ]))
    for (_, label, _, _), s in zip(rows, summaries):
        print(f"{label} aggregate={s.aggregate_mbps:.2f} Mbit/s")
    print(f"table -> {path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "beam-pattern": cmd_beam_pattern,
        "single-ue": cmd_single_ue,
        "schedule": cmd_schedule,
        "sweep-alpha": cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failures keep a stable exit code
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
