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
from pathlib import Path

import numpy as np

from . import presets  # presets load the engine only when they calibrate
from .array_model import beam_metrics, pattern_gains, upa_profile
from .config import RIS_MODES, ConfigError, ExperimentConfig, parse_text, serialize

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


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
    sc.add_argument("--alpha", type=float, help=f"sched.alpha (preset: {presets.BASE_ALPHA!r})")
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
    main lobe would be off the grid.
    """
    bad = [
        f"--steer-deg: must be in [0, 90], got {s!r}"
        for s in args.steer_deg
        if not 0.0 <= s <= 90.0
    ]
    if not 0.0 < args.grid_step_deg <= 0.1:
        bad.append(f"--grid-step-deg: must be in (0, 0.1], got {args.grid_step_deg!r}")
    if not 0.0 < args.csv_step_deg < math.inf:
        bad.append(f"--csv-step-deg: must be positive and finite, got {args.csv_step_deg!r}")
    if bad:
        raise ConfigError("; ".join(bad))


def cmd_beam_pattern(args) -> int:
    _check_beam_flags(args)
    # Only the geometry shapes a pattern: any other override would be ignored.
    ignored = [key for key in _overrides(args) if not key.startswith("geom.")]
    if ignored:
        raise ConfigError(f"{', '.join(ignored)}: beam-pattern takes only geom.* overrides")
    g = _config(args, ExperimentConfig).geom  # default geometry is presets.GEOMETRY; no calibration
    out_dir: Path = args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    n = g.n_h * g.n_v
    # The CSV ends at the last multiple of the step within 90 deg; rounding absorbs
    # the float error of 90 / step (the default 0.1 deg gives 901 angles, 0 to 90).
    angles = np.arange(math.floor(round(90.0 / args.csv_step_deg, 9)) + 1) * args.csv_step_deg
    angle_cells = [f"{a:.4f}," for a in angles.tolist()]
    for steer in args.steer_deg:
        weights = upa_profile(steer, 0.0, g.n_h, g.n_v, g.spacing_ratio, g.dither)
        m = beam_metrics(
            weights, 0.0, g.n_h, g.n_v, g.spacing_ratio, grid_step_deg=args.grid_step_deg
        )
        gains = np.abs(pattern_gains(weights, 0.0, angles, g.n_h, g.n_v, g.spacing_ratio))
        db = 20.0 * np.log10(np.maximum(gains, 1e-12) / n)
        path = out_dir / f"pattern_{steer:g}deg.csv"
        rows = "".join(f"{a}{v:.4f}\n" for a, v in zip(angle_cells, db.tolist()))
        path.write_text("angle_deg,gain_db\n" + rows)
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
    summary_path.write_text(summary.as_kv_text())
    (out_dir / f"{tag}_config.txt").write_text(serialize(cfg))
    print(f"trace -> {trace_path}")
    print(f"summary -> {summary_path}")
    print(summary.as_kv_text(), end="")
    if histogram:
        hist_path = out_dir / f"{tag}_histogram.csv"
        fractions = zip(
            summary.served_frac_aligned_dl,
            summary.served_frac_misaligned_dl,
            summary.served_frac_aligned_total,
            summary.served_frac_misaligned_total,
        )
        with open(hist_path, "w") as f:
            f.write(
                "ue,aligned_fraction,misaligned_fraction,"
                "aligned_fraction_total,misaligned_fraction_total\n"
            )
            for k, row in enumerate(fractions):
                f.write(f"{k}," + ",".join(f"{v:.6f}" for v in row) + "\n")
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


def cmd_sweep(args) -> int:
    from . import engine

    cfg = _config(args, presets.sweep_config)
    alphas = list(args.alphas)
    summaries = engine.sweep_table(cfg, alphas)
    # (CSV mode, stdout label, alpha column) per summary; the reference rows show NaN alpha.
    rows = [("random", f"alpha={a:g}", a) for a in alphas]
    rows += [("genie", "genie", math.nan), ("no_ris", "no-ris", math.nan)]
    out_dir: Path = args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "sweep_alpha.csv"
    cols = ["mode", "alpha", "inv_alpha", "aggregate_mbps"] + [
        f"throughput{k}_mbps" for k in range(len(cfg.ues))
    ] + [f"served_share{k}" for k in range(len(cfg.ues))]
    with open(path, "w") as f:
        f.write(",".join(cols) + "\n")
        for (mode, _, alpha), s in zip(rows, summaries):
            vals = [alpha, 1.0 / alpha, s.aggregate_mbps, *s.throughput_mbps, *s.served_share]
            f.write(mode + "," + ",".join(f"{v:.6f}" for v in vals) + "\n")
    for (_, label, _), s in zip(rows, summaries):
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
