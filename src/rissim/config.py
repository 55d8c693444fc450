"""Run configuration: dataclasses, the flat dotted-key text format, and
validation with errors that name the offending key.

The on-disk format is one ``key = value`` pair per line (``#`` starts a
comment).  Lists are comma-separated, UE angle pairs are ``nu:psi``.
Serialization is canonical (sorted keys, repr-exact floats) so that
parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, fields

RIS_MODES = ("periodic", "iid", "genie", "off")
SCHED_KINDS = ("pf", "rr")
SLOT_MS = 0.5


class ConfigError(ValueError):
    """Invalid configuration; the message names every offending key."""


def to_slots(seconds: float) -> int:
    """Whole slots in a span of ``seconds``."""
    return round(seconds * 1000.0 / SLOT_MS)


@dataclass(frozen=True)
class GeometryConfig:
    n_h: int = 32
    n_v: int = 32
    spacing_ratio: float = 0.25
    dither: bool = True  # apply the static design phase offsets


@dataclass(frozen=True)
class UeConfig:
    nu_deg: float
    psi_deg: float = 0.0
    pathloss_db: float = 60.0
    noise_dbm: float = -120.0
    direct_leak: complex = 0j  # residual feeder-to-UE path, adds to the effective channel
    noris_gain: float = 0.0  # scalar channel amplitude when the surface is absent


@dataclass(frozen=True)
class RisConfig:
    mode: str = "periodic"
    ts_slots: int = 18000
    seed: int | None = None  # defaults to the master seed
    offset_slots: int = 50
    angles: tuple[tuple[float, float], ...] | None = None  # defaults to the UE angles
    probs: tuple[float, ...] | None = None  # defaults to uniform


@dataclass(frozen=True)
class ChannelConfig:
    rician_k_db: float | None = None  # None: pure line of sight
    coherence_slots: int = 0  # 0: one static draw; else redraw cadence


@dataclass(frozen=True)
class SchedConfig:
    kind: str = "pf"
    alpha: float = 5e-5
    floor: float = 1e-6


@dataclass(frozen=True)
class LaConfig:
    impl_margin_db: float = 3.0
    slope: float = 2.0
    cqi_backoff_db: float = 2.0
    window_ms: float = 100.0
    cqi_period_ms: float = 80.0
    bler_low: float = 0.05
    bler_high: float = 0.15
    mcs_min: int = 3


@dataclass(frozen=True)
class SimConfig:
    duration_s: float = 120.0
    warmup_s: float = 20.0
    seed: int = 1
    ts_scaling: float = 1.0
    prbs: int = 106


@dataclass(frozen=True)
class ExperimentConfig:
    geom: GeometryConfig = field(default_factory=GeometryConfig)
    ues: tuple[UeConfig, ...] = (UeConfig(nu_deg=30.0), UeConfig(nu_deg=45.0))
    ris: RisConfig = field(default_factory=RisConfig)
    sched: SchedConfig = field(default_factory=SchedConfig)
    la: LaConfig = field(default_factory=LaConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    chan: ChannelConfig = field(default_factory=ChannelConfig)
    tx_power_dbm: float = 23.0
    rsrp_offset_db: float = 0.0

    def with_overrides(self, overrides: dict[str, str]) -> "ExperimentConfig":
        flat = to_flat(self)
        flat.update(overrides)
        return from_flat(flat)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, complex):
        return repr(value).strip("()")
    return str(value)


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "1", "yes"):
        return True
    if s.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_float_list(s: str) -> list[float]:
    return [float(x) for x in s.split(",")] if s else []

def _parse_complex_list(s: str) -> list[complex]:
    return [complex(x) for x in s.split(",")] if s else []


def to_flat(cfg: ExperimentConfig) -> dict[str, str]:
    """Canonical flat key -> value-string form."""
    flat = {
        "geom.n_h": _fmt(cfg.geom.n_h),
        "geom.n_v": _fmt(cfg.geom.n_v),
        "geom.spacing_ratio": _fmt(cfg.geom.spacing_ratio),
        "geom.dither": _fmt(cfg.geom.dither),
        "ue.angles": ",".join(f"{_fmt(u.nu_deg)}:{_fmt(u.psi_deg)}" for u in cfg.ues),
        "ue.pathloss_db": ",".join(_fmt(u.pathloss_db) for u in cfg.ues),
        "ue.noise_dbm": ",".join(_fmt(u.noise_dbm) for u in cfg.ues),
        "ue.direct_leak": ",".join(_fmt(u.direct_leak) for u in cfg.ues),
        "ue.noris_gain": ",".join(_fmt(u.noris_gain) for u in cfg.ues),
        "ris.mode": cfg.ris.mode,
        "ris.ts_slots": _fmt(cfg.ris.ts_slots),
        "ris.offset_slots": _fmt(cfg.ris.offset_slots),
        "sched.kind": cfg.sched.kind,
        "sched.alpha": _fmt(cfg.sched.alpha),
        "sched.floor": _fmt(cfg.sched.floor),
        "la.impl_margin_db": _fmt(cfg.la.impl_margin_db),
        "la.slope": _fmt(cfg.la.slope),
        "la.cqi_backoff_db": _fmt(cfg.la.cqi_backoff_db),
        "la.window_ms": _fmt(cfg.la.window_ms),
        "la.cqi_period_ms": _fmt(cfg.la.cqi_period_ms),
        "la.bler_low": _fmt(cfg.la.bler_low),
        "la.bler_high": _fmt(cfg.la.bler_high),
        "la.mcs_min": _fmt(cfg.la.mcs_min),
        "sim.duration_s": _fmt(cfg.sim.duration_s),
        "sim.warmup_s": _fmt(cfg.sim.warmup_s),
        "sim.seed": _fmt(cfg.sim.seed),
        "sim.ts_scaling": _fmt(cfg.sim.ts_scaling),
        "sim.prbs": _fmt(cfg.sim.prbs),
        "budget.tx_power_dbm": _fmt(cfg.tx_power_dbm),
        "budget.rsrp_offset_db": _fmt(cfg.rsrp_offset_db),
    }
    if cfg.ris.seed is not None:
        flat["ris.seed"] = _fmt(cfg.ris.seed)
    if cfg.ris.angles is not None:
        flat["ris.angles"] = ",".join(f"{_fmt(nu)}:{_fmt(psi)}" for nu, psi in cfg.ris.angles)
    if cfg.ris.probs is not None:
        flat["ris.probs"] = ",".join(_fmt(p) for p in cfg.ris.probs)
    if cfg.chan.rician_k_db is not None:
        flat["chan.rician_k_db"] = _fmt(cfg.chan.rician_k_db)
    if cfg.chan.coherence_slots:
        flat["chan.coherence_slots"] = _fmt(cfg.chan.coherence_slots)
    return flat


def from_flat(flat: dict[str, str]) -> ExperimentConfig:
    """Build a config from flat key/value strings; unknown keys are errors."""
    known = dict(flat)

    def take(key: str, parser, default):
        if key in known:
            raw = known.pop(key)
            try:
                return parser(raw)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"{key}: cannot parse {raw!r} ({exc})") from None
        return default

    defaults = ExperimentConfig()
    geom = GeometryConfig(
        n_h=take("geom.n_h", int, defaults.geom.n_h),
        n_v=take("geom.n_v", int, defaults.geom.n_v),
        spacing_ratio=take("geom.spacing_ratio", float, defaults.geom.spacing_ratio),
        dither=take("geom.dither", _parse_bool, defaults.geom.dither),
    )

    def parse_angles(s: str) -> list[tuple[float, float]]:
        pairs = []
        for item in s.split(","):
            nu, _, psi = item.partition(":")
            pairs.append((float(nu), float(psi) if psi else 0.0))
        return pairs

    angles = take("ue.angles", parse_angles, [(u.nu_deg, u.psi_deg) for u in defaults.ues])
    n_ues = len(angles)

    def per_ue(key: str, parser, default_value) -> list:
        values = take(key, parser, None)
        if values is None:
            return [default_value] * n_ues
        if len(values) != n_ues:
            raise ConfigError(f"{key}: expected {n_ues} entries, got {len(values)}")
        return values

    pathloss = per_ue("ue.pathloss_db", _parse_float_list, UeConfig(0.0).pathloss_db)
    noise = per_ue("ue.noise_dbm", _parse_float_list, UeConfig(0.0).noise_dbm)
    leak = per_ue("ue.direct_leak", _parse_complex_list, UeConfig(0.0).direct_leak)
    noris = per_ue("ue.noris_gain", _parse_float_list, UeConfig(0.0).noris_gain)
    ues = tuple(
        UeConfig(
            nu_deg=angles[k][0],
            psi_deg=angles[k][1],
            pathloss_db=pathloss[k],
            noise_dbm=noise[k],
            direct_leak=leak[k],
            noris_gain=noris[k],
        )
        for k in range(n_ues)
    )

    probs_raw = take("ris.probs", _parse_float_list, None)
    ris_angles_raw = take("ris.angles", parse_angles, None)
    ris = RisConfig(
        mode=take("ris.mode", str, defaults.ris.mode),
        ts_slots=take("ris.ts_slots", int, defaults.ris.ts_slots),
        seed=take("ris.seed", int, None),
        offset_slots=take("ris.offset_slots", int, defaults.ris.offset_slots),
        angles=tuple(tuple(p) for p in ris_angles_raw) if ris_angles_raw is not None else None,
        probs=tuple(probs_raw) if probs_raw is not None else None,
    )
    sched = SchedConfig(
        kind=take("sched.kind", str, defaults.sched.kind),
        alpha=take("sched.alpha", float, defaults.sched.alpha),
        floor=take("sched.floor", float, defaults.sched.floor),
    )
    la = LaConfig(
        impl_margin_db=take("la.impl_margin_db", float, defaults.la.impl_margin_db),
        slope=take("la.slope", float, defaults.la.slope),
        cqi_backoff_db=take("la.cqi_backoff_db", float, defaults.la.cqi_backoff_db),
        window_ms=take("la.window_ms", float, defaults.la.window_ms),
        cqi_period_ms=take("la.cqi_period_ms", float, defaults.la.cqi_period_ms),
        bler_low=take("la.bler_low", float, defaults.la.bler_low),
        bler_high=take("la.bler_high", float, defaults.la.bler_high),
        mcs_min=take("la.mcs_min", int, defaults.la.mcs_min),
    )
    sim = SimConfig(
        duration_s=take("sim.duration_s", float, defaults.sim.duration_s),
        warmup_s=take("sim.warmup_s", float, defaults.sim.warmup_s),
        seed=take("sim.seed", int, defaults.sim.seed),
        ts_scaling=take("sim.ts_scaling", float, defaults.sim.ts_scaling),
        prbs=take("sim.prbs", int, defaults.sim.prbs),
    )
    chan = ChannelConfig(
        rician_k_db=take("chan.rician_k_db", float, None),
        coherence_slots=take("chan.coherence_slots", int, 0),
    )
    tx = take("budget.tx_power_dbm", float, defaults.tx_power_dbm)
    offset = take("budget.rsrp_offset_db", float, defaults.rsrp_offset_db)
    if known:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(known)))
    cfg = ExperimentConfig(
        geom=geom, ues=ues, ris=ris, sched=sched, la=la, sim=sim, chan=chan,
        tx_power_dbm=tx, rsrp_offset_db=offset,
    )
    validate(cfg)
    return cfg


def serialize(cfg: ExperimentConfig) -> str:
    return "\n".join(f"{k} = {v}" for k, v in sorted(to_flat(cfg).items())) + "\n"


def parse_text(text: str) -> ExperimentConfig:
    flat: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        flat[key.strip()] = value.strip()
    return from_flat(flat)


def _finite(value) -> bool:
    if isinstance(value, (tuple, list)):
        return all(_finite(v) for v in value)
    if isinstance(value, complex):
        return cmath.isfinite(value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


def _flat_values(cfg: ExperimentConfig) -> dict[str, object]:
    """Every config value under its flat key; per-UE values as tuples."""
    values: dict[str, object] = {
        "budget.tx_power_dbm": cfg.tx_power_dbm,
        "budget.rsrp_offset_db": cfg.rsrp_offset_db,
    }
    for section in ("geom", "ris", "sched", "la", "sim", "chan"):
        part = getattr(cfg, section)
        for f in fields(part):
            values[f"{section}.{f.name}"] = getattr(part, f.name)
    for f in fields(UeConfig):
        key = "ue.angles" if f.name in ("nu_deg", "psi_deg") else f"ue.{f.name}"
        values[key] = values.get(key, ()) + tuple(getattr(u, f.name) for u in cfg.ues)
    return values


def validate(cfg: ExperimentConfig) -> None:
    """Raise ConfigError naming every invalid key."""
    errors = [
        f"{key}: must be finite, got {value}"
        for key, value in _flat_values(cfg).items()
        if not _finite(value)
    ]
    if errors:
        # Range checks below are meaningless on NaN, which compares false.
        raise ConfigError("; ".join(errors))
    if cfg.geom.n_h < 1:
        errors.append(f"geom.n_h: must be >= 1, got {cfg.geom.n_h}")
    if cfg.geom.n_v < 1:
        errors.append(f"geom.n_v: must be >= 1, got {cfg.geom.n_v}")
    if cfg.geom.spacing_ratio <= 0:
        errors.append(f"geom.spacing_ratio: must be positive, got {cfg.geom.spacing_ratio}")
    if not cfg.ues:
        errors.append("ue.angles: need at least one UE")
    for k, u in enumerate(cfg.ues):
        if abs(u.nu_deg) > 90 or abs(u.psi_deg) > 90:
            errors.append(f"ue.angles: UE {k} angles must be within +-90 deg")
        if u.noise_dbm >= cfg.tx_power_dbm - u.pathloss_db:
            errors.append(
                f"ue.noise_dbm: UE {k} noise {u.noise_dbm} dBm does not leave a usable link "
                f"(tx - pathloss = {cfg.tx_power_dbm - u.pathloss_db} dBm)"
            )
    if cfg.ris.mode not in RIS_MODES:
        errors.append(f"ris.mode: must be one of {RIS_MODES}, got {cfg.ris.mode!r}")
    if cfg.ris.ts_slots < 1:
        errors.append(f"ris.ts_slots: must be >= 1, got {cfg.ris.ts_slots}")
    if cfg.ris.offset_slots < 0:
        errors.append(f"ris.offset_slots: must be >= 0, got {cfg.ris.offset_slots}")
    n_states = len(cfg.ris.angles) if cfg.ris.angles is not None else len(cfg.ues)
    if cfg.ris.angles is not None:
        for nu, psi in cfg.ris.angles:
            if abs(nu) > 90 or abs(psi) > 90:
                errors.append("ris.angles: state angles must be within +-90 deg")
                break
    if cfg.ris.probs is not None:
        if len(cfg.ris.probs) != n_states:
            errors.append("ris.probs: must have one probability per state")
        elif any(p < 0 for p in cfg.ris.probs) or abs(sum(cfg.ris.probs) - 1.0) > 1e-9:
            errors.append("ris.probs: must be non-negative and sum to 1")
    if cfg.sched.kind not in SCHED_KINDS:
        errors.append(f"sched.kind: must be one of {SCHED_KINDS}, got {cfg.sched.kind!r}")
    effective_alpha = cfg.sched.alpha * cfg.sim.ts_scaling
    if not 0.0 < cfg.sched.alpha < 1.0:
        errors.append(f"sched.alpha: must be in (0, 1), got {cfg.sched.alpha}")
    elif not 0.0 < effective_alpha < 1.0:
        errors.append(
            f"sched.alpha: ts-scaled value {effective_alpha} leaves (0, 1) "
            f"(sim.ts_scaling = {cfg.sim.ts_scaling})"
        )
    if cfg.sched.floor <= 0:
        errors.append(f"sched.floor: must be positive, got {cfg.sched.floor}")
    if not 0.0 <= cfg.la.bler_low < cfg.la.bler_high <= 1.0:
        errors.append(
            f"la.bler_low/la.bler_high: need 0 <= low < high <= 1, got "
            f"{cfg.la.bler_low}/{cfg.la.bler_high}"
        )
    if cfg.la.window_ms <= 0:
        errors.append(f"la.window_ms: must be positive, got {cfg.la.window_ms}")
    if cfg.la.cqi_period_ms <= 0:
        errors.append(f"la.cqi_period_ms: must be positive, got {cfg.la.cqi_period_ms}")
    if not 0 <= cfg.la.mcs_min <= 28:
        errors.append(f"la.mcs_min: must be in [0, 28], got {cfg.la.mcs_min}")
    if cfg.la.slope <= 0:
        errors.append(f"la.slope: must be positive, got {cfg.la.slope}")
    if cfg.sim.duration_s < 0:
        errors.append(f"sim.duration_s: must be >= 0, got {cfg.sim.duration_s}")
    if cfg.sim.warmup_s < 0 or (cfg.sim.duration_s > 0 and cfg.sim.warmup_s >= cfg.sim.duration_s):
        errors.append(
            f"sim.warmup_s: must be in [0, sim.duration_s), got {cfg.sim.warmup_s}"
        )
    if cfg.sim.ts_scaling <= 0:
        errors.append(f"sim.ts_scaling: must be positive, got {cfg.sim.ts_scaling}")
    if cfg.sim.prbs < 1:
        errors.append(f"sim.prbs: must be >= 1, got {cfg.sim.prbs}")
    if cfg.chan.coherence_slots < 0:
        errors.append(f"chan.coherence_slots: must be >= 0, got {cfg.chan.coherence_slots}")
    if errors:
        raise ConfigError("; ".join(errors))


def scaled(cfg: ExperimentConfig):
    """Effective (alpha, ts_slots) after applying the time-compression factor."""
    s = cfg.sim.ts_scaling
    alpha = cfg.sched.alpha * s
    ts_slots = max(1, round(cfg.ris.ts_slots / s))
    return alpha, ts_slots
