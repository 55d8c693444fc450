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
from dataclasses import MISSING, dataclass, field, fields

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


_UE_COLUMNS = fields(UeConfig)[2:]  # per-UE keys besides the ue.angles pairs


def _fmt(value) -> str:
    if isinstance(value, (tuple, list)):  # lists join with ",", angle pairs with ":"
        return ",".join(
            ":".join(map(_fmt, v)) if isinstance(v, (tuple, list)) else _fmt(v) for v in value
        )
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


def _parse_angles(s: str) -> tuple[tuple[float, float], ...]:
    pairs = []
    for item in s.split(","):
        nu, _, psi = item.partition(":")
        pairs.append((float(nu), float(psi) if psi else 0.0))
    return tuple(pairs)


def _list_of(parse):
    return lambda s: tuple(parse(x) for x in s.split(",")) if s else ()


# Value parser per field annotation; an optional field parses as its base type.
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "bool": _parse_bool,
    "complex": complex,
    "tuple[float, ...]": _list_of(float),
    "tuple[tuple[float, float], ...]": _parse_angles,
}


def _parser(f):
    return _PARSERS[f.type.removesuffix(" | None")]


def _flat_values(cfg: ExperimentConfig) -> dict[str, object]:
    """Every config value under its flat key: ``<section>.<field>``, the
    per-UE columns ``ue.angles`` (``(nu, psi)`` pairs) and ``ue.<field>``,
    and ``budget.<field>`` for the top-level scalars."""
    values: dict[str, object] = {}
    for f in fields(cfg):
        part = getattr(cfg, f.name)
        if f.name == "ues":
            values["ue.angles"] = tuple((u.nu_deg, u.psi_deg) for u in part)
            for g in _UE_COLUMNS:
                values[f"ue.{g.name}"] = tuple(getattr(u, g.name) for u in part)
        elif f.default_factory is not MISSING:  # a section; the factory is its class
            for g in fields(part):
                values[f"{f.name}.{g.name}"] = getattr(part, g.name)
        else:
            values[f"budget.{f.name}"] = part
    return values


def to_flat(cfg: ExperimentConfig) -> dict[str, str]:
    """Canonical flat key -> value-string form; unset optional keys (None,
    or ``chan.coherence_slots`` 0) are left out."""
    return {
        key: _fmt(value)
        for key, value in _flat_values(cfg).items()
        if value is not None and not (key == "chan.coherence_slots" and value == 0)
    }


def from_flat(flat: dict[str, str]) -> ExperimentConfig:
    """Build a config from the keys of :func:`to_flat`; an absent key keeps
    its dataclass default, an unknown key is an error."""
    known = dict(flat)

    def take(key: str, parse):
        raw = known.pop(key)
        try:
            return parse(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{key}: cannot parse {raw!r} ({exc})") from None

    def take_fields(prefix: str, flds, parser=_parser) -> dict:
        """Keyword arguments from the ``<prefix>.<field>`` keys present."""
        return {
            g.name: take(f"{prefix}.{g.name}", parser(g))
            for g in flds
            if f"{prefix}.{g.name}" in known
        }

    kwargs = {}
    for f in fields(ExperimentConfig):
        if f.name == "ues":
            default = tuple((u.nu_deg, u.psi_deg) for u in f.default)
            angles = take("ue.angles", _parse_angles) if "ue.angles" in known else default
            columns = take_fields("ue", _UE_COLUMNS, lambda g: _list_of(_parser(g)))
            for name, column in columns.items():
                if len(column) != len(angles):
                    raise ConfigError(
                        f"ue.{name}: expected {len(angles)} entries, got {len(column)}"
                    )
            kwargs["ues"] = tuple(
                UeConfig(nu, psi, **{name: column[k] for name, column in columns.items()})
                for k, (nu, psi) in enumerate(angles)
            )
        elif f.default_factory is not MISSING:  # a section; the factory is its class
            kwargs[f.name] = f.default_factory(**take_fields(f.name, fields(f.default_factory)))
        else:
            kwargs.update(take_fields("budget", [f]))
    if known:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(known)))
    cfg = ExperimentConfig(**kwargs)
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


# Single-key rules: flat key -> (requirement, test).
_RULES = {
    "geom.n_h": (">= 1", lambda v: v >= 1),
    "geom.n_v": (">= 1", lambda v: v >= 1),
    "geom.spacing_ratio": ("positive", lambda v: v > 0),
    "ris.mode": (f"one of {RIS_MODES}", lambda v: v in RIS_MODES),
    "ris.ts_slots": (">= 1", lambda v: v >= 1),
    "ris.offset_slots": (">= 0", lambda v: v >= 0),
    "ris.seed": (">= 0", lambda v: v is None or v >= 0),  # None: derived from sim.seed
    "sched.kind": (f"one of {SCHED_KINDS}", lambda v: v in SCHED_KINDS),
    "sched.floor": ("positive", lambda v: v > 0),
    "la.window_ms": ("positive", lambda v: v > 0),
    "la.cqi_period_ms": ("positive", lambda v: v > 0),
    "la.mcs_min": ("in [0, 28]", lambda v: 0 <= v <= 28),
    "la.slope": ("positive", lambda v: v > 0),
    "sim.duration_s": (">= 0", lambda v: v >= 0),
    "sim.ts_scaling": ("positive", lambda v: v > 0),
    "sim.prbs": (">= 1", lambda v: v >= 1),
    "sim.seed": (">= 0", lambda v: v >= 0),
    "chan.coherence_slots": (">= 0", lambda v: v >= 0),
}


def validate(cfg: ExperimentConfig) -> None:
    """Raise ConfigError naming every invalid key."""
    values = _flat_values(cfg)
    errors = [f"{key}: must be finite, got {v}" for key, v in values.items() if not _finite(v)]
    if errors:
        # Range checks below are meaningless on NaN, which compares false.
        raise ConfigError("; ".join(errors))
    errors = [
        f"{key}: must be {need}, got {values[key]!r}"
        for key, (need, ok) in _RULES.items()
        if not ok(values[key])
    ]
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
    effective_alpha = cfg.sched.alpha * cfg.sim.ts_scaling
    if not 0.0 < cfg.sched.alpha < 1.0:
        errors.append(f"sched.alpha: must be in (0, 1), got {cfg.sched.alpha}")
    elif not 0.0 < effective_alpha < 1.0:
        errors.append(
            f"sched.alpha: ts-scaled value {effective_alpha} leaves (0, 1) "
            f"(sim.ts_scaling = {cfg.sim.ts_scaling})"
        )
    if not 0.0 <= cfg.la.bler_low < cfg.la.bler_high <= 1.0:
        errors.append(
            f"la.bler_low/la.bler_high: need 0 <= low < high <= 1, got "
            f"{cfg.la.bler_low}/{cfg.la.bler_high}"
        )
    if cfg.chan.coherence_slots > 0 and cfg.chan.rician_k_db is None:
        errors.append(
            f"chan.coherence_slots: needs chan.rician_k_db (the scatter it redraws), "
            f"got {cfg.chan.coherence_slots} without it"
        )
    if cfg.sim.warmup_s < 0 or (cfg.sim.duration_s > 0 and cfg.sim.warmup_s >= cfg.sim.duration_s):
        errors.append(
            f"sim.warmup_s: must be in [0, sim.duration_s = {cfg.sim.duration_s}), "
            f"got {cfg.sim.warmup_s}"
        )
    if errors:
        raise ConfigError("; ".join(errors))


def scaled(cfg: ExperimentConfig):
    """Effective (alpha, ts_slots) after applying the time-compression factor."""
    s = cfg.sim.ts_scaling
    alpha = cfg.sched.alpha * s
    ts_slots = max(1, round(cfg.ris.ts_slots / s))
    return alpha, ts_slots
