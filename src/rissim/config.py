"""Run configuration: dataclasses, the flat dotted-key text format, and
validation with errors that name the offending key.  The surface's beam
states (:func:`state_angles`) and each UE's own state (:func:`aligned_states`)
are worked out here only; :func:`validate` and the ``engine`` phases read them.

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
MEMORY_BUDGET = 2**30  # the bytes a run (run_bytes) or beam-pattern's grids may ask for
# The slot cap of an earlier trace layout, six 8-byte list cells per slot in the
# budget, kept so that no input changes its exit code: 22,369,621 slots (about
# 11,185 s).  The size rule holds what a run asks for at any length to the budget.
MAX_SLOTS = MEMORY_BUDGET // (6 * 8)
SIZE_KEYS = "sim.duration_s/chan.coherence_slots/geom.n_h/geom.n_v/ris.angles/ue.angles"
SIZE_RULE = f"the estimated run memory must be at most {MEMORY_BUDGET} bytes (1 GiB)"
EPOCH_BLOCK = 16  # coherence epochs whose link tables engine.build_link_tables builds together
# Bytes per phasor row and element at array_model.upa_profiles' peak while it builds them,
# its result included: tracemalloc read 33 to 56 on panels of 4,096 to 200,000 elements.
PHASOR_BUILD_BYTES = 62
# A run's chunked working set: engine.summarize's CSV_CHUNK-slot arrays, each UE's RSRP column
# among them, and engine.simulate's DRAW_CHUNK uniforms.  tracemalloc read up to 545 KB past the
# other terms on one UE and 42 KB more per UE (1 to 64 UEs, 1-element panel), plus 10%.
RUN_FIXED_BYTES, RUN_UE_BYTES = 600 * 1024, 48 * 1024
# engine.Trace keeps a slot's UE in one byte, 0 to 254; 255 marks an idle slot.
MAX_UES = 255
GENIE_TOL_DEG = 1e-9  # a state within this of a UE's angles is steered at it
# numpy's ziggurat draws no standard normal beyond about 13.7 in magnitude (its tail
# takes the log of a 53-bit uniform), so no element's scatter exceeds this many sigma.
SCATTER_PEAK = 14.0


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
    seed: int | None = None  # None: drawn from the master seed's third spawned stream
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
    "ue.angles": (f"1 to {MAX_UES} UEs", lambda v: 1 <= len(v) <= MAX_UES),
    "geom.n_h": (">= 1", lambda v: v >= 1),
    "geom.n_v": (">= 1", lambda v: v >= 1),
    # A cell 10 wavelengths across is no surface element; past ~1e15 the phases lose every bit.
    "geom.spacing_ratio": ("in (0, 10]", lambda v: 0 < v <= 10.0),
    "ris.mode": ("one of " + ", ".join(RIS_MODES), lambda v: v in RIS_MODES),
    "ris.ts_slots": (">= 1", lambda v: v >= 1),
    "ris.offset_slots": (">= 0", lambda v: v >= 0),
    "ris.seed": (">= 0", lambda v: v is None or v >= 0),  # None: derived from sim.seed
    "sched.kind": ("one of " + ", ".join(SCHED_KINDS), lambda v: v in SCHED_KINDS),
    "sched.floor": ("positive", lambda v: v > 0),
    "la.window_ms": ("positive", lambda v: v > 0),
    "la.cqi_period_ms": ("positive", lambda v: v > 0),
    "la.mcs_min": ("in [0, 28]", lambda v: 0 <= v <= 28),
    "la.slope": ("positive", lambda v: v > 0),
    "sim.duration_s": (
        f"in [0, {MAX_SLOTS * SLOT_MS / 1000.0} s] (at most {MAX_SLOTS} slots)",
        lambda v: 0 <= v <= MAX_SLOTS * SLOT_MS / 1000.0,
    ),
    "sim.ts_scaling": ("positive", lambda v: v > 0),
    "sim.prbs": ("in [1, 273]", lambda v: 1 <= v <= 273),  # NR's most PRBs per carrier
    "sim.seed": (">= 0", lambda v: v >= 0),
    "chan.coherence_slots": (">= 0", lambda v: v >= 0),
    # At +-200 dB the scatter power is 1e-20 or 1e20 times the line of sight's.  Far
    # beyond, 10 ** (K / 10) underflows to a zero divisor, or it or |h| ** 2 overflows.
    "chan.rician_k_db": ("within +-200 dB", lambda v: v is None or abs(v) <= 200.0),
    # No calibration offset comes near 1000 dB; the bound keeps the RSRP cells finite and short.
    "budget.rsrp_offset_db": ("within +-1000 dB", lambda v: abs(v) <= 1000.0),
}


def state_angles(cfg: ExperimentConfig) -> tuple[tuple[float, float], ...]:
    """The beam states' angles: ``ris.angles``, or each UE's ``(nu, psi)`` when unset."""
    angles = cfg.ris.angles
    return angles if angles is not None else tuple((ue.nu_deg, ue.psi_deg) for ue in cfg.ues)


def aligned_states(cfg: ExperimentConfig) -> tuple[int, ...]:
    """Each UE's own beam state: the first within :data:`GENIE_TOL_DEG` of its angles, else -1."""
    angles, tol = state_angles(cfg), GENIE_TOL_DEG
    return tuple(
        next((s for s, (nu, psi) in enumerate(angles)
              if abs(nu - ue.nu_deg) <= tol and abs(psi - ue.psi_deg) <= tol), -1)
        for ue in cfg.ues
    )


def validate(cfg: ExperimentConfig) -> None:
    """Raise ConfigError naming every invalid key."""
    values = _flat_values(cfg)
    errors = [f"{key}: must be finite, got {v}" for key, v in values.items() if not _finite(v)]
    if errors:
        # Range checks below are meaningless on NaN, which compares false.
        raise ConfigError("; ".join(errors))
    errors = [
        f"{key}: must be {need}, got {len(v) if isinstance(v, tuple) else repr(v)}"
        for key, (need, ok) in _RULES.items()
        if not ok(v := values[key])
    ]
    k_db = cfg.chan.rician_k_db
    for k, u in enumerate(cfg.ues):
        if abs(u.nu_deg) > 90 or abs(u.psi_deg) > 90:
            errors.append(f"ue.angles: UE {k} angles must be within +-90 deg")
        if u.noise_dbm >= cfg.tx_power_dbm - u.pathloss_db:
            errors.append(
                f"ue.noise_dbm: UE {k} noise {u.noise_dbm} dBm does not leave a usable link "
                f"(tx - pathloss = {cfg.tx_power_dbm - u.pathloss_db} dBm)"
            )
        gain_db = cfg.tx_power_dbm - u.pathloss_db - u.noise_dbm
        gain = _float_or_inf(lambda: 10.0 ** (gain_db / 10.0))  # the link model's SNR gain
        if not math.isfinite(gain):
            errors.append(
                f"ue.noise_dbm/ue.pathloss_db/budget.tx_power_dbm: UE {k} link gain "
                f"tx - pathloss - noise = {gain_db} dB overflows"
            )
            continue
        # SNR is |h|**2 * gain.  The no-surface |h| is the UE's noris_gain; a
        # surface state's is at most its line-of-sight sum's 1, plus the direct
        # leak, plus n elements' scatter of at most SCATTER_PEAK * sigma each,
        # where n * sigma = 1 / sqrt(10 ** (K / 10)).
        peak_h = _float_or_inf(lambda: max(abs(u.noris_gain), 1.0 + abs(u.direct_leak) + (
            0.0 if k_db is None else SCATTER_PEAK * 10.0 ** (-k_db / 20.0))))
        if not math.isfinite(_float_or_inf(lambda: peak_h ** 2 * gain)):
            errors.append(
                f"ue.noris_gain/ue.direct_leak{'' if k_db is None else '/chan.rician_k_db'}: UE {k} "
                f"peak SNR |h|**2 x link gain overflows (peak |h| {peak_h}, link gain {gain_db} dB)"
            )
    if cfg.ris.angles is not None and not cfg.ris.angles:
        errors.append("ris.angles: need at least one state")
    if any(abs(nu) > 90 or abs(psi) > 90 for nu, psi in cfg.ris.angles or ()):
        errors.append("ris.angles: state angles must be within +-90 deg")
    if cfg.ris.mode != "iid":
        for key, value in (("ris.seed", cfg.ris.seed), ("ris.probs", cfg.ris.probs)):
            if value is not None:
                errors.append(f"{key}: only ris.mode iid reads it, got ris.mode {cfg.ris.mode!r}")
    if cfg.ris.probs is not None:
        if len(cfg.ris.probs) != len(state_angles(cfg)):
            errors.append("ris.probs: must have one probability per state")
        elif any(p < 0 for p in cfg.ris.probs) or abs(sum(cfg.ris.probs) - 1.0) > 1e-9:
            errors.append("ris.probs: must be non-negative and sum to 1")
    if cfg.ris.mode == "genie" and -1 in aligned_states(cfg):
        errors.append("ris.mode: genie requires a state aligned to every UE (ris.angles)")
    if cfg.sim.ts_scaling > 0:
        errors += [
            f"{key}: ts-scaled slot count {n} is not finite "
            f"(sim.ts_scaling = {cfg.sim.ts_scaling})"
            for key, n in _scaled_counts(cfg).items()
            if not math.isfinite(n)
        ]
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
    if not errors and (size := run_bytes(cfg)) > MEMORY_BUDGET:
        errors.append(f"{SIZE_KEYS}: {SIZE_RULE}, got {size} bytes")
    if errors:
        raise ConfigError("; ".join(errors))


def epoch_count(n_slots: int, coherence: int) -> int:
    """The channel epochs of a run of ``n_slots``: one without redraws."""
    return -(-max(n_slots, 1) // coherence) if coherence else 1


def run_bytes(cfg: ExperimentConfig) -> int:
    """The estimated bytes that a run of a valid ``cfg`` asks for, term by
    term as README's size rule lists them."""
    n_slots = to_slots(cfg.sim.duration_s)
    n_epochs = epoch_count(n_slots, cfg.chan.coherence_slots)
    block = min(n_epochs, EPOCH_BLOCK)
    n_states, n_ues = len(state_angles(cfg)), len(cfg.ues)
    n = cfg.geom.n_h * cfg.geom.n_v
    return (
        4 * n_slots + 16 * (n_slots // scaled(cfg)[1] + 2)
        + (24 * n_epochs + 16 * block + 128) * (n_states + 1) * n_ues
        + (PHASOR_BUILD_BYTES * n_states + 16 * n_ues) * n
        + 48 * block * n_ues * n
        + RUN_FIXED_BYTES + RUN_UE_BYTES * n_ues
    )


def _float_or_inf(compute) -> float:
    """``compute()``, or inf where it overflows: a float power or a complex
    ``abs`` raises rather than return inf."""
    try:
        return compute()
    except OverflowError:
        return math.inf


def _scaled_counts(cfg: ExperimentConfig) -> dict[str, float]:
    """The ts-scaled slot counts before rounding, under the key each scales."""
    s = cfg.sim.ts_scaling
    return {
        "ris.ts_slots": _float_or_inf(lambda: cfg.ris.ts_slots / s),  # an int may exceed a float
        "la.window_ms": cfg.la.window_ms / SLOT_MS / s,
        "la.cqi_period_ms": cfg.la.cqi_period_ms / SLOT_MS / s,
    }


def scaled(cfg: ExperimentConfig) -> tuple[float, int, int, int]:
    """Effective (alpha, ts_slots, window_slots, cqi_slots) under ``sim.ts_scaling``."""
    counts = (max(1, round(n)) for n in _scaled_counts(cfg).values())
    return (cfg.sched.alpha * cfg.sim.ts_scaling, *counts)
