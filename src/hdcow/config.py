"""JSON configuration: schema, strict validation, defaults.

The defaults describe the reference system: 500 MHz modulation (2 ns
slots), avalanche detectors with 20% efficiency and 4 us dead time,
1% modulator extinction, a 40 km standard-fiber link at 0.2 dB/km, a
10% monitor tap, 99% visibility, and a per-wrong-slot error rate of
0.4%.  ``hdcow rates`` with no arguments therefore reproduces the model
rate curves out of the box.  Unknown keys anywhere in the file are
rejected.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .channel import PhysicalParams
from .errors import InvalidArgumentError
from .protocol import ProtocolParams
from .rates import LinearNoise, TableNoise, THRESHOLD_CONVENTION
from .session import SessionSettings

__all__ = ["Config", "load_config", "default_config"]

REFERENCE_T_CH = 10 ** (-0.8)  # 40 km at 0.2 dB/km


@dataclass(frozen=True)
class ProtocolSection:
    dimensions: tuple = (2, 4, 8, 16, 32)
    tau: float = 2e-9


@dataclass(frozen=True)
class PhysicalSection:
    mu: float = 0.05
    t_ch: float = REFERENCE_T_CH
    xi: float = 0.2
    t_dead: float = 4e-6
    p_dc: float = 0.0
    r_ext: float = 0.01
    f_mon: float = 0.1
    visibility: float = 0.99


@dataclass(frozen=True)
class NoiseSection:
    model: str = "linear"  # "linear" | "table"
    q_slot: float = 0.004
    table: tuple = ()  # entries {"d": int, "q": float, "v": float}


@dataclass(frozen=True)
class SweepSection:
    mu_min: float = 0.005
    mu_max: float = 0.3
    mu_steps: int = 120


@dataclass(frozen=True)
class ThresholdSection:
    mu: float = THRESHOLD_CONVENTION["mu"]
    visibility: float = THRESHOLD_CONVENTION["visibility"]
    axis: str = THRESHOLD_CONVENTION["axis"]  # "per_slot" | "total"
    dimensions: tuple = (2, 4, 8, 16)


@dataclass(frozen=True)
class SessionSection:
    d: int = 8
    n: int = 64
    blocks: int = 100
    sample_fraction: float = 1.0


@dataclass(frozen=True)
class Config:
    seed: int = 1
    protocol: ProtocolSection = field(default_factory=ProtocolSection)
    physical: PhysicalSection = field(default_factory=PhysicalSection)
    noise: NoiseSection = field(default_factory=NoiseSection)
    sweep: SweepSection = field(default_factory=SweepSection)
    threshold: ThresholdSection = field(default_factory=ThresholdSection)
    session: SessionSection = field(default_factory=SessionSection)

    def physical_params(self) -> PhysicalParams:
        """The physical section as model parameters."""
        p = self.physical
        return PhysicalParams(
            mu=p.mu,
            t_ch=p.t_ch,
            xi=p.xi,
            t_dead=p.t_dead,
            tau=self.protocol.tau,
            p_dc=p.p_dc,
            r_ext=p.r_ext,
            f_mon=p.f_mon,
            v_true=p.visibility,
        )

    def session_protocol(self) -> ProtocolParams:
        return ProtocolParams(
            d=self.session.d, n=self.session.n, tau=self.protocol.tau
        )

    def session_settings(self) -> SessionSettings:
        """The ``hdcow simulate`` session, checked by ``SessionSettings``
        and the parameters it holds; the config is checked at load by this
        call.  Each names a field it refuses first in its message
        (``mu=-0.05 must be non-negative``); the error here names its
        config key instead (``physical.mu=-0.05 ...``)."""
        try:
            return SessionSettings(
                protocol=self.session_protocol(),
                physical=self.physical_params(),
                blocks=self.session.blocks,
                sample_fraction=self.session.sample_fraction,
            )
        except InvalidArgumentError as exc:
            name, _, rest = str(exc).partition("=")
            if name not in _KEYS:
                raise
            raise InvalidArgumentError(f"{_KEYS[name]}={rest}") from None

    def noise_model(self):
        table = _noise_table(self.noise.table)  # rows checked for either model
        if self.noise.model == "linear":
            return LinearNoise(
                q_slot=self.noise.q_slot, visibility=self.physical.visibility
            )
        if self.noise.model == "table":
            missing = [d for d in self.protocol.dimensions if d not in table]
            if missing:
                raise InvalidArgumentError(
                    f"noise table lacks entries for dimensions {missing}"
                )
            return TableNoise(table=table)
        raise InvalidArgumentError(f"unknown noise model {self.noise.model!r}")

    def mu_grid(self) -> list[float]:
        """``mu_steps`` evenly spaced values from ``mu_min`` to ``mu_max``;
        both ends must be finite, with ``0 < mu_min <= mu_max``."""
        s = self.sweep
        if s.mu_steps < 1:
            raise InvalidArgumentError(f"sweep.mu_steps={s.mu_steps} must be >= 1")
        if not (math.isfinite(s.mu_min) and s.mu_min > 0.0):
            raise InvalidArgumentError(f"sweep.mu_min={s.mu_min} must be finite and > 0")
        if not (math.isfinite(s.mu_max) and s.mu_max >= s.mu_min):
            raise InvalidArgumentError(
                f"sweep.mu_max={s.mu_max} must be finite and >= sweep.mu_min={s.mu_min}"
            )
        if s.mu_steps == 1:
            return [s.mu_min]
        step = (s.mu_max - s.mu_min) / (s.mu_steps - 1)
        return [s.mu_min + k * step for k in range(s.mu_steps)]


# The config key of each field of PhysicalParams, ProtocolParams and
# SessionSettings.
_KEYS = {
    **{
        name: f"physical.{name}"
        for name in ("mu", "t_ch", "xi", "t_dead", "p_dc", "r_ext", "f_mon")
    },
    **{name: f"session.{name}" for name in ("d", "n", "blocks", "sample_fraction")},
    "tau": "protocol.tau",
    "v_true": "physical.visibility",
}

_SECTION_TYPES = {
    "protocol": ProtocolSection,
    "physical": PhysicalSection,
    "noise": NoiseSection,
    "sweep": SweepSection,
    "threshold": ThresholdSection,
    "session": SessionSection,
}

_LIST_FIELDS = {"dimensions", "table"}


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _as_float(val, where: str) -> float:
    """A JSON number as a float; a bool, a string or an integer too large
    for a float is refused with ``where`` named."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise InvalidArgumentError(f"{where}: expected a number, got {val!r}")
    try:
        return float(val)
    except OverflowError:
        raise InvalidArgumentError(f"{where}: integer out of float range") from None


def _coerce(current, val, where: str):
    """``val`` checked against the type of the field's default ``current``:
    an int field takes a JSON integer only, a float field an integer or a
    float, a string field a string."""
    if isinstance(current, str):
        if not isinstance(val, str):
            raise InvalidArgumentError(f"{where}: expected a string, got {val!r}")
        return val
    if isinstance(current, int):
        if not _is_int(val):
            raise InvalidArgumentError(f"{where}: expected an integer, got {val!r}")
        return val
    return _as_float(val, where)


def _build_section(cls, raw: dict, path: str):
    if not isinstance(raw, dict):
        raise InvalidArgumentError(f"{path}: expected an object")
    defaults = cls()
    known = set(cls.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise InvalidArgumentError(
            f"{path}: unknown keys {sorted(unknown)}; known keys {sorted(known)}"
        )
    values = {}
    for name in known & set(raw):
        val = raw[name]
        if name in _LIST_FIELDS:
            if not isinstance(val, list):
                raise InvalidArgumentError(f"{path}.{name}: expected a list")
            values[name] = tuple(val)
        else:
            values[name] = _coerce(getattr(defaults, name), val, f"{path}.{name}")
    return cls(**values)


def _noise_table(rows) -> dict:
    """``{d: (q, v)}`` from the ``noise.table`` rows.  Each row must be an
    object with exactly the keys d (an integer >= 2), q (in [0, 1/(d-1)])
    and v (in [0, 1]), and no d may repeat; a bad row is named by its
    index."""
    table = {}
    for i, row in enumerate(rows):
        where = f"noise.table[{i}]"
        if not isinstance(row, dict):
            raise InvalidArgumentError(f"{where}: expected an object, got {row!r}")
        if set(row) != {"d", "q", "v"}:
            raise InvalidArgumentError(
                f"{where}: keys {sorted(row)}, expected exactly ['d', 'q', 'v']"
            )
        d = row["d"]
        if not (_is_int(d) and d >= 2):
            raise InvalidArgumentError(f"{where}.d: expected an integer >= 2, got {d!r}")
        if d in table:
            raise InvalidArgumentError(f"{where}: d={d} repeats an earlier row")
        q, v = _as_float(row["q"], f"{where}.q"), _as_float(row["v"], f"{where}.v")
        if not 0.0 <= q <= 1.0 / (d - 1):
            raise InvalidArgumentError(f"{where}.q={q} outside [0, 1/(d-1)] for d={d}")
        if not 0.0 <= v <= 1.0:
            raise InvalidArgumentError(f"{where}.v={v} outside [0, 1]")
        table[d] = (q, v)
    return table


def default_config() -> Config:
    return Config()


def parse_config(raw: dict) -> Config:
    if not isinstance(raw, dict):
        raise InvalidArgumentError("config root must be an object")
    unknown = set(raw) - ({"seed"} | set(_SECTION_TYPES))
    if unknown:
        raise InvalidArgumentError(f"config: unknown top-level keys {sorted(unknown)}")
    sections = {
        key: _build_section(cls, raw[key], key)
        for key, cls in _SECTION_TYPES.items()
        if key in raw
    }
    seed = raw.get("seed", Config().seed)
    if not _is_int(seed):
        raise InvalidArgumentError(f"config.seed must be an integer, got {seed!r}")
    config = Config(seed=seed, **sections)
    _validate(config)
    return config


def _validate(config: Config) -> None:
    for section in ("protocol", "threshold"):
        dimensions = getattr(config, section).dimensions
        for i, d in enumerate(dimensions):
            if not (_is_int(d) and d >= 2):
                raise InvalidArgumentError(
                    f"{section}.dimensions entry {d!r} must be int >= 2"
                )
            if d in dimensions[:i]:
                raise InvalidArgumentError(
                    f"{section}.dimensions={list(dimensions)}: entry {i} (d={d}) "
                    f"repeats an earlier entry"
                )
    if not config.protocol.dimensions:
        raise InvalidArgumentError("protocol.dimensions must be non-empty")
    config.session_settings()
    config.mu_grid()
    if config.threshold.axis not in ("per_slot", "total"):
        raise InvalidArgumentError(
            f"threshold.axis {config.threshold.axis!r} not in ('per_slot', 'total')"
        )
    for section in ("physical", "threshold"):
        mu = getattr(config, section).mu
        if not (math.isfinite(mu) and mu > 0.0):
            raise InvalidArgumentError(f"{section}.mu={mu} must be finite and > 0")
    visibility = config.threshold.visibility
    if not 0.0 <= visibility <= 1.0:
        raise InvalidArgumentError(f"threshold.visibility={visibility} outside [0, 1]")
    d_max = max(config.protocol.dimensions)
    if not 0.0 <= config.noise.q_slot < 1.0 / (d_max - 1):
        raise InvalidArgumentError(
            f"noise.q_slot={config.noise.q_slot} outside [0, 1/(d-1)) for d={d_max}"
        )
    config.noise_model()


def load_config(path: str | None) -> Config:
    """Load and validate a JSON config; None gives the defaults."""
    if path is None:
        return default_config()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or an integer too long to parse
            raise InvalidArgumentError(f"{path}: not valid JSON ({exc})") from exc
    return parse_config(raw)
