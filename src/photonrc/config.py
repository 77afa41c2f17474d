"""Experiment configuration: defaults, profiles, and YAML round-trip."""

from __future__ import annotations

import dataclasses
import math
import numbers
import typing
from dataclasses import dataclass, field, replace
from pathlib import Path

import yaml

from .cmaes import DEFAULT_SIGMA_SWEEP
from .detector import DetectorConfig
from .signals import header_bits

__all__ = [
    "ReservoirSettings",
    "CmaesSettings",
    "ExperimentConfig",
    "paper_profile",
    "ci_profile",
    "profile_by_name",
    "config_from_dict",
    "config_to_dict",
    "load_config",
]

TRAINERS = ("ridge", "cmaes", "nlinv")

ALL_3BIT_HEADERS = tuple(format(v, "03b") for v in range(8))

# Leading bits of every sequence that no trainer fits and no score counts.
WARMUP_BITS = 10

# Samples of the input grid per bit.
SAMPLES_PER_BIT = 24


@dataclass(frozen=True)
class ReservoirSettings:
    rows: int = 4
    cols: int = 4
    topology_file: str | None = None

    def __post_init__(self) -> None:
        for key in ("rows", "cols"):
            if getattr(self, key) < 2:
                raise ValueError(f"reservoir.{key} must be at least 2, got {getattr(self, key)!r}")


@dataclass(frozen=True)
class CmaesSettings:
    max_iterations: int = 1000
    population: int | None = None
    sigma_sweep: tuple[float, ...] = DEFAULT_SIGMA_SWEEP
    convergence_iterations: int = 500

    def __post_init__(self) -> None:
        if not self.sigma_sweep:
            raise ValueError("cmaes.sigma_sweep needs at least one step size")
        for sigma0 in self.sigma_sweep:
            if not (sigma0 > 0 and math.isfinite(sigma0)):
                raise ValueError(f"cmaes.sigma_sweep step sizes must be positive and finite, got {sigma0!r}")
        if self.population is not None and self.population < 4:
            raise ValueError(f"cmaes.population must be at least 4, got {self.population!r}")
        for key in ("max_iterations", "convergence_iterations"):
            if getattr(self, key) < 1:
                raise ValueError(f"cmaes.{key} must be at least 1, got {getattr(self, key)!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; fully determines results together with seeds."""

    bitrates_gbps: tuple[float, ...] = tuple(float(r) for r in range(1, 32))
    headers: tuple[str, ...] = ("101",)
    trainers: tuple[str, ...] = ("ridge",)
    n_train_bits: int = 10010
    n_test_bits: int = 10010
    n_reservoirs: int = 10
    p_total_w: float = 0.1
    bias_power_w: float = 0.02
    master_seed: int = 1234
    perturbation_bitrate_gbps: float = 5.0
    perturbation_b_over_pi: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    n_perturbation_draws: int = 10
    reservoir: ReservoirSettings = field(default_factory=ReservoirSettings)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    cmaes: CmaesSettings = field(default_factory=CmaesSettings)

    def __post_init__(self) -> None:
        object.__setattr__(self, "bitrates_gbps", tuple(float(b) for b in self.bitrates_gbps))
        # Seeds hash a bitrate by type, so YAML 10 must draw what 10.0 draws.
        object.__setattr__(self, "perturbation_bitrate_gbps", float(self.perturbation_bitrate_gbps))
        object.__setattr__(self, "headers", tuple(self.headers))
        object.__setattr__(self, "trainers", tuple(self.trainers))
        for key in ("bitrates_gbps", "headers", "trainers", "perturbation_b_over_pi"):
            values = getattr(self, key)
            if not values:
                raise ValueError(f"{key} needs at least one entry")
            if len(set(values)) < len(values):
                raise ValueError(f"{key} must not repeat an entry, got {list(values)!r}")
        for h in self.headers:
            if not isinstance(h, str):
                raise ValueError(f"headers entries must be strings, got {h!r}")
            header_bits(h)
        for b in self.bitrates_gbps:
            if not 0 < b < math.inf:
                raise ValueError(f"bitrates must be positive and finite, got {b!r}")
        # bias_power_w is positive because the bias line is the nlinv reference.
        for key in ("perturbation_bitrate_gbps", "p_total_w", "bias_power_w"):
            if not 0 < getattr(self, key) < math.inf:
                raise ValueError(f"{key} must be positive and finite, got {getattr(self, key)!r}")
        for b in self.perturbation_b_over_pi:
            if not 0 <= b < math.inf:
                raise ValueError(f"perturbation_b_over_pi entries must be non-negative and finite, got {b!r}")
        if self.n_perturbation_draws < 1:
            raise ValueError(f"n_perturbation_draws must be at least 1, got {self.n_perturbation_draws!r}")
        for t in self.trainers:
            if t not in TRAINERS:
                raise ValueError(f"unknown trainer {t!r}; expected one of {TRAINERS}")
        if WARMUP_BITS >= min(self.n_train_bits, self.n_test_bits):
            raise ValueError("warm-up must be shorter than the bit sequences")
        if self.n_reservoirs < 1:
            raise ValueError("need at least one reservoir instance")


def paper_profile() -> ExperimentConfig:
    """Full scale: 10010 bits, 1-31 Gbps, 10 reservoir instances."""
    return ExperimentConfig()


def ci_profile() -> ExperimentConfig:
    """Desk scale: short sequences and a reduced sweep for quick runs."""
    return ExperimentConfig(
        bitrates_gbps=(5.0, 10.0, 15.0, 20.0),
        n_train_bits=2010,
        n_test_bits=2010,
        n_reservoirs=3,
        n_perturbation_draws=3,
        perturbation_b_over_pi=(0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0),
        cmaes=CmaesSettings(max_iterations=300, convergence_iterations=300),
    )


_PROFILES = {"paper": paper_profile, "ci": ci_profile}


def profile_by_name(name: str) -> ExperimentConfig:
    try:
        return _PROFILES[name]()
    except KeyError:
        raise ValueError(f"unknown profile {name!r}; expected one of {sorted(_PROFILES)}") from None


_SECTION_TYPES = {
    "reservoir": ReservoirSettings,
    "detector": DetectorConfig,
    "cmaes": CmaesSettings,
}


def _float(key: str, value) -> float:
    if isinstance(value, bool):
        raise ValueError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{key} must be a number, got {value!r}") from None


def _int(key: str, value) -> int:
    """An integer, or a float with an integral value such as YAML ``2.0``.

    Bools, strings and fractional or non-finite numbers are rejected, so a
    bad count fails here as a usage error instead of inside a run.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{key} must be an integer, got {value!r}")


def _values(cls, data: dict) -> dict:
    """``data`` fitted to the field types of ``cls``.

    Each list-valued field's sequence becomes a tuple.  Each float field,
    and each element of a float list, is cast with ``float()``: PyYAML
    reads ``1e-3`` or ``2.5e10`` as a string, since it wants a dot and a
    signed exponent.  Each element of a string list must be a string:
    PyYAML reads an unquoted header ``001`` as the integer 1, and no cast
    can bring back the leading zeros.  Each int field, and each
    ``int | None`` field that is not null, must hold an integer
    (:func:`_int`), each bool field true or false, and each
    ``str | None`` field a string or null.
    """
    hints = typing.get_type_hints(cls)
    fixed = dict(data)
    for k, v in data.items():
        hint = hints.get(k)
        if typing.get_origin(hint) is tuple:
            if not isinstance(v, (list, tuple)):
                raise ValueError(f"{k} must be a list, got {v!r}")
            if hint == tuple[float, ...]:
                fixed[k] = tuple(_float(k, x) for x in v)
            elif all(isinstance(x, str) for x in v):
                fixed[k] = tuple(v)
            else:
                raise ValueError(f"{k} entries must be quoted strings, got {list(v)!r}")
        elif hint is float:
            fixed[k] = _float(k, v)
        elif hint is int or (hint == int | None and v is not None):
            fixed[k] = _int(k, v)
        elif hint is bool and not isinstance(v, bool):
            raise ValueError(f"{k} must be true or false, got {v!r}")
        elif hint == str | None and not (v is None or isinstance(v, str)):
            raise ValueError(f"{k} must be a string or null, got {v!r}")
    return fixed


def _build_section(cls, data: dict, base):
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    return replace(base, **_values(cls, data))


def config_from_dict(data: dict, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Overlay a (possibly partial) mapping onto a base configuration."""
    cfg = base if base is not None else ExperimentConfig()
    data = dict(data or {})
    updates = {}
    for section, cls in _SECTION_TYPES.items():
        if section in data:
            values = data.pop(section)
            if values is None:  # a YAML section whose keys are all commented out
                values = {}
            if not isinstance(values, dict):
                raise ValueError(f"config section {section} must be a mapping, got {values!r}")
            updates[section] = _build_section(cls, values, getattr(cfg, section))
    allowed = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    updates.update(_values(ExperimentConfig, data))
    return replace(cfg, **updates)


def _plain(value):
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return _plain(cfg)


def load_config(path: str | Path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    with open(path) as fh:
        data = yaml.safe_load(fh) or {}
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a mapping")
    return config_from_dict(data, base=base)
