"""Structured pipeline configuration: a YAML file with one section per
stage, and one frozen dataclass per section. A section class's fields are
the section's keys, their defaults the built-in values and its
``__post_init__`` the checks; a field whose metadata says ``supplied`` is
set by the program at stage time and is not a key. ``load_config``
converts every value by its field's annotation and builds every section
before any stage runs; an unknown key or a rejected value is a
ConfigError. CLI flags override file keys. All stage randomness derives
from one top-level seed via fixed offsets.
"""
from __future__ import annotations

import dataclasses
import enum
import math
import types
import typing
from dataclasses import dataclass, field

import yaml

from .clustering import ClusterConfig
from .cvqvae import TrainConfig
from .detect import DetectorConfig
from .dgsfm import DgsfmConfig
from .extraction import ExtractionConfig
from .types import integral


class ConfigError(Exception):
    """Unknown key or invalid value in the pipeline configuration."""


# Per-stage seed = seed + offset. Documented here; do not reorder. Offset 3
# belonged to the removed train/validation split and stays unused.
STAGE_SEED_OFFSETS = {
    "synth": 1,
    "augment": 2,
    "train": 4,
    "cluster": 5,
    "gradcheck": 6,
}


@dataclass(frozen=True)
class SynthConfig:
    kind: str = "trajectories"  # or "archetypes"
    n_trajectories: int = 40
    noise_sigma_accel: float = 0.05
    dt: float = 0.04
    n_per_class: int = 200

    def __post_init__(self):
        if self.kind not in ("trajectories", "archetypes"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.n_trajectories < 1 or self.n_per_class < 1:
            raise ValueError("n_trajectories and n_per_class must be at least 1")
        if not (0.0 < self.dt and 0.0 <= self.noise_sigma_accel):
            raise ValueError("dt must be positive and noise_sigma_accel non-negative")


@dataclass(frozen=True)
class AugmentConfig:
    n_augment: int = 10
    min_gap: float = 80.0  # m

    def __post_init__(self):
        if self.n_augment < 1 or not 0.0 <= self.min_gap:
            raise ValueError("n_augment must be at least 1 and min_gap non-negative")


@dataclass(frozen=True)
class Config:
    """The whole configuration: the top-level keys and one section per stage."""

    seed: int = 0
    workdir: str = "out"
    synth: SynthConfig = field(default_factory=SynthConfig)
    detect: DetectorConfig = field(default_factory=DetectorConfig)
    dgsfm: DgsfmConfig = field(default_factory=DgsfmConfig)
    extract: ExtractionConfig = field(default_factory=ExtractionConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)


def keys(cls) -> dict[str, object]:
    """The config keys of a section class, each with its field's annotation."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls) if not f.metadata.get("supplied")}


_KINDS = {int: "an integer", float: "a finite number", str: "a string"}


def _convert(hint, value, where: str):
    """``value`` converted to the annotation ``hint``, element by element;
    a float must be finite."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if dataclasses.is_dataclass(hint):
        return _build(hint, value, where)
    if origin is typing.Union or origin is types.UnionType:  # Optional[X]
        (inner,) = [a for a in args if a is not type(None)]
        return None if value is None else _convert(inner, value, where)
    if origin is tuple or origin is frozenset:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        items = (args[0],) * len(value) if origin is frozenset or args[1:] == (...,) else args
        if len(items) != len(value):
            raise ConfigError(f"{where} must have {len(items)} entries, got {value!r}")
        return origin(_convert(h, v, f"{where}[{i}]") for i, (h, v) in enumerate(zip(items, value)))
    try:
        if hint is int:
            return integral(value)
        elif hint is float and not isinstance(value, bool) and math.isfinite(number := float(value)):
            return number
        elif hint is str and isinstance(value, str):
            return value
        elif isinstance(hint, type) and issubclass(hint, enum.Enum):
            return hint(value)
    except (TypeError, ValueError, OverflowError):
        pass
    kind = _KINDS.get(hint) or "one of " + ", ".join(str(m.value) for m in hint)
    raise ConfigError(f"{where} must be {kind}, got {value!r}")


def _build(cls, section, where: str):
    """An instance of the section class ``cls`` from the mapping ``section``."""
    if not isinstance(section, dict):
        raise ConfigError(f"config key {where} must be a section")
    known = keys(cls)
    prefix = f"{where}." if where else ""
    for key in section:
        if key not in known:
            raise ConfigError(f"unknown config key: {prefix}{key}")
    values = {key: _convert(known[key], value, prefix + key) for key, value in section.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"invalid {where} section: {exc}") from exc


def load_config(path: str | None) -> Config:
    if path is None:
        return Config()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh) or {}
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    except (UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"{path}: " + " ".join(str(exc).split())) from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return _build(Config, data, "")


def override(cfg: Config, section: str, **changes):
    """``cfg``'s section with ``changes`` applied (fields the program
    supplies, or CLI overrides), each converted as a file key is; a value
    that fails the conversion or that the section rejects is a ConfigError."""
    current = getattr(cfg, section)
    hints = typing.get_type_hints(type(current))
    changes = {name: _convert(hints[name], value, f"{section}.{name}") for name, value in changes.items()}
    try:
        return dataclasses.replace(current, **changes)
    except ValueError as exc:
        raise ConfigError(f"invalid {section} section: {exc}") from exc


def stage_seed(cfg: Config, stage: str) -> int:
    return cfg.seed + STAGE_SEED_OFFSETS[stage]
