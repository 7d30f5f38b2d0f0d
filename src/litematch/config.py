"""Run configuration: defaults, flat key=value files, CLI overrides.

Unknown keys are refused, the retired ``loss_mode`` and ``use_*`` switches
too; only checkpoint loading skips those (``checkpoint.RETIRED_RUN_KEYS``).

A dataset manifest and a model fix some settings (:data:`MANIFEST_SETTINGS`,
:data:`MODEL_SETTINGS`); :func:`check_agreement` is the one rule that
refuses a run config disagreeing with either, wherever a run meets one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError


@dataclass
class RunConfig:
    """Every tunable of the data/train/match pipeline in one flat record."""

    # model
    descriptor_dim: int = 128
    input_size: int = 128
    # optimizer
    lr: float = 0.001
    momentum: float = 0.9
    batch_size: int = 256
    epochs: int = 50
    # dataset construction
    triplets: int = 10000
    pairs: int = 4
    synth_size: int = 512
    window: int = 64
    clahe_clip: float = 2.0
    clahe_grid: int = 8
    max_keypoints: int = 300
    split_ratio: float = 0.8
    # matcher
    threshold: float = 0.5
    eps: float = 5.0
    mutual: bool = False
    # bookkeeping
    seed: int = 0
    checkpoint_every: int = 10

    def validate(self) -> "RunConfig":
        # written so that NaN, which fails every comparison, is refused too
        for name in ("lr", "threshold", "eps"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        # the patch sampler's own limit is 2; numpy's SeedSequence takes no negative seed
        least = dict(batch_size=1, epochs=1, triplets=1, pairs=1, max_keypoints=1,
                     window=2, input_size=2, seed=0)
        for name, low in least.items():
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be at least {low}, got {getattr(self, name)}")
        if not 0 < self.split_ratio < 1:
            raise ConfigError("split_ratio must lie in (0, 1)")
        return self


class FixedSettings(NamedTuple):
    """The RunConfig fields a source fixes, each keyed to the source's own
    attribute, and how an error message says the source holds them."""

    held: str
    names: dict[str, str]


MANIFEST_SETTINGS = FixedSettings(
    "the manifest was built with",
    dict(window="window", input_size="out_size", clahe_clip="clahe_clip", clahe_grid="clahe_grid"),
)
MODEL_SETTINGS = FixedSettings(
    "the checkpoint's model has", dict(input_size="input_size", descriptor_dim="descriptor_dim")
)


def check_agreement(cfg: RunConfig, source: object, fixed: FixedSettings) -> None:
    """Raise ConfigError naming the first of the ``fixed`` settings that
    ``cfg`` sets differently from ``source``, a manifest or a model config."""
    for name, attr in fixed.names.items():
        want, have = getattr(cfg, name), getattr(source, attr)
        if want != have:
            raise ConfigError(f"the run config sets {name}={want} but {fixed.held} {attr}={have}")


def _parse_value(name: str, kind: type, raw: str):
    raw = raw.strip()
    try:
        if kind is bool:
            lowered = raw.lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"config key {name}: cannot parse {raw!r} as {kind.__name__}") from exc


def apply_overrides(cfg: RunConfig, overrides: dict[str, str]) -> RunConfig:
    """Set fields from raw string values, type-checked against the dataclass."""
    # under ``from __future__ import annotations`` every field type is its name
    kinds = {"int": int, "float": float, "bool": bool}
    types = {f.name: kinds[f.type] for f in fields(RunConfig)}
    for key, raw in overrides.items():
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(cfg, key, _parse_value(key, types[key], raw))
    return cfg


def load_config_file(path: str | Path, cfg: "RunConfig | None" = None) -> RunConfig:
    """Flat ``key=value`` lines; ``#`` comments and blank lines are skipped."""
    cfg = cfg or RunConfig()
    overrides: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, raw = stripped.split("=", 1)
        overrides[key.strip()] = raw
    return apply_overrides(cfg, overrides)
