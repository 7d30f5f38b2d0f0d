"""Run configuration: defaults, flat key=value files, CLI overrides."""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

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
    loss_mode: str = "corrected"
    # dataset construction
    triplets: int = 10000
    pairs: int = 4
    synth_size: int = 512
    window: int = 64
    clahe_clip: float = 2.0
    clahe_grid: int = 8
    max_keypoints: int = 300
    use_scale: bool = True
    use_rotate: bool = True
    use_translate: bool = True
    split_ratio: float = 0.8
    # matcher
    threshold: float = 0.5
    eps: float = 5.0
    mutual: bool = False
    # bookkeeping
    seed: int = 0
    checkpoint_every: int = 10

    def transform_kinds(self) -> tuple[str, ...]:
        kinds = ["identity"]
        if self.use_scale:
            kinds.append("scale")
        if self.use_rotate:
            kinds.append("rotate")
        if self.use_translate:
            kinds.append("translate")
        return tuple(kinds)

    def validate(self) -> "RunConfig":
        if self.lr <= 0 or not 0 <= self.momentum < 1:
            raise ConfigError("optimizer settings out of range")
        if self.batch_size < 1 or self.epochs < 1 or self.triplets < 1:
            raise ConfigError("batch_size, epochs and triplets must be positive")
        if self.loss_mode not in ("corrected", "literal"):
            raise ConfigError(f"unknown loss_mode {self.loss_mode!r}")
        if self.threshold <= 0 or self.eps <= 0:
            raise ConfigError("threshold and eps must be positive")
        if self.max_keypoints < 1:
            raise ConfigError(f"max_keypoints must be at least 1, got {self.max_keypoints}")
        if not 0 < self.split_ratio < 1:
            raise ConfigError("split_ratio must lie in (0, 1)")
        return self


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
    types = {f.name: f.type for f in fields(RunConfig)}
    py_types = {"int": int, "float": float, "bool": bool, "str": str}
    for key, raw in overrides.items():
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}")
        kind = py_types[types[key]] if isinstance(types[key], str) else types[key]
        setattr(cfg, key, _parse_value(key, kind, raw))
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
