"""Checkpoint container: text metadata block plus named float32 tensor blobs.

Layout: a magic line, ``key=value`` metadata lines, a ``blobs <count>``
separator, then per blob one header line ``<name> <ndim> <dims...>``
followed immediately by the raw little-endian float32 data. Saving a
loaded checkpoint reproduces the file byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .config import RunConfig, apply_overrides
from .errors import ContractError
from .model import Model, ModelConfig, StageConfig, count_param_tensors, describe_shapes
from .tensor import Tensor

MAGIC = b"LMCHECKPOINT 1"


@dataclass
class Checkpoint:
    """Parsed checkpoint: ordered metadata and parameter blobs."""

    meta: dict[str, str]
    blobs: dict[str, np.ndarray]

    @property
    def step(self) -> int:
        return int(self.meta["step"])

    @property
    def epoch(self) -> int:
        return int(self.meta["epoch"])

    @property
    def final_loss(self) -> float:
        return float(self.meta["final_loss"])


def _stages_to_text(config: ModelConfig) -> str:
    return ";".join(
        f"{s.stride},{s.channels},{s.reduction},{s.heads},{s.mlp_ratio},{s.depth}"
        for s in config.stages
    )


def _stages_from_text(text: str) -> tuple[StageConfig, ...]:
    stages = []
    for part in text.split(";"):
        stride, channels, reduction, heads, mlp, depth = (int(v) for v in part.split(","))
        stages.append(StageConfig(stride, channels, reduction, heads, mlp, depth))
    return tuple(stages)


def model_config_from_meta(meta: dict[str, str]) -> ModelConfig:
    return ModelConfig(
        stages=_stages_from_text(meta["stages"]),
        input_size=int(meta["input_size"]),
        input_channels=int(meta["input_channels"]),
        descriptor_dim=int(meta["descriptor_dim"]),
    )


def run_config_from_meta(meta: dict[str, str]) -> RunConfig:
    overrides = {
        key[4:]: value for key, value in meta.items() if key.startswith("run.")
    }
    return apply_overrides(RunConfig(), overrides)


def build_checkpoint(
    model: Model, run_config: RunConfig, step: int, epoch: int, final_loss: float
) -> Checkpoint:
    meta: dict[str, str] = {
        "format_version": "1",
        "stages": _stages_to_text(model.config),
        "input_size": str(model.config.input_size),
        "input_channels": str(model.config.input_channels),
        "descriptor_dim": str(model.config.descriptor_dim),
        "step": str(step),
        "epoch": str(epoch),
        "final_loss": repr(float(final_loss)),
    }
    for f in fields(RunConfig):
        meta[f"run.{f.name}"] = str(getattr(run_config, f.name))
    blobs = {name: p.data for name, p in model.params.items()}
    return Checkpoint(meta=meta, blobs=blobs)


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    parts = [MAGIC, b"\n"]
    for key, value in ckpt.meta.items():
        parts.append(f"{key}={value}\n".encode("utf-8"))
    parts.append(f"blobs {len(ckpt.blobs)}\n".encode("ascii"))
    for name, arr in ckpt.blobs.items():
        dims = " ".join(str(d) for d in arr.shape)
        parts.append(f"{name} {arr.ndim} {dims}\n".encode("ascii"))
        parts.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Parse and validate: every blob shape must match describe_shapes.

    The blob count is compared with :func:`count_param_tensors` first, so a
    corrupt stage depth is rejected without building its shape table. A
    malformed file (cut short, a corrupt count, dimension or metadata
    value) raises ContractError naming ``path``.
    """
    buf = Path(path).read_bytes()
    if not buf.startswith(MAGIC + b"\n"):
        raise ContractError(f"{path}: not a checkpoint file")
    try:
        meta, blobs = _parse(path, buf, len(MAGIC) + 1)
        config = model_config_from_meta(meta)
    except (ValueError, LookupError, ArithmeticError) as exc:
        raise ContractError(f"{path}: malformed checkpoint: {exc!r}") from exc
    n_expected = count_param_tensors(config)
    if n_expected != len(blobs):
        raise ContractError(
            f"{path}: {len(blobs)} parameter blobs, the config implies {n_expected}"
        )
    expected = describe_shapes(config).params
    if set(expected) != set(blobs):
        missing = sorted(set(expected) ^ set(blobs))
        raise ContractError(f"{path}: parameter names do not match the config: {missing[:4]}")
    for name, shape in expected.items():
        if blobs[name].shape != shape:
            raise ContractError(
                f"{path}: blob {name} has shape {blobs[name].shape}, expected {shape}"
            )
    return Checkpoint(meta=meta, blobs=blobs)


def _parse(path: str | Path, buf: bytes, pos: int) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    meta: dict[str, str] = {}
    while True:
        eol = buf.index(b"\n", pos)
        line = buf[pos:eol].decode("utf-8")
        pos = eol + 1
        if line.startswith("blobs "):
            n_blobs = int(line.split(" ", 1)[1])
            break
        if "=" not in line:
            raise ContractError(f"{path}: malformed metadata line {line!r}")
        key, value = line.split("=", 1)
        meta[key] = value
    blobs: dict[str, np.ndarray] = {}
    for _ in range(n_blobs):
        eol = buf.index(b"\n", pos)
        header = buf[pos:eol].decode("ascii").split()
        pos = eol + 1
        name, ndim = header[0], int(header[1])
        shape = tuple(int(v) for v in header[2:])
        if len(shape) != ndim or min(shape, default=0) < 0:
            raise ContractError(f"{path}: malformed header for blob {name}: {header!r}")
        nbytes = 4 * math.prod(shape)
        data = np.frombuffer(buf[pos : pos + nbytes], dtype="<f4")
        if data.nbytes != nbytes:
            raise ContractError(f"{path}: truncated blob {name}")
        pos += nbytes
        blobs[name] = data.reshape(shape).copy()
    return meta, blobs


def model_from_checkpoint(ckpt: Checkpoint) -> Model:
    config = model_config_from_meta(ckpt.meta)
    params = {
        name: Tensor(arr.copy(), requires_grad=True) for name, arr in ckpt.blobs.items()
    }
    return Model(config=config, params=params)
