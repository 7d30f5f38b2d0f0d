"""Checkpoint container: text metadata block plus named float32 tensor blobs.

Layout: a magic line, ``key=value`` metadata lines, a ``blobs <count>``
separator, then per blob one header line ``<name> <ndim> <dims...>``
followed immediately by the raw little-endian float32 data. The metadata
keys are ``format_version`` (1), ``stages`` (per stage
``stride,channels,reduction,heads,mlp_ratio,depth``, joined by ``;``),
``input_size``, ``descriptor_dim``, ``step``, ``epoch``, ``final_loss``
and ``run.<field>`` for every RunConfig field. Loading validates each of
them, the ``run.*`` values together under ``RunConfig.validate`` and
against the model's (``config.check_agreement``), and skips other keys, such
as the input channel count older files carry, and the ``run.*`` keys of
the retired settings in ``RETIRED_RUN_KEYS`` whatever their value (a
checkpoint trained under the literal LT loss resumes under the one that
remains). Saving a loaded checkpoint reproduces the file byte for byte,
less the skipped lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .config import MODEL_SETTINGS, RunConfig, apply_overrides, check_agreement
from .errors import ContractError
from .model import Model, ModelConfig, StageConfig, describe_shapes
from .tensor import Tensor

MAGIC = b"LMCHECKPOINT 1"
RETIRED_RUN_KEYS = ("loss_mode", "use_scale", "use_rotate", "use_translate")


@dataclass
class Checkpoint:
    """A parsed checkpoint: the model and run configs, counters and parameter blobs."""

    config: ModelConfig
    run: RunConfig
    step: int
    epoch: int
    final_loss: float
    blobs: dict[str, np.ndarray]


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


def _run_meta(run: RunConfig) -> dict[str, str]:
    return {f.name: str(getattr(run, f.name)) for f in fields(RunConfig)}


def build_checkpoint(
    model: Model, run_config: RunConfig, step: int, epoch: int, final_loss: float
) -> Checkpoint:
    """Snapshot ``model``; the run values are stored as loading parses them
    (``eps=5`` becomes ``5.0``), so a saved file re-saves byte for byte.
    Refuses a ``run_config`` that loading would (``config.check_agreement``)."""
    run = apply_overrides(RunConfig(), _run_meta(run_config)).validate()
    check_agreement(run, model.config, MODEL_SETTINGS)
    blobs = {name: p.data for name, p in model.params.items()}
    return Checkpoint(model.config, run, int(step), int(epoch), float(final_loss), blobs)


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    meta = {
        "format_version": "1",
        "stages": _stages_to_text(ckpt.config),
        "input_size": str(ckpt.config.input_size),
        "descriptor_dim": str(ckpt.config.descriptor_dim),
        "step": str(ckpt.step),
        "epoch": str(ckpt.epoch),
        "final_loss": repr(ckpt.final_loss),
    }
    meta.update((f"run.{key}", value) for key, value in _run_meta(ckpt.run).items())
    parts = [MAGIC, b"\n"]
    parts += [f"{key}={value}\n".encode("utf-8") for key, value in meta.items()]
    parts.append(f"blobs {len(ckpt.blobs)}\n".encode("ascii"))
    for name, arr in ckpt.blobs.items():
        dims = " ".join(str(d) for d in arr.shape)
        parts.append(f"{name} {arr.ndim} {dims}\n".encode("ascii"))
        parts.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Parse and validate every metadata value and blob of the file at ``path``.

    The blobs are checked against :func:`describe_shapes` in lockstep, so the
    first missing, extra, misnamed or misshaped blob stops the walk. Any
    malformed content, a NaN or infinite weight too, raises ContractError naming ``path``.
    """
    buf = Path(path).read_bytes()
    if not buf.startswith(MAGIC + b"\n"):
        raise ContractError(f"{path}: not a checkpoint file")
    try:
        return _parse(buf)
    except (ValueError, LookupError, ArithmeticError) as exc:
        raise ContractError(f"{path}: malformed checkpoint: {exc!r}") from exc


def _parse(buf: bytes) -> Checkpoint:
    pos = len(MAGIC) + 1
    meta: dict[str, str] = {}
    while not buf.startswith(b"blobs ", pos):
        eol = buf.index(b"\n", pos)
        key, sep, value = buf[pos:eol].decode("utf-8").partition("=")
        if not sep or key in meta:
            raise ValueError(f"malformed or repeated metadata line for {key!r}")
        meta[key] = value
        pos = eol + 1
    if meta["format_version"] != "1":
        raise ValueError(f"unsupported format_version {meta['format_version']!r}")
    config = ModelConfig(
        stages=_stages_from_text(meta["stages"]),
        input_size=int(meta["input_size"]),
        descriptor_dim=int(meta["descriptor_dim"]),
    )
    step, epoch, final_loss = int(meta["step"]), int(meta["epoch"]), float(meta["final_loss"])
    run_meta = {key[4:]: value for key, value in meta.items() if key.startswith("run.")}
    for key in RETIRED_RUN_KEYS:
        run_meta.pop(key, None)
    run = apply_overrides(RunConfig(), run_meta).validate()
    check_agreement(run, config, MODEL_SETTINGS)

    eol = buf.index(b"\n", pos)
    n_blobs = int(buf[pos + len(b"blobs ") : eol])
    pos = eol + 1
    walk = describe_shapes(config)
    blobs: dict[str, np.ndarray] = {}
    for _ in range(n_blobs):
        eol = buf.index(b"\n", pos)
        header = buf[pos:eol].decode("ascii").split()
        pos = eol + 1
        name, ndim, shape = header[0], int(header[1]), tuple(int(v) for v in header[2:])
        expected = next(walk, None)
        if len(shape) != ndim or (name, shape) != expected:
            raise ValueError(f"blob header {header} where the config implies {expected}")
        nbytes = 4 * math.prod(shape)
        data = np.frombuffer(buf[pos : pos + nbytes], dtype="<f4")
        if data.nbytes != nbytes:
            raise ValueError(f"truncated blob {name}")
        if not np.isfinite(data).all():
            raise ValueError(f"blob {name} holds a non-finite value")
        pos += nbytes
        blobs[name] = data.reshape(shape).copy()
    if (missing := next(walk, None)) is not None:
        raise ValueError(f"{n_blobs} blobs; the config implies more, next {missing}")
    if pos != len(buf):
        raise ValueError(f"{len(buf) - pos} bytes after the last blob")
    return Checkpoint(config, run, step, epoch, final_loss, blobs)


def model_from_checkpoint(ckpt: Checkpoint) -> Model:
    params = {name: Tensor(arr.copy(), requires_grad=True) for name, arr in ckpt.blobs.items()}
    return Model(config=ckpt.config, params=params)
