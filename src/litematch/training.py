"""Mini-batch SGD training of the descriptor network on manifest triplets.

Patches are regenerated lazily per batch from the enhanced source images,
so memory stays flat regardless of dataset size. Batch composition
depends only on the seed (per-epoch derived generators), which keeps runs
reproducible and resume-safe. The run config must agree with the
manifest and with a resumed model on the settings they fix
(:func:`litematch.config.check_agreement`).
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import (
    build_checkpoint,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
)
from .config import MANIFEST_SETTINGS, MODEL_SETTINGS, RunConfig, check_agreement
from .dataset import (
    AlignedPair,
    DatasetManifest,
    enhanced_pair,
    load_dataset,
    materialize_triplet,
    split,
)
from .errors import ConfigError, DatasetError, DegenerateDescriptorError, TrainingError
from .image import GrayImage
from .loss import triplet_loss
from .model import Model, ModelConfig, forward, init_model
from .tensor import SGD, Tape, Tensor, backward


@dataclass
class EpochStats:
    step: int
    epoch: int
    mean_loss: float
    wall_ms: float


@dataclass
class TrainReport:
    epochs: list[EpochStats] = field(default_factory=list)
    final_loss: float = float("nan")
    steps: int = 0

    def log_text(self) -> str:
        """Deterministic per-epoch log: wall time goes to stderr, not here."""
        lines = ["step\tepoch\tmean_loss"]
        lines += [f"{e.step}\t{e.epoch}\t{e.mean_loss:.8f}" for e in self.epochs]
        return "\n".join(lines) + "\n"


def model_config_for(cfg: RunConfig) -> ModelConfig:
    return ModelConfig(input_size=cfg.input_size, descriptor_dim=cfg.descriptor_dim)


def select_records(manifest: DatasetManifest, cfg: RunConfig, subset: str) -> DatasetManifest:
    """Pick the training/validation side of the manifest (or all of it)."""
    if subset not in ("train", "val", "all"):
        raise ConfigError(f"unknown subset {subset!r}; expected train, val or all")
    if subset == "all":
        return manifest
    train_side, val_side = split(manifest, cfg.split_ratio)
    return train_side if subset == "train" else val_side


class TripletSource:
    """Materializes manifest records against cached enhanced pair images."""

    def __init__(self, pairs: dict[str, AlignedPair], manifest: DatasetManifest):
        self.manifest = manifest
        self.enhanced: dict[str, tuple[GrayImage, GrayImage]] = {}
        for name in manifest.pairs:
            if name not in pairs:
                raise DatasetError(f"manifest references unknown pair {name}")
            self.enhanced[name] = enhanced_pair(pairs[name], manifest)

    def batch_arrays(self, indices: np.ndarray) -> np.ndarray:
        """Stacked [3b, 1, S, S] array: anchors, then positives, then negatives."""
        m = self.manifest
        records = [m.records[int(i)] for i in indices]
        triplets = [
            materialize_triplet(r, *self.enhanced[r.pair], m.window, m.out_size) for r in records
        ]
        return np.concatenate([np.stack(side) for side in zip(*triplets)])


def train_step(model: Model, opt: SGD, batch_data: np.ndarray, loss_mode: str) -> float:
    """One SGD update over a stacked anchor/positive/negative array.

    ``loss_mode`` must be ``"corrected"`` (else :class:`ConfigError`): it stays
    for the benchmark's wrapper of this signature, and ROADMAP item 2 removes
    both. Raises :class:`TrainingError` on a non-finite loss, before the
    backward pass, so the parameters and the optimizer state stay as they were.
    """
    if loss_mode != "corrected":
        raise ConfigError(f"unknown loss mode {loss_mode!r}; the LT loss is 'corrected'")
    with Tape() as tape:
        loss = triplet_loss(forward(model, Tensor(batch_data)))
    value = loss.item()
    if not math.isfinite(value):
        raise TrainingError(f"non-finite loss {value}")
    backward(loss, tape)
    opt.step()
    return value


def train(
    cfg: RunConfig,
    data_dir: str | Path,
    out_checkpoint: str | Path,
    subset: str = "all",
    resume: "str | Path | None" = None,
    log_path: "str | Path | None" = None,
    echo: bool = True,
) -> TrainReport:
    """Run the full training loop and write checkpoints plus the epoch log.

    A checkpoint does not store SGD's velocity, so ``resume`` restarts momentum
    at zero: with ``momentum`` above 0 it does not retrace an unbroken run."""
    cfg.validate()
    pairs, manifest = load_dataset(data_dir)
    selected = select_records(manifest, cfg, subset)
    n = selected.count
    if n < 1:
        raise DatasetError("no triplets selected for training")
    if cfg.batch_size > n:
        raise ConfigError(f"batch_size {cfg.batch_size} exceeds triplet count {n}")
    # the checkpoint records cfg, so it must hold the settings the patches were made with
    check_agreement(cfg, selected, MANIFEST_SETTINGS)
    source = TripletSource(pairs, selected)
    del pairs  # the source holds the enhanced images; the raw ones can go

    start_epoch = 0
    step = 0
    if resume is not None:
        ckpt = load_checkpoint(resume)
        model = model_from_checkpoint(ckpt)
        check_agreement(cfg, model.config, MODEL_SETTINGS)
        if cfg.epochs <= ckpt.epoch:
            raise ConfigError(
                f"the run config sets epochs={cfg.epochs} but the checkpoint {resume} is already "
                f"at epoch {ckpt.epoch}, so there is nothing to train"
            )
        start_epoch = ckpt.epoch
        step = ckpt.step
        del ckpt  # the model holds copies of its blobs
    else:
        model = init_model(model_config_for(cfg), seed=cfg.seed)
    opt = SGD(model.parameters(), lr=cfg.lr, momentum=cfg.momentum)

    out_checkpoint = Path(out_checkpoint)
    out_checkpoint.parent.mkdir(parents=True, exist_ok=True)
    report = TrainReport()
    mean_loss = float("nan")
    for epoch in range(start_epoch + 1, cfg.epochs + 1):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(4242, epoch))
        )
        order = rng.permutation(n)
        t0 = time.perf_counter()
        losses = []
        for lo in range(0, n, cfg.batch_size):
            batch = source.batch_arrays(order[lo : lo + cfg.batch_size])
            try:
                losses.append(train_step(model, opt, batch, "corrected"))
            except (TrainingError, DegenerateDescriptorError) as exc:
                raise TrainingError(
                    f"epoch {epoch} step {step + 1}: {exc}; stopped before the update"
                ) from exc
            step += 1
        wall_ms = (time.perf_counter() - t0) * 1e3
        mean_loss = float(np.mean(losses))
        report.epochs.append(EpochStats(step=step, epoch=epoch, mean_loss=mean_loss, wall_ms=wall_ms))
        if echo:
            print(
                f"epoch {epoch}/{cfg.epochs} step {step} mean_loss {mean_loss:.6f} "
                f"wall_ms {wall_ms:.0f}",
                file=sys.stderr,
            )
        if cfg.checkpoint_every > 0 and epoch % cfg.checkpoint_every == 0 and epoch < cfg.epochs:
            interim = build_checkpoint(model, cfg, step, epoch, mean_loss)
            save_checkpoint(out_checkpoint.with_suffix(f".ep{epoch}"), interim)
    report.final_loss = mean_loss
    report.steps = step
    final = build_checkpoint(model, cfg, step, cfg.epochs, report.final_loss)
    save_checkpoint(out_checkpoint, final)
    if log_path is not None:
        Path(log_path).write_text(report.log_text())
    return report
