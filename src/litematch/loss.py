"""Triplet objectives over descriptor batches.

The margin adapts per triplet to half the sum of the positive and
negative distances and is excluded from gradient flow. The default
"corrected" mode is the hinge max(d+ - d- + M, 0); the "literal" mode
max(d+ + d- - M, 0) is kept for comparison runs even though it
algebraically collapses to (d+ + d-)/2 and therefore rewards shrinking
every distance.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ops
from .errors import ConfigError, DimensionError
from .tensor import Tensor

LOSS_MODES = ("corrected", "literal")


@dataclass
class TripletBatch:
    """Anchor/positive/negative descriptor rows of identical shape [B, D]."""

    anchor: Tensor
    positive: Tensor
    negative: Tensor

    def __post_init__(self):
        if not (self.anchor.shape == self.positive.shape == self.negative.shape):
            raise DimensionError(
                f"triplet shapes differ: {self.anchor.shape} / "
                f"{self.positive.shape} / {self.negative.shape}"
            )
        if self.anchor.ndim != 2 or self.anchor.shape[0] < 1:
            raise DimensionError("triplet batch must be [B, D] with B >= 1")


def pairwise_distance(a: Tensor, b: Tensor) -> Tensor:
    """Rowwise Euclidean distance between matching rows of [B, D] inputs."""
    if a.shape != b.shape or a.ndim != 2:
        raise DimensionError(f"pairwise_distance: shapes {a.shape} vs {b.shape}")
    diff = ops.sub(a, b)
    return ops.sqrt(ops.sum_last(ops.mul(diff, diff)))


def triplet_loss(batch: TripletBatch, mode: str = "corrected") -> Tensor:
    """Mean adaptive-margin triplet loss over the batch.

    corrected: mean(max(d+ - d- + M, 0)); literal: mean(max(d+ + d- - M, 0)),
    with M = (d+ + d-)/2 held constant w.r.t. gradients.
    """
    if mode not in LOSS_MODES:
        raise ConfigError(f"unknown loss mode {mode!r}; expected one of {LOSS_MODES}")
    d_pos = pairwise_distance(batch.anchor, batch.positive)
    d_neg = pairwise_distance(batch.anchor, batch.negative)
    margin = ops.scale(ops.add(d_pos, d_neg), 0.5).detach()
    if mode == "corrected":
        hinge = ops.relu(ops.add(ops.sub(d_pos, d_neg), margin))
    else:
        hinge = ops.relu(ops.sub(ops.add(d_pos, d_neg), margin))
    return ops.mean_all(hinge)
