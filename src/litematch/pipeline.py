"""End-to-end glue: images -> keypoints -> descriptors -> matches -> metrics.

:func:`match_images` is the one path that enhances, detects, describes and
matches; :func:`evaluate_pair` runs it on a registered pair and scores the
matches against the identity map, and the ``match`` command runs it on two
image files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .dataset import AlignedPair, identity_alignment
from .detector import Keypoint, detect_keypoints
from .image import GrayImage, clahe
from .matching import DescriptorSet, MatchResult, match_nn, score
from .model import Model, forward
from .patch import extract_patch
from .tensor import Tensor

DESCRIPTOR_BATCH = 64  # patches per model forward


def enhance(img: GrayImage, cfg: RunConfig) -> GrayImage:
    return clahe(img, cfg.clahe_clip, cfg.clahe_grid)


def compute_descriptors(
    model: Model, sides: list[tuple[GrayImage, list[Keypoint]]], cfg: RunConfig
) -> list[DescriptorSet]:
    """One descriptor set per ``(image, keypoints)`` side.

    The patches of all sides go through one loop of ``DESCRIPTOR_BATCH``
    patch forwards, so small sides share a batch.
    """
    located = [(img, kp) for img, keypoints in sides for kp in keypoints]
    rows = []
    for lo in range(0, len(located), DESCRIPTOR_BATCH):
        patches = np.stack(
            [
                extract_patch(img, kp, cfg.window, cfg.input_size).data
                for img, kp in located[lo : lo + DESCRIPTOR_BATCH]
            ]
        )
        rows.append(forward(model, Tensor(patches)).data)
    descriptors = (
        np.concatenate(rows)
        if rows
        else np.zeros((0, model.config.descriptor_dim), dtype=np.float32)
    )
    ends = np.cumsum([len(keypoints) for _, keypoints in sides])
    return [
        DescriptorSet(list(keypoints), block)
        for (_, keypoints), block in zip(sides, np.split(descriptors, ends[:-1]))
    ]


def match_images(
    model: Model, img_a: GrayImage, img_b: GrayImage, cfg: RunConfig
) -> tuple[MatchResult, DescriptorSet, DescriptorSet]:
    """Enhance, detect, describe and match two images of one scene."""
    sides = []
    for img in (img_a, img_b):
        enhanced = enhance(img, cfg)
        # margin covers the plain extraction window plus sub-pixel overhang
        keypoints = detect_keypoints(enhanced, cfg.max_keypoints, border_margin=cfg.window // 2 + 1)
        sides.append((enhanced, keypoints))
    set_a, set_b = compute_descriptors(model, sides, cfg)
    result = match_nn(set_a, set_b, threshold=cfg.threshold, mutual=cfg.mutual)
    return result, set_a, set_b


@dataclass
class PairEvaluation:
    name: str
    n_keypoints_a: int
    n_keypoints_b: int
    n_matched: int
    n_correct: int
    precision: float
    matching_score: float


def evaluate_pair(model: Model, pair: AlignedPair, cfg: RunConfig) -> tuple[PairEvaluation, MatchResult, DescriptorSet, DescriptorSet]:
    """Match a registered pair against itself and score with identity truth."""
    result, set_a, set_b = match_images(model, pair.visible, pair.nir, cfg)
    precision, matching_score = score(result, set_a, set_b, identity_alignment, eps=cfg.eps)
    summary = PairEvaluation(
        name=pair.name,
        n_keypoints_a=len(set_a),
        n_keypoints_b=len(set_b),
        n_matched=result.n_success,
        n_correct=result.n_correct or 0,
        precision=precision,
        matching_score=matching_score,
    )
    return summary, result, set_a, set_b


def evaluation_table(rows: list[PairEvaluation]) -> str:
    """Fixed-width text table with per-pair metrics and aggregate means."""
    header = f"{'pair':<16}{'kpsA':>6}{'kpsB':>6}{'match':>7}{'corr':>6}{'precision':>11}{'score':>9}"
    lines = [header]
    for r in rows:
        lines.append(
            f"{r.name:<16}{r.n_keypoints_a:>6}{r.n_keypoints_b:>6}{r.n_matched:>7}"
            f"{r.n_correct:>6}{r.precision:>11.4f}{r.matching_score:>9.4f}"
        )
    if rows:
        mp = float(np.mean([r.precision for r in rows]))
        ms = float(np.mean([r.matching_score for r in rows]))
        lines.append(f"{'mean':<16}{'':>6}{'':>6}{'':>7}{'':>6}{mp:>11.4f}{ms:>9.4f}")
    return "\n".join(lines) + "\n"
