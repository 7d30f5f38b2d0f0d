"""Descriptor-space nearest-neighbor matching and evaluation metrics.

A match is the Euclidean nearest neighbor in descriptor space, kept when
its distance stays under the threshold (optionally also mutually nearest).
Correctness is geometric: a kept match is correct when the matched
keypoint lands within ``eps`` pixels of the A keypoint's image under the
pair's ground-truth map, a 2x3 affine from A to B pixel coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .detector import Keypoint
from .errors import DimensionError, MatchingError
from .image import GrayImage

DEFAULT_THRESHOLD = 0.5
DEFAULT_EPS = 5.0


@dataclass
class DescriptorSet:
    """Keypoints plus their unit-norm descriptor rows."""

    keypoints: list[Keypoint]
    descriptors: np.ndarray  # [N, D] float32, unit rows

    def __post_init__(self):
        self.descriptors = np.asarray(self.descriptors, dtype=np.float32)
        if self.descriptors.ndim != 2 or len(self.keypoints) != self.descriptors.shape[0]:
            raise DimensionError(
                f"descriptor matrix {self.descriptors.shape} does not match "
                f"{len(self.keypoints)} keypoints"
            )
        if len(self.keypoints):
            finite = np.isfinite(self.descriptors).all(axis=1)
            if not finite.all():
                raise MatchingError(f"descriptor row {int(np.argmin(finite))} is not finite")
            norms = np.linalg.norm(self.descriptors.astype(np.float64), axis=1)
            if np.any(np.abs(norms - 1.0) > 1e-4):
                raise MatchingError("descriptor rows must be unit-norm within 1e-4")

    def __len__(self) -> int:
        return len(self.keypoints)


@dataclass(frozen=True)
class MatchPair:
    index_a: int
    index_b: int
    distance: float


@dataclass
class MatchResult:
    """Accepted matches plus the counts the metrics are computed from."""

    pairs: list[MatchPair]
    n_total_keypoints: int  # min(|A|, |B|)
    n_correct: "int | None" = None
    correct_flags: "list[bool] | None" = None

    @property
    def n_success(self) -> int:
        return len(self.pairs)


def _distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a64 = a.astype(np.float64)
    b64 = b.astype(np.float64)
    d2 = (a64 * a64).sum(axis=1)[:, None] + (b64 * b64).sum(axis=1)[None, :]
    d2 -= 2.0 * (a64 @ b64.T)
    return np.sqrt(np.maximum(d2, 0.0))


def match_nn(
    a: DescriptorSet,
    b: DescriptorSet,
    threshold: float = DEFAULT_THRESHOLD,
    mutual: bool = False,
) -> MatchResult:
    """Thresholded nearest-neighbor matching from A into B.

    Ties are broken toward the lower index, so results are deterministic.
    With ``mutual`` the reverse nearest neighbor must agree. An empty set
    on either side gives an empty result.
    """
    if not 0 < threshold < math.inf:  # refuses NaN too
        raise MatchingError(f"threshold must be positive and finite, got {threshold}")
    if a.descriptors.shape[1] != b.descriptors.shape[1]:
        raise DimensionError("descriptor dimensions differ between the two sets")
    if len(a) == 0 or len(b) == 0:
        return MatchResult(pairs=[], n_total_keypoints=0)
    dm = _distance_matrix(a.descriptors, b.descriptors)
    nn = dm.argmin(axis=1)
    pairs: list[MatchPair] = []
    if mutual:
        reverse = dm.argmin(axis=0)
    for i, j in enumerate(nn):
        dist = float(dm[i, j])
        if dist > threshold:
            continue
        if mutual and reverse[j] != i:
            continue
        pairs.append(MatchPair(index_a=i, index_b=int(j), distance=dist))
    return MatchResult(pairs=pairs, n_total_keypoints=min(len(a), len(b)))


def score(
    result: MatchResult,
    a: DescriptorSet,
    b: DescriptorSet,
    to_b: np.ndarray,
    eps: float = DEFAULT_EPS,
) -> tuple[float, float]:
    """(precision, matching_score) of a match result under ground truth.

    A pair is correct when the matched B keypoint lies within ``eps``
    pixels of ``to_b @ (x, y, 1)``, the A keypoint under the 2x3 affine
    ground truth ``to_b``. Precision divides by accepted matches (0 when
    none); matching score divides by min(|A|, |B|). Fills
    ``result.n_correct`` and ``result.correct_flags``.
    """
    if not 0 < eps < math.inf:  # refuses NaN too
        raise MatchingError(f"eps must be positive and finite, got {eps}")
    to_b = np.asarray(to_b)
    if to_b.shape != (2, 3) or to_b.dtype.kind not in "fiu" or not np.isfinite(to_b).all():
        raise MatchingError("the ground-truth map must be a finite 2x3 affine")
    flags: list[bool] = []
    for pair in result.pairs:
        ka = a.keypoints[pair.index_a]
        kb = b.keypoints[pair.index_b]
        gx, gy = to_b @ (ka.x, ka.y, 1.0)
        flags.append(bool(np.hypot(kb.x - gx, kb.y - gy) <= eps))
    n_corr = sum(flags)
    result.n_correct = n_corr
    result.correct_flags = flags
    precision = n_corr / result.n_success if result.n_success else 0.0
    matching_score = n_corr / result.n_total_keypoints if result.n_total_keypoints else 0.0
    return precision, matching_score


def write_matches(
    path: str | Path, result: MatchResult, a: DescriptorSet, b: DescriptorSet
) -> None:
    """One tab-separated row per accepted match.

    Columns: indexA xA yA indexB xB yB distance correct; correct is -1
    when no ground truth was scored.
    """
    lines = ["# indexA\txA\tyA\tindexB\txB\tyB\tdistance\tcorrect"]
    flags = result.correct_flags
    for n, pair in enumerate(result.pairs):
        ka = a.keypoints[pair.index_a]
        kb = b.keypoints[pair.index_b]
        correct = -1 if flags is None else int(flags[n])
        lines.append(
            f"{pair.index_a}\t{ka.x:.3f}\t{ka.y:.3f}\t{pair.index_b}\t{kb.x:.3f}\t{kb.y:.3f}"
            f"\t{pair.distance:.6f}\t{correct}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def _draw_segment(canvas: np.ndarray, x0: float, y0: float, x1: float, y1: float, color) -> None:
    steps = int(max(abs(x1 - x0), abs(y1 - y0))) + 1
    xs = np.clip(np.round(np.linspace(x0, x1, steps)).astype(int), 0, canvas.shape[1] - 1)
    ys = np.clip(np.round(np.linspace(y0, y1, steps)).astype(int), 0, canvas.shape[0] - 1)
    canvas[ys, xs] = color


def annotate_matches(
    img_a: GrayImage, img_b: GrayImage, result: MatchResult, a: DescriptorSet, b: DescriptorSet
) -> np.ndarray:
    """Side-by-side RGB composite with one segment per accepted match.

    Once :func:`score` has run, correct matches are green and incorrect
    ones red; unscored matches are all blue. Returns an
    [max(H_a, H_b), W_a + W_b, 3] uint8 array.
    """
    pix_a, pix_b = img_a.pixels, img_b.pixels
    offset = pix_a.shape[1]
    canvas = np.zeros((max(pix_a.shape[0], pix_b.shape[0]), offset + pix_b.shape[1], 3), np.uint8)
    canvas[: pix_a.shape[0], :offset] = pix_a[..., None]
    canvas[: pix_b.shape[0], offset:] = pix_b[..., None]
    green, red, blue = (0, 220, 0), (230, 0, 0), (40, 120, 255)
    flags = result.correct_flags
    for n, match in enumerate(result.pairs):
        ka = a.keypoints[match.index_a]
        kb = b.keypoints[match.index_b]
        color = blue if flags is None else green if flags[n] else red
        _draw_segment(canvas, ka.x, ka.y, kb.x + offset, kb.y, color)
    return canvas
