"""Difference-of-Gaussians keypoint detection over a scale-space pyramid.

Each octave blurs its base into six Gaussian levels, whose differences form
a float32 stack of five DoG levels. Extrema are found in the order Lowe's
SIFT uses. First, interior samples with ``|dog|`` above 0.8 times the
contrast threshold are taken (a few percent of the stack). Only those are
compared with their 26 scale-space neighbours, by flat-index gathers that
drop a candidate at the first neighbour it loses to. The survivors are then
refined together: up to three rounds of a quadratic fit, each one batched
3x3 solve over every candidate still moving, followed by the edge-response
and contrast tests. DoG values stay float32 in the stack and are widened to
float64 where they are read; widening is exact, so the comparisons and the
fit give the same results as on a float64 stack. Descriptors are out of
scope; this supplies locations, scales, and responses only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import ConfigError


@dataclass(frozen=True)
class Keypoint:
    """Sub-pixel image location with detection scale and response magnitude."""

    x: float
    y: float
    scale: float
    response: float


NUM_OCTAVES = 4
SCALES_PER_OCTAVE = 3
BASE_SIGMA = 1.6
CONTRAST_THRESHOLD = 0.03
EDGE_RATIO = 10.0


def _gaussian_levels(base: np.ndarray, sigma0: float, k: float, count: int) -> list[np.ndarray]:
    levels = [gaussian_filter(base, sigma0)]
    for i in range(1, count):
        step = sigma0 * np.sqrt(k ** (2 * i) - k ** (2 * (i - 1)))
        levels.append(gaussian_filter(levels[-1], step))
    return levels


# (level, row, column) steps to the 26 scale-space neighbours, same level first
_NEIGHBOURS = sorted(
    (step for step in itertools.product((-1, 0, 1), repeat=3) if step != (0, 0, 0)),
    key=lambda step: step[0] != 0,
)
# samples the quadratic fit reads, in the order _refine unpacks them
_STENCIL = (
    (0, 0, 0),
    (0, 0, 1), (0, 0, -1), (0, 1, 0), (0, -1, 0), (1, 0, 0), (-1, 0, 0),
    (0, 1, 1), (0, 1, -1), (0, -1, 1), (0, -1, -1),
    (1, 0, 1), (1, 0, -1), (-1, 0, 1), (-1, 0, -1),
    (1, 1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 0),
)


def _flat_steps(shape: tuple[int, int, int], steps) -> np.ndarray:
    _, h, w = shape
    return np.array([(dl * h + dy) * w + dx for dl, dy, dx in steps])


def _dog_stack(levels: list[np.ndarray]) -> np.ndarray:
    dogs = np.empty((len(levels) - 1,) + levels[0].shape, dtype=np.float32)
    for i in range(len(levels) - 1):
        np.subtract(levels[i + 1], levels[i], out=dogs[i])
    return dogs


def _extrema(dogs: np.ndarray, prelim: float) -> np.ndarray:
    """Ascending flat indices of the candidate extrema in ``dogs``.

    A candidate lies on an inner level at least two samples from the image
    border, has ``|dog| > prelim``, and is >= (maxima) or <= (minima) all
    26 neighbours; losers are dropped after each neighbour.
    """
    flat = dogs.ravel()
    strong = np.zeros(dogs.shape, dtype=bool)
    # a float64 threshold: against a float32 one the test would round it
    strong[1:-1, 2:-2, 2:-2] = np.abs(dogs[1:-1, 2:-2, 2:-2]) > np.float64(prelim)
    idx = np.flatnonzero(strong)
    value = flat[idx]
    sign, mag = np.sign(value), np.abs(value)
    for step in _flat_steps(dogs.shape, _NEIGHBOURS):
        keep = mag >= sign * flat[idx + step]
        idx, sign, mag = idx[keep], sign[keep], mag[keep]
    return idx


def _refine(dogs: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Iterated 3-d quadratic fit of every candidate at once.

    ``cand`` holds flat indices into ``dogs``. A candidate whose offset
    exceeds half a sample moves by the rounded offset and is fitted again,
    up to three fits; it is dropped when it leaves the stack interior, when
    its Hessian is singular, when it has not settled after the third fit,
    or when its spatial Hessian fails the edge test. Returns the rows x, y,
    level and value of the survivors as a [4, n] float64 array.
    """
    n_levels, h, w = dogs.shape
    flat = dogs.ravel()
    steps = _flat_steps(dogs.shape, _STENCIL)
    level, rest = np.divmod(cand, h * w)
    y, x = np.divmod(rest, w)
    fits = [np.empty((4, 0))]
    for _ in range(3):
        if not x.size:
            break
        samples = flat[((level * h + y) * w + x)[:, None] + steps].astype(np.float64)
        (c, xp, xm, yp, ym, sp, sm, ypxp, ypxm, ymxp, ymxm,
         spxp, spxm, smxp, smxm, spyp, spym, smyp, smym) = samples.T
        grad = 0.5 * np.stack([xp - xm, yp - ym, sp - sm], axis=1)
        dxx = xp + xm - 2 * c
        dyy = yp + ym - 2 * c
        dss = sp + sm - 2 * c
        dxy = 0.25 * (ypxp - ypxm - ymxp + ymxm)
        dxs = 0.25 * (spxp - spxm - smxp + smxm)
        dys = 0.25 * (spyp - spym - smyp + smym)
        hessian = np.stack([dxx, dxy, dxs, dxy, dyy, dys, dxs, dys, dss], axis=1).reshape(-1, 3, 3)
        # a batched solve raises if any one system is singular: those are
        # dropped and solved against the identity in the meantime
        singular = np.linalg.slogdet(hessian)[0] == 0
        hessian[singular] = np.eye(3)
        offset = -np.linalg.solve(hessian, grad[:, :, None])[:, :, 0]
        settled = ~singular & np.all(np.abs(offset) <= 0.5, axis=1)
        # a stack of 1x3 @ 3x1 products takes the same dot-product routine as
        # one 1-d ``grad @ offset``, so each value is rounded the same way
        value = c + 0.5 * np.matmul(grad[:, None, :], offset[:, :, None])[:, 0, 0]
        tr = dxx + dyy
        det = dxx * dyy - dxy * dxy
        not_edge = (det > 0) & (tr * tr * EDGE_RATIO < (EDGE_RATIO + 1) ** 2 * det)
        fit = np.stack([x + offset[:, 0], y + offset[:, 1], level + offset[:, 2], value])
        fits.append(fit[:, settled & not_edge])
        moved = np.round(offset) + np.stack([x, y, level], axis=1)
        nx, ny, nl = moved.T
        inside = (1 <= nl) & (nl <= n_levels - 2) & (1 <= ny) & (ny < h - 1) & (1 <= nx) & (nx < w - 1)
        again = ~singular & ~settled & inside
        x, y, level = (v[again].astype(np.int64) for v in (nx, ny, nl))
    return np.concatenate(fits, axis=1)


def detect_keypoints(img, max_points: int, border_margin: int) -> list[Keypoint]:
    """Scale-space extrema sorted by descending response.

    Keypoints closer than ``border_margin`` pixels to any image border are
    discarded so downstream patch extraction never fails. Deterministic:
    ties in response are broken by (y, x, scale). ``max_points`` must be
    at least 1.
    """
    if max_points < 1:
        raise ConfigError(f"max_points must be at least 1, got {max_points}")
    base = img.pixels.astype(np.float32) / 255.0
    k = 2.0 ** (1.0 / SCALES_PER_OCTAVE)
    found: list[Keypoint] = []
    octave_base = base
    for octave in range(NUM_OCTAVES):
        if min(octave_base.shape) < 16:
            break
        levels = _gaussian_levels(octave_base, BASE_SIGMA, k, SCALES_PER_OCTAVE + 3)
        dogs = _dog_stack(levels)
        fits = _refine(dogs, _extrema(dogs, 0.8 * CONTRAST_THRESHOLD))
        factor = float(2 ** octave)
        # Python floats from here: numpy's vectorised pow may round k ** level differently
        for rx, ry, rlevel, value in fits.T.tolist():
            if abs(value) < CONTRAST_THRESHOLD:
                continue
            found.append(
                Keypoint(
                    x=rx * factor,
                    y=ry * factor,
                    scale=BASE_SIGMA * (k ** rlevel) * factor,
                    response=abs(value),
                )
            )
        # next octave: the level at twice the base blur, halved
        octave_base = levels[SCALES_PER_OCTAVE][::2, ::2]
    height, width = img.pixels.shape
    inside = [
        kp
        for kp in found
        if border_margin <= round(kp.x) <= width - border_margin
        and border_margin <= round(kp.y) <= height - border_margin
    ]
    inside.sort(key=lambda kp: (-kp.response, kp.y, kp.x, kp.scale))
    # patches use a fixed window regardless of scale, so keypoints landing on
    # the same pixel (e.g. the same blob found in two octaves) are redundant;
    # keep the strongest within a 2 px radius
    kept: list[Keypoint] = []
    for kp in inside:
        if all((kp.x - q.x) ** 2 + (kp.y - q.y) ** 2 > 4.0 for q in kept):
            kept.append(kp)
            if len(kept) == max_points:
                break
    return kept
