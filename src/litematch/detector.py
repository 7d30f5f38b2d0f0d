"""Difference-of-Gaussians keypoint detection over a scale-space pyramid.

Each octave blurs its base into six Gaussian levels, whose differences form
a float32 stack of five DoG levels. The levels are streamed: each is blurred
from the one before, subtracted from it into the stack, and dropped, so an
octave holds two Gaussian levels, its base, the DoG stack and then one
``[H, W]`` bool mask, about 8 float32 image-sizes at its peak. Holding all
six levels, the stack and a whole-stack mask at once took about 17.
Extrema are found in the order Lowe's SIFT uses. First, interior samples
with ``|dog|`` above 0.8 times the contrast threshold are taken, one inner
level at a time into the one mask (a few percent of the stack). Only those are
compared with their 26 scale-space neighbours, by flat-index gathers that
drop a candidate at the first neighbour it loses to. The survivors are then
refined together: up to three rounds of a quadratic fit, each one batched
3x3 solve over every candidate still moving, followed by the edge-response
and contrast tests. DoG values stay float32 in the stack and are widened to
float64 where they are read; widening is exact, so the comparisons and the
fit give the same results as on a float64 stack. Descriptors are out of
scope; this supplies locations, scales, and responses only.

``gaussian_blur`` is the one Gaussian filter in litematch. It makes the
detector's float32 Gaussian levels, and ``dataset.synth_pair``'s float64
noise fields and final blur. Its output has the input's dtype, as
``scipy.ndimage.gaussian_filter``'s does, and is bit-identical to it.
scipy runs one ``gaussian_filter1d`` down the columns and then one along
the rows, storing the first pass in the output. Each sample of the
vertical pass reads only its own column and each sample of the horizontal
pass only its own row, so ``gaussian_blur`` runs the same two passes over
column chunks and then row chunks, written in place into one output: no
halo, and the same arithmetic on every line. scipy releases the GIL inside
the filter, so an image of more than one chunk is shared between the
calling thread and one helper thread per further CPU. The helpers call
nothing but scipy. The benchmark's tracer keeps one span stack for a
single-threaded run, and spans placed in the library would assume the
same, so no litematch function or traced call may run on a helper.
"""

from __future__ import annotations

import functools
import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter1d

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


# Lines per blur chunk; an image with more lines is shared with the helpers.
# 64 and 256 lines detected no faster at 768 or 416 px. 128 gives a 768 px
# level six chunks, which two threads share evenly, at half the handoffs of 64.
BLUR_CHUNK = 128


@functools.cache
def _helpers() -> tuple[ThreadPoolExecutor, int] | None:
    """The blur helpers: one thread per CPU beyond the first this process may
    run on, or None on one CPU. Created on first use."""
    count = len(os.sched_getaffinity(0)) - 1
    if count < 1:
        return None
    return ThreadPoolExecutor(count, thread_name_prefix="litematch-blur"), count


def _filter_chunks(chunks, sigma: float, axis: int) -> None:
    # scipy only: this runs on the helper threads too
    for src, out in chunks:
        gaussian_filter1d(src, sigma, axis, 0, out)


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """``scipy.ndimage.gaussian_filter(img, sigma)`` of a 2-d image, bit for bit.

    The output is C-contiguous and has the input's dtype: the detector's
    float32 levels stay float32 and ``synth_pair``'s float64 fields stay
    float64. The vertical pass runs over column chunks and the horizontal
    pass over row chunks, each chunk written in place into one output. The
    calling thread and the helpers take chunks from one shared iterator; a
    helper that has not started when the chunks run out is cancelled, and
    only a started one is waited for. So a helper the host has descheduled
    delays a blur by at most the one chunk it holds. A helper runs
    ``_filter_chunks`` and so calls nothing but scipy.
    """
    out = np.empty(img.shape, dtype=img.dtype)
    for axis, src in ((0, img), (1, out)):
        lines = img.shape[1 - axis]
        chunks = [
            (slice(None), slice(lo, lo + BLUR_CHUNK)) if axis == 0 else slice(lo, lo + BLUR_CHUNK)
            for lo in range(0, lines, BLUR_CHUNK)
        ]
        helpers = _helpers() if len(chunks) > 1 else None
        # next() on a list iterator is one call under the GIL: no chunk is
        # taken twice or skipped. The helpers reach the arrays only through
        # it: a cancelled helper's task stays queued until its thread wakes,
        # and an exhausted list iterator drops its list, so the task keeps
        # no image alive after this call
        shared = iter([(src[idx], out[idx]) for idx in chunks])
        futures = []
        if helpers is not None:
            pool, count = helpers
            futures = [
                pool.submit(_filter_chunks, shared, sigma, axis)
                for _ in range(min(count, len(chunks) - 1))
            ]
        _filter_chunks(shared, sigma, axis)
        for future in futures:
            if not future.cancel():
                future.result()
    return out


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


def _octave(base: np.ndarray, k: float) -> tuple[np.ndarray, np.ndarray]:
    """The float32 DoG stack of one octave, and the next octave's base.

    Level i + 1 is blurred from level i, subtracted from it into the stack,
    and level i is dropped, so two Gaussian levels are alive at a time. The
    next base is a contiguous copy of level ``SCALES_PER_OCTAVE`` (twice the
    base blur) at every second sample.
    """
    dogs = np.empty((SCALES_PER_OCTAVE + 2,) + base.shape, dtype=np.float32)
    level = gaussian_blur(base, BASE_SIGMA)
    for i in range(1, SCALES_PER_OCTAVE + 3):
        step = BASE_SIGMA * np.sqrt(k ** (2 * i) - k ** (2 * (i - 1)))
        upper = gaussian_blur(level, step)
        np.subtract(upper, level, out=dogs[i - 1])
        if i == SCALES_PER_OCTAVE:
            next_base = np.ascontiguousarray(upper[::2, ::2])
        level = upper
    return dogs, next_base


def _extrema(dogs: np.ndarray, prelim: float) -> np.ndarray:
    """Ascending flat indices of the candidate extrema in ``dogs``.

    A candidate lies on an inner level at least two samples from the image
    border, has ``|dog| > prelim``, and is >= (maxima) or <= (minima) all
    26 neighbours; losers are dropped after each neighbour.
    """
    flat = dogs.ravel()
    _, h, w = dogs.shape
    strong = np.zeros((h, w), dtype=bool)
    per_level = []
    for level in range(1, len(dogs) - 1):
        # a float64 threshold: against a float32 one the test would round it
        np.greater(np.abs(dogs[level, 2:-2, 2:-2]), np.float64(prelim), out=strong[2:-2, 2:-2])
        per_level.append(np.flatnonzero(strong) + level * h * w)
    idx = np.concatenate(per_level)
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
    k = 2.0 ** (1.0 / SCALES_PER_OCTAVE)
    found: list[Keypoint] = []
    octave_base = img.pixels.astype(np.float32) / 255.0
    for octave in range(NUM_OCTAVES):
        if min(octave_base.shape) < 16:
            break
        dogs, octave_base = _octave(octave_base, k)
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
