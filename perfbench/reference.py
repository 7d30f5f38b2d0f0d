"""Reference implementations that the output checks compare the program against.

These are frozen transcriptions, in plain numpy, of litematch's CLAHE,
keypoint detector, model forward pass and triplet loss as they stood when
the benchmark was defined. The program's own code is what the benchmark
times; a faster version of it that computes something else is caught here,
because nothing in this file calls into ``litematch``.

The forward pass and loss run in float64, so they also serve as the
high-precision replay of the program's float32 inference and training.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import gaussian_filter, maximum_filter, minimum_filter

# ------------------------------------------------------------------ CLAHE


def _tile_edges(extent: int, grid: int) -> np.ndarray:
    return np.round(np.linspace(0, extent, grid + 1)).astype(int)


def _blend_axis(coords: np.ndarray, centers: np.ndarray):
    hi = np.searchsorted(centers, coords, side="right")
    i0 = np.clip(hi - 1, 0, len(centers) - 1)
    i1 = np.clip(hi, 0, len(centers) - 1)
    span = centers[i1] - centers[i0]
    with np.errstate(invalid="ignore", divide="ignore"):
        w = np.where(span > 0, (coords - centers[i0]) / np.where(span > 0, span, 1.0), 0.0)
    return i0, i1, w


def clahe(px: np.ndarray, clip_limit: float, grid: int) -> np.ndarray:
    """Contrast-limited adaptive histogram equalization of a uint8 image."""
    height, width = px.shape
    ys = _tile_edges(height, grid)
    xs = _tile_edges(width, grid)
    luts = np.empty((grid, grid, 256), dtype=np.float64)
    for ty in range(grid):
        for tx in range(grid):
            tile = px[ys[ty] : ys[ty + 1], xs[tx] : xs[tx + 1]]
            npix = tile.size
            hist = np.bincount(tile.ravel(), minlength=256).astype(np.int64)
            limit = max(1, int(clip_limit * npix / 256.0))
            excess = int(np.maximum(hist - limit, 0).sum())
            hist = np.minimum(hist, limit)
            hist += excess // 256
            hist[: excess % 256] += 1
            luts[ty, tx] = np.floor(np.cumsum(hist) * 255.0 / npix + 0.5)
    y0, y1, wy = _blend_axis(np.arange(height, dtype=np.float64), (ys[:-1] + ys[1:] - 1) / 2.0)
    x0, x1, wx = _blend_axis(np.arange(width, dtype=np.float64), (xs[:-1] + xs[1:] - 1) / 2.0)
    v00 = luts[y0[:, None], x0[None, :], px]
    v01 = luts[y0[:, None], x1[None, :], px]
    v10 = luts[y1[:, None], x0[None, :], px]
    v11 = luts[y1[:, None], x1[None, :], px]
    wy = wy[:, None]
    wx = wx[None, :]
    out = (1 - wy) * ((1 - wx) * v00 + wx * v01) + wy * ((1 - wx) * v10 + wx * v11)
    return np.floor(out + 0.5).clip(0, 255).astype(np.uint8)


# ------------------------------------------------------- keypoint detector

NUM_OCTAVES = 4
SCALES_PER_OCTAVE = 3
BASE_SIGMA = 1.6
CONTRAST_THRESHOLD = 0.03
EDGE_RATIO = 10.0


def _refine(d: np.ndarray, level: int, y: int, x: int):
    """Iterated 3-d quadratic fit; returns (x, y, level, value) or None."""
    n_levels, h, w = d.shape
    for _ in range(3):
        grad = 0.5 * np.array(
            [
                d[level, y, x + 1] - d[level, y, x - 1],
                d[level, y + 1, x] - d[level, y - 1, x],
                d[level + 1, y, x] - d[level - 1, y, x],
            ]
        )
        center = d[level, y, x]
        dxx = d[level, y, x + 1] + d[level, y, x - 1] - 2 * center
        dyy = d[level, y + 1, x] + d[level, y - 1, x] - 2 * center
        dss = d[level + 1, y, x] + d[level - 1, y, x] - 2 * center
        dxy = 0.25 * (
            d[level, y + 1, x + 1] - d[level, y + 1, x - 1]
            - d[level, y - 1, x + 1] + d[level, y - 1, x - 1]
        )
        dxs = 0.25 * (
            d[level + 1, y, x + 1] - d[level + 1, y, x - 1]
            - d[level - 1, y, x + 1] + d[level - 1, y, x - 1]
        )
        dys = 0.25 * (
            d[level + 1, y + 1, x] - d[level + 1, y - 1, x]
            - d[level - 1, y + 1, x] + d[level - 1, y - 1, x]
        )
        hessian = np.array([[dxx, dxy, dxs], [dxy, dyy, dys], [dxs, dys, dss]])
        try:
            offset = -np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError:
            return None
        if np.all(np.abs(offset) <= 0.5):
            value = center + 0.5 * float(grad @ offset)
            tr = dxx + dyy
            det = dxx * dyy - dxy * dxy
            if det <= 0 or tr * tr * EDGE_RATIO >= (EDGE_RATIO + 1) ** 2 * det:
                return None
            return (x + float(offset[0]), y + float(offset[1]), level + float(offset[2]), value)
        x += int(np.round(offset[0]))
        y += int(np.round(offset[1]))
        level += int(np.round(offset[2]))
        if not (1 <= level <= n_levels - 2 and 1 <= y < h - 1 and 1 <= x < w - 1):
            return None
    return None


def detect_keypoints(px: np.ndarray, max_points: int, border_margin: int) -> list[tuple]:
    """Difference-of-Gaussians extrema as (x, y, scale, response), strongest first."""
    base = px.astype(np.float32) / 255.0
    k = 2.0 ** (1.0 / SCALES_PER_OCTAVE)
    found = []
    octave_base = base
    for octave in range(NUM_OCTAVES):
        if min(octave_base.shape) < 16:
            break
        levels = [gaussian_filter(octave_base, BASE_SIGMA)]
        for i in range(1, SCALES_PER_OCTAVE + 3):
            step = BASE_SIGMA * np.sqrt(k ** (2 * i) - k ** (2 * (i - 1)))
            levels.append(gaussian_filter(levels[-1], step))
        dogs = np.stack([levels[i + 1] - levels[i] for i in range(SCALES_PER_OCTAVE + 2)]).astype(
            np.float64
        )
        prelim = 0.8 * CONTRAST_THRESHOLD
        is_max = (dogs >= maximum_filter(dogs, size=3)) & (dogs > prelim)
        is_min = (dogs <= minimum_filter(dogs, size=3)) & (dogs < -prelim)
        cand = is_max | is_min
        cand[0] = cand[-1] = False
        cand[:, :2, :] = cand[:, -2:, :] = False
        cand[:, :, :2] = cand[:, :, -2:] = False
        factor = float(2**octave)
        for level, y, x in np.argwhere(cand):
            refined = _refine(dogs, int(level), int(y), int(x))
            if refined is None or abs(refined[3]) < CONTRAST_THRESHOLD:
                continue
            rx, ry, rlevel, value = refined
            found.append(
                (rx * factor, ry * factor, BASE_SIGMA * (k**rlevel) * factor, abs(value))
            )
        octave_base = levels[SCALES_PER_OCTAVE][::2, ::2]
    height, width = px.shape
    inside = [
        kp
        for kp in found
        if border_margin <= round(kp[0]) <= width - border_margin
        and border_margin <= round(kp[1]) <= height - border_margin
    ]
    inside.sort(key=lambda kp: (-kp[3], kp[1], kp[0], kp[2]))
    kept: list[tuple] = []
    for kp in inside:
        if all((kp[0] - q[0]) ** 2 + (kp[1] - q[1]) ** 2 > 4.0 for q in kept):
            kept.append(kp)
            if len(kept) == max_points:
                break
    return kept


# ------------------------------------------------------ model and loss

GELU_C = math.sqrt(2.0 / math.pi)
GELU_A = 0.044715
LAYER_NORM_EPS = 1e-6


def _conv(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int, pad: int) -> np.ndarray:
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    k = w.shape[-1]
    win = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    out = np.tensordot(win, w, axes=([1, 4, 5], [1, 2, 3]))  # [B, H, W, Cout]
    return out.transpose(0, 3, 1, 2) + b[None, :, None, None]


def _depthwise(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    h, wd = x.shape[2], x.shape[3]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    out = np.broadcast_to(b[None, :, None, None], x.shape).copy()
    for i in range(3):
        for j in range(3):
            out += xp[:, :, i : i + h, j : j + wd] * w[None, :, 0, i, j, None, None]
    return out


def _layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    xc = x - x.mean(axis=-1, keepdims=True)
    return xc / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + LAYER_NORM_EPS) * gamma + beta


def _linear(x: np.ndarray, w: np.ndarray, b: "np.ndarray | None") -> np.ndarray:
    y = x @ w.T
    return y if b is None else y + b


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(GELU_C * (x + GELU_A * x**3)))


def _to_tokens(x: np.ndarray) -> np.ndarray:
    b, c, h, w = x.shape
    return x.transpose(0, 2, 3, 1).reshape(b, h * w, c)


def _to_spatial(t: np.ndarray, side: int) -> np.ndarray:
    b, _, c = t.shape
    return t.reshape(b, side, side, c).transpose(0, 3, 1, 2)


def _heads(t: np.ndarray, heads: int) -> np.ndarray:
    b, n, c = t.shape
    return t.reshape(b, n, heads, c // heads).transpose(0, 2, 1, 3)


def forward(config, params: dict[str, np.ndarray], patches: np.ndarray) -> np.ndarray:
    """float64 descriptors of [B, C, S, S] patches for a model of ``config``."""
    p = {name: np.asarray(v, dtype=np.float64) for name, v in params.items()}
    x = (np.asarray(patches, dtype=np.float64) - 0.5) * 4.0
    for i, st in enumerate(config.stages, start=1):
        pre = f"stage{i}"
        x = _conv(x, p[f"{pre}.embed.conv.weight"], p[f"{pre}.embed.conv.bias"], st.stride, st.stride - 1)
        side = x.shape[2]
        t = _layer_norm(_to_tokens(x), p[f"{pre}.embed.norm.gamma"], p[f"{pre}.embed.norm.beta"])
        for j in range(1, st.depth + 1):
            blk = f"{pre}.block{j}."
            a = _layer_norm(t, p[blk + "norm1.gamma"], p[blk + "norm1.beta"])
            q = _linear(a, p[blk + "attn.q.weight"], p[blk + "attn.q.bias"])
            kv = a
            if st.reduction > 1:
                red = _conv(_to_spatial(a, side), p[blk + "attn.sr.weight"], p[blk + "attn.sr.bias"], st.reduction, 0)
                kv = _layer_norm(_to_tokens(red), p[blk + "attn.sr_norm.gamma"], p[blk + "attn.sr_norm.beta"])
            k = _linear(kv, p[blk + "attn.k.weight"], None)
            v = _linear(kv, p[blk + "attn.v.weight"], p[blk + "attn.v.bias"])
            dk = st.channels // st.heads
            scores = _heads(q, st.heads) @ _heads(k, st.heads).transpose(0, 1, 3, 2) * dk**-0.5
            ctx = _softmax(scores) @ _heads(v, st.heads)
            b, _, n, _ = ctx.shape
            ctx = ctx.transpose(0, 2, 1, 3).reshape(b, n, st.channels)
            t = t + _linear(ctx, p[blk + "attn.proj.weight"], p[blk + "attn.proj.bias"])
            f = _layer_norm(t, p[blk + "norm2.gamma"], p[blk + "norm2.beta"])
            f = _linear(f, p[blk + "ffn.fc1.weight"], p[blk + "ffn.fc1.bias"])
            f = _depthwise(_to_spatial(f, side), p[blk + "ffn.dw.weight"], p[blk + "ffn.dw.bias"])
            f = _gelu(_to_tokens(f))
            t = t + _linear(f, p[blk + "ffn.fc2.weight"], p[blk + "ffn.fc2.bias"])
        t = _layer_norm(t, p[f"{pre}.norm.gamma"], p[f"{pre}.norm.beta"])
        x = _to_spatial(t, side)
    desc = _linear(x.mean(axis=(2, 3)), p["head.weight"], p["head.bias"])
    return desc / np.sqrt((desc * desc).sum(axis=1, keepdims=True))


def triplet_distances(desc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d+, d-) of stacked [anchors; positives; negatives] descriptor rows."""
    anchor, positive, negative = np.split(desc, 3)
    return (
        np.sqrt(((anchor - positive) ** 2).sum(axis=1)),
        np.sqrt(((anchor - negative) ** 2).sum(axis=1)),
    )


def triplet_loss(desc: np.ndarray, mode: str, margin: "np.ndarray | None" = None) -> float:
    """Mean adaptive-margin hinge; ``margin`` defaults to (d+ + d-)/2 of ``desc``.

    Passing the margin of unperturbed descriptors holds it constant, which
    is how the program's gradient treats it.
    """
    d_pos, d_neg = triplet_distances(desc)
    if margin is None:
        margin = 0.5 * (d_pos + d_neg)
    hinge = d_pos - d_neg + margin if mode == "corrected" else d_pos + d_neg - margin
    return float(np.maximum(hinge, 0.0).mean())
