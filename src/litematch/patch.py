"""Keypoint-centered patch extraction with mild geometric transforms.

A window around the keypoint is resampled to the model input size by
bilinear interpolation, optionally under a small rotation, rescale, or
integer translation of the sampling grid. Samples falling outside the
source image are rejected rather than padded, so transformed patches
never contain fabricated content.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import Keypoint
from .errors import BorderError, ConfigError
from .image import GrayImage
from .tensor import Tensor

TRANSFORM_KINDS = ("identity", "scale", "rotate", "translate")
SCALE_FACTORS = (0.9, 0.95, 1.05, 1.1, 1.15)
ROTATION_DEGREES = (5.0, 10.0, 15.0)
MAX_TRANSLATION = 8

DEFAULT_WINDOW = 64
DEFAULT_OUT_SIZE = 128


@dataclass(frozen=True)
class PatchTransform:
    """One sampled geometric perturbation of the extraction window."""

    kind: str = "identity"
    scale_factor: float = 1.0
    angle_deg: float = 0.0
    dx: int = 0
    dy: int = 0

    def __post_init__(self):
        if self.kind not in TRANSFORM_KINDS:
            raise ConfigError(f"unknown transform kind {self.kind!r}")
        if self.kind == "scale" and self.scale_factor not in SCALE_FACTORS:
            raise ConfigError(f"scale factor must be one of {SCALE_FACTORS}")
        if self.kind == "rotate" and abs(self.angle_deg) not in ROTATION_DEGREES:
            raise ConfigError(f"rotation magnitude must be one of {ROTATION_DEGREES}")
        if self.kind == "translate" and (
            abs(self.dx) > MAX_TRANSLATION or abs(self.dy) > MAX_TRANSLATION
        ):
            raise ConfigError(f"translation components must satisfy |d| <= {MAX_TRANSLATION}")


IDENTITY = PatchTransform()


def plain_margin(window: int) -> int:
    """Border margin admitting a plain (untransformed) patch at any output size.

    A patch centred on pixel ``c`` samples ``c - window // 2`` to
    ``c + (window - 1) // 2``, overhanging each end by up to half a pixel
    when the output is larger than the window. Detection keeps
    ``margin <= c <= size - margin`` and the last pixel is ``size - 1``, so
    the far end needs ``(window - 1) // 2 + 2``: ``window // 2 + 1`` for an
    even window and one more for an odd one.
    """
    return (window + 1) // 2 + 1


def required_margin(window: int = DEFAULT_WINDOW, out_size: int = DEFAULT_OUT_SIZE) -> int:
    """Conservative border margin admitting every supported transform."""
    half = (window - 1) / 2.0
    extent = half + 0.5 * window / out_size  # sub-pixel overhang of the grid
    worst = max(
        extent + MAX_TRANSLATION,
        extent * (math.cos(math.radians(15.0)) + math.sin(math.radians(15.0))),
        extent / min(SCALE_FACTORS),
    )
    return math.ceil(worst - half) + window // 2 + 1


def _sample_grid(window: int, out_size: int, t: PatchTransform) -> tuple[np.ndarray, np.ndarray]:
    """Source (x, y) of each output pixel, relative to the window's top-left pixel.

    The two arrays broadcast against each other to ``[out_size, out_size]``
    without a dense grid: for identity, scale and translate x depends only on
    the output column and y only on the row, so x is ``[1, N]`` and y is
    ``[N, 1]``; rotate mixes both axes and returns two ``[N, N]`` arrays.
    """
    u = (np.arange(out_size, dtype=np.float64) + 0.5) * (window / out_size) - 0.5
    center = (window - 1) / 2.0
    du = u - center
    gx, gy = du[None, :], du[:, None]
    if t.kind == "identity":
        pass
    elif t.kind == "scale":
        gx = gx / t.scale_factor
        gy = gy / t.scale_factor
    elif t.kind == "rotate":
        rad = math.radians(t.angle_deg)
        c, s = math.cos(rad), math.sin(rad)
        gx, gy = c * gx + s * gy, -s * gx + c * gy
    elif t.kind == "translate":
        gx = gx + t.dx
        gy = gy + t.dy
    return gx + center, gy + center


def apply_transform(
    img: GrayImage,
    kp: Keypoint,
    t: PatchTransform,
    window: int = DEFAULT_WINDOW,
    out_size: int = DEFAULT_OUT_SIZE,
) -> Tensor:
    """Sample a transformed window around ``kp`` into a [1, out, out] tensor.

    Values are scaled to [0, 1]. Raises BorderError when the keypoint is
    not finite or any bilinear sample falls outside the image.
    """
    if window < 2 or out_size < 2:
        raise ConfigError("window and out_size must be >= 2")
    height, width = img.pixels.shape
    if not (math.isfinite(kp.x) and math.isfinite(kp.y)):
        raise BorderError(f"keypoint ({kp.x}, {kp.y}) is not finite")
    x0 = int(round(kp.x)) - window // 2
    y0 = int(round(kp.y)) - window // 2
    sx, sy = _sample_grid(window, out_size, t)
    sx = sx + x0
    sy = sy + y0
    if sx.min() < 0.0 or sy.min() < 0.0 or sx.max() > width - 1 or sy.max() > height - 1:
        raise BorderError(
            f"sampling window for keypoint ({kp.x:.1f}, {kp.y:.1f}) escapes the "
            f"{width}x{height} image"
        )
    fx = np.floor(sx).astype(np.intp)
    fy = np.floor(sy).astype(np.intp)
    wx = sx - fx
    wy = sy - fy
    # weight is exactly 0 whenever the +1 neighbor would leave the image
    fx1 = np.minimum(fx + 1, width - 1)
    fy1 = np.minimum(fy + 1, height - 1)
    # pixels is C-contiguous (GrayImage), so ravel() is a view and the row
    # offsets broadcast against the columns to [N, N] flat indices
    flat = img.pixels.ravel()
    row, row1 = fy * width, fy1 * width
    top = (1.0 - wx) * np.take(flat, row + fx) + wx * np.take(flat, row + fx1)
    bot = (1.0 - wx) * np.take(flat, row1 + fx) + wx * np.take(flat, row1 + fx1)
    values = ((1.0 - wy) * top + wy * bot) / 255.0
    return Tensor(values[None, :, :].astype(np.float32))


def extract_patch(
    img: GrayImage,
    kp: Keypoint,
    window: int = DEFAULT_WINDOW,
    out_size: int = DEFAULT_OUT_SIZE,
) -> Tensor:
    """Plain (untransformed) patch extraction; see :func:`apply_transform`."""
    return apply_transform(img, kp, IDENTITY, window=window, out_size=out_size)
