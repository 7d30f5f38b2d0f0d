"""8-bit grayscale images: binary PGM/PPM I/O and CLAHE contrast enhancement.

CLAHE builds every tile's clipped-histogram mapping at once
(``_clahe_luts``), then blends the mappings one rectangle at a time: the
lines through the tile centers cut the image into rectangles whose pixels
all blend the same four mappings. ``clahe`` says why the result is
bit-identical to a blend over the whole image at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ImageFormatError


@dataclass
class GrayImage:
    """Row-major 8-bit intensity raster."""

    pixels: np.ndarray  # uint8 [H, W]

    def __post_init__(self):
        self.pixels = np.ascontiguousarray(self.pixels, dtype=np.uint8)
        if self.pixels.ndim != 2:
            raise ConfigError(f"GrayImage needs a 2-d array, got shape {self.pixels.shape}")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


def _read_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    """Next whitespace-delimited header token, skipping # comments."""
    n = len(buf)
    while pos < n:
        c = buf[pos : pos + 1]
        if c == b"#":
            while pos < n and buf[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not buf[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise ImageFormatError("truncated header")
    return buf[start:pos], pos


def load_image(path: str | Path) -> GrayImage:
    """Load a binary PGM (P5) or PPM (P6); PPM is converted to gray by luma.

    Luma uses 0.299 R + 0.587 G + 0.114 B rounded to nearest.
    """
    path = Path(path)
    try:
        buf = path.read_bytes()
    except OSError as exc:
        raise ImageFormatError(f"{path}: {exc}") from exc
    try:
        magic, pos = _read_token(buf, 0)
        if magic not in (b"P5", b"P6"):
            raise ImageFormatError(f"{path}: unsupported format {magic!r}")
        wtok, pos = _read_token(buf, pos)
        htok, pos = _read_token(buf, pos)
        mtok, pos = _read_token(buf, pos)
        for name, token in (("width", wtok), ("height", htok), ("maxval", mtok)):
            # bytes.isdigit accepts ASCII 0-9 only: no sign, "_" or other digits
            if not token.isdigit():
                raise ImageFormatError(f"{name} {token!r} is not a decimal number")
        width, height, maxval = int(wtok), int(htok), int(mtok)
    except (ValueError, ImageFormatError) as exc:
        raise ImageFormatError(f"{path}: bad header ({exc})") from exc
    if width <= 0 or height <= 0:
        raise ImageFormatError(f"{path}: image size must be positive, got {width}x{height}")
    if maxval != 255:
        raise ImageFormatError(f"{path}: only 8-bit maxval 255 supported, got {maxval}")
    pos += 1  # single whitespace byte after maxval
    channels = 1 if magic == b"P5" else 3
    need = width * height * channels
    raster = buf[pos : pos + need]
    if len(raster) < need:
        raise ImageFormatError(f"{path}: truncated pixel data")
    data = np.frombuffer(raster, dtype=np.uint8)
    if channels == 1:
        return GrayImage(data.reshape(height, width).copy())
    rgb = data.reshape(height, width, 3).astype(np.float64)
    luma = 0.299 * rgb[..., 0] + 0.587 * rgb[..., 1] + 0.114 * rgb[..., 2]
    return GrayImage(np.floor(luma + 0.5).clip(0, 255).astype(np.uint8))


def save_pgm(img: GrayImage, path: str | Path) -> None:
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + img.pixels.tobytes())


def save_ppm(rgb: np.ndarray, path: str | Path) -> None:
    """Write an [H, W, 3] uint8 array as binary PPM."""
    rgb = np.ascontiguousarray(rgb, dtype=np.uint8)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ConfigError(f"save_ppm needs [H, W, 3], got {rgb.shape}")
    header = f"P6\n{rgb.shape[1]} {rgb.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + rgb.tobytes())


def _tile_edges(extent: int, grid: int) -> np.ndarray:
    return np.round(np.linspace(0, extent, grid + 1)).astype(int)


def _clahe_luts(img: GrayImage, clip_limit: float, grid: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-tile clipped-histogram equalization mappings plus tile centers.

    One ``bincount`` over ``tile * 256 + pixel`` gives every tile's
    histogram; the clip, the excess redistribution, the cumulative sum and
    the rounding then run over all ``[grid, grid, 256]`` bins at once, with
    the integer and float64 arithmetic of a tile-by-tile loop.
    """
    px = img.pixels
    ys = _tile_edges(img.height, grid)
    xs = _tile_edges(img.width, grid)
    tile_rows = np.repeat(np.arange(grid) * (grid * 256), np.diff(ys))
    tile_cols = np.repeat(np.arange(grid) * 256, np.diff(xs))
    bins = (tile_rows[:, None] + tile_cols[None, :]) + px
    hist = np.bincount(bins.ravel(), minlength=grid * grid * 256).reshape(grid, grid, 256)
    npix = np.outer(np.diff(ys), np.diff(xs))
    # a limit at or above the tile's pixel count clips nothing, so capping the
    # clip factor at 256 changes no mapping and keeps the cast below in range
    clip = min(clip_limit, 256.0)
    limit = np.maximum(1, (clip * npix / 256.0).astype(np.int64))[..., None]
    excess = np.maximum(hist - limit, 0).sum(axis=-1, keepdims=True)
    hist = np.minimum(hist, limit) + excess // 256 + (np.arange(256) < excess % 256)
    luts = np.floor(np.cumsum(hist, axis=-1) * 255.0 / npix[..., None] + 0.5)
    cy = (ys[:-1] + ys[1:] - 1) / 2.0
    cx = (xs[:-1] + xs[1:] - 1) / 2.0
    return luts, cy, cx


def _blend_axis(coords: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Neighboring tile indices and interpolation weight per coordinate."""
    hi = np.searchsorted(centers, coords, side="right")
    i0 = np.clip(hi - 1, 0, len(centers) - 1)
    i1 = np.clip(hi, 0, len(centers) - 1)
    span = centers[i1] - centers[i0]
    with np.errstate(invalid="ignore", divide="ignore"):
        w = np.where(span > 0, (coords - centers[i0]) / np.where(span > 0, span, 1.0), 0.0)
    return i0, i1, w


def _bands(extent: int, centers: np.ndarray) -> list[tuple[slice, int, int, np.ndarray]]:
    """Runs of coordinates that share their two neighboring tiles.

    Each band is ``(slice, i0, i1, w)``: the coordinates between two
    neighboring tile centers (or beyond the outermost one), their tile
    pair, and their interpolation weights.
    """
    i0, i1, w = _blend_axis(np.arange(extent, dtype=np.float64), centers)
    cuts = np.flatnonzero((np.diff(i0) != 0) | (np.diff(i1) != 0)) + 1
    edges = [0, *cuts.tolist(), extent]
    return [(slice(a, b), int(i0[a]), int(i1[a]), w[a:b]) for a, b in zip(edges[:-1], edges[1:])]


def clahe(img: GrayImage, clip_limit: float = 2.0, grid: int = 8) -> GrayImage:
    """Contrast-limited adaptive histogram equalization.

    Tile histograms are clipped at ``clip_limit`` times the uniform level
    (excess redistributed), and each pixel blends the four neighboring
    tile mappings bilinearly. Deterministic; output has the same size.

    The blend runs region by region: the lines between neighboring tile
    centers split the image into at most ``(grid + 1) ** 2`` rectangles,
    and within one rectangle every pixel blends the same four mappings. A
    rectangle looks its pixels up in those four 256-entry tables and
    blends them with a column of row weights and a row of column weights.
    Each pixel gets the same table values, the same weights and the same
    float64 expression, evaluated in the same order, as a whole-image
    blend would give it, so the output is bit-identical to one.
    """
    if grid < 1:
        raise ConfigError(f"grid must be >= 1, got {grid}")
    if not 0 < clip_limit < math.inf:
        raise ConfigError(f"clip_limit must be positive and finite, got {clip_limit}")
    if img.height < grid or img.width < grid:
        raise ConfigError(
            f"image {img.width}x{img.height} smaller than the {grid}x{grid} tile grid"
        )
    luts, cy, cx = _clahe_luts(img, clip_limit, grid)
    px = img.pixels
    out = np.empty_like(px)
    col_bands = [(cols, x0, x1, wx, 1 - wx) for cols, x0, x1, wx in _bands(img.width, cx)]
    for rows, y0, y1, wy in _bands(img.height, cy):
        wy, uy = wy[:, None], 1 - wy[:, None]
        for cols, x0, x1, wx, ux in col_bands:
            region = px[rows, cols].astype(np.intp)
            # (1-wy)*((1-wx)*v00 + wx*v01) + wy*((1-wx)*v10 + wx*v11), in place
            top = luts[y0, x0].take(region)
            top *= ux
            part = luts[y0, x1].take(region)
            part *= wx
            top += part
            top *= uy
            bottom = luts[y1, x0].take(region)
            bottom *= ux
            part = luts[y1, x1].take(region)
            part *= wx
            bottom += part
            bottom *= wy
            top += bottom
            top += 0.5
            # weights lie in [0, 1] and table values in [0, 255], so the rounded
            # blend needs no clip before the cast to uint8
            out[rows, cols] = np.floor(top, out=top)
    return GrayImage(out)
