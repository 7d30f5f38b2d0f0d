"""8-bit grayscale images: binary PGM/PPM I/O and CLAHE contrast enhancement."""

from __future__ import annotations

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
    """Per-tile clipped-histogram equalization mappings plus tile centers."""
    px = img.pixels
    ys = _tile_edges(img.height, grid)
    xs = _tile_edges(img.width, grid)
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
            cdf = np.cumsum(hist)
            luts[ty, tx] = np.floor(cdf * 255.0 / npix + 0.5)
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


def clahe(img: GrayImage, clip_limit: float = 2.0, grid: int = 8) -> GrayImage:
    """Contrast-limited adaptive histogram equalization.

    Tile histograms are clipped at ``clip_limit`` times the uniform level
    (excess redistributed), and each pixel blends the four neighboring
    tile mappings bilinearly. Deterministic; output has the same size.
    """
    if grid < 1:
        raise ConfigError(f"grid must be >= 1, got {grid}")
    if clip_limit <= 0:
        raise ConfigError(f"clip_limit must be positive, got {clip_limit}")
    if img.height < grid or img.width < grid:
        raise ConfigError(
            f"image {img.width}x{img.height} smaller than the {grid}x{grid} tile grid"
        )
    luts, cy, cx = _clahe_luts(img, clip_limit, grid)
    y0, y1, wy = _blend_axis(np.arange(img.height, dtype=np.float64), cy)
    x0, x1, wx = _blend_axis(np.arange(img.width, dtype=np.float64), cx)
    px = img.pixels
    v00 = luts[y0[:, None], x0[None, :], px]
    v01 = luts[y0[:, None], x1[None, :], px]
    v10 = luts[y1[:, None], x0[None, :], px]
    v11 = luts[y1[:, None], x1[None, :], px]
    wy = wy[:, None]
    wx = wx[None, :]
    out = (1 - wy) * ((1 - wx) * v00 + wx * v01) + wy * ((1 - wx) * v10 + wx * v11)
    return GrayImage(np.floor(out + 0.5).clip(0, 255).astype(np.uint8))
