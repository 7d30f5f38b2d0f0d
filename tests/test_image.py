"""PGM/PPM round-trips and CLAHE behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from litematch.errors import ConfigError, ImageFormatError
from litematch.image import GrayImage, _clahe_luts, clahe, load_image, save_pgm, save_ppm


def test_pgm_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    img = GrayImage(rng.integers(0, 256, size=(37, 53), dtype=np.uint8))
    p = tmp_path / "img.pgm"
    save_pgm(img, p)
    again = load_image(p)
    assert np.array_equal(img.pixels, again.pixels)
    save_pgm(again, tmp_path / "img2.pgm")
    assert (tmp_path / "img.pgm").read_bytes() == (tmp_path / "img2.pgm").read_bytes()


def test_ppm_white_converts_to_255(tmp_path):
    rgb = np.full((2, 2, 3), 255, dtype=np.uint8)
    p = tmp_path / "w.ppm"
    save_ppm(rgb, p)
    assert np.all(load_image(p).pixels == 255)


def test_ppm_red_luma(tmp_path):
    rgb = np.zeros((1, 1, 3), dtype=np.uint8)
    rgb[0, 0, 0] = 255
    p = tmp_path / "r.ppm"
    save_ppm(rgb, p)
    assert load_image(p).pixels[0, 0] == 76  # floor(0.299 * 255 + 0.5)


def test_pgm_header_comments_ok(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5\n# a comment\n3 2\n255\n" + bytes(range(6)))
    img = load_image(p)
    assert img.width == 3 and img.height == 2
    assert np.array_equal(img.pixels, np.arange(6, dtype=np.uint8).reshape(2, 3))


def test_load_rejects_bad_magic(tmp_path):
    p = tmp_path / "x.pgm"
    p.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
    with pytest.raises(ImageFormatError) as err:
        load_image(p)
    assert "x.pgm" in str(err.value)


def test_load_rejects_truncated(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(ImageFormatError):
        load_image(p)


def test_load_missing_file_mentions_path():
    with pytest.raises(ImageFormatError) as err:
        load_image("/nonexistent/nope.pgm")
    assert "nope.pgm" in str(err.value)


@pytest.mark.parametrize("size", [b"-4 4", b"-4 -4", b"0 4", b"4 0", b"4 -3"])
def test_load_rejects_non_positive_size(tmp_path, size):
    p = tmp_path / "s.pgm"
    p.write_bytes(b"P5\n" + size + b"\n255\n" + bytes(16))
    with pytest.raises(ImageFormatError, match="s.pgm"):
        load_image(p)


@pytest.mark.parametrize(
    "header",
    [
        b"+4 4 255", b"4 +4 255", b"4 4 +255",
        b"1_0 4 255", b"4 1_0 255", b"4 4 2_55",
        b"-0 4 255", b"4 -0 255", b"4 4 -0",
        "\uff14 4 255".encode(), "4 \u0664 255".encode(), "4 4 25\u0665".encode(),
    ],
    ids=["plus-w", "plus-h", "plus-max", "underscore-w", "underscore-h", "underscore-max",
         "minus-zero-w", "minus-zero-h", "minus-zero-max",
         "fullwidth-w", "arabic-indic-h", "arabic-indic-max"],
)
def test_load_accepts_only_ascii_decimal_header_numbers(tmp_path, header):
    p = tmp_path / "n.pgm"
    p.write_bytes(b"P5\n" + header + b"\n" + bytes(160))
    with pytest.raises(ImageFormatError, match="n.pgm.*not a decimal number"):
        load_image(p)


def test_load_reads_leading_zeros_as_decimal(tmp_path):
    p = tmp_path / "z.pgm"
    p.write_bytes(b"P5\n004 010 0255\n" + bytes(40))
    assert load_image(p).pixels.shape == (10, 4)


_SPACE = st.sampled_from([b" ", b"\n", b"\t\r\n", b"\n# note\n", b""])
_SIZE = st.integers(-3, 6).map(lambda v: str(v).encode())
_TOKEN = st.one_of(
    _SIZE,
    st.sampled_from([b"255", b"256", b"+2", b"1_0", b"0x4", b"9" * 30]),
    st.binary(min_size=1, max_size=4),
)


@settings(max_examples=500, deadline=None)
@given(
    magic=st.sampled_from([b"P5", b"P6", b"P2", b""]),
    tokens=st.tuples(_SIZE | _TOKEN, _SIZE | _TOKEN, st.just(b"255") | _TOKEN),
    spaces=st.tuples(_SPACE, _SPACE, _SPACE, _SPACE),
    raster=st.binary(max_size=160),
)
def test_fuzzed_header_loads_declared_shape_or_raises(tmp_path_factory, magic, tokens, spaces, raster):
    """A PGM/PPM header either loads as its declared shape or raises ImageFormatError."""
    header = magic
    for space, token in zip(spaces, tokens):
        header += space + token
    path = tmp_path_factory.getbasetemp() / "fuzzed.pgm"
    path.write_bytes(header + b"\n" + raster)
    try:
        img = load_image(path)
    except ImageFormatError as exc:
        assert str(path) in str(exc)
        return
    assert img.pixels.shape == (int(tokens[1]), int(tokens[0]))


# ------------------------------------------------------------------ CLAHE


def test_clahe_constant_image_stays_constant():
    img = GrayImage(np.full((64, 64), 90, dtype=np.uint8))
    out = clahe(img)
    assert out.pixels.min() == out.pixels.max()


def test_clahe_deterministic():
    rng = np.random.default_rng(1)
    img = GrayImage(rng.integers(0, 256, size=(80, 96), dtype=np.uint8))
    a = clahe(img)
    b = clahe(img)
    assert np.array_equal(a.pixels, b.pixels)


def test_clahe_preserves_shape_and_improves_contrast():
    rng = np.random.default_rng(2)
    low = (rng.random((64, 64)) * 40 + 100).astype(np.uint8)
    img = GrayImage(low)
    out = clahe(img)
    assert out.pixels.shape == low.shape
    assert out.pixels.std() > img.pixels.std()


def test_clahe_tile_mappings_monotone_two_level_image():
    px = np.full((64, 64), 50, dtype=np.uint8)
    px[:, 32:] = 200
    img = GrayImage(px)
    luts, _, _ = _clahe_luts(img, clip_limit=2.0, grid=8)
    # every tile mapping is non-decreasing, so any bilinear blend of the
    # mappings preserves the 50 < 200 ordering at every pixel
    assert np.all(np.diff(luts, axis=-1) >= 0)
    out = clahe(img).pixels
    assert out[:, :32].max() <= out[:, 32:].min()


def test_clahe_rejects_image_smaller_than_grid():
    img = GrayImage(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ConfigError):
        clahe(img, grid=8)


def test_clahe_rejects_bad_params():
    img = GrayImage(np.zeros((32, 32), dtype=np.uint8))
    with pytest.raises(ConfigError):
        clahe(img, clip_limit=0.0)
    for clip in (float("inf"), float("nan")):
        with pytest.raises(ConfigError, match="clip_limit must be positive and finite"):
            clahe(img, clip_limit=clip)
    with pytest.raises(ConfigError):
        clahe(img, grid=0)


# --------------------------------------------- CLAHE against a whole-image oracle


def _oracle_clahe(px: np.ndarray, clip_limit: float, grid: int) -> np.ndarray:
    """CLAHE as a per-tile histogram loop and one whole-image blend.

    A transcription of the straightforward formulation: every pixel gathers
    its four tile mappings with three-index lookups over the whole image.
    """
    height, width = px.shape
    ys = np.round(np.linspace(0, height, grid + 1)).astype(int)
    xs = np.round(np.linspace(0, width, grid + 1)).astype(int)
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

    def blend_axis(coords, centers):
        hi = np.searchsorted(centers, coords, side="right")
        i0 = np.clip(hi - 1, 0, len(centers) - 1)
        i1 = np.clip(hi, 0, len(centers) - 1)
        span = centers[i1] - centers[i0]
        with np.errstate(invalid="ignore", divide="ignore"):
            w = np.where(span > 0, (coords - centers[i0]) / np.where(span > 0, span, 1.0), 0.0)
        return i0, i1, w

    y0, y1, wy = blend_axis(np.arange(height, dtype=np.float64), (ys[:-1] + ys[1:] - 1) / 2.0)
    x0, x1, wx = blend_axis(np.arange(width, dtype=np.float64), (xs[:-1] + xs[1:] - 1) / 2.0)
    v00 = luts[y0[:, None], x0[None, :], px]
    v01 = luts[y0[:, None], x1[None, :], px]
    v10 = luts[y1[:, None], x0[None, :], px]
    v11 = luts[y1[:, None], x1[None, :], px]
    wy = wy[:, None]
    wx = wx[None, :]
    out = (1 - wy) * ((1 - wx) * v00 + wx * v01) + wy * ((1 - wx) * v10 + wx * v11)
    return np.floor(out + 0.5).clip(0, 255).astype(np.uint8)


def _test_image(kind: str, height: int, width: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "random":
        lo = int(rng.integers(0, 256))
        hi = int(rng.integers(lo, 256))
        return rng.integers(lo, hi + 1, size=(height, width), dtype=np.uint8)
    if kind == "two-level":
        a, b = rng.integers(0, 256, size=2)
        return np.where(rng.random((height, width)) < rng.random(), a, b).astype(np.uint8)
    return np.full((height, width), rng.integers(0, 256), dtype=np.uint8)


@st.composite
def _clahe_cases(draw):
    grid = draw(st.integers(1, 8))
    height = draw(st.just(grid) | st.integers(grid, 150))
    width = draw(st.just(grid) | st.integers(grid, 150))
    clip = draw(st.sampled_from([0.5, 1.0, 2.0, 3.7, 40.0]))
    kind = draw(st.sampled_from(["random", "two-level", "constant"]))
    return _test_image(kind, height, width, draw(st.integers(0, 2**32 - 1))), clip, grid


@settings(max_examples=300, deadline=None)
@given(case=_clahe_cases())
def test_clahe_bit_identical_to_whole_image_oracle(case):
    px, clip, grid = case
    assert np.array_equal(clahe(GrayImage(px), clip, grid).pixels, _oracle_clahe(px, clip, grid))


@pytest.mark.parametrize("kind", ["random", "two-level", "constant"])
def test_clahe_bit_identical_to_oracle_at_pipeline_size(kind):
    px = _test_image(kind, 419, 416, seed=11)
    assert np.array_equal(clahe(GrayImage(px)).pixels, _oracle_clahe(px, 2.0, 8))


def test_clahe_huge_clip_limit_clips_nothing():
    px = _test_image("random", 90, 70, seed=4)
    unclipped = _oracle_clahe(px, 1e6, 8)
    for clip in (256.0, 1e300):
        assert np.array_equal(clahe(GrayImage(px), clip, 8).pixels, unclipped)
