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
    with pytest.raises(ConfigError):
        clahe(img, grid=0)
