"""Patch sampling: crops, transforms, border rejection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from litematch.detector import Keypoint
from litematch.errors import BorderError, ConfigError
from litematch.image import GrayImage
from litematch.patch import (
    IDENTITY,
    MAX_TRANSLATION,
    ROTATION_DEGREES,
    SCALE_FACTORS,
    PatchTransform,
    apply_transform,
    extract_patch,
    required_margin,
)


def kp(x, y):
    return Keypoint(x=float(x), y=float(y), scale=1.6, response=1.0)


def textured_image(size=256, seed=0, smooth=True):
    rng = np.random.default_rng(seed)
    base = rng.random((size, size))
    if smooth:
        from scipy.ndimage import gaussian_filter

        base = gaussian_filter(base, 3.0)
        base = (base - base.min()) / (base.max() - base.min())
    return GrayImage((base * 255).astype(np.uint8))


def test_pure_crop_pixel_exact():
    img = textured_image(smooth=False)
    out = extract_patch(img, kp(100, 120), window=64, out_size=64)
    assert out.shape == (1, 64, 64)
    crop = img.pixels[120 - 32 : 120 + 32, 100 - 32 : 100 + 32].astype(np.float32) / 255.0
    np.testing.assert_array_equal(out.data[0], crop)


def test_default_window_upsamples_to_128():
    img = textured_image()
    out = extract_patch(img, kp(128, 128))
    assert out.shape == (1, 128, 128)
    assert 0.0 <= out.data.min() and out.data.max() <= 1.0


def test_constant_image_constant_patch():
    img = GrayImage(np.full((128, 128), 200, dtype=np.uint8))
    out = extract_patch(img, kp(64, 64))
    np.testing.assert_allclose(out.data, 200.0 / 255.0, rtol=1e-6)


def test_identity_transform_bit_exact_with_extract():
    img = textured_image(seed=1)
    a = extract_patch(img, kp(77, 91))
    b = apply_transform(img, kp(77, 91), IDENTITY)
    assert np.array_equal(a.data, b.data)


def test_translate_commutes_with_keypoint_shift():
    img = textured_image(seed=2, smooth=False)
    t = PatchTransform(kind="translate", dx=8, dy=0)
    moved = apply_transform(img, kp(100 - 8, 80), t)
    plain = extract_patch(img, kp(100, 80))
    assert np.array_equal(moved.data, plain.data)


def test_rotation_round_trip_small_error():
    img = textured_image(seed=3)
    center = kp(128, 128)
    # rotate the sampling grid one way, then resample the result back
    first = apply_transform(img, center, PatchTransform(kind="rotate", angle_deg=5.0),
                            window=64, out_size=64)
    first_img = GrayImage(np.floor(first.data[0] * 255.0 + 0.5).astype(np.uint8))
    second = apply_transform(
        first_img, kp(31.5, 31.5), PatchTransform(kind="rotate", angle_deg=-5.0),
        window=44, out_size=44,
    )
    reference = extract_patch(img, center, window=44, out_size=44)
    mae = np.abs(second.data - reference.data).mean()
    assert mae <= 2.0 / 255.0


def test_scale_transform_zooms():
    img = textured_image(seed=4)
    zoomed = apply_transform(img, kp(128, 128), PatchTransform(kind="scale", scale_factor=1.15))
    plain = extract_patch(img, kp(128, 128))
    assert zoomed.shape == plain.shape
    assert not np.array_equal(zoomed.data, plain.data)


def test_border_rejection():
    img = textured_image()
    with pytest.raises(BorderError):
        extract_patch(img, kp(10, 128))
    # a 15 degree rotation swings the 64-window grid ~7.4 px past its box
    with pytest.raises(BorderError):
        apply_transform(img, kp(38, 128), PatchTransform(kind="rotate", angle_deg=15.0))
    apply_transform(img, kp(40, 128), PatchTransform(kind="rotate", angle_deg=15.0))


def test_patch_values_in_unit_interval():
    img = textured_image(seed=5, smooth=False)
    for t in (
        IDENTITY,
        PatchTransform(kind="scale", scale_factor=0.9),
        PatchTransform(kind="rotate", angle_deg=-15.0),
        PatchTransform(kind="translate", dx=-8, dy=8),
    ):
        out = apply_transform(img, kp(128, 128), t)
        assert 0.0 <= out.data.min() and out.data.max() <= 1.0


def test_transform_validation():
    with pytest.raises(ConfigError):
        PatchTransform(kind="shear")
    with pytest.raises(ConfigError):
        PatchTransform(kind="scale", scale_factor=2.0)
    with pytest.raises(ConfigError):
        PatchTransform(kind="rotate", angle_deg=30.0)
    with pytest.raises(ConfigError):
        PatchTransform(kind="translate", dx=9)


@pytest.mark.parametrize("window, out_size", [(1, 32), (64, 1)])
def test_apply_transform_refuses_a_window_or_patch_below_two_pixels(window, out_size):
    img = textured_image(64)
    with pytest.raises(ConfigError, match="^window and out_size must be >= 2$"):
        apply_transform(img, kp(32, 32), PatchTransform(), window, out_size)


def test_required_margin_admits_all_transforms():
    img = textured_image(seed=6)
    m = required_margin()
    safe = kp(m, m)
    for t in (
        PatchTransform(kind="scale", scale_factor=0.9),
        PatchTransform(kind="rotate", angle_deg=15.0),
        PatchTransform(kind="translate", dx=-8, dy=-8),
    ):
        apply_transform(img, safe, t)  # must not raise


@pytest.mark.parametrize("x, y", [(math.inf, 80.0), (80.0, -math.inf), (math.nan, 80.0), (80.0, math.nan)])
def test_non_finite_keypoint_raises_border_error(x, y):
    with pytest.raises(BorderError, match="not finite"):
        extract_patch(textured_image(), kp(x, y))


def meshgrid_sampler(img, keypoint, t, window, out_size):
    """The sampler on dense ``np.meshgrid`` coordinates with four 2-D gathers."""
    height, width = img.pixels.shape
    x0 = int(round(keypoint.x)) - window // 2
    y0 = int(round(keypoint.y)) - window // 2
    u = (np.arange(out_size, dtype=np.float64) + 0.5) * (window / out_size) - 0.5
    center = (window - 1) / 2.0
    gx, gy = np.meshgrid(u - center, u - center)
    if t.kind == "scale":
        gx, gy = gx / t.scale_factor, gy / t.scale_factor
    elif t.kind == "rotate":
        rad = math.radians(t.angle_deg)
        c, s = math.cos(rad), math.sin(rad)
        gx, gy = c * gx + s * gy, -s * gx + c * gy
    elif t.kind == "translate":
        gx, gy = gx + t.dx, gy + t.dy
    sx = (gx + center) + x0
    sy = (gy + center) + y0
    if sx.min() < 0.0 or sy.min() < 0.0 or sx.max() > width - 1 or sy.max() > height - 1:
        raise BorderError("escapes the image")
    fx = np.floor(sx).astype(np.intp)
    fy = np.floor(sy).astype(np.intp)
    wx, wy = sx - fx, sy - fy
    fx1 = np.minimum(fx + 1, width - 1)
    fy1 = np.minimum(fy + 1, height - 1)
    px = img.pixels
    top = (1.0 - wx) * px[fy, fx] + wx * px[fy, fx1]
    bot = (1.0 - wx) * px[fy1, fx] + wx * px[fy1, fx1]
    return (((1.0 - wy) * top + wy * bot) / 255.0)[None].astype(np.float32)


# not square, so a swapped width and height would show
ORACLE_IMAGE = GrayImage(np.random.default_rng(7).integers(0, 256, (150, 190)).astype(np.uint8))

transforms = st.one_of(
    st.just(IDENTITY),
    st.builds(PatchTransform, kind=st.just("scale"), scale_factor=st.sampled_from(SCALE_FACTORS)),
    st.builds(
        PatchTransform,
        kind=st.just("rotate"),
        angle_deg=st.sampled_from(ROTATION_DEGREES).flatmap(lambda d: st.sampled_from((d, -d))),
    ),
    st.builds(
        PatchTransform,
        kind=st.just("translate"),
        dx=st.integers(-MAX_TRANSLATION, MAX_TRANSLATION),
        dy=st.integers(-MAX_TRANSLATION, MAX_TRANSLATION),
    ),
)


def coordinate(extent):
    # anywhere from just past one border to just past the other, or near the middle
    return st.one_of(
        st.floats(-3.0, extent + 3.0),
        st.floats(extent / 2 - 12.0, extent / 2 + 12.0),
    )


@settings(max_examples=300, deadline=None)
@given(
    t=transforms,
    window=st.sampled_from((31, 48, 64)),
    out_size=st.sampled_from((32, 64, 128)),
    x=coordinate(ORACLE_IMAGE.width),
    y=coordinate(ORACLE_IMAGE.height),
)
def test_sampler_matches_the_dense_meshgrid_sampler(t, window, out_size, x, y):
    try:
        expected = meshgrid_sampler(ORACLE_IMAGE, kp(x, y), t, window, out_size)
    except BorderError:
        with pytest.raises(BorderError):
            apply_transform(ORACLE_IMAGE, kp(x, y), t, window=window, out_size=out_size)
        return
    got = apply_transform(ORACLE_IMAGE, kp(x, y), t, window=window, out_size=out_size)
    assert np.array_equal(got.data, expected)
