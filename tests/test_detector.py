"""DoG detector: blob localization, determinism, border filtering."""

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter, maximum_filter, minimum_filter

from litematch import detector
from litematch.config import RunConfig
from litematch.detector import Keypoint, detect_keypoints
from litematch.errors import ConfigError
from litematch.image import GrayImage
from litematch.patch import plain_margin

MARGIN = plain_margin(64)  # the default window's


def gaussian_blob(size=160, cx=80.0, cy=76.0, sigma=2.5, amplitude=255.0):
    y, x = np.mgrid[0:size, 0:size]
    g = amplitude * np.exp(-(((x - cx) ** 2 + (y - cy) ** 2) / (2 * sigma * sigma)))
    return GrayImage(np.floor(g + 0.5).clip(0, 255).astype(np.uint8))


def test_constant_image_no_keypoints():
    img = GrayImage(np.full((128, 128), 77, dtype=np.uint8))
    assert detect_keypoints(img, max_points=100, border_margin=MARGIN) == []


def test_single_blob_single_keypoint_near_center():
    img = gaussian_blob()
    kps = detect_keypoints(img, max_points=50, border_margin=MARGIN)
    assert len(kps) == 1
    kp = kps[0]
    assert abs(kp.x - 80.0) <= 2.0 and abs(kp.y - 76.0) <= 2.0
    assert kp.response > 0


def test_detection_deterministic():
    rng = np.random.default_rng(3)
    img = GrayImage((rng.random((200, 200)) * 255).astype(np.uint8))
    a = detect_keypoints(img, max_points=100, border_margin=MARGIN)
    b = detect_keypoints(img, max_points=100, border_margin=MARGIN)
    assert a == b


def test_sorted_by_response_and_truncated():
    img = gaussian_blob()
    # add a second, weaker blob
    y, x = np.mgrid[0:160, 0:160]
    weak = 120.0 * np.exp(-(((x - 120.0) ** 2 + (y - 120.0) ** 2) / (2 * 2.5 ** 2)))
    px = np.clip(img.pixels.astype(np.float64) + weak, 0, 255).astype(np.uint8)
    kps = detect_keypoints(GrayImage(px), max_points=10, border_margin=MARGIN)
    assert len(kps) >= 2
    responses = [kp.response for kp in kps]
    assert responses == sorted(responses, reverse=True)
    assert detect_keypoints(GrayImage(px), max_points=1, border_margin=MARGIN) == kps[:1]


@pytest.mark.parametrize("budget", [0, -3])
def test_non_positive_keypoint_budget_rejected(budget):
    img = gaussian_blob()
    assert len(detect_keypoints(img, max_points=1, border_margin=MARGIN)) == 1
    with pytest.raises(ConfigError, match=f"max_points must be at least 1, got {budget}"):
        detect_keypoints(img, max_points=budget, border_margin=MARGIN)


@pytest.mark.parametrize("budget", [0, -3])
def test_run_config_rejects_non_positive_keypoint_budget(budget):
    with pytest.raises(ConfigError, match=f"max_keypoints must be at least 1, got {budget}"):
        RunConfig(max_keypoints=budget).validate()
    assert RunConfig(max_keypoints=1).validate().max_keypoints == 1


def test_border_margin_respected():
    img = gaussian_blob(size=160, cx=10.0, cy=80.0)  # too close to the left edge
    kps = detect_keypoints(img, max_points=50, border_margin=33)
    assert all(33 <= round(kp.x) <= 160 - 33 and 33 <= round(kp.y) <= 160 - 33 for kp in kps)
    assert not any(abs(kp.x - 10.0) < 3 for kp in kps)


def test_keypoint_fields():
    kp = Keypoint(x=1.5, y=2.5, scale=commonscale(), response=0.1)
    assert kp.x == 1.5 and kp.scale > 0


def commonscale():
    return 1.6


# ---------------------------------------------------------------- oracle
# A transcription of the dense detector: a float64 DoG stack, 3-d
# maximum/minimum filters over all of it, and one quadratic fit per
# candidate with its own solve.


def _oracle_refine(d, level, y, x):
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
            if det <= 0 or tr * tr * 10.0 >= 121.0 * det:
                return None
            return (x + float(offset[0]), y + float(offset[1]), level + float(offset[2]), value)
        x += int(np.round(offset[0]))
        y += int(np.round(offset[1]))
        level += int(np.round(offset[2]))
        if not (1 <= level <= n_levels - 2 and 1 <= y < h - 1 and 1 <= x < w - 1):
            return None
    return None


def _oracle_octave(dogs, prelim):
    """(x, y, level, value) of every refined extremum, in (level, y, x) order."""
    is_max = (dogs >= maximum_filter(dogs, size=3)) & (dogs > prelim)
    is_min = (dogs <= minimum_filter(dogs, size=3)) & (dogs < -prelim)
    cand = is_max | is_min
    cand[0] = cand[-1] = False
    cand[:, :2, :] = cand[:, -2:, :] = False
    cand[:, :, :2] = cand[:, :, -2:] = False
    fits = (_oracle_refine(dogs, int(lv), int(y), int(x)) for lv, y, x in np.argwhere(cand))
    return [fit for fit in fits if fit is not None]


def _oracle_detect(px, max_points, border_margin, contrast=0.03):
    base = px.astype(np.float32) / 255.0
    k = 2.0 ** (1.0 / 3)
    found = []
    octave_base = base
    for octave in range(4):
        if min(octave_base.shape) < 16:
            break
        levels = [gaussian_filter(octave_base, 1.6)]
        for i in range(1, 6):
            levels.append(gaussian_filter(levels[-1], 1.6 * np.sqrt(k ** (2 * i) - k ** (2 * (i - 1)))))
        dogs = np.stack([levels[i + 1] - levels[i] for i in range(5)]).astype(np.float64)
        factor = float(2**octave)
        for rx, ry, rlevel, value in _oracle_octave(dogs, 0.8 * contrast):
            if abs(value) >= contrast:
                found.append((rx * factor, ry * factor, 1.6 * (k**rlevel) * factor, abs(value)))
        octave_base = levels[3][::2, ::2]
    height, width = px.shape
    inside = [
        kp
        for kp in found
        if border_margin <= round(kp[0]) <= width - border_margin
        and border_margin <= round(kp[1]) <= height - border_margin
    ]
    inside.sort(key=lambda kp: (-kp[3], kp[1], kp[0], kp[2]))
    kept = []
    for kp in inside:
        if all((kp[0] - q[0]) ** 2 + (kp[1] - q[1]) ** 2 > 4.0 for q in kept):
            kept.append(kp)
            if len(kept) == max_points:
                break
    return kept


def _two_blobs():
    img = gaussian_blob()
    y, x = np.mgrid[0:160, 0:160]
    weak = 120.0 * np.exp(-(((x - 120.0) ** 2 + (y - 120.0) ** 2) / (2 * 2.5**2)))
    return np.clip(img.pixels.astype(np.float64) + weak, 0, 255).astype(np.uint8)


def _noise(seed, size, block):
    """Uniform noise in ``block``-pixel squares: fine pixel noise blurs away."""
    cells = np.random.default_rng(seed).random((size // block + 1,) * 2) * 255
    return np.kron(cells, np.ones((block, block)))[:size, :size].astype(np.uint8)


ORACLE_IMAGES = {
    "noise96": (_noise(11, 96, 3), 4),
    "noise128": (_noise(12, 128, 4), 8),
    "noise160": (_noise(13, 160, 2), 33),
    "two-blobs": (_two_blobs(), 33),
    "17px": (gaussian_blob(size=17, cx=8.3, cy=8.6, sigma=2.5).pixels, 1),
    "15px": (_noise(15, 15, 2), 1),
    "constant": (np.full((64, 64), 77, dtype=np.uint8), 1),
}


@pytest.mark.parametrize("max_points", [3, 10**6])
@pytest.mark.parametrize("name", sorted(ORACLE_IMAGES))
def test_matches_dense_filter_oracle(name, max_points):
    px, margin = ORACLE_IMAGES[name]
    expected = _oracle_detect(px, max_points, margin)
    found = detect_keypoints(GrayImage(px), max_points, border_margin=margin)
    assert len(found) == len(expected)
    for kp, (x, y, scale, response) in zip(found, expected):
        assert abs(kp.x - x) <= 1e-12 and abs(kp.y - y) <= 1e-12
        assert abs(kp.scale - scale) <= 1e-12 and abs(kp.response - response) <= 1e-12


def test_oracle_images_exercise_the_detector():
    counts = {
        name: len(_oracle_detect(px, 10**6, margin)) for name, (px, margin) in ORACLE_IMAGES.items()
    }
    assert counts["noise128"] > 20 and counts["two-blobs"] == 2 and counts["17px"] == 1
    assert counts["15px"] == 0 and counts["constant"] == 0


def test_singular_candidates_are_dropped_like_the_oracle():
    # a plateau above the threshold: every plateau sample ties its
    # neighbours, so each is a candidate, and inside it the Hessian is
    # singular; the fit must drop those and still refine the peak beside it
    dogs = np.zeros((5, 16, 16), dtype=np.float32)
    dogs[1:4, 3:7, 3:7] = 0.05
    level, y, x = np.mgrid[0:5, 0:8, 0:8]
    dogs[:, 8:, 8:] = 0.06 * np.exp(-((x - 3.3) ** 2 + (y - 2.6) ** 2) / 3.0 - (level - 2.2) ** 2)
    prelim = 0.8 * 0.03
    cand = detector._extrema(dogs, prelim)
    assert cand.size == 49
    expected = _oracle_octave(dogs.astype(np.float64), prelim)
    assert len(expected) == 1
    assert [tuple(fit) for fit in detector._refine(dogs, cand).T] == expected
    # only the plateau's candidates, and none at all
    plateau = cand[cand % 16 < 8]
    assert plateau.size == 48
    assert detector._refine(dogs, plateau).shape == (4, 0)
    assert detector._refine(dogs, cand[:0]).shape == (4, 0)
