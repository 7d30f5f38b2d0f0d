"""DoG detector: blob localization, determinism, border filtering."""

import ast
import functools
import os
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter, maximum_filter, minimum_filter

from litematch import _pool, detector
from litematch.config import RunConfig
from litematch.dataset import synth_pair
from litematch.detector import Keypoint, detect_keypoints
from litematch.errors import ConfigError
from litematch.image import GrayImage, clahe
from litematch.model import init_model
from litematch.patch import plain_margin
from litematch.pipeline import match_images, model_descriptor
from litematch.tensor import SGD
from litematch.training import model_config_for, train_step

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


def _noise(seed, size, block, width=None):
    """Uniform noise in ``block``-pixel squares: fine pixel noise blurs away."""
    width = size if width is None else width
    cells = np.random.default_rng(seed).random((size // block + 1, width // block + 1)) * 255
    return np.kron(cells, np.ones((block, block)))[:size, :width].astype(np.uint8)


ORACLE_IMAGES = {
    "noise96": (_noise(11, 96, 3), 4),
    "noise128": (_noise(12, 128, 4), 8),
    "noise160": (_noise(13, 160, 2), 33),
    # more than two blur chunks each way, with uneven tails, in octaves 0 and 1
    "noise300x260": (_noise(16, 300, 3, width=260), 33),
    # odd sides: every octave subsamples an odd shape (151x130, 76x65, 38x33)
    "noise301x259": (_noise(18, 301, 11, width=259), 16),
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
    px, margin = ORACLE_IMAGES["noise300x260"]
    scales = [scale for _, _, scale, _ in _oracle_detect(px, 10**6, margin)]
    assert min(px.shape) // 2 > detector.BLUR_CHUNK and any(scale > 2 * 1.6 for scale in scales)
    # an octave-0 fit lies within half a level of levels 1-3: its scale is at most this
    octave0 = 1.6 * 2 ** (3.5 / 3)
    px, margin = ORACLE_IMAGES["noise301x259"]
    scales = [scale for _, _, scale, _ in _oracle_detect(px, 10**6, margin)]
    assert any(scale > 2 * octave0 for scale in scales)  # octave 2 and below
    assert counts["15px"] == 0 and counts["constant"] == 0


def test_detector_holds_under_ten_float32_images():
    # an octave keeps two Gaussian levels, five DoG levels and its base:
    # about 8.3 image-sizes; holding all six levels at once read 17.2
    img = clahe(synth_pair(3, size=256).visible)
    tracemalloc.start()
    try:
        detect_keypoints(img, max_points=200, border_margin=MARGIN)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * img.pixels.size * np.dtype(np.float32).itemsize


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


# ---------------------------------------------------------------- blur


@pytest.mark.parametrize("sigma", [1.6, 3.09, 75.0])  # 75: a kernel wider than the image
@pytest.mark.parametrize(
    "shape, strided",
    [
        ((301, 389), False),  # uneven tail chunks both ways
        ((301, 389), True),  # the octave-base view of it
        ((128, 128), False),  # exactly one chunk
        ((256, 256), True),  # one chunk, from a strided view
        ((256, 257), True),  # a one-column tail chunk
        ((77, 100), False),  # less than one chunk
        ((1, 300), False),
    ],
)
def test_blur_equals_gaussian_filter(shape, strided, sigma):
    # float32 as the detector blurs, float64 as synth_pair does
    for dtype in (np.float32, np.float64):
        img = np.random.default_rng(5).random(shape, dtype=dtype)
        if strided:
            img = img[::2, ::2]
        out = detector.gaussian_blur(img, sigma)
        assert out.dtype == dtype and out.flags.c_contiguous
        assert np.array_equal(out, gaussian_filter(img, sigma))


@pytest.fixture
def two_cpus(blur_cpus):
    """A fresh helper pool, as on a two-CPU host, shut down afterwards."""
    pool, count = blur_cpus(2)
    assert count == 1
    return pool


def test_blur_does_not_wait_for_a_helper_that_has_not_started(two_cpus):
    started, release = threading.Event(), threading.Event()

    def occupy():
        started.set()
        release.wait(timeout=60)

    blocker = two_cpus.submit(occupy)  # holds the only helper
    assert started.wait(timeout=60)
    img = np.random.default_rng(6).random((300, 260), dtype=np.float32)
    expected = gaussian_filter(img, 1.6)
    try:
        out = detector.gaussian_blur(img, 1.6)
        # it returned while the helper was still held, so its task was cancelled
        assert not blocker.done()
        assert np.array_equal(out, expected)
        # the cancelled task stays queued until the helper is free, yet keeps
        # neither image alive: a streamed octave frees each level it is done with
        arrays = [weakref.ref(img), weakref.ref(out)]
        del img, out
        assert all(ref() is None for ref in arrays)
    finally:
        release.set()
    blocker.result(timeout=60)


def test_blur_waits_for_a_helper_that_has_started(two_cpus, monkeypatch):
    helper_started = {0: threading.Event(), 1: threading.Event()}  # by pass axis
    helper_calls = []
    scipy_filter = detector.gaussian_filter1d

    def slow_helper(src, sigma, axis, order, out):
        if threading.current_thread() is not threading.main_thread():
            helper_started[axis].set()
            threading.Event().wait(0.2)  # still busy when the caller runs out of chunks
            helper_calls.append(axis)
        else:
            assert helper_started[axis].wait(timeout=60)
        return scipy_filter(src, sigma, axis, order, out)

    monkeypatch.setattr(detector, "gaussian_filter1d", slow_helper)
    img = np.random.default_rng(7).random((300, 260), dtype=np.float32)
    assert np.array_equal(detector.gaussian_blur(img, 3.09), gaussian_filter(img, 3.09))
    assert set(helper_calls) == {0, 1}  # the helper took a chunk of each pass


def test_blur_with_more_helpers_than_cores_fills_every_chunk(blur_cpus, monkeypatch):
    # a chunk lost between the threads would leave np.empty's garbage in the output
    monkeypatch.setattr(detector, "BLUR_CHUNK", 3)
    pool, count = blur_cpus(8)
    assert count == 7
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(20):
            img = np.random.default_rng(seed).random((61, 47), dtype=np.float32)
            assert np.array_equal(detector.gaussian_blur(img, 1.6), gaussian_filter(img, 1.6))
    finally:
        sys.setswitchinterval(interval)


def test_one_cpu_creates_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a helper pool was created")

    monkeypatch.setattr(_pool.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.setattr(_pool, "helpers", functools.cache(_pool.helpers.__wrapped__))
    monkeypatch.setattr(_pool, "ThreadPoolExecutor", no_pool)
    img = np.random.default_rng(8).random((300, 260), dtype=np.float32)
    assert np.array_equal(detector.gaussian_blur(img, 1.6), gaussian_filter(img, 1.6))
    assert _pool.helpers() is None


def test_one_chunk_level_runs_on_the_caller_alone(monkeypatch):
    def no_helpers():
        raise AssertionError("a one-chunk level asked for helpers")

    monkeypatch.setattr(_pool, "helpers", no_helpers)
    img = np.random.default_rng(9).random((128, 128), dtype=np.float32)
    assert np.array_equal(detector.gaussian_blur(img, 1.6), gaussian_filter(img, 1.6))


def test_helpers_run_no_litematch_code_but_the_chunk_loop(blur_cpus):
    # the tracer keeps one span stack and wraps public functions, so no
    # public litematch function may run on a helper: over a whole match and
    # a training step, the blur's and the Mix-FFN's helpers enter only
    # private chunk loops and kernels. threading.setprofile reaches only the
    # threads started after it, which here are the helpers alone
    package = os.path.dirname(detector.__file__) + os.sep
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls.append(frame.f_code.co_name)

    cfg = RunConfig(input_size=64, max_keypoints=64).validate()
    model = init_model(model_config_for(cfg), seed=0)
    pair = synth_pair(3, size=448)
    batch = np.random.default_rng(1).random((6, 1, 64, 64), dtype=np.float32)
    threading.setprofile(profile)
    try:
        blur_cpus(2)
        match_images(model_descriptor(model), pair.visible, pair.nir, cfg)
        train_step(model, SGD(model.parameters()), batch, "corrected")
    finally:
        threading.setprofile(None)
    assert {"_filter_chunks", "_mix_ffn_fwd", "_mix_ffn_bwd"} <= set(calls)
    assert all(name.startswith("_") for name in calls), sorted(set(calls))
    assert not {"record", "active_tape"} & set(calls)


class Boom(Exception):
    pass


@pytest.mark.parametrize("raiser", ["caller", "helper"])
def test_blur_error_propagates_after_every_started_helper(two_cpus, monkeypatch, raiser):
    # an error on either thread reaches the caller with its own type, only
    # once no helper still writes into the discarded output
    helper_started, running = threading.Event(), []
    scipy_filter = detector.gaussian_filter1d

    def kernel(src, sigma, axis, order, out):
        if threading.current_thread() is threading.main_thread():
            assert helper_started.wait(timeout=60)
            if raiser == "caller":
                raise Boom
            return scipy_filter(src, sigma, axis, order, out)
        running.append(axis)
        helper_started.set()
        try:
            threading.Event().wait(0.2)  # still busy when the caller is done
            if raiser == "helper":
                raise Boom
            return scipy_filter(src, sigma, axis, order, out)
        finally:
            running.remove(axis)

    monkeypatch.setattr(detector, "gaussian_filter1d", kernel)
    img = np.random.default_rng(10).random((300, 260), dtype=np.float32)
    with pytest.raises(Boom):
        detector.gaussian_blur(img, 1.6)
    assert running == []
    monkeypatch.setattr(detector, "gaussian_filter1d", scipy_filter)
    assert np.array_equal(detector.gaussian_blur(img, 1.6), gaussian_filter(img, 1.6))


def _imported_modules(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        return [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def test_only_the_detector_imports_scipy_ndimage():
    # gaussian_blur is the one Gaussian filter in litematch
    importers = set()
    for path in Path(detector.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if any(m == "scipy.ndimage" or m.startswith("scipy.ndimage.") for m in _imported_modules(node)):
                importers.add(path.name)
    assert importers == {"detector.py"}
