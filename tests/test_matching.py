"""Matcher exactness against a brute-force oracle, metrics, annotations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from litematch.dataset import IDENTITY_MAP
from litematch.detector import Keypoint
from litematch.errors import DimensionError, MatchingError
from litematch.image import GrayImage
from litematch.matching import (
    DescriptorSet,
    annotate_matches,
    match_nn,
    score,
    write_matches,
)


def unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(np.float32)


def random_set(rng, n, d, size=400.0):
    kps = [
        Keypoint(float(x), float(y), 1.6, 1.0)
        for x, y in rng.uniform(0, size, size=(n, 2))
    ]
    return DescriptorSet(keypoints=kps, descriptors=unit_rows(rng, n, d))


def brute_force_nn(a, b, threshold, mutual):
    """Exhaustive double-loop oracle in float64."""
    a64 = a.descriptors.astype(np.float64)
    b64 = b.descriptors.astype(np.float64)
    out = []
    for i in range(len(a64)):
        best_j, best_d = -1, np.inf
        for j in range(len(b64)):
            d = np.sqrt(((a64[i] - b64[j]) ** 2).sum())
            if d < best_d:
                best_j, best_d = j, d
        if best_d > threshold:
            continue
        if mutual:
            back_i, back_d = -1, np.inf
            for i2 in range(len(a64)):
                d = np.sqrt(((a64[i2] - b64[best_j]) ** 2).sum())
                if d < back_d:
                    back_i, back_d = i2, d
            if back_i != i:
                continue
        out.append((i, best_j, best_d))
    return out


def test_self_match_identity():
    rng = np.random.default_rng(0)
    s = random_set(rng, 20, 16)
    result = match_nn(s, s, threshold=0.5)
    assert result.n_success == 20
    for n, pair in enumerate(result.pairs):
        assert pair.index_a == pair.index_b == n
        assert pair.distance <= 1e-6
    precision, ms = score(result, s, s, IDENTITY_MAP)
    assert precision == 1.0 and ms == 1.0


@given(st.integers(0, 2**31 - 1), st.booleans())
@settings(max_examples=25, deadline=None)
def test_match_equals_brute_force_oracle(seed, mutual):
    rng = np.random.default_rng(seed)
    na, nb = int(rng.integers(2, 60)), int(rng.integers(2, 60))
    d = int(rng.integers(2, 32))
    a = random_set(rng, na, d)
    b = random_set(rng, nb, d)
    got = match_nn(a, b, threshold=1.0, mutual=mutual)
    want = brute_force_nn(a, b, threshold=1.0, mutual=mutual)
    assert [(p.index_a, p.index_b) for p in got.pairs] == [(i, j) for i, j, _ in want]
    for p, (_, _, dist) in zip(got.pairs, want):
        assert abs(p.distance - dist) < 1e-6


def test_threshold_monotonicity_and_mutual_subset():
    rng = np.random.default_rng(1)
    a = random_set(rng, 40, 8)
    b = random_set(rng, 40, 8)
    lo = match_nn(a, b, threshold=0.3)
    hi = match_nn(a, b, threshold=0.9)
    assert lo.n_success <= hi.n_success
    plain = match_nn(a, b, threshold=0.9, mutual=False)
    strict = match_nn(a, b, threshold=0.9, mutual=True)
    assert strict.n_success <= plain.n_success


def test_empty_set_gives_empty_result():
    rng = np.random.default_rng(2)
    s = random_set(rng, 4, 8)
    empty = DescriptorSet(keypoints=[], descriptors=np.zeros((0, 8), dtype=np.float32))
    for a, b in ((s, empty), (empty, s), (empty, empty)):
        for mutual in (False, True):
            result = match_nn(a, b, threshold=0.7, mutual=mutual)
            assert result.pairs == [] and result.n_total_keypoints == 0
            assert score(result, a, b, IDENTITY_MAP) == (0.0, 0.0)
    # the argument checks still apply to an empty side
    with pytest.raises(MatchingError):
        match_nn(s, empty, threshold=0.0)
    wide = DescriptorSet(keypoints=[], descriptors=np.zeros((0, 16), dtype=np.float32))
    with pytest.raises(DimensionError):
        match_nn(s, wide)


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -0.5])
def test_threshold_and_eps_must_be_positive_and_finite(value):
    rng = np.random.default_rng(8)
    a, b = random_set(rng, 4, 8), random_set(rng, 4, 8)
    with pytest.raises(MatchingError, match=f"^threshold must be positive and finite, got {value}$"):
        match_nn(a, b, threshold=value)
    result = match_nn(a, b, threshold=0.5)
    with pytest.raises(MatchingError, match=f"^eps must be positive and finite, got {value}$"):
        score(result, a, b, IDENTITY_MAP, eps=value)


@pytest.mark.parametrize(
    "rows, cause",
    [(np.zeros((3, 8)), r"\(3, 8\) does not match 2 keypoints"), (np.zeros(8), r"\(8,\) does not match 2 keypoints")],
    ids=["three-rows", "one-d"],
)
def test_descriptor_rows_must_match_the_keypoints(rows, cause):
    kps = [Keypoint(float(i), 0.0, 1.0, 1.0) for i in range(2)]
    with pytest.raises(DimensionError, match=f"^descriptor matrix {cause}$"):
        DescriptorSet(keypoints=kps, descriptors=rows)


def test_non_unit_rows_rejected():
    kps = [Keypoint(0.0, 0.0, 1.0, 1.0)]
    with pytest.raises(MatchingError):
        DescriptorSet(keypoints=kps, descriptors=np.array([[2.0, 0.0]], dtype=np.float32))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_rows_rejected(bad):
    rng = np.random.default_rng(3)
    rows = unit_rows(rng, 3, 8)
    rows[2, 4] = bad
    kps = [Keypoint(float(i), 0.0, 1.0, 1.0) for i in range(3)]
    with pytest.raises(MatchingError, match="row 2 is not finite"):
        DescriptorSet(keypoints=kps, descriptors=rows)


def test_score_worked_example():
    # 10 keypoints, 8 accepted matches, 6 of them within eps
    rng = np.random.default_rng(3)
    d = 16
    base = unit_rows(rng, 10, d)
    a_kps = [Keypoint(float(10 * i + 50), 100.0, 1.6, 1.0) for i in range(10)]
    b_kps = []
    b_desc = base.copy()
    for i in range(10):
        if i < 6:
            b_kps.append(Keypoint(a_kps[i].x + 1.0, 100.0, 1.6, 1.0))  # correct
        elif i < 8:
            b_kps.append(Keypoint(a_kps[i].x + 30.0, 100.0, 1.6, 1.0))  # wrong place
        else:
            b_kps.append(Keypoint(a_kps[i].x, 100.0, 1.6, 1.0))
            # push the descriptor away so the match is rejected by threshold
            v = rng.standard_normal(d)
            v /= np.linalg.norm(v)
            b_desc[i] = v.astype(np.float32)
    a = DescriptorSet(keypoints=a_kps, descriptors=base)
    b = DescriptorSet(keypoints=b_kps, descriptors=b_desc)
    result = match_nn(a, b, threshold=0.5)
    kept = {p.index_a for p in result.pairs}
    assert kept == set(range(8))
    precision, ms = score(result, a, b, IDENTITY_MAP, eps=5.0)
    assert precision == pytest.approx(0.75)
    assert ms == pytest.approx(0.6)


def test_score_invariant_to_pair_order():
    rng = np.random.default_rng(4)
    a = random_set(rng, 30, 8)
    b = random_set(rng, 30, 8)
    result = match_nn(a, b, threshold=1.2)
    p1, m1 = score(result, a, b, IDENTITY_MAP, eps=50.0)
    shuffled = match_nn(a, b, threshold=1.2)
    order = rng.permutation(len(shuffled.pairs))
    shuffled.pairs = [shuffled.pairs[i] for i in order]
    p2, m2 = score(shuffled, a, b, IDENTITY_MAP, eps=50.0)
    assert p1 == p2 and m1 == m2


def _similarity(angle_deg, scale, tx, ty):
    c = scale * math.cos(math.radians(angle_deg))
    s = scale * math.sin(math.radians(angle_deg))
    return np.array([[c, -s, tx], [s, c, ty]])


def test_score_under_a_similarity_is_identity_scoring_of_moved_keypoints():
    # each B keypoint sits a known distance from its A keypoint's image under
    # the map: correct exactly when that distance is within eps
    rng = np.random.default_rng(8)
    to_b = _similarity(10.0, 1.1, 12.5, -7.25)
    offsets = [0.0, 1.0, 3.0, 4.9, 5.1, 6.0, 20.0, 2.5]
    n = len(offsets)
    a_kps = [Keypoint(float(x), float(y), 1.6, 1.0) for x, y in rng.uniform(40, 360, (n, 2))]
    moved = [Keypoint(*(to_b @ (k.x, k.y, 1.0)), 1.6, 1.0) for k in a_kps]
    b_kps = [Keypoint(k.x + r * math.cos(t), k.y + r * math.sin(t), 1.6, 1.0)
             for k, r, t in zip(moved, offsets, rng.uniform(0, 2 * math.pi, n))]
    rows = np.eye(n, dtype=np.float32)
    a, b, a_moved = DescriptorSet(a_kps, rows), DescriptorSet(b_kps, rows), DescriptorSet(moved, rows)
    result = match_nn(a, b)
    assert [(p.index_a, p.index_b) for p in result.pairs] == [(i, i) for i in range(n)]
    precision, ms = score(result, a, b, to_b, eps=5.0)
    expected = [r <= 5.0 for r in offsets]
    assert result.correct_flags == expected
    assert precision == ms == sum(expected) / n
    by_hand = match_nn(a_moved, b)
    assert score(by_hand, a_moved, b, IDENTITY_MAP, eps=5.0) == (precision, ms)
    assert by_hand.correct_flags == expected
    # the map matters: under the identity no match is correct
    assert score(result, a, b, IDENTITY_MAP, eps=5.0) == (0.0, 0.0)


@pytest.mark.parametrize(
    "to_b",
    [np.eye(3), [[1.0, 0.0, np.nan], [0.0, 1.0, 0.0]], [[1.0, 0.0, 0.0], [0.0, np.inf, 0.0]]],
    ids=["3x3", "nan", "inf"],
)
def test_score_refuses_a_map_that_is_not_a_finite_2x3_affine(to_b):
    rng = np.random.default_rng(9)
    a = random_set(rng, 4, 8)
    result = match_nn(a, a)
    with pytest.raises(MatchingError, match="^the ground-truth map must be a finite 2x3 affine$"):
        score(result, a, a, to_b)


def test_write_matches_format(tmp_path):
    rng = np.random.default_rng(5)
    s = random_set(rng, 5, 8)
    result = match_nn(s, s, threshold=0.5)
    score(result, s, s, IDENTITY_MAP)
    out = tmp_path / "matches.tsv"
    write_matches(out, result, s, s)
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("#")
    assert len(lines) == 1 + result.n_success
    fields = lines[1].split("\t")
    assert len(fields) == 8 and fields[7] == "1"


def test_annotate_matches_segments():
    vis = GrayImage(np.zeros((64, 64), dtype=np.uint8))
    nir = GrayImage(np.zeros((64, 64), dtype=np.uint8))
    kps_a = [Keypoint(10.0, 20.0, 1.6, 1.0), Keypoint(40.0, 50.0, 1.6, 1.0)]
    kps_b = [Keypoint(10.0, 20.0, 1.6, 1.0), Keypoint(40.0, 10.0, 1.6, 1.0)]
    desc = np.eye(2, 8, dtype=np.float32)
    a = DescriptorSet(keypoints=kps_a, descriptors=desc)
    b = DescriptorSet(keypoints=kps_b, descriptors=desc)
    result = match_nn(a, b, threshold=0.5)
    score(result, a, b, IDENTITY_MAP, eps=5.0)
    img = annotate_matches(vis, nir, result, a, b)
    assert img.shape == (64, 128, 3)
    # correct match drawn green at both endpoints (B pane offset by 64)
    assert tuple(img[20, 10]) == (0, 220, 0)
    assert tuple(img[20, 10 + 64]) == (0, 220, 0)
    # incorrect match (40 px vertical error) drawn red
    assert tuple(img[50, 40]) == (230, 0, 0)
    assert tuple(img[10, 40 + 64]) == (230, 0, 0)


def test_annotate_empty_result_no_segments():
    vis = GrayImage(np.full((32, 32), 7, dtype=np.uint8))
    kps = [Keypoint(5.0, 5.0, 1.6, 1.0)]
    a = DescriptorSet(keypoints=kps, descriptors=np.eye(1, 4, dtype=np.float32))
    far = np.zeros((1, 4), dtype=np.float32)
    far[0, 1] = 1.0
    b = DescriptorSet(keypoints=kps, descriptors=far)
    result = match_nn(a, b, threshold=0.5)  # distance sqrt(2) rejected
    assert result.n_success == 0
    score(result, a, b, IDENTITY_MAP)
    img = annotate_matches(vis, vis, result, a, b)
    gray = np.unique(img)
    assert set(gray.tolist()) <= {0, 7}


def test_annotate_unscored_matches_one_colour_on_different_sizes():
    vis = GrayImage(np.zeros((40, 64), dtype=np.uint8))
    nir = GrayImage(np.zeros((64, 48), dtype=np.uint8))
    kps_a = [Keypoint(10.0, 20.0, 1.6, 1.0), Keypoint(40.0, 30.0, 1.6, 1.0)]
    kps_b = [Keypoint(10.0, 20.0, 1.6, 1.0), Keypoint(40.0, 60.0, 1.6, 1.0)]
    desc = np.eye(2, 8, dtype=np.float32)
    a = DescriptorSet(keypoints=kps_a, descriptors=desc)
    b = DescriptorSet(keypoints=kps_b, descriptors=desc)
    result = match_nn(a, b, threshold=0.5)
    assert result.n_success == 2 and result.correct_flags is None
    img = annotate_matches(vis, nir, result, a, b)
    assert img.shape == (64, 112, 3)
    assert result.correct_flags is None  # drawing scores nothing
    drawn = {tuple(int(c) for c in px) for px in img.reshape(-1, 3)} - {(0, 0, 0)}
    assert drawn == {(40, 120, 255)}
    assert tuple(img[20, 10]) == tuple(img[60, 40 + 64]) == (40, 120, 255)
