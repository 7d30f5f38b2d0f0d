"""Synthetic pairs, triplet construction, manifests, splits."""

import numpy as np
import pytest

from litematch import dataset
from litematch.dataset import (
    AlignedPair,
    DatasetManifest,
    build_triplets,
    enhanced_pair,
    identity_alignment,
    load_dataset,
    materialize_triplet,
    merge_manifests,
    split,
    synth_pair,
    write_dataset,
)
from litematch.detector import Keypoint, detect_keypoints
from litematch.errors import DatasetError
from litematch.image import GrayImage, clahe
from litematch.patch import (
    MAX_TRANSLATION,
    ROTATION_DEGREES,
    SCALE_FACTORS,
    PatchTransform,
    apply_transform,
    required_margin,
)


def make_keypoints(pair, max_points=80):
    return detect_keypoints(
        clahe(pair.visible), max_points=max_points, border_margin=required_margin()
    )


def materialize_all(manifest, visible, nir):
    return [
        materialize_triplet(rec, visible, nir, manifest.window, manifest.out_size)
        for rec in manifest.records
    ]


def test_synth_pair_deterministic():
    a = synth_pair(5, size=256)
    b = synth_pair(5, size=256)
    assert np.array_equal(a.visible.pixels, b.visible.pixels)
    assert np.array_equal(a.nir.pixels, b.nir.pixels)
    c = synth_pair(6, size=256)
    assert not np.array_equal(a.visible.pixels, c.visible.pixels)


def test_synth_pair_modality_gap_and_keypoint_overlap():
    # generator self-check: intensities differ clearly while detected
    # keypoints still mostly coincide across the modality gap
    pair = synth_pair(0, size=512)
    mad = np.abs(
        pair.visible.pixels.astype(np.float64) - pair.nir.pixels.astype(np.float64)
    ).mean()
    assert mad > 10.0
    kv = detect_keypoints(clahe(pair.visible), max_points=300)
    kn = detect_keypoints(clahe(pair.nir), max_points=300)
    assert len(kv) >= 30 and len(kn) >= 30
    cv = np.array([[k.x, k.y] for k in kv])
    cn = np.array([[k.x, k.y] for k in kn])
    dists = np.sqrt(((cv[:, None, :] - cn[None, :, :]) ** 2).sum(axis=2)).min(axis=1)
    assert (dists <= 3.0).mean() >= 0.6


def test_synth_pair_identity_alignment():
    assert identity_alignment(12.5, 40.25) == (12.5, 40.25)


def test_synth_pair_rejects_small_size():
    with pytest.raises(DatasetError):
        synth_pair(0, size=128)


def test_build_triplets_deterministic_and_counted():
    pair = synth_pair(1, size=384)
    kps = make_keypoints(pair)
    m1 = build_triplets(pair, kps, count=24, seed=9)
    m2 = build_triplets(pair, kps, count=24, seed=9)
    assert m1.to_json() == m2.to_json()
    assert m1.count == 24
    assert sum(m1.transform_counts().values()) == 24
    t1 = materialize_all(m1, pair.visible, pair.nir)
    t2 = materialize_all(m2, pair.visible, pair.nir)
    assert len(t1) == 24
    for a, b in zip(t1, t2):
        for pa, pb in zip(a, b):
            assert np.array_equal(pa, pb)
    m3 = build_triplets(pair, kps, count=24, seed=10)
    assert m3.to_json() != m1.to_json()


def test_triplet_negative_distance_constraint():
    pair = synth_pair(2, size=384)
    kps = make_keypoints(pair)
    manifest = build_triplets(pair, kps, count=40, seed=3)
    for rec in manifest.records:
        d = np.hypot(rec.anchor_x - rec.negative_x, rec.anchor_y - rec.negative_y)
        assert d > manifest.window


def test_triplet_patch_shapes_and_range():
    pair = synth_pair(3, size=384)
    kps = make_keypoints(pair)
    manifest = build_triplets(pair, kps, count=8, seed=1)
    for t in materialize_all(manifest, pair.visible, pair.nir):
        for patch in t:
            assert patch.shape == (1, 128, 128) and patch.dtype == np.float32
            assert 0.0 <= patch.min() and patch.max() <= 1.0


def test_identity_only_transforms_on_identical_modalities():
    pair = synth_pair(4, size=384)
    same = AlignedPair(name="same", visible=pair.visible, nir=pair.visible)
    kps = make_keypoints(same)
    manifest = build_triplets(same, kps, count=6, seed=2, kinds=("identity",))
    for anchor, positive, _ in materialize_all(manifest, same.visible, same.nir):
        assert np.array_equal(anchor, positive)


def test_manifest_regenerates_bit_exact(tmp_path):
    pair = synth_pair(5, size=384)
    kps = make_keypoints(pair)
    vis_e, nir_e = clahe(pair.visible), clahe(pair.nir)
    manifest = build_triplets(pair, kps, count=12, seed=4)
    triplets = materialize_all(manifest, vis_e, nir_e)
    write_dataset(tmp_path, [pair], manifest)
    pairs2, manifest2 = load_dataset(tmp_path)
    assert manifest2.to_json() == manifest.to_json()
    vis2, nir2 = enhanced_pair(pairs2["pair0005"], manifest2)
    assert np.array_equal(vis2.pixels, vis_e.pixels)
    assert np.array_equal(nir2.pixels, nir_e.pixels)
    again = materialize_all(manifest2, vis2, nir2)
    assert len(again) == len(triplets) == 12
    for t, t2 in zip(triplets, again):
        for pa, pb in zip(t, t2):
            assert np.array_equal(pa, pb)


def test_build_triplets_requires_keypoints():
    pair = synth_pair(6, size=384)
    with pytest.raises(DatasetError):
        build_triplets(pair, [], count=4, seed=0)
    kps = make_keypoints(pair)[:1]
    with pytest.raises(DatasetError):
        build_triplets(pair, kps, count=4, seed=0)


def test_build_triplets_extracts_no_patches(monkeypatch):
    pair = synth_pair(7, size=384)
    kps = make_keypoints(pair)

    def no_pixels(*args, **kwargs):
        raise AssertionError("build_triplets sampled a patch")

    monkeypatch.setattr(dataset, "extract_patch", no_pixels)
    monkeypatch.setattr(dataset, "apply_transform", no_pixels)
    manifest = build_triplets(pair, kps, count=50, seed=5)
    assert isinstance(manifest, DatasetManifest) and manifest.count == 50


@pytest.mark.parametrize("window, out_size", [(64, 128), (64, 32), (31, 64)])
def test_build_triplets_rejects_keypoint_inside_margin(window, out_size):
    margin = required_margin(window, out_size)
    size = 2 * margin + 3 * window
    pixels = np.random.default_rng(0).integers(0, 256, (size, size), dtype=np.uint8)
    pair = AlignedPair("p", GrayImage(pixels), GrayImage(pixels))
    lo, hi = margin - 0.49, size - margin + 0.49  # round() lands on the margin
    corners = [Keypoint(x, y, 1.6, 1.0) for x in (lo, hi) for y in (lo, hi)]
    build_triplets(pair, corners, count=4, seed=0, window=window, out_size=out_size)
    for bad in ((margin - 1, size / 2), (size / 2, margin - 0.51), (size - margin + 1, size / 2),
                (size / 2, size - margin + 0.51)):
        kps = corners + [Keypoint(*bad, 1.6, 1.0)]
        with pytest.raises(DatasetError, match=f"{margin} px patch margin"):
            build_triplets(pair, kps, count=4, seed=0, window=window, out_size=out_size)


@pytest.mark.parametrize("window, out_size", [(64, 128), (64, 32), (31, 64)])
def test_required_margin_admits_every_transform(window, out_size):
    # the keypoints build_triplets admits nearest each border materialize
    # under the extreme of every supported transform
    margin = required_margin(window, out_size)
    size = 2 * margin + 3 * window
    img = GrayImage(np.random.default_rng(1).integers(0, 256, (size, size), dtype=np.uint8))
    m = MAX_TRANSLATION
    transforms = [PatchTransform()]
    transforms += [PatchTransform(kind="scale", scale_factor=f) for f in SCALE_FACTORS]
    transforms += [PatchTransform(kind="rotate", angle_deg=s * a) for a in ROTATION_DEGREES for s in (1, -1)]
    transforms += [PatchTransform(kind="translate", dx=dx, dy=dy) for dx in (-m, 0, m) for dy in (-m, 0, m)]
    for x in (margin - 0.49, size - margin + 0.49):
        for y in (margin - 0.49, size - margin + 0.49):
            for t in transforms:
                patch = apply_transform(img, Keypoint(x, y, 1.6, 1.0), t, window, out_size)
                assert patch.shape == (1, out_size, out_size)


def test_split_by_pair_grouping():
    manifests = []
    pairs = []
    for seed in range(10):
        pair = synth_pair(seed, size=384)
        pairs.append(pair)
        kps = make_keypoints(pair, max_points=40)
        m = build_triplets(pair, kps, count=6, seed=seed)
        manifests.append(m)
    merged = merge_manifests(manifests, seed=123)
    train, val = split(merged, ratio=0.8)
    assert len(train.pairs) == 8 and len(val.pairs) == 2
    assert set(train.pairs).isdisjoint(val.pairs)
    assert sorted(train.pairs + val.pairs) == sorted(merged.pairs)
    assert train.count + val.count == merged.count
    assert all(r.pair in set(train.pairs) for r in train.records)
    # deterministic: same manifest seed gives the same split
    train2, val2 = split(merged, ratio=0.8)
    assert train2.pairs == train.pairs and val2.pairs == val.pairs


def test_split_rejects_degenerate():
    pair = synth_pair(0, size=384)
    kps = make_keypoints(pair, max_points=40)
    m = build_triplets(pair, kps, count=4, seed=0)
    with pytest.raises(DatasetError):
        split(m, ratio=0.5)  # one pair cannot be split
    with pytest.raises(DatasetError):
        split(m, ratio=1.5)
