"""Synthetic pairs, triplet construction, manifests, splits."""

import json
import math
import re

import numpy as np
import pytest

from litematch import dataset
from litematch.dataset import (
    RECORD_KEYS,
    AlignedPair,
    DatasetManifest,
    TripletRecord,
    build_triplets,
    enhanced_pair,
    identity_alignment,
    load_dataset,
    materialize_triplet,
    split,
    synth_pair,
    write_dataset,
)
from scipy.ndimage import gaussian_filter

from litematch.detector import Keypoint, detect_keypoints
from litematch.errors import DatasetError
from litematch.image import GrayImage, clahe
from litematch.patch import (
    MAX_TRANSLATION,
    ROTATION_DEGREES,
    SCALE_FACTORS,
    PatchTransform,
    apply_transform,
    plain_margin,
    required_margin,
)


def make_keypoints(pair, max_points=80):
    return detect_keypoints(
        clahe(pair.visible), max_points=max_points, border_margin=required_margin()
    )


def build_manifest(pair, keypoints, count, seed, **kwargs):
    """One pair's records in a manifest; both sides default to the same window and out_size."""
    records = build_triplets(pair, keypoints, count, seed, **kwargs)
    return DatasetManifest(seed=seed, pairs=[pair.name], records=records)


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
    kv = detect_keypoints(clahe(pair.visible), max_points=300, border_margin=plain_margin(64))
    kn = detect_keypoints(clahe(pair.nir), max_points=300, border_margin=plain_margin(64))
    assert len(kv) >= 30 and len(kn) >= 30
    cv = np.array([[k.x, k.y] for k in kv])
    cn = np.array([[k.x, k.y] for k in kn])
    dists = np.sqrt(((cv[:, None, :] - cn[None, :, :]) ** 2).sum(axis=2)).min(axis=1)
    assert (dists <= 3.0).mean() >= 0.6


def unit_noise(rng, size, sigma):
    n = gaussian_filter(rng.standard_normal((size, size)), sigma)
    return (n - n.mean()) / (n.std() + 1e-12)


def whole_image_synth_pair(seed, size):
    """Transcription of ``synth_pair`` with scipy's ``gaussian_filter`` for
    every blur, drawing every shape with a mask and an ``np.where`` over the
    whole image."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(901,)))
    tex = 1.0 * unit_noise(rng, size, 10.0) + 1.6 * unit_noise(rng, size, 30.0)
    tex = (tex - tex.min()) / (tex.max() - tex.min())
    vis = 60.0 + 130.0 * tex
    yy, xx = np.mgrid[0:size, 0:size]
    for _ in range(max(40, round(140 * (size / 512.0) ** 2))):
        cx = rng.uniform(0.06 * size, 0.94 * size)
        cy = rng.uniform(0.06 * size, 0.94 * size)
        delta = rng.choice([-1.0, 1.0]) * rng.uniform(55.0, 110.0)
        if rng.random() < 0.6:
            r = rng.uniform(2.5, 7.0)
            mask = (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
        else:
            hw = rng.uniform(2.5, 9.0)
            hh = rng.uniform(2.5, 9.0)
            ang = rng.uniform(0, math.pi)
            ca, sa = math.cos(ang), math.sin(ang)
            ux = ca * (xx - cx) + sa * (yy - cy)
            uy = -sa * (xx - cx) + ca * (yy - cy)
            mask = (np.abs(ux) <= hw) & (np.abs(uy) <= hh)
        vis = np.where(mask, vis + delta, vis)
    vis = gaussian_filter(vis, 0.8)
    vis_u8 = np.clip(np.floor(vis + 0.5), 0, 255).astype(np.uint8)
    gamma = rng.uniform(0.65, 0.8)
    gain = np.clip(1.0 + 0.1 * unit_noise(rng, size, size / 6.0), 0.85, 1.15)
    nir = 255.0 * (vis_u8.astype(np.float64) / 255.0) ** gamma * gain
    nir = nir + rng.normal(0.0, 3.0, size=(size, size))
    return vis_u8, np.clip(np.floor(nir + 0.5), 0, 255).astype(np.uint8)


# at 448 and 517 px the size / 6 gain field's kernel is longer than half a line
@pytest.mark.parametrize("seed, size", [(0, 256), (1, 257), (2, 301), (3, 448), (4, 517)])
def test_synth_pair_matches_the_whole_image_shape_loop(seed, size, blur_cpus):
    vis, nir = whole_image_synth_pair(seed, size)
    # the blurs shared with a helper thread, and on the calling thread alone
    for cpus in (2, 1):
        blur_cpus(cpus)
        pair = synth_pair(seed, size=size)
        assert np.array_equal(pair.visible.pixels, vis)
        assert np.array_equal(pair.nir.pixels, nir)


def test_synth_pair_identity_alignment():
    assert identity_alignment(12.5, 40.25) == (12.5, 40.25)


def test_synth_pair_rejects_small_size():
    with pytest.raises(DatasetError):
        synth_pair(0, size=128)


def test_build_triplets_deterministic_and_counted():
    pair = synth_pair(1, size=384)
    kps = make_keypoints(pair)
    m1 = build_manifest(pair, kps, count=24, seed=9)
    m2 = build_manifest(pair, kps, count=24, seed=9)
    assert m1.to_json() == m2.to_json()
    assert m1.count == 24
    assert sum(m1.transform_counts().values()) == 24
    t1 = materialize_all(m1, pair.visible, pair.nir)
    t2 = materialize_all(m2, pair.visible, pair.nir)
    assert len(t1) == 24
    for a, b in zip(t1, t2):
        for pa, pb in zip(a, b):
            assert np.array_equal(pa, pb)
    m3 = build_manifest(pair, kps, count=24, seed=10)
    assert m3.to_json() != m1.to_json()


def test_triplet_negative_distance_constraint():
    pair = synth_pair(2, size=384)
    kps = make_keypoints(pair)
    manifest = build_manifest(pair, kps, count=40, seed=3)
    for rec in manifest.records:
        d = np.hypot(rec.anchor_x - rec.negative_x, rec.anchor_y - rec.negative_y)
        assert d > manifest.window


def test_triplet_patch_shapes_and_range():
    pair = synth_pair(3, size=384)
    kps = make_keypoints(pair)
    manifest = build_manifest(pair, kps, count=8, seed=1)
    for t in materialize_all(manifest, pair.visible, pair.nir):
        for patch in t:
            assert patch.shape == (1, 128, 128) and patch.dtype == np.float32
            assert 0.0 <= patch.min() and patch.max() <= 1.0


def test_identity_only_transforms_on_identical_modalities():
    pair = synth_pair(4, size=384)
    same = AlignedPair(name="same", visible=pair.visible, nir=pair.visible)
    kps = make_keypoints(same)
    manifest = build_manifest(same, kps, count=12, seed=2)
    manifest.records = [r for r in manifest.records if r.kind == "identity"]
    assert manifest.records
    for anchor, positive, _ in materialize_all(manifest, same.visible, same.nir):
        assert np.array_equal(anchor, positive)


def test_manifest_regenerates_bit_exact(tmp_path):
    pair = synth_pair(5, size=384)
    kps = make_keypoints(pair)
    vis_e, nir_e = clahe(pair.visible), clahe(pair.nir)
    manifest = build_manifest(pair, kps, count=12, seed=4)
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
    records = build_triplets(pair, kps, count=50, seed=5)
    assert len(records) == 50 and all(isinstance(r, TripletRecord) for r in records)


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
    pairs = [synth_pair(seed, size=384) for seed in range(10)]
    records = []
    for seed, pair in enumerate(pairs):
        records += build_triplets(pair, make_keypoints(pair, max_points=40), count=6, seed=seed)
    manifest = DatasetManifest(seed=123, pairs=[p.name for p in pairs], records=records)
    train, val = split(manifest, ratio=0.8)
    assert len(train.pairs) == 8 and len(val.pairs) == 2
    assert set(train.pairs).isdisjoint(val.pairs)
    assert sorted(train.pairs + val.pairs) == sorted(manifest.pairs)
    assert train.count + val.count == manifest.count
    assert all(r.pair in set(train.pairs) for r in train.records)
    # deterministic: same manifest seed gives the same split
    train2, val2 = split(manifest, ratio=0.8)
    assert train2.pairs == train.pairs and val2.pairs == val.pairs


def test_split_rejects_degenerate():
    pair = synth_pair(0, size=384)
    kps = make_keypoints(pair, max_points=40)
    m = build_manifest(pair, kps, count=4, seed=0)
    with pytest.raises(DatasetError):
        split(m, ratio=0.5)  # one pair cannot be split
    with pytest.raises(DatasetError):
        split(m, ratio=1.5)


def _record(pair):
    return TripletRecord(pair, 40.0, 41.5, 1.6, 0.02, "rotate", 1.0, -15.0, 0, 0, 90.0, 95.25, 3)


def test_split_keeps_the_manifest_header():
    manifest = DatasetManifest(seed=9, window=48, out_size=32, clahe_clip=3.5, clahe_grid=4,
                               pairs=[f"p{s}" for s in range(4)],
                               records=[_record(f"p{s}") for s in range(4)])
    train, val = split(manifest, 0.5)
    assert sorted(train.pairs + val.pairs) == manifest.pairs and train.count + val.count == 4
    for m in (manifest, train, val):
        assert (m.seed, m.window, m.out_size, m.clahe_clip, m.clahe_grid) == (9, 48, 32, 3.5, 4)


def test_load_dataset_reads_the_unedited_manifest(tmp_path):
    # the manifest every malformed case below starts from is itself valid
    img = GrayImage(np.zeros((8, 8), dtype=np.uint8))
    manifest = DatasetManifest(seed=1, pairs=["p"], records=[_record("p")])
    write_dataset(tmp_path, [AlignedPair("p", img, img)], manifest)
    assert load_dataset(tmp_path)[1].records == manifest.records


def _malformed_manifests():
    text = DatasetManifest(seed=1, pairs=["p"], records=[_record("p")]).to_json()
    cases = []
    for _, key, _ in RECORD_KEYS:
        doc = json.loads(text)
        del doc["records"][0][key]
        cases.append(pytest.param(json.dumps(doc), id=f"no-{key}"))
    for cut in (1, 40, len(text) // 2, len(text) - 1):
        cases.append(pytest.param(text[:cut], id=f"cut-{cut}"))
    for key, value in (
        ("ax", "left"), ("nidx", "three"), ("ay", None), ("dx", 2.5),
        ("kind", "shear"), ("deg", -30.0), ("pair", "ghost"),
    ):
        doc = json.loads(text)
        doc["records"][0][key] = value
        cases.append(pytest.param(json.dumps(doc), id=f"{key}-{value}"))
    for key, value in [(key, math.nan) for key in ("ax", "ay", "ascale", "aresp", "sf", "deg", "nx", "ny")] + [
        ("ax", math.inf), ("ny", -math.inf),
    ]:
        doc = json.loads(text)
        doc["records"][0][key] = value
        cases.append(pytest.param(json.dumps(doc), id=f"{key}-{value}"))
    cases.append(pytest.param("[]", id="not-an-object"))
    return cases


@pytest.mark.parametrize("text", _malformed_manifests())
def test_load_dataset_names_a_malformed_manifest(tmp_path, text):
    path = tmp_path / "manifest.json"
    path.write_text(text)
    with pytest.raises(DatasetError, match=re.escape(f"{path}: malformed manifest")):
        load_dataset(tmp_path)
