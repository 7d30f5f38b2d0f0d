"""Triplet dataset construction from registered visible/near-infrared pairs.

Triplets are never stored as pixels: :func:`build_triplets` returns
records of keypoint coordinates, the sampled transform and the negative
index without extracting a patch; the caller gathers every pair's records
into one :class:`DatasetManifest` with the settings they were made with.
:func:`materialize_triplet` is the one place that samples a record's
patches, bit-exactly, from the enhanced source images when training needs
them. A synthetic pair generator provides desk-scale data with exact
(identity) ground truth: the "NIR" side is a monotone radiometric remap of
the visible side with a smooth per-region gain field and pixel noise.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .detector import Keypoint, gaussian_blur
from .errors import DatasetError
from .image import GrayImage, clahe, load_image, save_pgm
from .patch import (
    DEFAULT_OUT_SIZE,
    DEFAULT_WINDOW,
    MAX_TRANSLATION,
    ROTATION_DEGREES,
    SCALE_FACTORS,
    TRANSFORM_KINDS,
    PatchTransform,
    apply_transform,
    extract_patch,
    required_margin,
)

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = 1


@dataclass
class AlignedPair:
    """Registered visible/NIR images; correspondence is the identity map."""

    name: str
    visible: GrayImage
    nir: GrayImage

    def __post_init__(self):
        if self.visible.pixels.shape != self.nir.pixels.shape:
            raise DatasetError(f"pair {self.name}: image dimensions differ")


def identity_alignment(x: float, y: float) -> tuple[float, float]:
    """Ground-truth correspondence of a registered pair."""
    return x, y


@dataclass(frozen=True)
class TripletRecord:
    """Everything needed to regenerate one triplet from the source pair."""

    pair: str
    anchor_x: float
    anchor_y: float
    anchor_scale: float
    anchor_response: float
    kind: str
    scale_factor: float
    angle_deg: float
    dx: int
    dy: int
    negative_x: float
    negative_y: float
    negative_index: int

    def transform(self) -> PatchTransform:
        return PatchTransform(
            kind=self.kind,
            scale_factor=self.scale_factor,
            angle_deg=self.angle_deg,
            dx=self.dx,
            dy=self.dy,
        )


def _finite(value) -> float:
    """``float(value)``, refusing the NaN and infinities that JSON parsing admits."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"non-finite value {value!r}")
    return number


# (TripletRecord field, manifest key, parser) of every record entry; operator.index
# takes an int and refuses a float, which int() would truncate
RECORD_KEYS = (
    ("pair", "pair", str),
    ("anchor_x", "ax", _finite),
    ("anchor_y", "ay", _finite),
    ("anchor_scale", "ascale", _finite),
    ("anchor_response", "aresp", _finite),
    ("kind", "kind", str),
    ("scale_factor", "sf", _finite),
    ("angle_deg", "deg", _finite),
    ("dx", "dx", operator.index),
    ("dy", "dy", operator.index),
    ("negative_x", "nx", _finite),
    ("negative_y", "ny", _finite),
    ("negative_index", "nidx", operator.index),
)


@dataclass
class DatasetManifest:
    seed: int
    window: int = DEFAULT_WINDOW
    out_size: int = DEFAULT_OUT_SIZE
    clahe_clip: float = 2.0
    clahe_grid: int = 8
    pairs: list[str] = field(default_factory=list)
    records: list[TripletRecord] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.records)

    def transform_counts(self) -> dict[str, int]:
        counts = {kind: 0 for kind in TRANSFORM_KINDS}
        for rec in self.records:
            counts[rec.kind] += 1
        return counts

    def to_json(self) -> str:
        doc = {
            "format": MANIFEST_FORMAT,
            "seed": self.seed,
            "window": self.window,
            "out_size": self.out_size,
            "clahe_clip": self.clahe_clip,
            "clahe_grid": self.clahe_grid,
            "pairs": self.pairs,
            "transform_counts": self.transform_counts(),
            "records": [
                {key: getattr(r, name) for name, key, _ in RECORD_KEYS} for r in self.records
            ],
        }
        return json.dumps(doc, sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "DatasetManifest":
        doc = json.loads(text)
        if doc.get("format") != MANIFEST_FORMAT:
            raise DatasetError(f"unsupported manifest format {doc.get('format')}")
        manifest = cls(
            seed=doc["seed"],
            window=doc["window"],
            out_size=doc["out_size"],
            clahe_clip=doc["clahe_clip"],
            clahe_grid=doc["clahe_grid"],
            pairs=list(doc["pairs"]),
        )
        known = set(manifest.pairs)
        for i, r in enumerate(doc["records"]):
            record = TripletRecord(**{name: kind(r[key]) for name, key, kind in RECORD_KEYS})
            if record.pair not in known:
                raise DatasetError(f"record {i} names pair {record.pair!r}, not one of the pairs")
            record.transform()  # raises on a kind or a magnitude outside the supported set
            manifest.records.append(record)
        counts = doc.get("transform_counts")
        if counts is not None and sum(counts.values()) != manifest.count:
            raise DatasetError("manifest transform counts do not sum to the record count")
        return manifest


# ------------------------------------------------------------ synthetic data


def _unit_noise(rng: np.random.Generator, size: int, sigma: float) -> np.ndarray:
    n = gaussian_blur(rng.standard_normal((size, size)), sigma)
    return (n - n.mean()) / (n.std() + 1e-12)


def _shape_box(cx: float, cy: float, reach: float, size: int) -> tuple[slice, slice]:
    """Rows and columns of the pixels within ``reach`` px of (cx, cy) along
    each axis, plus 1 px for rounding in a shape's own test, clipped to the
    image."""
    return tuple(
        slice(max(0, math.floor(c - reach) - 1), min(size, math.floor(c + reach) + 2))
        for c in (cy, cx)
    )


def synth_pair(seed: int, size: int = 512, name: "str | None" = None) -> AlignedPair:
    """Generate one registered visible/NIR-like pair with identity alignment.

    The visible image is smoothed multi-scale texture plus sharp geometric
    shapes; the NIR image applies a monotone gamma curve and a smooth
    positive gain field to the same geometry, then adds sigma=3 Gaussian
    pixel noise. Every value comes from one generator seeded by ``seed`` in
    a fixed draw order (texture, shapes, gamma, gain, noise), which is what
    makes a seed's dataset reproducible: reordering or skipping a draw
    changes every pixel after it. The three noise fields and the final
    sigma=0.8 blur use :func:`~litematch.detector.gaussian_blur`, which
    equals ``scipy.ndimage.gaussian_filter`` bit for bit.
    """
    if size < 256:
        raise DatasetError(f"synthetic pair size must be >= 256, got {size}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(901,)))
    tex = 1.0 * _unit_noise(rng, size, 10.0) + 1.6 * _unit_noise(rng, size, 30.0)
    tex = (tex - tex.min()) / (tex.max() - tex.min())
    vis = 60.0 + 130.0 * tex
    n_shapes = max(40, round(140 * (size / 512.0) ** 2))
    for _ in range(n_shapes):
        cx = rng.uniform(0.06 * size, 0.94 * size)
        cy = rng.uniform(0.06 * size, 0.94 * size)
        delta = rng.choice([-1.0, 1.0]) * rng.uniform(55.0, 110.0)
        if rng.random() < 0.6:
            r = rng.uniform(2.5, 7.0)
            rows, cols = _shape_box(cx, cy, r, size)
            yy, xx = np.ogrid[rows, cols]
            mask = (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
        else:
            hw = rng.uniform(2.5, 9.0)
            hh = rng.uniform(2.5, 9.0)
            ang = rng.uniform(0, math.pi)
            ca, sa = math.cos(ang), math.sin(ang)
            rows, cols = _shape_box(cx, cy, math.hypot(hw, hh), size)
            yy, xx = np.ogrid[rows, cols]
            ux = ca * (xx - cx) + sa * (yy - cy)
            uy = -sa * (xx - cx) + ca * (yy - cy)
            mask = (np.abs(ux) <= hw) & (np.abs(uy) <= hh)
        vis[rows, cols][mask] += delta  # a basic slice: writes through to vis
    vis = gaussian_blur(vis, 0.8)
    vis_u8 = np.clip(np.floor(vis + 0.5), 0, 255).astype(np.uint8)

    gamma = rng.uniform(0.65, 0.8)
    gain = 1.0 + 0.1 * _unit_noise(rng, size, size / 6.0)
    gain = np.clip(gain, 0.85, 1.15)
    nir = 255.0 * (vis_u8.astype(np.float64) / 255.0) ** gamma * gain
    nir = nir + rng.normal(0.0, 3.0, size=(size, size))
    nir_u8 = np.clip(np.floor(nir + 0.5), 0, 255).astype(np.uint8)
    return AlignedPair(
        name=name or f"pair{seed:04d}", visible=GrayImage(vis_u8), nir=GrayImage(nir_u8)
    )


# --------------------------------------------------------- triplet building


def _sample_transform(rng: np.random.Generator) -> PatchTransform:
    kind = TRANSFORM_KINDS[int(rng.integers(len(TRANSFORM_KINDS)))]
    if kind == "identity":
        return PatchTransform()
    if kind == "scale":
        return PatchTransform(kind="scale", scale_factor=float(rng.choice(SCALE_FACTORS)))
    if kind == "rotate":
        magnitude = float(rng.choice(ROTATION_DEGREES))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        return PatchTransform(kind="rotate", angle_deg=sign * magnitude)
    return PatchTransform(
        kind="translate",
        dx=int(rng.integers(-MAX_TRANSLATION, MAX_TRANSLATION + 1)),
        dy=int(rng.integers(-MAX_TRANSLATION, MAX_TRANSLATION + 1)),
    )


def materialize_triplet(
    record: TripletRecord,
    visible: GrayImage,
    nir: GrayImage,
    window: int,
    out_size: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The [1, S, S] anchor (visible), positive (transformed NIR) and
    negative (other NIR) patches of one manifest record."""
    anchor_kp = Keypoint(record.anchor_x, record.anchor_y, record.anchor_scale, record.anchor_response)
    negative_kp = Keypoint(record.negative_x, record.negative_y, 0.0, 0.0)
    return (
        extract_patch(visible, anchor_kp, window=window, out_size=out_size).data,
        apply_transform(nir, anchor_kp, record.transform(), window=window, out_size=out_size).data,
        extract_patch(nir, negative_kp, window=window, out_size=out_size).data,
    )


def build_triplets(
    pair: AlignedPair,
    keypoints: list[Keypoint],
    count: int,
    seed: int,
    window: int = DEFAULT_WINDOW,
    out_size: int = DEFAULT_OUT_SIZE,
) -> list[TripletRecord]:
    """Sample ``count`` triplet records from one registered pair.

    Returns the records only; the caller builds the manifest that holds
    them, with the same ``window`` and ``out_size``.

    Anchors are visible-image patches at detected keypoints; positives
    sample the NIR image at the same location under a uniformly drawn
    transform; negatives sample the NIR image at a different keypoint more
    than ``window`` px away. Each triplet derives its own seed, so results
    do not depend on construction order. Every keypoint must keep
    :func:`~litematch.patch.required_margin` px from the border (the
    detector's ``border_margin`` rule), so every record materializes under
    any supported transform.
    """
    if count < 1:
        raise DatasetError(f"triplet count must be >= 1, got {count}")
    if len(keypoints) < 2:
        raise DatasetError(f"pair {pair.name}: need at least 2 valid keypoints")
    coords = np.array([[kp.x, kp.y] for kp in keypoints])
    margin = required_margin(window, out_size)
    height, width = pair.visible.pixels.shape
    centers = np.round(coords)  # half to even, like the detector's round()
    inside = (centers >= margin) & (centers <= [width - margin, height - margin])
    if not inside.all():
        kp = keypoints[int(np.argmin(inside.all(axis=1)))]
        raise DatasetError(
            f"pair {pair.name}: keypoint ({kp.x:.1f}, {kp.y:.1f}) is closer than the "
            f"{margin} px patch margin to the border of the {width}x{height} image"
        )
    dist2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2)
    far_enough = dist2 > float(window) ** 2
    usable = [i for i in range(len(keypoints)) if far_enough[i].any()]
    if not usable:
        raise DatasetError(
            f"pair {pair.name}: no keypoint has a negative more than {window} px away"
        )
    records = []
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        a_idx = usable[int(rng.integers(len(usable)))]
        transform = _sample_transform(rng)
        candidates = np.flatnonzero(far_enough[a_idx])
        n_idx = int(candidates[int(rng.integers(len(candidates)))])
        akp = keypoints[a_idx]
        nkp = keypoints[n_idx]
        record = TripletRecord(
            pair=pair.name,
            anchor_x=akp.x,
            anchor_y=akp.y,
            anchor_scale=akp.scale,
            anchor_response=akp.response,
            kind=transform.kind,
            scale_factor=transform.scale_factor,
            angle_deg=transform.angle_deg,
            dx=transform.dx,
            dy=transform.dy,
            negative_x=nkp.x,
            negative_y=nkp.y,
            negative_index=n_idx,
        )
        records.append(record)
    return records


def split(manifest: DatasetManifest, ratio: float) -> tuple[DatasetManifest, DatasetManifest]:
    """Deterministic train/validation split grouped by source pair.

    No pair contributes records to both sides; the pair order is shuffled
    by the manifest seed, then the first round(ratio * n) pairs train.
    """
    if not 0.0 < ratio < 1.0:
        raise DatasetError(f"split ratio must lie in (0, 1), got {ratio}")
    names = sorted(manifest.pairs)
    n_train = int(np.floor(ratio * len(names) + 0.5))
    if n_train < 1 or n_train >= len(names):
        raise DatasetError(
            f"cannot split {len(names)} pairs at ratio {ratio} with both sides non-empty"
        )
    rng = np.random.default_rng(np.random.SeedSequence(entropy=manifest.seed, spawn_key=(77,)))
    order = list(rng.permutation(len(names)))
    train_names = {names[i] for i in order[:n_train]}

    def _side(selected: set[str]) -> DatasetManifest:
        return replace(
            manifest,
            pairs=[n for n in manifest.pairs if n in selected],
            records=[r for r in manifest.records if r.pair in selected],
        )

    val_names = set(names) - train_names
    return _side(train_names), _side(val_names)


# ----------------------------------------------------------- directory layout


def write_dataset(out_dir: str | Path, pairs: list[AlignedPair], manifest: DatasetManifest) -> None:
    """Write ``pairs/<name>_vis.pgm``, ``pairs/<name>_nir.pgm`` and the manifest."""
    out_dir = Path(out_dir)
    (out_dir / "pairs").mkdir(parents=True, exist_ok=True)
    for pair in pairs:
        save_pgm(pair.visible, out_dir / "pairs" / f"{pair.name}_vis.pgm")
        save_pgm(pair.nir, out_dir / "pairs" / f"{pair.name}_nir.pgm")
    (out_dir / MANIFEST_NAME).write_text(manifest.to_json())


def load_manifest(data_dir: str | Path) -> DatasetManifest:
    """Parse the manifest of a dataset directory.

    A manifest that does not parse, lacks or mistypes a key, or holds a
    record with a non-finite number, a pair that is not listed or an
    unsupported transform, raises DatasetError naming its path.
    """
    data_dir = Path(data_dir)
    manifest_path = data_dir / MANIFEST_NAME
    if not manifest_path.exists():
        raise DatasetError(f"no {MANIFEST_NAME} in {data_dir}")
    try:
        return DatasetManifest.from_json(manifest_path.read_text())
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise DatasetError(f"{manifest_path}: malformed manifest: {exc!r}") from exc


def load_dataset(data_dir: str | Path) -> tuple[dict[str, AlignedPair], DatasetManifest]:
    """Load the manifest (:func:`load_manifest`) and every source pair it references."""
    data_dir = Path(data_dir)
    manifest = load_manifest(data_dir)
    pairs: dict[str, AlignedPair] = {}
    for name in manifest.pairs:
        pairs[name] = AlignedPair(
            name=name,
            visible=load_image(data_dir / "pairs" / f"{name}_vis.pgm"),
            nir=load_image(data_dir / "pairs" / f"{name}_nir.pgm"),
        )
    return pairs, manifest


def enhanced_pair(pair: AlignedPair, manifest: DatasetManifest) -> tuple[GrayImage, GrayImage]:
    """CLAHE both sides with the manifest's enhancement settings."""
    return (
        clahe(pair.visible, manifest.clahe_clip, manifest.clahe_grid),
        clahe(pair.nir, manifest.clahe_clip, manifest.clahe_grid),
    )
