"""Triplet dataset construction from registered visible/near-infrared pairs.

Triplets are never stored as pixels: :func:`build_triplets` records
keypoint coordinates, the sampled transform and the negative index in a
manifest without extracting a patch, and :func:`materialize_triplet` is the
one place that samples a record's patches, bit-exactly, from the enhanced
source images when training needs them. A synthetic
pair generator provides desk-scale data with exact (identity) ground
truth: the "NIR" side is a monotone radiometric remap of the visible side
with a smooth per-region gain field and pixel noise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

from .detector import Keypoint
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
                {
                    "pair": r.pair,
                    "ax": r.anchor_x,
                    "ay": r.anchor_y,
                    "ascale": r.anchor_scale,
                    "aresp": r.anchor_response,
                    "kind": r.kind,
                    "sf": r.scale_factor,
                    "deg": r.angle_deg,
                    "dx": r.dx,
                    "dy": r.dy,
                    "nx": r.negative_x,
                    "ny": r.negative_y,
                    "nidx": r.negative_index,
                }
                for r in self.records
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
        for r in doc["records"]:
            manifest.records.append(
                TripletRecord(
                    pair=r["pair"],
                    anchor_x=r["ax"],
                    anchor_y=r["ay"],
                    anchor_scale=r["ascale"],
                    anchor_response=r["aresp"],
                    kind=r["kind"],
                    scale_factor=r["sf"],
                    angle_deg=r["deg"],
                    dx=r["dx"],
                    dy=r["dy"],
                    negative_x=r["nx"],
                    negative_y=r["ny"],
                    negative_index=r["nidx"],
                )
            )
        counts = doc.get("transform_counts")
        if counts is not None and sum(counts.values()) != manifest.count:
            raise DatasetError("manifest transform counts do not sum to the record count")
        return manifest


# ------------------------------------------------------------ synthetic data


def _unit_noise(rng: np.random.Generator, size: int, sigma: float) -> np.ndarray:
    n = gaussian_filter(rng.standard_normal((size, size)), sigma)
    return (n - n.mean()) / (n.std() + 1e-12)


def synth_pair(seed: int, size: int = 512, name: "str | None" = None) -> AlignedPair:
    """Generate one registered visible/NIR-like pair with identity alignment.

    The visible image is smoothed multi-scale texture plus sharp geometric
    shapes; the NIR image applies a monotone gamma curve and a smooth
    positive gain field to the same geometry, then adds sigma=3 Gaussian
    pixel noise.
    """
    if size < 256:
        raise DatasetError(f"synthetic pair size must be >= 256, got {size}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(901,)))
    tex = 1.0 * _unit_noise(rng, size, 10.0) + 1.6 * _unit_noise(rng, size, 30.0)
    tex = (tex - tex.min()) / (tex.max() - tex.min())
    vis = 60.0 + 130.0 * tex
    yy, xx = np.mgrid[0:size, 0:size]
    n_shapes = max(40, round(140 * (size / 512.0) ** 2))
    for _ in range(n_shapes):
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
    gain = 1.0 + 0.1 * _unit_noise(rng, size, size / 6.0)
    gain = np.clip(gain, 0.85, 1.15)
    nir = 255.0 * (vis_u8.astype(np.float64) / 255.0) ** gamma * gain
    nir = nir + rng.normal(0.0, 3.0, size=(size, size))
    nir_u8 = np.clip(np.floor(nir + 0.5), 0, 255).astype(np.uint8)
    return AlignedPair(
        name=name or f"pair{seed:04d}", visible=GrayImage(vis_u8), nir=GrayImage(nir_u8)
    )


# --------------------------------------------------------- triplet building


def _sample_transform(rng: np.random.Generator, kinds: tuple[str, ...]) -> PatchTransform:
    kind = kinds[int(rng.integers(len(kinds)))]
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
    kinds: tuple[str, ...] = TRANSFORM_KINDS,
) -> DatasetManifest:
    """Sample ``count`` triplet records from one registered pair.

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
    if not kinds:
        raise DatasetError("at least one transform kind must be enabled")
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
    manifest = DatasetManifest(seed=seed, window=window, out_size=out_size, pairs=[pair.name])
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        a_idx = usable[int(rng.integers(len(usable)))]
        transform = _sample_transform(rng, kinds)
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
        manifest.records.append(record)
    return manifest


def merge_manifests(parts: list[DatasetManifest], seed: int) -> DatasetManifest:
    """Concatenate per-pair manifests built with shared extraction settings."""
    if not parts:
        raise DatasetError("nothing to merge")
    first = parts[0]
    merged = DatasetManifest(
        seed=seed,
        window=first.window,
        out_size=first.out_size,
        clahe_clip=first.clahe_clip,
        clahe_grid=first.clahe_grid,
    )
    for part in parts:
        if (part.window, part.out_size) != (first.window, first.out_size):
            raise DatasetError("manifests disagree on extraction settings")
        merged.pairs.extend(part.pairs)
        merged.records.extend(part.records)
    return merged


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
        side = DatasetManifest(
            seed=manifest.seed,
            window=manifest.window,
            out_size=manifest.out_size,
            clahe_clip=manifest.clahe_clip,
            clahe_grid=manifest.clahe_grid,
            pairs=[n for n in manifest.pairs if n in selected],
        )
        side.records = [r for r in manifest.records if r.pair in selected]
        return side

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


def load_dataset(data_dir: str | Path) -> tuple[dict[str, AlignedPair], DatasetManifest]:
    """Load the manifest and every source pair it references."""
    data_dir = Path(data_dir)
    manifest_path = data_dir / MANIFEST_NAME
    if not manifest_path.exists():
        raise DatasetError(f"no {MANIFEST_NAME} in {data_dir}")
    manifest = DatasetManifest.from_json(manifest_path.read_text())
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
