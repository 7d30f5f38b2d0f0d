"""Triplet dataset construction from registered visible/near-infrared pairs.

Triplets are never stored as pixels: :func:`build_triplets` returns
records of the anchor keypoint, the sampled transform and the negative's
location without extracting a patch; the caller gathers every pair's
records into one :class:`DatasetManifest` with the settings they were made
with. Its ``to_json`` and ``from_json`` are the one typed mapping between
the manifest's JSON and these types. :func:`materialize_triplet` is the
one place that samples a record's patches, bit-exactly, from the enhanced
source images when training needs them. An :class:`AlignedPair` carries
its ground truth, an affine map from visible to NIR pixels, which is
``IDENTITY_MAP`` for every registered pair made or loaded here. A synthetic
pair generator provides desk-scale data with exact ground truth: the "NIR"
side is a monotone radiometric remap of the visible side with a smooth
per-region gain field and pixel noise.
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
IDENTITY_MAP = np.eye(2, 3)  # the map of a registered pair, shared read-only
IDENTITY_MAP.flags.writeable = False


@dataclass
class AlignedPair:
    """Visible/NIR images of one scene and their ground truth ``to_nir``, a 2x3 affine."""

    name: str
    visible: GrayImage
    nir: GrayImage
    to_nir: np.ndarray = field(default_factory=lambda: IDENTITY_MAP)

    def __post_init__(self):
        if self.visible.pixels.shape != self.nir.pixels.shape:
            raise DatasetError(f"pair {self.name}: image dimensions differ")
        self.to_nir = to_nir = np.asarray(self.to_nir)
        if to_nir.shape != (2, 3) or to_nir.dtype.kind not in "fiu" or not np.isfinite(to_nir).all():
            raise DatasetError(f"pair {self.name}: the map to NIR is not a finite 2x3 affine")


@dataclass(frozen=True)
class TripletRecord:
    """Everything needed to regenerate one triplet from the source pair: the
    anchor keypoint, the positive's transform and the negative's location.

    The manifest stores the negative's position and detection index but not
    its scale or response, so the negative is ``Keypoint(x, y, 0.0, 0.0)``.
    """

    pair: str
    anchor: Keypoint
    transform: PatchTransform
    negative: Keypoint
    negative_index: int


def _finite(value) -> float:
    """A JSON number as a float, refusing strings, bools and the NaN and
    infinities that JSON parsing admits."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {value!r}")
    return float(value)


def _index(value) -> int:
    """A JSON integer; operator.index refuses the floats int() would truncate."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


# (DatasetManifest field and manifest key, parser) of every header value
_HEADER = (("seed", _index), ("window", _index), ("out_size", _index),
           ("clahe_clip", _finite), ("clahe_grid", _index))


def _record_to_json(r: TripletRecord) -> dict:
    a, t, n = r.anchor, r.transform, r.negative
    return {
        "pair": r.pair, "ax": a.x, "ay": a.y, "ascale": a.scale, "aresp": a.response,
        "kind": t.kind, "sf": t.scale_factor, "deg": t.angle_deg, "dx": t.dx, "dy": t.dy,
        "nx": n.x, "ny": n.y, "nidx": r.negative_index,
    }


def _record_from_json(r: dict) -> TripletRecord:
    """The inverse of :func:`_record_to_json`; ``PatchTransform`` refuses an
    unsupported transform, and ``from_json`` a pair it does not list."""
    return TripletRecord(
        pair=r["pair"],
        anchor=Keypoint(_finite(r["ax"]), _finite(r["ay"]), _finite(r["ascale"]), _finite(r["aresp"])),
        transform=PatchTransform(r["kind"], _finite(r["sf"]), _finite(r["deg"]),
                                 _index(r["dx"]), _index(r["dy"])),
        negative=Keypoint(_finite(r["nx"]), _finite(r["ny"]), 0.0, 0.0),
        negative_index=_index(r["nidx"]),
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
            counts[rec.transform.kind] += 1
        return counts

    def to_json(self) -> str:
        doc = {
            "format": MANIFEST_FORMAT,
            **{key: parse(getattr(self, key)) for key, parse in _HEADER},
            "pairs": self.pairs,
            "transform_counts": self.transform_counts(),
            "records": [_record_to_json(r) for r in self.records],
        }
        return json.dumps(doc, sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "DatasetManifest":
        doc = json.loads(text)
        if doc.get("format") != MANIFEST_FORMAT:
            raise DatasetError(f"unsupported manifest format {doc.get('format')}")
        if not isinstance(doc["pairs"], list):  # a string would pass as one name per character
            raise DatasetError(f"pairs must be a list of names, got {doc['pairs']!r}")
        manifest = cls(
            **{key: parse(doc[key]) for key, parse in _HEADER},
            pairs=doc["pairs"],
            records=[_record_from_json(r) for r in doc["records"]],
        )
        if manifest.seed < 0:  # numpy's SeedSequence takes no negative seed
            raise DatasetError(f"seed must be at least 0, got {manifest.seed}")
        for name in manifest.pairs:  # a name must stay a file name inside pairs/
            if not isinstance(name, str) or Path(name).name != name:
                raise DatasetError(f"pair name {name!r} is not a plain file name")
        known = set(manifest.pairs)
        for i, record in enumerate(manifest.records):
            if record.pair not in known:
                raise DatasetError(f"record {i} names pair {record.pair!r}, not one of the pairs")
        counts = doc.get("transform_counts")
        if counts is not None and counts != manifest.transform_counts():
            raise DatasetError("manifest transform counts do not match its records")
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
    return (
        extract_patch(visible, record.anchor, window=window, out_size=out_size).data,
        apply_transform(nir, record.anchor, record.transform, window=window, out_size=out_size).data,
        extract_patch(nir, record.negative, window=window, out_size=out_size).data,
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
        nkp = keypoints[n_idx]
        negative = Keypoint(nkp.x, nkp.y, 0.0, 0.0)  # the manifest stores no scale or response
        records.append(TripletRecord(pair.name, keypoints[a_idx], transform, negative, n_idx))
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

    A manifest that does not parse, lacks or mistypes a key, holds a
    non-finite number, a pair name that is not a plain file name, a record
    of a pair that is not listed or of an unsupported transform, or
    transform counts that disagree with its records, raises DatasetError
    naming its path.
    """
    data_dir = Path(data_dir)
    manifest_path = data_dir / MANIFEST_NAME
    if not manifest_path.exists():
        raise DatasetError(f"no {MANIFEST_NAME} in {data_dir}")
    try:
        return DatasetManifest.from_json(manifest_path.read_text())
    except (ValueError, LookupError, TypeError, AttributeError, OverflowError) as exc:
        raise DatasetError(f"{manifest_path}: malformed manifest: {exc!r}") from exc


def load_pairs(directory: str | Path, names: "list[str] | None" = None) -> dict[str, AlignedPair]:
    """Load ``<name>_vis.pgm`` and ``<name>_nir.pgm`` of ``directory`` for each
    of ``names``, or for every ``*_vis.pgm`` there (sorted) when it is None."""
    directory = Path(directory)
    if names is None:
        names = sorted(p.name[: -len("_vis.pgm")] for p in directory.glob("*_vis.pgm"))
        if not names:
            raise DatasetError(f"no *_vis.pgm files in {directory}")
    return {
        name: AlignedPair(
            name=name,
            visible=load_image(directory / f"{name}_vis.pgm"),
            nir=load_image(directory / f"{name}_nir.pgm"),
        )
        for name in names
    }


def load_dataset(data_dir: str | Path) -> tuple[dict[str, AlignedPair], DatasetManifest]:
    """Load the manifest (:func:`load_manifest`) and every source pair it references."""
    manifest = load_manifest(data_dir)
    return load_pairs(Path(data_dir) / "pairs", manifest.pairs), manifest


def enhanced_pair(pair: AlignedPair, manifest: DatasetManifest) -> tuple[GrayImage, GrayImage]:
    """CLAHE both sides with the manifest's enhancement settings."""
    return (
        clahe(pair.visible, manifest.clahe_clip, manifest.clahe_grid),
        clahe(pair.nir, manifest.clahe_clip, manifest.clahe_grid),
    )
