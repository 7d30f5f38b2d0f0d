"""Output checks against the reference implementations in ``reference.py``.

Match requests are compared with a frozen copy of CLAHE and of the keypoint
detector and with a float64 numpy forward pass; the first training step
with a float64 replay of its loss and with central differences of that
loss, which no backward rule of the program enters.
"""

from __future__ import annotations

import math

import numpy as np

import reference
from litematch import checkpoint, pipeline
from litematch.image import GrayImage
from litematch.patch import extract_patch

# Detector output equal to the reference up to reordered float sums; a
# 0.6% change of the base blur moves keypoints by 5e-4 px.
KEYPOINT_TOL = 1e-4  # pixels
SCALE_RTOL = 1e-5
# float32 inference of the match model differs from the float64 reference
# by under 5e-7 per component (measured); 1e-5 leaves headroom for
# reordered sums.
DESCRIPTOR_TOL = 1e-5
# Distances move by at most ~2 * DESCRIPTOR_TOL, so candidates closer than
# this are near-ties whose order float32 rounding may legitimately flip.
TIE_TOL = 1e-4
LOSS_ABS_TOL = 1e-5
LOSS_REL_TOL = 1e-4
# First-step gradients checked against central differences along one
# seeded random direction per parameter. Together their backward paths run
# through every op of the network: the embedding through all of it, fc1
# through gelu and the depthwise input gradient, dw through the depthwise
# weight gradient and q through softmax and both matmuls.
GRAD_PARAMS = (
    "stage1.embed.conv.weight",
    "stage1.block1.ffn.fc1.weight",
    "stage1.block1.ffn.dw.weight",
    "stage2.block1.attn.q.weight",
)
GRAD_STEP = 1e-3  # length of the perturbation of a whole tensor
GRAD_ABS_TOL = 1e-9
GRAD_REL_TOL = 1e-4


def reference_descriptors(model, enhanced: np.ndarray, keypoints, cfg) -> np.ndarray:
    """float64 reference descriptors of ``keypoints`` on an enhanced image."""
    img = GrayImage(enhanced)
    patches = np.stack([extract_patch(img, kp, cfg.window, cfg.input_size).data for kp in keypoints])
    return reference.forward(model.config, {n: p.data for n, p in model.params.items()}, patches)


def check_matches(result, desc_a: np.ndarray, desc_b: np.ndarray, threshold: float) -> list[str]:
    """Accepted matches must agree with nearest neighbours of the reference descriptors."""
    d = np.sqrt(np.maximum(((desc_a[:, None, :] - desc_b[None, :, :]) ** 2).sum(axis=2), 0.0))
    best = d.min(axis=1)
    chosen = {p.index_a: p.index_b for p in result.pairs}
    problems = []
    for i in range(d.shape[0]):
        j = chosen.get(i)
        if j is None:
            if best[i] <= threshold - TIE_TOL:
                problems.append(f"keypoint {i}: reference accepts a match at {best[i]:.6f}")
        elif d[i, j] > best[i] + TIE_TOL or d[i, j] > threshold + TIE_TOL:
            problems.append(
                f"keypoint {i}: matched {j} at {d[i, j]:.6f}, reference nearest is {best[i]:.6f}"
            )
    return problems


def check_keypoints(found, expected: list[tuple]) -> list[str]:
    """The program's keypoints, in order, against the reference detector's."""
    if len(found) != len(expected):
        return [f"{len(found)} keypoints, reference detector finds {len(expected)}"]
    for i, (kp, (x, y, scale, _)) in enumerate(zip(found, expected)):
        moved = max(abs(kp.x - x), abs(kp.y - y))
        if moved > KEYPOINT_TOL or abs(kp.scale - scale) > SCALE_RTOL * scale:
            return [
                f"keypoint {i} at ({kp.x:.4f}, {kp.y:.4f}) scale {kp.scale:.5f}, "
                f"reference ({x:.4f}, {y:.4f}) scale {scale:.5f}"
            ]
    return []


def check_request(model, pair, cfg, result, set_a, set_b) -> list[str]:
    """One match request against the reference CLAHE, detector and forward pass."""
    problems = []
    references = []
    for side, image, found in (("A", pair.visible, set_a), ("B", pair.nir, set_b)):
        enhanced = reference.clahe(image.pixels, cfg.clahe_clip, cfg.clahe_grid)
        differ = int(np.count_nonzero(pipeline.enhance(image, cfg).pixels != enhanced))
        if differ:
            problems.append(f"side {side}: {differ} enhanced pixels differ from the reference")
        expected = reference.detect_keypoints(enhanced, cfg.max_keypoints, cfg.window // 2 + 1)
        problems += [f"side {side}: {p}" for p in check_keypoints(found.keypoints, expected)]
        d64 = reference_descriptors(model, enhanced, found.keypoints, cfg)
        err = float(np.abs(d64 - found.descriptors).max())
        if not err <= DESCRIPTOR_TOL:
            problems.append(f"side {side}: descriptors differ from the float64 reference by {err:.3g}")
        references.append(d64)
    problems += check_matches(result, *references, cfg.threshold)
    return [f"{pair.name}: {p}" for p in problems]


def check_response(summary, result, set_a, set_b, cfg) -> list[str]:
    """Cheap consistency checks applied to every match request."""
    problems = []
    for side, found, n in (("A", set_a, summary.n_keypoints_a), ("B", set_b, summary.n_keypoints_b)):
        if not 0 < n <= cfg.max_keypoints or len(found) != n:
            problems.append(f"side {side}: {n} keypoints, {len(found)} descriptors")
        if not np.all(np.isfinite(found.descriptors)):
            problems.append(f"side {side}: non-finite descriptors")
    if any(not 0 <= p.index_a < len(set_a) or not 0 <= p.index_b < len(set_b) for p in result.pairs):
        problems.append("match index out of range")
    if any(p.distance > cfg.threshold for p in result.pairs):
        problems.append("accepted match above the threshold")
    if not 0.0 <= summary.precision <= 1.0 or summary.n_correct > summary.n_matched:
        problems.append(f"precision {summary.precision} out of range")
    return problems


def check_first_step(params, model, batch_data, loss_mode: str, loss: float, grads) -> list[str]:
    """A training step's loss and gradients against float64 reference replays.

    ``params`` are the parameters before the step and ``grads`` the
    gradients the step applied. For each parameter in ``GRAD_PARAMS`` the
    gradient's component along a random unit direction is compared with a
    central difference of the reference forward pass and loss along it,
    with the adaptive margin held at its unperturbed value as the program's
    gradient holds it.
    """
    p64 = {n: v.astype(np.float64) for n, v in params.items()}
    desc = reference.forward(model.config, p64, batch_data)
    ref = reference.triplet_loss(desc, loss_mode)
    problems = []
    if not abs(loss - ref) <= LOSS_ABS_TOL + LOSS_REL_TOL * abs(ref):
        problems.append(f"first-step loss {loss!r} differs from the float64 reference {ref!r}")
    margin = 0.5 * sum(reference.triplet_distances(desc))
    rng = np.random.default_rng(0)
    for name in GRAD_PARAMS:
        direction = rng.standard_normal(p64[name].shape)
        direction /= np.linalg.norm(direction)
        value = p64[name]
        sides = []
        for delta in (GRAD_STEP, -GRAD_STEP):
            p64[name] = value + delta * direction
            moved = reference.forward(model.config, p64, batch_data)
            sides.append(reference.triplet_loss(moved, loss_mode, margin))
        p64[name] = value
        numeric = (sides[0] - sides[1]) / (2 * GRAD_STEP)
        analytic = float((grads[name] * direction).sum())
        # A random direction can be nearly orthogonal to the gradient; the
        # rounding error then stays at its usual size while the projection
        # shrinks, so the tolerance never drops below the typical projection.
        typical = float(np.linalg.norm(grads[name])) / math.sqrt(grads[name].size)
        if not abs(analytic - numeric) <= GRAD_ABS_TOL + GRAD_REL_TOL * max(abs(numeric), typical):
            problems.append(
                f"first-step gradient of {name} along a random direction: {analytic:.6e}, "
                f"central difference {numeric:.6e}"
            )
    return problems


def check_checkpoint(path, model, report) -> list[str]:
    """The final checkpoint loads back to the trained parameters and re-saves byte-exact."""
    ckpt = checkpoint.load_checkpoint(path)
    problems = []
    if ckpt.step != report.steps or ckpt.final_loss != report.final_loss:
        problems.append(
            f"checkpoint step/loss {ckpt.step}/{ckpt.final_loss} != {report.steps}/{report.final_loss}"
        )
    for name, p in model.params.items():
        if not np.array_equal(ckpt.blobs[name], p.data):
            problems.append(f"checkpoint blob {name} differs from the trained parameter")
            break
    copy = path.with_suffix(".roundtrip")
    checkpoint.save_checkpoint(copy, ckpt)
    if copy.read_bytes() != path.read_bytes():
        problems.append("re-saved checkpoint is not byte-identical")
    return problems


def check_losses(report) -> list[str]:
    losses = [e.mean_loss for e in report.epochs] + [report.final_loss]
    return [] if all(math.isfinite(v) for v in losses) else [f"non-finite training loss in {losses}"]
