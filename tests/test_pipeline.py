"""The one matching path: batched descriptors, ``match`` and ``evaluate`` end to end."""

import math
from dataclasses import replace

import numpy as np
import pytest

from litematch import cli, pipeline
from litematch.checkpoint import build_checkpoint, save_checkpoint
from litematch.config import RunConfig
from litematch.dataset import IDENTITY_MAP, AlignedPair, load_dataset
from litematch.detector import Keypoint, detect_keypoints
from litematch.image import GrayImage, save_pgm
from litematch.matching import score, write_matches
from litematch.model import forward, init_model
from litematch.patch import extract_patch, plain_margin
from litematch.pipeline import (
    DESCRIPTOR_BATCH,
    compute_descriptors,
    evaluate_pair,
    evaluation_table,
    match_images,
    model_descriptor,
)
from litematch.tensor import Tensor
from litematch.training import model_config_for


@pytest.fixture(scope="module")
def setup():
    cfg = RunConfig(input_size=32).validate()
    return cfg, init_model(model_config_for(cfg), seed=0)


def _constant(size):
    return GrayImage(np.full((size, size), 90, dtype=np.uint8))


def _textured(size, seed=5):
    cells = np.random.default_rng(seed).random((size // 4 + 1,) * 2) * 255
    return GrayImage(np.kron(cells, np.ones((4, 4)))[:size, :size].astype(np.uint8))


@pytest.mark.parametrize(
    "visible, nir, kps_a",
    [
        (_constant(256), _constant(256), False),
        (_textured(40), _textured(40, 6), False),
        (_textured(256), _constant(256), True),
    ],
    ids=["constant-256px", "40px", "one-side-featureless"],
)
def test_evaluate_pair_without_keypoints_is_empty(setup, visible, nir, kps_a):
    cfg, model = setup
    summary, result, set_a, set_b = evaluate_pair(model, AlignedPair("p", visible, nir), cfg)
    assert summary.n_keypoints_b == 0 and len(set_b) == 0
    assert summary.n_keypoints_a == len(set_a) and (len(set_a) > 0) == kps_a
    assert (summary.n_matched, summary.n_correct) == (0, 0)
    assert (summary.precision, summary.matching_score) == (0.0, 0.0)
    assert result.pairs == [] and result.n_total_keypoints == 0


def test_cli_match_featureless_pair_writes_empty_outputs(setup, tmp_path, capsys):
    cfg, model = setup
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, build_checkpoint(model, cfg, 0, 0, 0.0))
    for name in ("a.pgm", "b.pgm"):
        save_pgm(_constant(128), tmp_path / name)
    out = tmp_path / "out" / "pair"
    argv = ["match", str(ckpt), str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm"), str(out), "--gt-identity"]
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    assert "matched 0 of 0 keypoints; precision 0.0000 matching_score 0.0000" in printed
    rows = out.with_suffix(".matches.tsv").read_text().splitlines()
    assert rows == ["# indexA\txA\tyA\tindexB\txB\tyB\tdistance\tcorrect"]
    assert out.with_suffix(".matches.ppm").exists()


def _keypoints(img, n, cfg):
    kps = detect_keypoints(img, max_points=64, border_margin=plain_margin(cfg.window))[:n]
    assert len(kps) == n
    return kps


@pytest.mark.parametrize("window", [16, 17, 48, 49])  # input_size 32 above and below the window
def test_match_images_describes_keypoints_on_the_border_margin(setup, window, monkeypatch):
    # every keypoint the detector keeps, down to a rounded centre on the
    # margin at either side, gets a plain patch
    cfg = replace(setup[0], window=window)
    size = 160

    def on_the_margin(img, max_points, border_margin):
        lo, hi = border_margin - 0.49, size - border_margin + 0.49  # round() lands on the margin
        return [Keypoint(x, y, 1.6, 1.0) for x in (lo, hi) for y in (lo, hi)]

    monkeypatch.setattr(pipeline, "detect_keypoints", on_the_margin)
    _, set_a, set_b = match_images(model_descriptor(setup[1]), _textured(size), _textured(size, 6), cfg)
    assert len(set_a) == len(set_b) == 4


@pytest.mark.parametrize("n_a, n_b", [(0, 40), (40, 0), (40, 40), (64, 3)])
def test_compute_descriptors_batches_sides_like_per_side_forwards(n_a, n_b, monkeypatch):
    cfg = RunConfig(input_size=32).validate()
    model = init_model(model_config_for(cfg), seed=3)
    for prm in model.params.values():
        if prm.ndim >= 2:  # init-scale branches barely move the descriptors
            prm.data *= 10
    img_a, img_b = _textured(256), _textured(256, 7)
    kps_a, kps_b = _keypoints(img_a, n_a, cfg), _keypoints(img_b, n_b, cfg)
    calls = []
    monkeypatch.setattr(pipeline, "forward", lambda m, x: calls.append(x.shape[0]) or forward(m, x))
    set_a, set_b = compute_descriptors(model_descriptor(model), [(img_a, kps_a), (img_b, kps_b)], cfg)
    total = n_a + n_b
    assert calls == [min(64, total - lo) for lo in range(0, total, 64)]
    for img, kps, got in ((img_a, kps_a, set_a), (img_b, kps_b, set_b)):
        assert got.keypoints == kps
        assert got.descriptors.shape == (len(kps), model.config.descriptor_dim)
        if kps:
            patches = np.stack([extract_patch(img, kp, cfg.window, cfg.input_size).data for kp in kps])
            alone = forward(model, Tensor(patches)).data
            np.testing.assert_allclose(got.descriptors, alone, rtol=0, atol=1e-6)


def raw_patch(patches):
    """The zero-mean, unit-norm flattened patch: a descriptor with no model."""
    flat = patches.reshape(len(patches), math.prod(patches.shape[1:]))  # -1 cannot size N = 0
    flat = flat - flat.mean(axis=1, keepdims=True)
    return flat / np.linalg.norm(flat, axis=1, keepdims=True)


@pytest.mark.parametrize("n_a, n_b", [(0, 0), (0, 40), (40, 0), (40, 40), (64, 3)])
def test_a_raw_patch_function_describes_without_a_model(n_a, n_b):
    cfg = RunConfig(input_size=32).validate()
    img_a, img_b = _textured(256), _textured(256, 7)
    kps_a, kps_b = _keypoints(img_a, n_a, cfg), _keypoints(img_b, n_b, cfg)
    calls = []

    def describe(patches):
        assert patches.dtype == np.float32 and patches.shape[1:] == (1, 32, 32)
        calls.append(len(patches))
        return raw_patch(patches)

    set_a, set_b = compute_descriptors(describe, [(img_a, kps_a), (img_b, kps_b)], cfg)
    total = n_a + n_b
    batches = [min(DESCRIPTOR_BATCH, total - lo) for lo in range(0, total, DESCRIPTOR_BATCH)]
    assert calls == (batches or [0])  # no keypoints: one empty stack
    for img, kps, got in ((img_a, kps_a, set_a), (img_b, kps_b, set_b)):
        assert got.keypoints == kps and got.descriptors.shape == (len(kps), 32 * 32)
        if kps:
            patches = np.stack([extract_patch(img, kp, cfg.window, cfg.input_size).data for kp in kps])
            np.testing.assert_array_equal(got.descriptors, raw_patch(patches))


@pytest.mark.parametrize("other, matched", [(_textured(256), True), (_constant(256), False)], ids=["self", "featureless"])
def test_match_images_with_a_raw_patch_function(other, matched):
    # the same image on both sides matches every keypoint to itself; a
    # featureless side describes no patch and matches nothing
    cfg = RunConfig(input_size=32).validate()
    result, set_a, set_b = match_images(raw_patch, _textured(256), other, cfg)
    assert len(set_a) > 0 and (len(set_b) == len(set_a)) == matched
    assert result.n_success == (len(set_a) if matched else 0)
    assert score(result, set_a, set_b, IDENTITY_MAP, eps=cfg.eps) == ((1.0, 1.0) if matched else (0.0, 0.0))


def test_a_model_descriptor_calls_the_forward_bound_at_call_time(setup, monkeypatch):
    # a tracer wraps pipeline.forward after the descriptor function is made
    # and counts each batch from its Tensor argument
    cfg, model = setup
    describe = model_descriptor(model)
    seen = []
    monkeypatch.setattr(pipeline, "forward", lambda m, x: seen.append((m, type(x), x.shape[0])) or forward(m, x))
    img = _textured(256)
    (got,) = compute_descriptors(describe, [(img, _keypoints(img, 5, cfg))], cfg)
    assert seen == [(model, Tensor, 5)] and got.descriptors.shape == (5, 128)


def test_cli_match_writes_the_rows_match_images_returns(setup, tmp_path, monkeypatch):
    # a 32 px checkpoint under --set keeps its own run config: rebuilding
    # it from the library defaults would feed the model 128 px patches
    cfg, model = setup
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, build_checkpoint(model, cfg, 0, 0, 0.0))
    img_a = _textured(256)
    img_b = GrayImage((255.0 * (img_a.pixels / 255.0) ** 0.8).astype(np.uint8))
    save_pgm(img_a, tmp_path / "a.pgm")
    save_pgm(img_b, tmp_path / "b.pgm")
    out = tmp_path / "pair"
    argv = ["match", str(ckpt), str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm"), str(out),
            "--set", "threshold=0.4"]
    assert cli.main(argv) == 0
    batches = []
    monkeypatch.setattr(pipeline, "forward", lambda m, x: batches.append(x.shape[0]) or forward(m, x))
    result, set_a, set_b = match_images(model_descriptor(model), img_a, img_b, replace(cfg, threshold=0.4))
    assert result.n_success > 0
    assert sum(batches) == len(set_a) + len(set_b) and len(batches) == -(-sum(batches) // 64)
    write_matches(tmp_path / "expected.tsv", result, set_a, set_b)
    expected = (tmp_path / "expected.tsv").read_text()
    assert out.with_suffix(".matches.tsv").read_text() == expected


def test_cli_evaluate_layers_overrides_on_the_checkpoint_config(setup, tmp_path, capsys):
    cfg, model = setup
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, build_checkpoint(model, cfg, 0, 0, 0.0))
    data = tmp_path / "data"
    argv = ["gen-data", "--synthetic", "--out", str(data), "--pairs", "1", "--triplets", "4",
            "--seed", "3", "--set", "input_size=32", "--set", "synth_size=256"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    argv = ["evaluate", str(ckpt), "--data", str(data), "--subset", "all", "--set", "threshold=0.4"]
    assert cli.main(argv) == 0
    pairs, _ = load_dataset(data)
    summary, _, _, _ = evaluate_pair(model, pairs["pair0000"], replace(cfg, threshold=0.4))
    assert capsys.readouterr().out == evaluation_table([summary])
