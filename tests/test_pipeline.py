"""A featureless or tiny side gives an empty, well-formed result end to end."""

import numpy as np
import pytest

from litematch import cli
from litematch.checkpoint import build_checkpoint, save_checkpoint
from litematch.config import RunConfig
from litematch.dataset import AlignedPair
from litematch.image import GrayImage, save_pgm
from litematch.model import init_model
from litematch.pipeline import evaluate_pair
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
