"""Training stops on non-finite values before they reach the parameters."""

import numpy as np
import pytest

from litematch import cli, ops, training
from litematch.checkpoint import build_checkpoint, load_checkpoint, model_from_checkpoint, save_checkpoint
from litematch.config import RunConfig
from litematch.errors import TrainingError
from litematch.model import ModelConfig, init_model
from litematch.tensor import SGD


def test_train_step_non_finite_loss_leaves_parameters(monkeypatch):
    model = init_model(ModelConfig(input_size=32), seed=0)
    opt = SGD(model.parameters(), lr=0.1, momentum=0.9)
    before = {n: p.data.copy() for n, p in model.params.items()}
    real_loss = training.triplet_loss
    monkeypatch.setattr(
        training, "triplet_loss", lambda batch, mode: ops.scale(real_loss(batch, mode), np.nan)
    )
    batch = np.random.default_rng(1).random((6, 1, 32, 32)).astype(np.float32)
    with pytest.raises(TrainingError, match="non-finite loss"):
        training.train_step(model, opt, batch, "corrected")
    for name, p in model.params.items():
        assert p.grad is None, name
        assert np.array_equal(p.data, before[name]), name


def test_train_stops_on_nan_weight_in_resumed_model(tmp_path):
    data = tmp_path / "data"
    argv = ["gen-data", "--synthetic", "--out", str(data), "--pairs", "1", "--triplets", "4",
            "--seed", "3", "--set", "input_size=32", "--set", "synth_size=256"]
    assert cli.main(argv) == 0
    cfg = RunConfig(input_size=32, batch_size=2, epochs=1, checkpoint_every=0, seed=3).validate()
    first = tmp_path / "first.ckpt"
    training.train(cfg, data, first, echo=False)

    ckpt = load_checkpoint(first)
    model = model_from_checkpoint(ckpt)
    model.params["stage2.block1.ffn.fc1.weight"].data[0, 0] = np.nan
    poisoned = tmp_path / "poisoned.ckpt"
    save_checkpoint(poisoned, build_checkpoint(model, cfg, ckpt.step, ckpt.epoch, ckpt.final_loss))

    cfg.epochs = 2
    out = tmp_path / "resumed.ckpt"
    with pytest.raises(TrainingError, match="epoch 2 step 3"):
        training.train(cfg, data, out, resume=poisoned, echo=False)
    assert not out.exists()
