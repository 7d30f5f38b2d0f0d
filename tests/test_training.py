"""Training stops on non-finite values before they reach the parameters."""

import dataclasses
import weakref

import numpy as np
import pytest

from litematch import cli, dataset, training
from litematch.checkpoint import load_checkpoint, model_from_checkpoint
from litematch.config import MANIFEST_SETTINGS, MODEL_SETTINGS, RunConfig
from litematch.errors import ConfigError, DatasetError, TrainingError
from litematch.model import ModelConfig, init_model
from litematch.tensor import SGD, Tensor


def test_train_step_non_finite_loss_leaves_parameters(monkeypatch):
    model = init_model(ModelConfig(input_size=32), seed=0)
    opt = SGD(model.parameters(), lr=0.1, momentum=0.9)
    before = {n: p.data.copy() for n, p in model.params.items()}
    monkeypatch.setattr(training, "triplet_loss", lambda desc: Tensor(np.nan))
    batch = np.random.default_rng(1).random((6, 1, 32, 32)).astype(np.float32)
    with pytest.raises(TrainingError, match="non-finite loss"):
        training.train_step(model, opt, batch, "corrected")
    for name, p in model.params.items():
        assert p.grad is None, name
        assert np.array_equal(p.data, before[name]), name


def test_train_step_refuses_any_loss_but_corrected():
    model = init_model(ModelConfig(input_size=32), seed=0)
    opt = SGD(model.parameters(), lr=0.1, momentum=0.9)
    before = {n: p.data.copy() for n, p in model.params.items()}
    batch = np.random.default_rng(1).random((6, 1, 32, 32)).astype(np.float32)
    for mode in ("literal", "fixed"):
        with pytest.raises(ConfigError, match=f"^unknown loss mode '{mode}'; the LT loss is 'corrected'$"):
            training.train_step(model, opt, batch, mode)
    for name, p in model.params.items():
        assert p.grad is None, name
        assert np.array_equal(p.data, before[name]), name


def test_train_stops_on_nan_weight_in_resumed_model(tmp_path, monkeypatch):
    data = tmp_path / "data"
    argv = ["gen-data", "--synthetic", "--out", str(data), "--pairs", "1", "--triplets", "4",
            "--seed", "3", "--set", "input_size=32", "--set", "synth_size=256"]
    assert cli.main(argv) == 0
    cfg = RunConfig(input_size=32, batch_size=2, epochs=1, checkpoint_every=0, seed=3).validate()
    first = tmp_path / "first.ckpt"
    training.train(cfg, data, first, echo=False)

    # loading refuses a checkpoint with a NaN weight by name (test_checkpoint.py),
    # so the NaN enters the model once it is loaded
    def poisoned(ckpt):
        model = model_from_checkpoint(ckpt)
        model.params["stage2.block1.ffn.fc1.weight"].data[0, 0] = np.nan
        return model

    monkeypatch.setattr(training, "model_from_checkpoint", poisoned)
    cfg.epochs = 2
    out = tmp_path / "resumed.ckpt"
    with pytest.raises(TrainingError, match="epoch 2 step 3"):
        training.train(cfg, data, out, resume=first, echo=False)
    assert not out.exists()


def test_a_resumed_checkpoint_is_freed_before_the_first_step(tmp_path, monkeypatch):
    # the model holds copies of the checkpoint's blobs, so the run keeps no second set
    data = tmp_path / "data"
    argv = ["gen-data", "--synthetic", "--out", str(data), "--pairs", "1", "--triplets", "4",
            "--seed", "3", "--set", "input_size=32", "--set", "synth_size=256"]
    assert cli.main(argv) == 0
    cfg = RunConfig(input_size=32, batch_size=2, epochs=1, checkpoint_every=0, seed=3).validate()
    first = tmp_path / "first.ckpt"
    training.train(cfg, data, first, echo=False)

    loaded, alive = [], []

    def load(path, _load=training.load_checkpoint):
        ckpt = _load(path)
        loaded.append(weakref.ref(ckpt))
        return ckpt

    def step(*args, _step=training.train_step):
        alive.append(loaded[0]() is not None)
        return _step(*args)

    monkeypatch.setattr(training, "load_checkpoint", load)
    monkeypatch.setattr(training, "train_step", step)
    cfg.epochs = 2
    training.train(cfg, data, tmp_path / "resumed.ckpt", resume=first, echo=False)
    assert len(loaded) == 1 and alive == [False, False]


@pytest.mark.parametrize("epochs", [1, 2])
def test_resume_at_or_past_the_requested_epochs_raises_before_writing(tmp_path, epochs):
    data = tmp_path / "data"
    argv = ["gen-data", "--synthetic", "--out", str(data), "--pairs", "1", "--triplets", "4",
            "--seed", "3", "--set", "input_size=32", "--set", "synth_size=256"]
    assert cli.main(argv) == 0
    cfg = RunConfig(input_size=32, batch_size=2, epochs=2, checkpoint_every=0, seed=3).validate()
    first = tmp_path / "first.ckpt"
    training.train(cfg, data, first, echo=False)

    cfg.epochs = epochs
    out_dir = tmp_path / "resumed"
    out_dir.mkdir()
    with pytest.raises(ConfigError, match=f"sets epochs={epochs} but the checkpoint .* at epoch 2,"):
        training.train(cfg, data, out_dir / "model.ckpt", resume=first, log_path=out_dir / "log.tsv", echo=False)
    assert not list(out_dir.iterdir())


def test_train_reads_each_pair_image_once(tmp_path, monkeypatch):
    data = tmp_path / "data"
    argv = ["gen-data", "--synthetic", "--out", str(data), "--pairs", "2", "--triplets", "4",
            "--seed", "3", "--set", "input_size=32", "--set", "synth_size=256"]
    assert cli.main(argv) == 0
    reads = []
    real_load = dataset.load_image
    monkeypatch.setattr(dataset, "load_image", lambda path: reads.append(path) or real_load(path))
    cfg = RunConfig(input_size=32, batch_size=4, epochs=1, checkpoint_every=0, seed=3).validate()
    training.train(cfg, data, tmp_path / "model.ckpt", echo=False)
    assert len(reads) == 4  # two pairs, a visible and a NIR image each
    assert len(set(reads)) == 4


@pytest.fixture(scope="module")
def data_48(tmp_path_factory):
    """A 32 px dataset made with window 48 and CLAHE clip 3.0 on a 4x4 grid."""
    data = tmp_path_factory.mktemp("data48")
    argv = ["gen-data", "--synthetic", "--out", str(data), "--pairs", "1", "--triplets", "4",
            "--seed", "3", "--set", "input_size=32", "--set", "synth_size=256",
            "--set", "window=48", "--set", "clahe_clip=3.0", "--set", "clahe_grid=4"]
    assert cli.main(argv) == 0
    return data


MADE_WITH = dict(input_size=32, window=48, clahe_clip=3.0, clahe_grid=4)


@pytest.mark.parametrize(
    "settings, source",
    [(MANIFEST_SETTINGS, dataset.DatasetManifest), (MODEL_SETTINGS, ModelConfig)],
    ids=["manifest", "model"],
)
def test_fixed_settings_name_fields_of_the_run_config_and_of_their_source(settings, source):
    # a renamed field would otherwise drop out of the agreement check unseen
    assert settings.names
    assert set(settings.names) <= {f.name for f in dataclasses.fields(RunConfig)}
    assert set(settings.names.values()) <= {f.name for f in dataclasses.fields(source)}


@pytest.mark.parametrize(
    "field, value, made",
    [("window", 64, "window=48"), ("input_size", 64, "out_size=32"),
     ("clahe_clip", 2.0, "clahe_clip=3.0"), ("clahe_grid", 8, "clahe_grid=4")],
)
def test_train_refuses_settings_the_dataset_was_not_made_with(data_48, tmp_path, field, value, made):
    cfg = RunConfig(**{**MADE_WITH, field: value}, batch_size=2, epochs=1, checkpoint_every=0)
    with pytest.raises(ConfigError, match=f"sets {field}={value} but the manifest was built with {made}"):
        training.train(cfg.validate(), data_48, tmp_path / "model.ckpt", echo=False)
    assert not list(tmp_path.iterdir())


def test_checkpoint_records_the_settings_the_dataset_was_made_with(data_48, tmp_path):
    out = tmp_path / "model.ckpt"
    argv = ["train", "--data", str(data_48), "--out", str(out), "--set", "batch_size=2",
            "--set", "epochs=1"] + [arg for k, v in MADE_WITH.items() for arg in ("--set", f"{k}={v}")]
    assert cli.main(argv) == 0
    run = load_checkpoint(out).run
    assert {k: getattr(run, k) for k in MADE_WITH} == MADE_WITH


def test_train_command_takes_the_dataset_settings_from_its_manifest(data_48, tmp_path):
    out = tmp_path / "model.ckpt"
    argv = ["train", "--data", str(data_48), "--out", str(out), "--set", "batch_size=2", "--set", "epochs=1"]
    assert cli.main(argv) == 0
    run = load_checkpoint(out).run
    assert {k: getattr(run, k) for k in MADE_WITH} == MADE_WITH


@pytest.mark.parametrize(
    "setting, made",
    [("window=64", "window=48"), ("input_size=64", "out_size=32"),
     ("clahe_clip=2.0", "clahe_clip=3.0"), ("clahe_grid=8", "clahe_grid=4")],
)
def test_train_command_refuses_a_setting_the_dataset_was_not_made_with(data_48, tmp_path, capsys, setting, made):
    argv = ["train", "--data", str(data_48), "--out", str(tmp_path / "model.ckpt"),
            "--set", "batch_size=2", "--set", "epochs=1", "--set", setting]
    assert cli.main(argv) == 1
    assert f"sets {setting} but the manifest was built with {made}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_an_interim_checkpoint_resumes_into_the_straight_runs_final_checkpoint(data_48, tmp_path):
    # at momentum 0, because a resume restarts SGD's velocity at zero
    straight, resumed = tmp_path / "m.ckpt", tmp_path / "r.ckpt"
    argv = ["train", "--data", str(data_48), "--out", str(straight), "--set", "batch_size=2",
            "--set", "epochs=3", "--set", "checkpoint_every=2", "--set", "momentum=0"]
    assert cli.main(argv) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt", "m.ep2", "m.log.tsv"]
    interim = load_checkpoint(tmp_path / "m.ep2")
    assert (interim.epoch, interim.step) == (2, 4)  # two steps of 2 triplets in each epoch
    assert cli.main(["train", "--data", str(data_48), "--out", str(resumed),
                     "--resume", str(tmp_path / "m.ep2")]) == 0
    assert resumed.read_bytes() == straight.read_bytes()


@pytest.mark.parametrize("pairs", [["a"], ["a", "b"]], ids=["one-pair", "two-pairs"])
def test_select_records_names_an_unknown_subset(pairs):
    # the name is checked before the split, which refuses a one-pair manifest
    manifest = dataset.DatasetManifest(seed=1, pairs=pairs)
    with pytest.raises(ConfigError, match="^unknown subset 'test'; expected train, val or all$"):
        training.select_records(manifest, RunConfig(split_ratio=0.5), "test")


def test_triplet_source_names_a_pair_it_was_not_given(data_48):
    manifest = dataset.load_manifest(data_48)
    with pytest.raises(DatasetError, match=f"^manifest references unknown pair {manifest.pairs[0]}$"):
        training.TripletSource({}, manifest)
