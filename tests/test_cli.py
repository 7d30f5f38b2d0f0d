"""The command line: one validated config path, no import-time side effects."""

import ast
import dataclasses
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import litematch
from litematch import cli, dataset
from litematch.checkpoint import RETIRED_RUN_KEYS, build_checkpoint, load_checkpoint, save_checkpoint
from litematch.config import RunConfig, apply_overrides
from litematch.dataset import DatasetManifest, load_manifest, split
from litematch.errors import ConfigError
from litematch.image import GrayImage, save_pgm
from litematch.model import DEFAULT_STAGES, ModelConfig, init_model
from litematch.training import model_config_for

GREEN, RED, BLUE = (0, 220, 0), (230, 0, 0), (40, 120, 255)


def _textured(height, width, seed=5):
    cells = np.random.default_rng(seed).random((height // 4 + 1, width // 4 + 1)) * 255
    return GrayImage(np.kron(cells, np.ones((4, 4)))[:height, :width].astype(np.uint8))


def _read_ppm(path):
    magic, size, maxval, body = Path(path).read_bytes().split(b"\n", 3)
    assert (magic, maxval) == (b"P6", b"255")
    width, height = map(int, size.split())
    return np.frombuffer(body, dtype=np.uint8).reshape(height, width, 3)


def _count(img, color):
    return int((img == color).all(axis=-1).sum())


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A 32 px, 128-d checkpoint, a textured image, its gamma remap, a smaller
    image and a 32 px dataset."""
    root = tmp_path_factory.mktemp("cli")
    cfg = RunConfig(input_size=32).validate()
    save_checkpoint(root / "m.ckpt", build_checkpoint(init_model(model_config_for(cfg), seed=0), cfg, 0, 0, 0.0))
    img_a = _textured(256, 256)
    save_pgm(img_a, root / "a.pgm")
    save_pgm(GrayImage((255.0 * (img_a.pixels / 255.0) ** 0.8).astype(np.uint8)), root / "b.pgm")
    save_pgm(_textured(200, 240, seed=9), root / "c.pgm")
    argv = ["gen-data", "--synthetic", "--out", str(root / "data"), "--pairs", "1", "--triplets", "4",
            "--set", "input_size=32", "--set", "synth_size=256"]
    assert cli.main(argv) == 0
    return root


@pytest.fixture(scope="module")
def three_pairs(tmp_path_factory):
    """A 32 px dataset of 5 triplets over 3 synthetic pairs."""
    data = tmp_path_factory.mktemp("three") / "data"
    argv = ["gen-data", "--synthetic", "--out", str(data), "--pairs", "3", "--triplets", "5",
            "--set", "input_size=32", "--set", "synth_size=256"]
    assert cli.main(argv) == 0
    return data


def test_importing_every_module_leaves_the_environment_unchanged():
    code = (
        "import importlib, os, pkgutil, sys\n"
        "before = dict(os.environ)\n"
        "import litematch\n"
        "for info in pkgutil.iter_modules(litematch.__path__):\n"
        "    importlib.import_module(f'litematch.{info.name}')\n"
        "assert 'litematch.cli' in sys.modules\n"
        "after = dict(os.environ)\n"
        "print(sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k)))\n"
    )
    src = str(Path(litematch.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = src
    proc = subprocess.run(
        [sys.executable, "-c", code, "--threads", "3"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--pairs", "0"], "pairs must be at least 1, got 0"),
        (["--set", "pairs=0"], "pairs must be at least 1, got 0"),
        (["--triplets", "0"], "triplets must be at least 1, got 0"),
        (["--set", "pairs"], "--set expects KEY=VALUE, got 'pairs'"),
        (["--set", "momentum=1"], "momentum must lie in [0, 1), got 1.0"),
        (["--set", "split_ratio=1"], "split_ratio must lie in (0, 1)"),
    ],
    ids=["pairs-flag", "pairs-set", "triplets-flag", "set-without-equals", "momentum-1", "split_ratio-1"],
)
def test_gen_data_validates_every_flag(tmp_path, capsys, flags, message):
    out = tmp_path / "data"
    assert cli.main(["gen-data", "--synthetic", "--out", str(out)] + flags) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_a_config_line_without_equals_is_named_by_file_and_line(tmp_path, capsys):
    path, out = tmp_path / "run.cfg", tmp_path / "data"
    path.write_text("# patch size\n\ninput_size 32\n")
    assert cli.main(["gen-data", "--synthetic", "--out", str(out), "--config", str(path)]) == 1
    assert f"error: {path}:3: expected key=value, got 'input_size 32'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("setting", ["input_size=0", "input_size=-8", "window=0", "window=-4", "window=1"])
def test_gen_data_refuses_sizes_the_sampler_cannot_take(tmp_path, capsys, setting):
    out = tmp_path / "data"
    assert cli.main(["gen-data", "--synthetic", "--out", str(out), "--set", setting]) == 1
    key, value = setting.split("=")
    assert f"error: {key} must be at least 2, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "setting, message",
    [
        ("input_size=48", "input_size 48 must be divisible by 32"),
        ("descriptor_dim=96", "descriptor_dim must be one of (64, 128, 256), got 96"),
    ],
    ids=["input_size", "descriptor_dim"],
)
def test_gen_data_refuses_settings_no_model_can_train_on(tmp_path, capsys, setting, message):
    out = tmp_path / "data"
    argv = ["gen-data", "--synthetic", "--out", str(out), "--pairs", "1", "--triplets", "2",
            "--set", "synth_size=256", "--set", setting]
    assert cli.main(argv) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["synthetic", "from-pairs"])
def test_gen_data_refuses_fewer_triplets_than_pairs(files, tmp_path, capsys, source):
    if source == "synthetic":
        argv = ["gen-data", "--synthetic", "--pairs", "3"]
    else:
        pairs = tmp_path / "pairs"
        pairs.mkdir()
        for name in ("p0", "p1", "p2"):
            for side in ("vis", "nir"):
                (pairs / f"{name}_{side}.pgm").write_bytes((files / "a.pgm").read_bytes())
        argv = ["gen-data", "--from-pairs", str(pairs)]
    out = tmp_path / "data"
    argv += ["--out", str(out), "--triplets", "2", "--set", "input_size=32", "--set", "synth_size=256"]
    assert cli.main(argv) == 1
    assert "error: triplets=2 is fewer than the 3 pairs" in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_from_pairs_refuses_a_pair_count(files, tmp_path, capsys):
    out = tmp_path / "data"
    argv = ["gen-data", "--from-pairs", str(files / "data" / "pairs"), "--out", str(out), "--pairs", "7"]
    assert cli.main(argv) == 1
    assert "error: --pairs applies to --synthetic" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(SystemExit):
        cli.main(["gen-data", "--help"])
    assert "with --from-pairs the directory decides the count" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("route", ["set", "config"])
def test_gen_data_from_pairs_refuses_a_pair_count_setting(files, tmp_path, capsys, route):
    out = tmp_path / "data"
    argv = ["gen-data", "--from-pairs", str(files / "data" / "pairs"), "--out", str(out), "--triplets", "4"]
    (tmp_path / "run.cfg").write_text("pairs=7\n")
    setting = ["--set", "pairs=7"] if route == "set" else ["--config", str(tmp_path / "run.cfg")]
    assert cli.main(argv + setting) == 1
    assert "applies to --synthetic (got pairs=7)" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(argv) == 0  # the directory's one pair
    assert f"wrote 1 pairs, 4 triplet records to {out}" in capsys.readouterr().out


@pytest.mark.parametrize("source", [[], ["--synthetic", "--from-pairs", "x"]], ids=["neither", "both"])
def test_gen_data_needs_exactly_one_pair_source(tmp_path, source):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen-data", "--out", str(tmp_path / "data")] + source)
    assert exc.value.code == 2


def test_threads_flag_is_gone(files):
    with pytest.raises(SystemExit) as exc:
        cli.main(["match", "--threads", "2", str(files / "m.ckpt"), str(files / "a.pgm"),
                  str(files / "b.pgm"), str(files / "out")])
    assert exc.value.code == 2


def test_match_annotates_images_of_different_sizes(files, tmp_path):
    out = tmp_path / "pair"
    argv = ["match", str(files / "m.ckpt"), str(files / "a.pgm"), str(files / "c.pgm"), str(out)]
    assert cli.main(argv) == 0
    composite = _read_ppm(out.with_suffix(".matches.ppm"))
    assert composite.shape == (256, 496, 3)
    rows = out.with_suffix(".matches.tsv").read_text().splitlines()[1:]
    assert all(row.endswith("\t-1") for row in rows)


def test_match_appends_its_suffixes_to_a_dotted_prefix(files, tmp_path, capsys):
    for version, other in (("v1", "b.pgm"), ("v2", "c.pgm")):
        prefix = tmp_path / "out" / f"run.{version}"
        argv = ["match", str(files / "m.ckpt"), str(files / "a.pgm"), str(files / other), str(prefix)]
        assert cli.main(argv) == 0
        assert f"outputs at {prefix}.matches.*" in capsys.readouterr().out
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == [
        f"run.{v}.matches.{ext}" for v in ("v1", "v2") for ext in ("ppm", "tsv")
    ]
    # each composite shows its own pair: b.pgm is 256 px wide, c.pgm 240
    assert _read_ppm(out / "run.v1.matches.ppm").shape == (256, 512, 3)
    assert _read_ppm(out / "run.v2.matches.ppm").shape == (256, 496, 3)


def test_match_colours_correctness_only_under_ground_truth(files, tmp_path):
    images = {}
    for name, extra in (("plain", []), ("scored", ["--gt-identity"])):
        out = tmp_path / name
        argv = ["match", str(files / "m.ckpt"), str(files / "a.pgm"), str(files / "b.pgm"),
                str(out), "--set", "threshold=1.0"] + extra
        assert cli.main(argv) == 0
        images[name] = _read_ppm(out.with_suffix(".matches.ppm"))
    plain, scored = images["plain"], images["scored"]
    assert _count(plain, GREEN) == _count(plain, RED) == _count(scored, BLUE) == 0
    assert _count(scored, GREEN) > 0 and _count(scored, RED) > 0
    # the same segments, only their colour differs
    drawn = (scored == GREEN).all(axis=-1) | (scored == RED).all(axis=-1)
    assert np.array_equal((plain == BLUE).all(axis=-1), drawn)


@pytest.mark.parametrize(
    "command, setting, held",
    [
        ("match", "descriptor_dim=64", "descriptor_dim=128"),
        ("match", "input_size=64", "input_size=32"),
        ("evaluate", "descriptor_dim=256", "descriptor_dim=128"),
        ("evaluate", "input_size=64", "input_size=32"),
        ("train", "descriptor_dim=64", "descriptor_dim=128"),
    ],
)
def test_model_overrides_must_match_the_checkpoint(files, tmp_path, capsys, command, setting, held):
    ckpt = str(files / "m.ckpt")
    argv = {
        "match": ["match", ckpt, str(files / "a.pgm"), str(files / "b.pgm"), str(tmp_path / "out")],
        "evaluate": ["evaluate", ckpt, "--data", str(tmp_path / "absent")],
        "train": ["train", "--data", str(files / "data"), "--out", str(tmp_path / "out.ckpt"),
                  "--resume", ckpt, "--set", "input_size=32", "--set", "batch_size=2"],
    }[command]
    assert cli.main(argv + ["--set", setting]) == 1
    err = capsys.readouterr().err
    assert f"sets {setting} but the checkpoint's model has {held}" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["match", "evaluate", "train"])
def test_a_lighter_checkpoint_runs_every_command(files, tmp_path, command):
    # a model's layout is its checkpoint's, not a run setting: depth 1 in every
    # stage loads where the run config agrees with the model's size and width
    stages = tuple(dataclasses.replace(s, depth=1) for s in DEFAULT_STAGES)
    model = init_model(ModelConfig(stages=stages, input_size=32), seed=0)
    ckpt = tmp_path / "light.ckpt"
    save_checkpoint(ckpt, build_checkpoint(model, RunConfig(input_size=32), 0, 0, 0.0))
    out = tmp_path / "out"
    argv = {
        "match": ["match", str(ckpt), str(files / "a.pgm"), str(files / "b.pgm"), str(out)],
        "evaluate": ["evaluate", str(ckpt), "--data", str(files / "data"), "--subset", "all"],
        "train": ["train", "--data", str(files / "data"), "--out", str(out), "--resume", str(ckpt),
                  "--set", "batch_size=2", "--set", "epochs=1"],
    }[command]
    assert cli.main(argv) == 0
    if command == "train":
        assert load_checkpoint(out).config.stages == stages


@pytest.mark.parametrize("command", ["match", "evaluate", "train"])
def test_a_non_finite_weight_is_refused_by_file_and_parameter(files, tmp_path, capsys, command):
    # past loading, the NaN would first show in a descriptor's norm, whose
    # error names neither the file nor the weight
    ckpt = load_checkpoint(files / "m.ckpt")
    ckpt.blobs["stage2.block1.ffn.fc1.weight"][3, 5] = np.nan
    path = tmp_path / "nan.ckpt"
    save_checkpoint(path, ckpt)
    out = tmp_path / "out"
    argv = {
        "match": ["match", str(path), str(files / "a.pgm"), str(files / "b.pgm"), str(out)],
        "evaluate": ["evaluate", str(path), "--data", str(files / "data"), "--subset", "all"],
        "train": ["train", "--data", str(files / "data"), "--out", str(out), "--resume", str(path),
                  "--set", "batch_size=2", "--set", "epochs=1"],
    }[command]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "blob stage2.block1.ffn.fc1.weight holds a non-finite value" in err
    assert sorted(tmp_path.iterdir()) == [path]


def test_retired_run_keys_are_unknown_config_keys(tmp_path, capsys):
    # only checkpoint loading skips them; a config file or --set names them as unknown
    assert set(RETIRED_RUN_KEYS) == {"loss_mode", "use_scale", "use_rotate", "use_translate"}
    for key in RETIRED_RUN_KEYS:
        with pytest.raises(ConfigError, match=f"^unknown config key '{key}'$"):
            apply_overrides(RunConfig(), {key: "1"})
    out = tmp_path / "data"
    assert cli.main(["gen-data", "--synthetic", "--out", str(out), "--set", "loss_mode=literal"]) == 1
    assert "error: unknown config key 'loss_mode'" in capsys.readouterr().err
    assert not out.exists()


def test_every_run_config_field_is_read_by_library_code():
    # a field that only config.py names is a setting no run can act on
    names = set()
    for path in Path(litematch.__file__).parent.glob("*.py"):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    assert [f.name for f in dataclasses.fields(RunConfig) if f.name not in names] == []


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
@pytest.mark.parametrize("key", ["lr", "threshold", "eps"])
def test_run_config_refuses_rates_and_radii_that_are_not_positive_and_finite(key, value):
    with pytest.raises(ConfigError, match=f"^{key} must be positive and finite, got {value}$"):
        RunConfig(**{key: value}).validate()


def test_train_refuses_a_mistyped_manifest_before_its_first_epoch(files, tmp_path, capsys):
    data, out = tmp_path / "data", tmp_path / "out.ckpt"
    shutil.copytree(files / "data", data)
    doc = json.loads((data / "manifest.json").read_text())
    doc["window"] = 64.0
    (data / "manifest.json").write_text(json.dumps(doc))
    argv = ["train", "--data", str(data), "--out", str(out), "--set", "batch_size=2", "--set", "epochs=1"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: {data / 'manifest.json'}: malformed manifest" in err
    assert "epoch" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]


def test_train_resume_keeps_the_checkpoints_run_values(tmp_path):
    data, first, second, third = (tmp_path / n for n in ("data", "1.ckpt", "2.ckpt", "3.ckpt"))
    assert cli.main(["gen-data", "--synthetic", "--out", str(data), "--pairs", "1", "--triplets", "64",
                     "--set", "input_size=32", "--set", "synth_size=256"]) == 0
    assert cli.main(["train", "--data", str(data), "--out", str(first), "--seed", "3", "--set", "epochs=1",
                     "--set", "batch_size=32", "--set", "lr=0.01", "--set", "momentum=0.5"]) == 0
    assert cli.main(["train", "--data", str(data), "--out", str(second), "--resume", str(first),
                     "--set", "epochs=2"]) == 0
    ckpt = load_checkpoint(second)
    assert (ckpt.run.batch_size, ckpt.run.lr, ckpt.run.momentum, ckpt.run.seed) == (32, 0.01, 0.5, 3)
    assert (ckpt.epoch, ckpt.step) == (2, 4)  # two steps of 32 in each epoch
    # --set still overrides the resumed values
    assert cli.main(["train", "--data", str(data), "--out", str(third), "--resume", str(second),
                     "--set", "epochs=3", "--set", "lr=0.005"]) == 0
    ckpt = load_checkpoint(third)
    assert (ckpt.run.batch_size, ckpt.run.lr, ckpt.epoch, ckpt.step) == (32, 0.005, 3, 6)


@pytest.mark.parametrize("command", ["gen-data", "train"])
def test_a_negative_seed_is_refused_by_name(files, tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = {
        "gen-data": ["gen-data", "--synthetic", "--out", str(out)],
        "train": ["train", "--data", str(files / "data"), "--out", str(out)],
    }[command]
    assert cli.main(argv + ["--seed", "-1"]) == 1
    assert "error: seed must be at least 0, got -1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_train_refuses_a_manifest_with_a_negative_seed_before_splitting_it(three_pairs, tmp_path, capsys):
    data, out = tmp_path / "data", tmp_path / "out.ckpt"
    shutil.copytree(three_pairs, data)
    doc = json.loads((data / "manifest.json").read_text())
    doc["seed"] = -3
    (data / "manifest.json").write_text(json.dumps(doc))
    argv = ["train", "--data", str(data), "--out", str(out), "--subset", "train",
            "--set", "split_ratio=0.5", "--set", "batch_size=1", "--set", "epochs=1"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: {data / 'manifest.json'}: malformed manifest" in err
    assert "seed must be at least 0, got -3" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]


def test_gen_data_gives_the_remainder_of_the_triplets_to_the_first_pairs(three_pairs):
    manifest = load_manifest(three_pairs)
    assert [sum(r.pair == name for r in manifest.records) for name in manifest.pairs] == [2, 2, 1]


def test_train_and_evaluate_each_take_their_side_of_the_split(three_pairs, tmp_path, capsys):
    train_side, val_side = split(load_manifest(three_pairs), RunConfig().split_ratio)
    assert (len(train_side.pairs), len(val_side.pairs)) == (2, 1)
    ckpt = tmp_path / "m.ckpt"
    argv = ["train", "--data", str(three_pairs), "--out", str(ckpt), "--subset", "train",
            "--set", "batch_size=1", "--set", "epochs=1"]
    assert cli.main(argv) == 0
    assert load_checkpoint(ckpt).step == train_side.count  # one step per triplet at batch 1
    capsys.readouterr()
    assert cli.main(["evaluate", str(ckpt), "--data", str(three_pairs)]) == 0  # --subset val
    rows = capsys.readouterr().out.splitlines()[1:-1]  # less the header and the mean
    assert [row.split()[0] for row in rows] == val_side.pairs


def test_evaluate_reads_only_the_pairs_it_scores(files, three_pairs, tmp_path, monkeypatch, capsys):
    _, val_side = split(load_manifest(three_pairs), RunConfig().split_ratio)
    reads = []
    real_load = dataset.load_image
    monkeypatch.setattr(dataset, "load_image", lambda path: reads.append(Path(path).name) or real_load(path))
    table = tmp_path / "table.tsv"
    assert cli.main(["evaluate", str(files / "m.ckpt"), "--data", str(three_pairs), "--out", str(table)]) == 0
    (name,) = val_side.pairs
    assert reads == [f"{name}_vis.pgm", f"{name}_nir.pgm"]  # not all six images of the three pairs
    assert table.read_text() == capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, cause",
    [
        (["evaluate", "{ckpt}", "--data", "{empty}", "--subset", "all"], "no pairs selected for evaluation"),
        (["train", "--data", "{empty}", "--out", "{out}"], "no triplets selected for training"),
        (["train", "--data", "{data}", "--out", "{out}", "--set", "batch_size=5"],
         "batch_size 5 exceeds triplet count 4"),
    ],
    ids=["evaluate-no-pairs", "train-no-triplets", "train-batch-above-count"],
)
def test_a_selection_a_command_cannot_use_is_refused_by_its_cause(files, tmp_path, capsys, argv, cause):
    empty, out = tmp_path / "empty", tmp_path / "out.ckpt"
    empty.mkdir()
    (empty / "manifest.json").write_text(DatasetManifest(seed=0, out_size=32).to_json())
    paths = dict(ckpt=files / "m.ckpt", data=files / "data", empty=empty, out=out)
    assert cli.main([arg.format(**paths) for arg in argv]) == 1
    assert f"error: {cause}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty"]


def test_the_readme_session_runs_and_writes_the_files_it_names(tmp_path, monkeypatch):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## A session in seconds", 1)[1].split("\n## ", 1)[0]
    script = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    commands = [shlex.split(line) for line in script.splitlines() if line.startswith("python -m litematch.cli ")]
    assert [argv[3] for argv in commands] == ["gen-data", "train", "evaluate", "match"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[3:]) == 0, argv
    named = re.findall(r"`((?:data|run)/[^`]+)`", section)
    assert len(named) >= 5
    for pattern in named:
        assert list(tmp_path.glob(pattern)), pattern


@pytest.mark.parametrize(
    "raw, value",
    [("true", True), ("on", True), ("1", True), ("YES", True),
     ("false", False), ("off", False), ("0", False), ("no", False)],
)
def test_set_parses_every_spelling_of_a_switch(raw, value):
    args = cli.build_parser().parse_args(["evaluate", "m.ckpt", "--data", "d", "--set", f"mutual={raw}"])
    assert cli._build_config(args, RunConfig(mutual=not value)).mutual is value


def test_set_refuses_a_switch_it_cannot_read():
    with pytest.raises(ConfigError, match="^config key mutual: cannot parse 'maybe' as bool$"):
        apply_overrides(RunConfig(), {"mutual": "maybe"})
