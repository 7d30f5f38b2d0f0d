"""Checkpoints round-trip byte for byte; every malformed file names itself."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from litematch import checkpoint, cli
from litematch.checkpoint import (
    build_checkpoint,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
)
from litematch.config import RunConfig
from litematch.errors import ConfigError, ContractError
from litematch.image import GrayImage, save_pgm
from litematch.model import ModelConfig, describe_shapes, forward, init_model
from litematch.tensor import Tensor


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """(directory, bytes of a valid checkpoint of a 32 px model)."""
    folder = tmp_path_factory.mktemp("ckpt")
    model = init_model(ModelConfig(input_size=32), seed=0)
    path = folder / "valid.ckpt"
    save_checkpoint(path, build_checkpoint(model, RunConfig(input_size=32), 7, 2, 0.25))
    return folder, path.read_bytes()


def _header_end(buf: bytes) -> int:
    """Offset of the first blob's data: metadata, the blobs line and one header."""
    blobs_line = buf.index(b"\nblobs ") + 1
    first_header = buf.index(b"\n", blobs_line) + 1
    return buf.index(b"\n", first_header) + 1


def _assert_rejected(folder, data: bytes, name: str = "bad.ckpt"):
    path = folder / name
    path.write_bytes(data)
    with pytest.raises(ContractError) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


def test_round_trip_byte_for_byte(saved):
    folder, buf = saved
    again = folder / "again.ckpt"
    save_checkpoint(again, load_checkpoint(folder / "valid.ckpt"))
    assert again.read_bytes() == buf


@pytest.mark.parametrize(
    "run, message",
    [(RunConfig(), "sets input_size=128 but the checkpoint's model has input_size=32"),
     (RunConfig(input_size=32, descriptor_dim=256), "sets descriptor_dim=256 but the checkpoint's model has descriptor_dim=128")],
)
def test_build_checkpoint_refuses_a_run_config_the_model_disagrees_with(tmp_path, run, message):
    # loading would refuse the file, so none is written
    model = init_model(ModelConfig(input_size=32), seed=0)
    with pytest.raises(ConfigError, match=message):
        save_checkpoint(tmp_path / "m.ckpt", build_checkpoint(model, run, 0, 0, 0.0))
    assert not list(tmp_path.iterdir())


def test_truncated_anywhere_raises_contract_error(saved):
    folder, buf = saved
    end = _header_end(buf)
    # every cut inside the header, then cuts spread over the blob data
    cuts = list(range(0, end + 8)) + np.linspace(end + 8, len(buf) - 1, 60).astype(int).tolist()
    for cut in cuts:
        _assert_rejected(folder, buf[:cut])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_weight_raises_contract_error_naming_it(saved, value):
    folder, _ = saved
    ckpt = load_checkpoint(folder / "valid.ckpt")
    ckpt.blobs["head.bias"][-1] = value
    path = folder / "bad.ckpt"
    save_checkpoint(path, ckpt)
    with pytest.raises(ContractError, match="blob head.bias holds a non-finite value") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("extra", [b"\0", b"\0" * 4, b"head.bias 1 128\n"])
def test_bytes_after_the_last_blob_raise_contract_error(saved, extra):
    folder, buf = saved
    _assert_rejected(folder, buf + extra)


@pytest.mark.parametrize("count", [b"x", b"", b"2.5", b"-1", b"3", b"999999999"])
def test_corrupt_blob_count_raises_contract_error(saved, count):
    folder, buf = saved
    start = buf.index(b"\nblobs ") + len(b"\nblobs ")
    stop = buf.index(b"\n", start)
    _assert_rejected(folder, buf[:start] + count + buf[stop:])


@pytest.mark.parametrize("header", [b"w 2 16", b"w x 16 1", b"w 1 -4", b"w", b"w 1 1e3"])
def test_corrupt_blob_header_raises_contract_error(saved, header):
    folder, buf = saved
    end = _header_end(buf)
    start = buf.rindex(b"\n", 0, end - 1) + 1
    _assert_rejected(folder, buf[:start] + header + buf[end - 1 :])


def test_huge_stage_depth_rejected_before_building_shape_table(saved, monkeypatch):
    folder, buf = saved
    n_blobs = len(load_checkpoint(folder / "valid.ckpt").blobs)
    walked = []
    real_walk = checkpoint.describe_shapes

    def counted_walk(config):
        for item in real_walk(config):
            walked.append(item)
            yield item

    monkeypatch.setattr(checkpoint, "describe_shapes", counted_walk)
    start = buf.index(b"\nstages=") + len(b"\nstages=")
    stop = buf.index(b";", start)
    first = buf[start:stop].split(b",")
    huge = b",".join(first[:-1] + [str(10**9).encode()])
    _assert_rejected(folder, buf[:start] + huge + buf[stop:])
    assert 0 < len(walked) <= n_blobs + 1


def _edit_meta(buf: bytes, key: str, line: "bytes | None") -> bytes:
    """``buf`` with the metadata line of ``key`` replaced by ``line``, or removed
    when ``line`` is None; a key the file lacks is added after the magic line."""
    start = buf.find(b"\n" + key.encode() + b"=") + 1
    if start == 0:
        start = stop = buf.index(b"\n") + 1
    else:
        stop = buf.index(b"\n", start) + 1
    return buf[:start] + (b"" if line is None else line + b"\n") + buf[stop:]


BAD_METADATA = [
    ("epoch", b"epoch=x"),
    ("epoch", None),
    ("step", b"step=1.5"),
    ("final_loss", b"final_loss=abc"),
    ("run.lr", b"run.lr=abc"),
    ("run.lr", b"run.lr=nan"),
    ("run.bogus", b"run.bogus=1"),
    ("run.batch_size", b"run.batch_size=0"),
    ("run.input_size", b"run.input_size=64"),
    ("format_version", b"format_version=2"),
    ("stages", b"stages=4,16,8,1,8,2"),
    # stage 1 at 8 heads of width 2, which ModelConfig refuses
    ("stages", b"stages=4,16,8,8,8,2;2,32,4,2,8,2;2,64,2,4,4,2;2,128,1,8,8,2"),
]
BAD_METADATA_IDS = [(line or b"no-" + key.encode()).decode() for key, line in BAD_METADATA]


@pytest.mark.parametrize("key, line", BAD_METADATA, ids=BAD_METADATA_IDS)
def test_bad_metadata_value_raises_contract_error(saved, key, line):
    folder, buf = saved
    _assert_rejected(folder, _edit_meta(buf, key, line))


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A 32 px dataset and an image for the commands that read a checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    argv = ["gen-data", "--synthetic", "--out", str(root / "data"), "--pairs", "1",
            "--triplets", "4", "--set", "input_size=32", "--set", "synth_size=256"]
    assert cli.main(argv) == 0
    save_pgm(GrayImage(np.full((64, 64), 128, dtype=np.uint8)), root / "a.pgm")
    return root


@pytest.mark.parametrize("command", ["train", "match"])
@pytest.mark.parametrize("key, line", BAD_METADATA[:2], ids=BAD_METADATA_IDS[:2])
def test_commands_name_a_bad_checkpoint(saved, cli_inputs, tmp_path, capsys, command, key, line):
    _, buf = saved
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_edit_meta(buf, key, line))
    out = tmp_path / "out"
    argv = {
        "train": ["train", "--data", str(cli_inputs / "data"), "--out", str(out), "--resume", str(bad),
                  "--set", "input_size=32", "--set", "batch_size=2", "--set", "epochs=3"],
        "match": ["match", str(bad), str(cli_inputs / "a.pgm"), str(cli_inputs / "a.pgm"), str(out)],
    }[command]
    assert cli.main(argv) == 1
    assert f"error: {bad}: malformed checkpoint" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [bad]


def test_file_with_an_input_channels_line_loads_the_same(saved):
    # files written while the model config had an input_channels field carry
    # this line; it loads to the same values and is not written back
    folder, buf = saved
    legacy, resaved = folder / "legacy.ckpt", folder / "resaved.ckpt"
    legacy.write_bytes(buf.replace(b"\ndescriptor_dim=", b"\ninput_channels=1\ndescriptor_dim=", 1))
    ckpt = load_checkpoint(legacy)
    assert ckpt.run == load_checkpoint(folder / "valid.ckpt").run
    save_checkpoint(resaved, ckpt)
    assert resaved.read_bytes() == buf


@pytest.mark.parametrize("loss_mode, use", [(b"corrected", b"True"), (b"literal", b"False")])
def test_file_with_the_retired_run_lines_loads_the_same(saved, loss_mode, use):
    # files written while RunConfig had loss_mode and the three transform
    # switches carry these lines where the fields stood; they load to the same
    # values whatever they say and are not written back
    folder, buf = saved
    legacy, resaved = folder / "legacy.ckpt", folder / "resaved.ckpt"
    switches = b"".join(b"\nrun.use_%s=%s" % (kind, use) for kind in (b"scale", b"rotate", b"translate"))
    old_format = buf.replace(b"\nrun.triplets=", b"\nrun.loss_mode=" + loss_mode + b"\nrun.triplets=", 1)
    old_format = old_format.replace(b"\nrun.split_ratio=", switches + b"\nrun.split_ratio=", 1)
    assert old_format.count(b"\nrun.") == buf.count(b"\nrun.") + 4
    legacy.write_bytes(old_format)
    ckpt = load_checkpoint(legacy)
    assert ckpt.run == load_checkpoint(folder / "valid.ckpt").run
    save_checkpoint(resaved, ckpt)
    assert resaved.read_bytes() == buf


def test_walk_init_and_blob_orders_agree(saved):
    folder, _ = saved
    ckpt = load_checkpoint(folder / "valid.ckpt")
    walk = list(describe_shapes(ckpt.config))
    assert [(n, p.shape) for n, p in init_model(ckpt.config, seed=3).params.items()] == walk
    assert [(n, a.shape) for n, a in ckpt.blobs.items()] == walk


def test_run_values_saved_in_the_canonical_form_of_their_type(tmp_path):
    model = init_model(ModelConfig(input_size=32), seed=0)
    run = RunConfig(input_size=32, eps=5, lr=1, momentum=0, mutual=0)
    path, again = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(path, build_checkpoint(model, run, 3, 1, 2))
    buf = path.read_bytes()
    for line in (b"run.eps=5.0", b"run.lr=1.0", b"run.momentum=0.0", b"run.mutual=False",
                 b"final_loss=2.0"):
        assert b"\n" + line + b"\n" in buf
    save_checkpoint(again, load_checkpoint(path))
    assert again.read_bytes() == buf


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_header_loads_or_raises_contract_error(saved, data):
    folder, buf = saved
    end = _header_end(buf)
    edits = data.draw(
        st.lists(st.tuples(st.integers(0, end - 1), st.binary(max_size=3)), min_size=1, max_size=4)
    )
    mutated = bytearray(buf)
    for at, replacement in sorted(edits, reverse=True):
        mutated[at : at + 1] = replacement
    path = folder / "fuzzed.ckpt"
    path.write_bytes(bytes(mutated))
    try:
        ckpt = load_checkpoint(path)
    except ContractError as exc:
        assert str(path) in str(exc)
        return
    assert isinstance(ckpt.step, int) and isinstance(ckpt.epoch, int)
    assert isinstance(ckpt.final_loss, float) and isinstance(ckpt.run, RunConfig)
    assert ckpt.run.validate() is ckpt.run
    model = model_from_checkpoint(ckpt)
    assert model.config == ckpt.config
    assert [(n, p.shape) for n, p in model.params.items()] == list(describe_shapes(ckpt.config))
    size = model.config.input_size
    if size <= 128:  # a fuzzed size of thousands of px would need gigabytes
        patch = np.random.default_rng(0).random((1, 1, size, size), dtype=np.float32)
        out = forward(model, Tensor(patch))
        assert out.shape == (1, model.config.descriptor_dim)
    # what loads re-saves to a file that loads to the same values
    resaved = folder / "resaved.ckpt"
    save_checkpoint(resaved, ckpt)
    again = load_checkpoint(resaved)
    assert (again.config, again.run, again.step, again.epoch) == (
        ckpt.config, ckpt.run, ckpt.step, ckpt.epoch
    )
    assert repr(again.final_loss) == repr(ckpt.final_loss)
