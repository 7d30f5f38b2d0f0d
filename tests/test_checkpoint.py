"""Checkpoints round-trip byte for byte; every malformed file names itself."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from litematch import checkpoint, model
from litematch.checkpoint import build_checkpoint, load_checkpoint, save_checkpoint
from litematch.config import RunConfig
from litematch.errors import ContractError
from litematch.model import ModelConfig, init_model


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


def test_truncated_anywhere_raises_contract_error(saved):
    folder, buf = saved
    end = _header_end(buf)
    # every cut inside the header, then cuts spread over the blob data
    cuts = list(range(0, end + 8)) + np.linspace(end + 8, len(buf) - 1, 60).astype(int).tolist()
    for cut in cuts:
        _assert_rejected(folder, buf[:cut])


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

    def refuse(config):
        raise AssertionError("describe_shapes called for a checkpoint with the wrong blob count")

    monkeypatch.setattr(checkpoint, "describe_shapes", refuse)
    monkeypatch.setattr(model, "describe_shapes", refuse)
    start = buf.index(b"\nstages=") + len(b"\nstages=")
    stop = buf.index(b";", start)
    first = buf[start:stop].split(b",")
    huge = b",".join(first[:-1] + [str(10**9).encode()])
    _assert_rejected(folder, buf[:start] + huge + buf[stop:])


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
        load_checkpoint(path)
    except ContractError as exc:
        assert str(path) in str(exc)
