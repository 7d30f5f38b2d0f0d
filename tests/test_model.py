"""Architecture fidelity, initialization determinism, forward contracts."""

import math
import operator
import sys
import threading
import weakref

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided

from litematch import _pool, ops
from litematch.errors import ConfigError, DimensionError
from litematch.loss import triplet_loss
from litematch.model import (
    DEFAULT_STAGES,
    ModelConfig,
    StageConfig,
    describe_shapes,
    forward,
    init_model,
)
from litematch.tensor import Tape, Tensor, backward, record

from cotangent import cotangent_dot


def small_config(descriptor_dim=128):
    return ModelConfig(input_size=32, descriptor_dim=descriptor_dim)


def walk_params(cfg):
    """Scalar parameter count the shape walk implies."""
    return sum(math.prod(shape) for _, shape in describe_shapes(cfg))


def model_params(model):
    return sum(p.size for p in model.params.values())


def test_default_config_matches_reference_table():
    cfg = ModelConfig()
    assert tuple(s.stride for s in cfg.stages) == (4, 2, 2, 2)
    assert tuple(s.channels for s in cfg.stages) == (16, 32, 64, 128)
    assert tuple(s.reduction for s in cfg.stages) == (8, 4, 2, 1)
    assert tuple(s.heads for s in cfg.stages) == (1, 2, 4, 8)
    assert tuple(s.mlp_ratio for s in cfg.stages) == (8, 8, 4, 8)
    assert tuple(s.depth for s in cfg.stages) == (2, 2, 2, 2)
    assert cfg.input_size == 128 and cfg.descriptor_dim == 128


def test_describe_shapes_stage_geometry():
    shapes = dict(describe_shapes(ModelConfig()))
    embeds = [shapes[f"stage{i}.embed.conv.weight"] for i in range(1, 5)]
    assert embeds == [(16, 1, 7, 7), (32, 16, 3, 3), (64, 32, 3, 3), (128, 64, 3, 3)]
    # keys/values reduced by 8, 4 and 2 in stages 1-3; stage 4 attends over every token
    assert [shapes.get(f"stage{i}.block1.attn.sr.weight") for i in range(1, 5)] == [
        (16, 16, 8, 8), (32, 32, 4, 4), (64, 64, 2, 2), None,
    ]
    assert shapes["head.weight"] == (128, 128)


def test_describe_shapes_input_64():
    # parameter shapes do not depend on the input size
    assert list(describe_shapes(ModelConfig(input_size=64))) == list(describe_shapes(ModelConfig()))


def test_stage1_patch_embed_weight_shape():
    m = init_model(ModelConfig(), seed=3)
    assert m.params["stage1.embed.conv.weight"].shape == (16, 1, 7, 7)


def test_init_deterministic_same_seed():
    a = init_model(small_config(), seed=11)
    b = init_model(small_config(), seed=11)
    assert a.params.keys() == b.params.keys()
    for name in a.params:
        assert np.array_equal(a.params[name].data, b.params[name].data), name
    c = init_model(small_config(), seed=12)
    assert any(
        not np.array_equal(a.params[n].data, c.params[n].data) for n in a.params
    )


def test_init_biases_zero_gains_one_weights_truncated():
    m = init_model(small_config(), seed=5)
    for name, p in m.params.items():
        if name.endswith(".gamma"):
            assert np.all(p.data == 1.0), name
        elif name.endswith((".beta", ".bias")):
            assert np.all(p.data == 0.0), name
        else:
            assert np.all(np.abs(p.data) <= 0.04 + 1e-6), name
            assert p.data.std() > 0.005, name


def test_param_count_matches_shape_table_sum():
    cfg = ModelConfig()
    assert model_params(init_model(cfg, seed=0)) == walk_params(cfg) == 1059552


@pytest.mark.parametrize("depths, reductions", [((2, 2, 2, 2), (8, 4, 2, 1)), ((1, 3, 5, 2), (1, 1, 2, 1))])
def test_count_param_tensors_matches_shape_table(depths, reductions):
    stages = tuple(
        StageConfig(
            stride=s.stride, channels=s.channels, reduction=r,
            heads=s.heads, mlp_ratio=s.mlp_ratio, depth=d,
        )
        for s, d, r in zip(DEFAULT_STAGES, depths, reductions)
    )
    names = [name for name, _ in describe_shapes(ModelConfig(stages=stages))]
    # 6 stage tensors outside the blocks, 17 per block plus 4 for a reduction, 2 for the head
    by_hand = 6 * 4 + sum(d * (17 + 4 * (r > 1)) for d, r in zip(depths, reductions)) + 2
    assert len(names) == len(set(names)) == by_hand


def test_param_count_independent_of_seed():
    assert model_params(init_model(small_config(), 1)) == model_params(init_model(small_config(), 2))


def test_param_count_below_wider_channel_variant():
    # same architecture with the wider reference channel plan {32, 64, 160, 256}
    wide_stages = tuple(
        StageConfig(
            stride=s.stride, channels=c, reduction=s.reduction,
            heads=s.heads, mlp_ratio=s.mlp_ratio, depth=s.depth,
        )
        for s, c in zip(DEFAULT_STAGES, (32, 64, 160, 256))
    )
    assert walk_params(ModelConfig()) < walk_params(ModelConfig(stages=wide_stages))


def test_descriptor_dim_changes_only_head():
    t128 = dict(describe_shapes(small_config(128)))
    t256 = dict(describe_shapes(small_config(256)))
    for name in t128:
        if name.startswith("head."):
            continue
        assert t128[name] == t256[name]
    assert t256["head.weight"][0] == 256
    diff = walk_params(small_config(256)) - walk_params(small_config(128))
    assert diff == (256 - 128) * (t128["head.weight"][1] + 1)


def test_invalid_configs_rejected():
    with pytest.raises(ConfigError):
        ModelConfig(input_size=100)  # not divisible by 32
    with pytest.raises(ConfigError):
        ModelConfig(descriptor_dim=96)
    with pytest.raises(ConfigError):
        bad = (StageConfig(4, 15, 8, 2, 8, 2),) + DEFAULT_STAGES[1:]
        ModelConfig(stages=bad)  # channels not divisible by heads


@pytest.mark.parametrize("width", [1, 2, 3, 4])
@pytest.mark.parametrize("stage", [1, 4])
def test_head_width_below_four_rejected(stage, width):
    # ops.attention is not position-invariant at head widths 1 and 2
    st = DEFAULT_STAGES[stage - 1]
    stages = list(DEFAULT_STAGES)
    stages[stage - 1] = StageConfig(st.stride, 8 * width, st.reduction, 8, st.mlp_ratio, st.depth)
    if width >= 4:
        assert ModelConfig(stages=tuple(stages)).stages[stage - 1].heads == 8
        return
    with pytest.raises(ConfigError, match=rf"^stage {stage}: head width {width} \(channels/heads\) must be at least 4$"):
        ModelConfig(stages=tuple(stages))


@pytest.mark.parametrize(
    "stage1, cause",
    [
        (StageConfig(stride=4, channels=16, reduction=8, heads=1, mlp_ratio=8, depth=0),
         "stage 1: all hyperparameters must be positive"),
        (StageConfig(stride=4, channels=16, reduction=3, heads=1, mlp_ratio=8, depth=2),
         "stage 1: spatial size 32 not divisible by reduction 3"),
    ],
    ids=["depth-0", "reduction-3"],
)
def test_a_stage_the_model_cannot_build_is_named(stage1, cause):
    with pytest.raises(ConfigError, match=f"^{cause}$"):
        ModelConfig(stages=(stage1,) + DEFAULT_STAGES[1:])


def test_forward_output_shape_and_unit_rows():
    m = init_model(ModelConfig(), seed=1)
    rng = np.random.default_rng(0)
    x = Tensor(rng.random((2, 1, 128, 128)), dtype=np.float32)
    out = forward(m, x)
    assert out.shape == (2, 128)
    np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-5)


def test_forward_descriptor_dim_64():
    m = init_model(ModelConfig(input_size=32, descriptor_dim=64), seed=1)
    x = Tensor(np.random.default_rng(1).random((3, 1, 32, 32)), dtype=np.float32)
    assert forward(m, x).shape == (3, 64)


def test_forward_wrong_input_shape_raises():
    m = init_model(small_config(), seed=1)
    x = Tensor(np.zeros((2, 1, 64, 64), dtype=np.float32))
    with pytest.raises(DimensionError):
        forward(m, x)


def test_identical_patches_identical_rows():
    m = init_model(small_config(), seed=2)
    rng = np.random.default_rng(3)
    patch = rng.random((1, 32, 32)).astype(np.float32)
    batch = Tensor(np.stack([patch, patch, patch]))
    out = forward(m, batch).data
    assert np.array_equal(out[0], out[1]) and np.array_equal(out[1], out[2])


def test_batch_permutation_permutes_rows():
    m = init_model(small_config(), seed=4)
    rng = np.random.default_rng(5)
    x = rng.random((5, 1, 32, 32)).astype(np.float32)
    perm = np.array([3, 0, 4, 1, 2])
    out = forward(m, Tensor(x)).data
    out_p = forward(m, Tensor(x[perm])).data
    np.testing.assert_array_equal(out_p, out[perm])


def scaled_model(input_size, seed):
    """Init model with every weight matrix and kernel scaled by 10, so that
    no branch is near the identity and a mixed-up row shows."""
    m = init_model(ModelConfig(input_size=input_size), seed=seed)
    for prm in m.params.values():
        if prm.ndim >= 2:
            prm.data *= 10
    return m


def test_forward_batch_matches_single_patch_calls():
    # a batch or spatial axis mixed up anywhere in the network makes rows
    # depend on their batch neighbours; input 64 keeps every stage above 1x1
    m = scaled_model(64, seed=10)
    x = np.random.default_rng(11).random((4, 1, 64, 64)).astype(np.float32)
    batched = forward(m, Tensor(x)).data
    singles = np.concatenate([forward(m, Tensor(x[i : i + 1])).data for i in range(4)])
    np.testing.assert_allclose(batched, singles, rtol=0, atol=1e-6)
    assert np.abs(batched[0] - batched[1]).max() > 1e-2


# at 64 px one sample's feed-forward hidden activation takes 128, 64, 16 and
# 16 KiB in stages 1-4: 256 KiB chunks stages 1 and 2 into 2 and 4 samples,
# 48 KiB chunks stages 3 and 4 into 3 samples
@pytest.mark.parametrize("block_bytes", [1 << 18, 3 << 14])
@pytest.mark.parametrize("bsz", [1, 5, 7])
def test_untaped_forward_over_sample_chunks_matches_taped_forward(monkeypatch, block_bytes, bsz):
    monkeypatch.setattr(ops, "_BLOCK_BYTES", block_bytes)
    m = scaled_model(64, seed=12)
    x = Tensor(np.random.default_rng(13).random((bsz, 1, 64, 64)).astype(np.float32))
    untaped = forward(m, x).data
    with Tape():
        taped = forward(m, x).data
    assert np.array_equal(untaped, taped)


def test_two_cpus_run_each_feed_forward_chunk_once(monkeypatch, blur_cpus):
    # the caller's chunks and the helper's tile each feed-forward's batch
    # with no chunk twice: forward without a tape, then forward and backward
    # under one
    blur_cpus(2)
    monkeypatch.setattr(ops, "_BLOCK_BYTES", 1 << 18)
    taken = {"fwd": [], "bwd": []}  # (taken by a helper, item) in the order taken
    helper_took = {"fwd": threading.Event(), "bwd": threading.Event()}

    def taking(kind, chunks):
        on_helper = threading.current_thread() is not threading.main_thread()
        for item in chunks:
            if on_helper:
                helper_took[kind].set()
            elif operator.length_hint(chunks) and not helper_took[kind].is_set():
                # make the helper take a chunk of the first shared block
                assert helper_took[kind].wait(timeout=60)
            taken[kind].append((on_helper, item))
            yield item

    for kind in taken:
        def work(chunks, *args, _run=getattr(ops, f"_mix_ffn_{kind}"), _kind=kind):
            _run(taking(_kind, chunks), *args)
        monkeypatch.setattr(ops, f"_mix_ffn_{kind}", work)
    m = init_model(ModelConfig(input_size=64), seed=14)
    x = Tensor(np.random.default_rng(15).random((7, 1, 64, 64)).astype(np.float32))
    # stage 1 in chunks of 2, stage 2 of 4, stages 3-4 whole; two blocks a stage
    expected = [[2, 2, 2, 1]] * 2 + [[4, 3]] * 2 + [[7]] * 4
    forward(m, x)
    with Tape() as tape:
        loss = cotangent_dot(forward(m, x))
    backward(loss, tape)
    for kind, blocks_in_order in (("fwd", expected * 2), ("bwd", expected[::-1])):
        assert any(on_helper for on_helper, _ in taken[kind])
        # a block's chunks are all taken before the next block's, so the blocks
        # come in order; each output view keeps its block's output alive
        blocks = {}
        for _, (i, *_, out) in taken[kind]:
            start = (out.ctypes.data - out.base.ctypes.data) // out.base[0].nbytes
            blocks.setdefault(id(out.base), []).append((start, i, out.shape[0]))
        assert len(blocks) == len(blocks_in_order)
        for chunks, sizes in zip(blocks.values(), blocks_in_order):
            chunks.sort()
            assert [size for *_, size in chunks] == sizes
            # chunk i starts where chunks 0 to i - 1 end
            assert [(start, i) for start, i, _ in chunks] == [
                (sum(sizes[:i]), i) for i in range(len(sizes))
            ]


@pytest.mark.parametrize("input_size", [64, 128])
def test_shared_forward_is_bit_identical_on_any_pool(monkeypatch, blur_cpus, input_size):
    # a chunk comes out the same whichever thread runs it; a chunk lost
    # between the threads would leave np.empty's garbage in the output, and
    # each seed's input differs, so not even a reused buffer hides it
    m = scaled_model(input_size, seed=16)
    inputs = [
        Tensor(np.random.default_rng(seed).random((5, 1, input_size, input_size)).astype(np.float32))
        for seed in range(6)
    ]
    blur_cpus(1)
    alone = [forward(m, x).data for x in inputs]
    blur_cpus(2)
    assert all(np.array_equal(forward(m, x).data, want) for x, want in zip(inputs, alone))
    # a chunk per sample, more helpers than cores, and a thread switch at
    # every chance
    monkeypatch.setattr(ops, "_BLOCK_BYTES", 4096)
    blur_cpus(1)
    alone = [forward(m, x).data for x in inputs]
    _, count = blur_cpus(8)
    assert count == 7
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        shared = [forward(m, x).data for x in inputs]
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(got, want) for got, want in zip(shared, alone))


def first_step_gradients(m, x):
    for prm in m.params.values():
        prm.grad = None
    with Tape() as tape:
        loss = triplet_loss(forward(m, x))
    backward(loss, tape)
    return [prm.grad for prm in m.params.values()]


def test_first_step_gradients_are_bit_identical_on_any_pool(monkeypatch, blur_cpus):
    # mix_ffn sums its parameter-gradient partials in chunk order, so which
    # thread finished a chunk first does not show in the sums
    m = init_model(ModelConfig(input_size=64), seed=21)
    inputs = [
        Tensor(np.random.default_rng(seed).random((6, 1, 64, 64)).astype(np.float32))
        for seed in range(2)
    ]

    def same(got, want):
        pairs = [(a, b) for grads, wants in zip(got, want) for a, b in zip(grads, wants)]
        return all(np.array_equal(a, b) for a, b in pairs)

    blur_cpus(1)
    alone = [first_step_gradients(m, x) for x in inputs]
    blur_cpus(2)
    assert same([first_step_gradients(m, x) for x in inputs], alone)
    # a chunk per sample, more helpers than cores, and a thread switch at
    # every chance
    monkeypatch.setattr(ops, "_BLOCK_BYTES", 4096)
    blur_cpus(1)
    alone = [first_step_gradients(m, x) for x in inputs]
    _, count = blur_cpus(8)
    assert count == 7
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        shared = [first_step_gradients(m, x) for x in inputs]
    finally:
        sys.setswitchinterval(interval)
    assert same(shared, alone)


# The depthwise kernels as ``ops.mix_ffn`` ran them when it kept its hidden
# arrays: each call copies its input into its own zero-padded tap buffer and
# tiles its own taps.


def stored_tap_windows(a):
    """Read-only [B, H, W*C, 3, 3] windows of a zero-padded copy of [B, H, W, C]."""
    bsz, h, w, c = a.shape
    row = w * c
    n = bsz * (h + 2) * row
    buf = np.empty(n + 2 * c, dtype=a.dtype)
    buf[:c] = 0
    buf[c + n :] = 0
    rows = buf[c : c + n].reshape(bsz, h + 2, row)
    rows[:, 0] = 0
    rows[:, -1] = 0
    rows[:, 1:-1] = a.reshape(bsz, h, row)
    s = buf.itemsize
    return as_strided(
        buf, (bsz, h, row, 3, 3), (s * (h + 2) * row, s * row, s, s * row, s * c), writeable=False
    )


def stored_correlate3x3(a, taps):
    """Zero-padded 3x3 correlation of [B, H, W, C] with per-channel [3, 3, C] taps."""
    tiled = ops._drop_wrapped(np.tile(taps, (1, 1, a.shape[2])), a.shape[3])
    return np.einsum("bhrij,ijr->bhr", stored_tap_windows(a), tiled).reshape(a.shape)


def stored_depthwise_fwd(x, taps, b):
    y = stored_correlate3x3(x, taps)
    y += b
    return y


def stored_depthwise_wgrad(x, g):
    bsz, h, w, c = x.shape
    g3, win = g.reshape(bsz, h, w * c), stored_tap_windows(x)
    gtaps = np.empty((3, 3, w * c), dtype=np.result_type(x, g))
    for i in range(3):
        for j in range(3):
            np.einsum("bhr,bhr->r", g3, win[..., i, j], out=gtaps[i, j])
    gw = ops._drop_wrapped(gtaps, c).reshape(3, 3, w, c).sum(axis=2)
    return np.ascontiguousarray(gw.transpose(2, 0, 1)[:, None])


def stored_mix_ffn(x, w1, b1, wd, bd, w2, b2):
    """``ops.mix_ffn`` on one thread, with the backward reading each chunk's
    stored fc1 and pre-GELU outputs instead of recomputing them."""
    taps = np.ascontiguousarray(wd.data[:, 0].transpose(1, 2, 0))
    sample_bytes = x.shape[1] * x.shape[2] * w1.shape[0] * x.data.itemsize
    slices = list(ops._sample_chunks(x.shape[0], sample_bytes))
    saved = []
    for s in slices:
        hidden = ops._linear_fwd(x.data[s], w1.data, b1.data)
        saved.append((hidden, stored_depthwise_fwd(hidden, taps, bd.data)))
    out = np.concatenate([ops._linear_fwd(ops._gelu_fwd(pre)[0], w2.data, b2.data) for _, pre in saved])

    def grad_fn(g):
        gx = np.empty(x.shape, dtype=g.dtype)
        grads = [np.zeros(p.shape, dtype=g.dtype) for p in (w1, b1, wd, bd, w2, b2)]
        for s, (hidden, pre) in zip(slices, saved):
            f, t = ops._gelu_fwd(pre)
            g2 = g[s].reshape(-1, w2.shape[0])
            gpre = ops._gelu_bwd(pre, t, (g2 @ w2.data).reshape(pre.shape))
            gh = stored_correlate3x3(gpre, taps[::-1, ::-1]).reshape(-1, w1.shape[0])
            gx[s] = (gh @ w1.data).reshape(gx[s].shape)
            parts = (
                gh.T @ x.data[s].reshape(-1, w1.shape[1]), ops._column_sums(gh),
                stored_depthwise_wgrad(hidden, gpre), ops._column_sums(gpre),
                g2.T @ f.reshape(-1, w2.shape[1]), ops._column_sums(g2),
            )
            for total, part in zip(grads, parts):
                total += part
        return gx, *grads

    result = Tensor._wrap(out)
    record((x, w1, b1, wd, bd, w2, b2), result, grad_fn)
    return result


def test_recomputed_feed_forward_gradients_equal_stored_ones(monkeypatch):
    # the backward reruns each chunk's forward kernels on the same chunk, so a
    # 48-patch 64 px step is bit-identical to one that kept their outputs
    monkeypatch.setattr(ops, "_BLOCK_BYTES", 1 << 18)
    m = init_model(ModelConfig(input_size=64), seed=22)
    x = Tensor(np.random.default_rng(23).random((48, 1, 64, 64)).astype(np.float32))

    def step():
        for prm in m.params.values():
            prm.grad = None
        with Tape() as tape:
            loss = triplet_loss(forward(m, x))
        backward(loss, tape)
        return [loss.data] + [prm.grad for prm in m.params.values()]

    recomputed = step()
    monkeypatch.setattr(ops, "mix_ffn", stored_mix_ffn)
    stored = step()
    assert len(stored) == 1 + 186 and stored[0] > 0
    assert np.abs(stored[list(m.params).index("stage1.block1.ffn.fc1.weight") + 1]).max() > 0
    assert all(np.array_equal(a, b) for a, b in zip(recomputed, stored))


def test_one_chunk_feed_forward_asks_for_no_helpers(monkeypatch):
    def no_helpers():
        raise AssertionError("a one-chunk feed-forward asked for helpers")

    monkeypatch.setattr(_pool, "helpers", no_helpers)
    # at 64 px a stage-1 chunk holds two samples, so one sample is one chunk everywhere
    m = init_model(ModelConfig(input_size=64), seed=17)
    forward(m, Tensor(np.random.default_rng(18).random((1, 1, 64, 64)).astype(np.float32)))


class Boom(Exception):
    pass


@pytest.mark.parametrize("raiser", ["caller", "helper"])
def test_feed_forward_error_propagates_after_every_started_helper(monkeypatch, blur_cpus, raiser):
    # an error on either thread reaches the caller with its own type, only
    # once no helper still writes into the discarded output
    blur_cpus(2)
    m = init_model(ModelConfig(input_size=64), seed=19)
    x = Tensor(np.random.default_rng(20).random((7, 1, 64, 64)).astype(np.float32))
    expected = forward(m, x).data
    helper_started, running = threading.Event(), []
    gelu_fwd = ops._gelu_fwd

    def kernel(a):
        if threading.current_thread() is threading.main_thread():
            assert helper_started.wait(timeout=60)
            if raiser == "caller":
                raise Boom
            return gelu_fwd(a)
        running.append(a.shape)
        helper_started.set()
        try:
            threading.Event().wait(0.2)  # still busy when the caller is done
            if raiser == "helper":
                raise Boom
            return gelu_fwd(a)
        finally:
            running.remove(a.shape)

    monkeypatch.setattr(ops, "_gelu_fwd", kernel)
    with pytest.raises(Boom):
        forward(m, x)
    assert running == []
    monkeypatch.setattr(ops, "_gelu_fwd", gelu_fwd)
    assert np.array_equal(forward(m, x).data, expected)


def test_forward_deterministic_bit_identical():
    m = init_model(small_config(), seed=6)
    x = Tensor(np.random.default_rng(7).random((2, 1, 32, 32)), dtype=np.float32)
    assert np.array_equal(forward(m, x).data, forward(m, x).data)


def test_gradient_flow_no_dead_parameters():
    # input 64 keeps every attention softmax over >1 key (at 32 each stage
    # reduces to a single key token and q/k gradients are legitimately zero)
    m = init_model(ModelConfig(input_size=64), seed=8)
    rng = np.random.default_rng(9)
    patches = Tensor(rng.random((6, 1, 64, 64)).astype(np.float32))
    with Tape() as tape:
        loss = triplet_loss(forward(m, patches))
    backward(loss, tape)
    dead = [n for n, p in m.params.items() if p.grad is None or not np.any(p.grad)]
    assert not dead, f"parameters with all-zero gradients: {dead}"


def test_ops_keeps_only_what_the_model_calls(monkeypatch):
    # an op that one taped forward and loss leave uncalled has no caller left
    names = [
        n for n, v in vars(ops).items()
        if callable(v) and not n.startswith("_") and getattr(v, "__module__", "") == ops.__name__
    ]
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _op=getattr(ops, name), _name=name, **kwargs):
            calls[_name] += 1
            return _op(*args, **kwargs)
        monkeypatch.setattr(ops, name, counted)
    cfg = ModelConfig(input_size=64)
    m = init_model(cfg, seed=16)
    patches = Tensor(np.random.default_rng(17).random((6, 1, 64, 64)).astype(np.float32))
    with Tape() as tape:
        triplet_loss(forward(m, patches))
    assert sorted(names) == [
        "add", "attention", "conv2d", "l2_normalize", "layer_norm", "linear", "mix_ffn", "token_mean",
    ]
    assert not [n for n, c in calls.items() if c == 0], calls
    recorded = [e.grad_fn.__qualname__.split(".")[0] for e in tape.ops]
    blocks = sum(st.depth for st in cfg.stages)
    assert recorded.count("attention") == blocks == calls["attention"]
    assert recorded.count("mix_ffn") == blocks == calls["mix_ffn"]


def test_a_taped_forward_frees_the_residual_sums_no_backward_rule_reads(monkeypatch):
    # add's rule reads nothing and layer_norm's only the shape, so once the
    # forward moves on, no tape entry keeps a residual sum alive
    sums = []

    def add(a, b, _add=ops.add):
        out = _add(a, b)
        sums.append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(ops, "add", add)
    m = init_model(small_config(), seed=4)
    patches = Tensor(np.random.default_rng(5).random((6, 1, 32, 32)).astype(np.float32))
    with Tape() as tape:
        loss = triplet_loss(forward(m, patches))
    assert len(sums) == 2 * sum(st.depth for st in m.config.stages)
    assert [ref() for ref in sums if ref() is not None] == []
    backward(loss, tape)
    assert all(p.grad is not None for p in m.params.values())


def closure_arrays(grad_fn, skip):
    """The arrays a backward rule closes over, directly or as a tensor's data,
    with the arrays they view; a chain that reaches an id in ``skip`` is left out."""
    found = []
    for cell in grad_fn.__closure__ or ():
        v = cell.cell_contents
        chain, a = [], v.data if isinstance(v, Tensor) else v
        while isinstance(a, np.ndarray):
            chain.append(a)
            a = a.base
        if not any(id(a) in skip for a in chain):
            found += chain
    return found


def test_backward_frees_the_later_stages_before_the_stage1_embedding_rule_runs():
    # each walked entry is dropped, so stage 4's arrays are gone before stage 1's large rules run
    m = init_model(small_config(), seed=6)
    params = {id(p.data) for p in m.params.values()}
    stage4 = {id(p) for name, p in m.params.items() if name.startswith("stage4.")}
    patches = Tensor(np.random.default_rng(7).random((6, 1, 32, 32)).astype(np.float32))
    with Tape() as tape:
        loss = triplet_loss(forward(m, patches))
    refs = [
        weakref.ref(a)
        for entry in tape.ops if any(id(s) in stage4 for s in entry.sources)
        for a in closure_arrays(entry.grad_fn, params)
    ]
    embed = tape.ops[0]
    assert embed.sources[1] is m.params["stage1.embed.conv.weight"] and len(refs) > 20
    alive = []

    def first_rule(g):
        alive.append(sum(ref() is not None for ref in refs))
        return embed.grad_fn(g)

    tape.ops[0] = embed._replace(grad_fn=first_rule)
    backward(loss, tape)
    assert alive == [0]
    assert all(p.grad is not None for p in m.params.values())
