"""Per-operation forward contracts and finite-difference gradient checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from litematch import ops
from litematch.errors import DegenerateDescriptorError, DimensionError
from litematch.tensor import Tape, Tensor, backward, record

from cotangent import cotangent, cotangent_dot


def t64(arr, requires_grad=True):
    return Tensor(np.asarray(arr), requires_grad=requires_grad, dtype=np.float64)


def rand64(rng, *shape, requires_grad=True):
    return t64(rng.standard_normal(shape), requires_grad=requires_grad)


def numeric_gradient(loss, t, coord, step):
    """Central difference of the scalar ``loss()`` w.r.t. one coordinate of
    ``t``, perturbing its data in place: independent of every backward rule."""
    orig = t.data[coord]
    t.data[coord] = orig + step
    hi = float(loss().data)
    t.data[coord] = orig - step
    lo = float(loss().data)
    t.data[coord] = orig
    return (hi - lo) / (2.0 * step)


def assert_gradcheck(forward, params, rtol=1e-3, atol=1e-6, step=1e-4):
    """Analytic gradients of <forward(), v> agree with central differences at
    every coordinate of ``params`` within ``atol + rtol * max(|an|, |fd|)``.

    ``v`` is the seeded random cotangent of :func:`cotangent_dot`, so every
    output element weighs differently and a backward rule that misplaces
    elements of its incoming gradient fails. ``forward`` rebuilds the graph
    from the current ``params`` data on each call; build it in float64,
    where central differences are accurate to about 1e-8.
    """

    def loss():
        return cotangent_dot(forward())

    for p in params:
        assert p.requires_grad
        p.grad = None
    with Tape() as tape:
        value = loss()
    backward(value, tape)
    failures = []
    for idx, p in enumerate(params):
        analytic = np.zeros_like(p.data) if p.grad is None else p.grad
        p.grad = None
        for coord in np.ndindex(*p.shape):
            fd = numeric_gradient(loss, p, coord, step)
            an = float(analytic[coord])
            if abs(an - fd) > atol + rtol * max(abs(an), abs(fd)):
                failures.append(f"param {idx} coord {coord}: analytic {an:.6e} vs numeric {fd:.6e}")
    assert not failures, "\n".join(failures)


# ---------------------------------------------------------------- conv2d
# Activations are channels-last [B, H, W, C]; weights keep [Cout, Cin, k, k].


def naive_conv2d(x, w, b, stride, padding):
    """Per-pixel loop over a channels-last input: the definition of conv2d."""
    bsz, h, wd, cin = x.shape
    cout, _, k, _ = w.shape
    xp = np.zeros((bsz, h + 2 * padding, wd + 2 * padding, cin))
    xp[:, padding : padding + h, padding : padding + wd] = x
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wd + 2 * padding - k) // stride + 1
    out = np.zeros((bsz, ho, wo, cout))
    for n in range(bsz):
        for i in range(ho):
            for j in range(wo):
                for o in range(cout):
                    acc = b[o]
                    for ci in range(cin):
                        for ki in range(k):
                            for kj in range(k):
                                acc += xp[n, i * stride + ki, j * stride + kj, ci] * w[o, ci, ki, kj]
                    out[n, i, j, o] = acc
    return out


@pytest.mark.parametrize(
    "shape, cout, k, stride, padding",
    [
        ((2, 6, 5, 3), 4, 3, 1, 1),  # padded stride 1
        ((2, 16, 16, 1), 3, 7, 4, 3),  # the stage-1 patch embedding
        ((2, 8, 8, 3), 3, 4, 4, 0),  # stride == kernel: the spatial reduction
    ],
)
def test_conv2d_matches_naive_loop(shape, cout, k, stride, padding):
    rng = np.random.default_rng(20)
    x = rng.standard_normal(shape)
    w = rng.standard_normal((cout, shape[3], k, k))
    b = rng.standard_normal(cout)
    got = ops.conv2d(t64(x), t64(w), t64(b), stride=stride, padding=padding).data
    np.testing.assert_allclose(got, naive_conv2d(x, w, b, stride, padding), rtol=0, atol=1e-12)


def test_conv2d_table_stage1_shape():
    x = Tensor(np.zeros((1, 128, 128, 1), dtype=np.float32))
    w = Tensor(np.zeros((16, 1, 7, 7), dtype=np.float32))
    b = Tensor(np.zeros(16, dtype=np.float32))
    out = ops.conv2d(x, w, b, stride=4, padding=3)
    assert out.shape == (1, 32, 32, 16)


def test_conv2d_zero_input_zero_bias_gives_zero():
    x = Tensor(np.zeros((2, 9, 9, 3), dtype=np.float32))
    w = Tensor(np.random.default_rng(0).standard_normal((4, 3, 3, 3)), dtype=np.float32)
    b = Tensor(np.zeros(4, dtype=np.float32))
    out = ops.conv2d(x, w, b, stride=1, padding=1)
    assert np.all(out.data == 0.0)


def test_conv2d_channel_mismatch_raises():
    x = Tensor(np.zeros((1, 8, 8, 2), dtype=np.float32))
    w = Tensor(np.zeros((4, 3, 3, 3), dtype=np.float32))
    b = Tensor(np.zeros(4, dtype=np.float32))
    with pytest.raises(DimensionError):
        ops.conv2d(x, w, b, stride=1, padding=1)


def test_conv2d_gradcheck():
    rng = np.random.default_rng(1)
    x = rand64(rng, 1, 5, 5, 2)
    w = rand64(rng, 3, 2, 3, 3)
    b = rand64(rng, 3)
    assert_gradcheck(lambda: ops.conv2d(x, w, b, stride=1, padding=1), [x, w, b])


def test_conv2d_strided_gradcheck():
    rng = np.random.default_rng(2)
    x = rand64(rng, 2, 9, 9, 1)
    w = rand64(rng, 2, 1, 3, 3)
    b = rand64(rng, 2)
    assert_gradcheck(lambda: ops.conv2d(x, w, b, stride=2, padding=1), [x, w, b])


def test_conv2d_reduction_gradcheck():
    rng = np.random.default_rng(21)
    x = rand64(rng, 2, 4, 4, 3)
    w = rand64(rng, 3, 3, 2, 2)
    b = rand64(rng, 3)
    assert_gradcheck(lambda: ops.conv2d(x, w, b, stride=2, padding=0), [x, w, b])


def test_conv2d_untracked_input_builds_no_input_gradient():
    rng = np.random.default_rng(24)
    xd = rng.standard_normal((2, 9, 9, 1)).astype(np.float32)
    wd = rng.standard_normal((3, 1, 3, 3)).astype(np.float32)
    bd = rng.standard_normal(3).astype(np.float32)

    def grads(x_kind):
        # a constant, a leaf, or the recorded sum of two leaves that each hold half of xd
        halves = [Tensor(xd / 2, requires_grad=True) for _ in range(2)]
        w, b = Tensor(wd, requires_grad=True), Tensor(bd, requires_grad=True)
        with Tape() as tape:
            x = ops.add(*halves) if x_kind == "recorded" else Tensor(xd, requires_grad=x_kind == "leaf")
            y = ops.conv2d(x, w, b, stride=2, padding=1)
            loss = cotangent_dot(y)
        gx = tape.ops[-2].grad_fn(np.ones(y.shape, dtype=np.float32))[0]
        backward(loss, tape)
        x_grad = halves[0].grad if x_kind == "recorded" else x.grad
        return x_grad, gx, w.grad, b.grad

    x_grad, gx, gw, gb = grads("constant")
    assert x_grad is None and gx is None
    tracked_x_grad, tracked_gx, tracked_gw, tracked_gb = grads("leaf")
    assert tracked_x_grad.shape == xd.shape and tracked_gx.shape == xd.shape
    assert np.array_equal(gw, tracked_gw) and np.array_equal(gb, tracked_gb)
    # an input recorded on the tape, not a leaf, gets its input gradient too
    recorded_x_grad, recorded_gx, recorded_gw, _ = grads("recorded")
    assert np.array_equal(recorded_gx, tracked_gx) and np.array_equal(recorded_x_grad, tracked_x_grad)
    assert np.array_equal(recorded_gw, tracked_gw)


def test_conv2d_tape_keeps_no_padded_input():
    # backward reads only the padded shape; a padded copy of every embedding
    # input would stay alive on the tape until backward
    rng = np.random.default_rng(25)
    x = rand64(rng, 2, 9, 9, 3)
    w, b = rand64(rng, 4, 3, 3, 3), rand64(rng, 4)
    with Tape() as tape:
        ops.conv2d(x, w, b, stride=2, padding=1)
    kept = [cell.cell_contents for cell in tape.ops[0].grad_fn.__closure__]
    assert not any(isinstance(v, np.ndarray) and v.shape == (2, 11, 11, 3) for v in kept)


def test_conv2d_tape_keeps_no_im2col_matrix():
    # backward rebuilds the [B*H'*W', Cin*k*k] windows from the unpadded input:
    # for the stage-1 7x7 stride-4 embedding they are 3x its size
    rng = np.random.default_rng(26)
    x = rand64(rng, 2, 9, 9, 3)
    w, b = rand64(rng, 4, 3, 3, 3), rand64(rng, 4)
    with Tape() as tape:
        ops.conv2d(x, w, b, stride=2, padding=1)
    kept = [cell.cell_contents for cell in tape.ops[0].grad_fn.__closure__]
    arrays = [v.data if isinstance(v, Tensor) else v for v in kept]
    assert not any(isinstance(a, np.ndarray) and a.size == (2 * 5 * 5) * (3 * 3 * 3) for a in arrays)


def stored_col_conv2d(x, w, b, stride, padding):
    """``ops.conv2d`` with its im2col matrix kept for the backward instead of rebuilt."""
    k, s, p = w.shape[2], stride, padding
    bsz, h, ww, cin = x.shape
    cout = w.shape[0]
    xp = np.pad(x.data, ((0, 0), (p, p), (p, p), (0, 0))) if p else x.data
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::s, ::s]
    hp, wp = win.shape[1], win.shape[2]
    col = np.ascontiguousarray(win).reshape(bsz * hp * wp, cin * k * k)
    wmat = w.data.reshape(cout, -1)
    out = Tensor._wrap((col @ wmat.T + b.data).reshape(bsz, hp, wp, cout))
    needs_gx = x.requires_grad

    def grad_fn(g):
        gmat = g.reshape(bsz * hp * wp, cout)
        gb = ops._column_sums(gmat)
        gw = (gmat.T @ col).reshape(w.shape)
        if not needs_gx:
            return None, gw, gb
        gcol = (gmat @ wmat).reshape(bsz, hp, wp, cin, k, k)
        gxp = np.zeros(xp.shape, dtype=g.dtype)
        for ki in range(k):
            for kj in range(k):
                gxp[:, ki : ki + hp * s : s, kj : kj + wp * s : s] += gcol[..., ki, kj]
        gx = gxp[:, p : p + h, p : p + ww] if p else gxp
        return np.ascontiguousarray(gx), gw, gb

    record((x, w, b), out, grad_fn)
    return out


# the model's embeddings (kernel 2s - 1, padding s - 1 at strides 4 and 2)
# and spatial reductions (kernel = stride 8, 4 and 2, no padding)
@pytest.mark.parametrize("k, stride, padding", [(7, 4, 3), (3, 2, 1), (8, 8, 0), (4, 4, 0), (2, 2, 0)])
@pytest.mark.parametrize("tracked", [True, False])
def test_conv2d_rebuilt_im2col_gives_the_stored_im2col_gradients(k, stride, padding, tracked):
    rng = np.random.default_rng(27)
    data = rng.standard_normal((3, 16, 16, 4)).astype(np.float32)
    w = Tensor(rng.standard_normal((5, 4, k, k)).astype(np.float32), requires_grad=True)
    b = Tensor(rng.standard_normal(5).astype(np.float32), requires_grad=True)

    def run(conv):
        x = Tensor(data, requires_grad=tracked)
        w.grad = b.grad = None
        with Tape() as tape:
            y = conv(x, w, b, stride, padding)
            loss = cotangent_dot(y)
        backward(loss, tape)
        return y.data, x.grad, w.grad, b.grad

    rebuilt, stored = run(ops.conv2d), run(stored_col_conv2d)
    assert (rebuilt[1] is None) == (not tracked) and (stored[1] is None) == (not tracked)
    assert all(a is None and c is None or np.array_equal(a, c) for a, c in zip(rebuilt, stored))


def window_im2col(x, k, stride, padding):
    """The im2col matrix as a copy of the sliding-window view: row (b, i, j) is
    the (Cin, k, k) window of output pixel (i, j)."""
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::stride, ::stride]
    return np.ascontiguousarray(win).reshape(-1, x.shape[3] * k * k)


# geometries the model never builds. At k == stride the input gradient is one
# copy only where the windows tile the input, so not at H = 10, W = 11, k = 4
@pytest.mark.parametrize(
    "shape, k, stride, padding",
    [
        ((2, 10, 11, 3), 4, 4, 0),
        ((2, 12, 10, 3), 4, 4, 0),
        ((2, 11, 9, 3), 2, 3, 0),
        ((2, 13, 12, 2), 3, 5, 1),
        ((3, 9, 7, 1), 3, 2, 1),
        ((2, 8, 6, 1), 2, 2, 0),
        ((2, 9, 7, 5), 5, 1, 2),
        ((1, 5, 3, 3), 3, 2, 1),
    ],
    ids=[
        "k=stride-ragged-h-and-w", "k=stride-ragged-w", "stride>k", "stride>k-padded",
        "cin1-padded", "cin1-tiled", "odd-padding2", "odd-padding1",
    ],
)
def test_conv2d_gradients_equal_a_scatter_oracle_off_the_model_geometries(shape, k, stride, padding):
    rng = np.random.default_rng(31)
    data = rng.standard_normal(shape).astype(np.float32)
    assert np.array_equal(ops._im2col(data, k, stride, padding), window_im2col(data, k, stride, padding))
    w = Tensor(rng.standard_normal((4, shape[3], k, k)).astype(np.float32), requires_grad=True)
    b = Tensor(rng.standard_normal(4).astype(np.float32), requires_grad=True)

    def run(conv):
        x = Tensor(data, requires_grad=True)
        w.grad = b.grad = None
        with Tape() as tape:
            y = conv(x, w, b, stride, padding)
            loss = cotangent_dot(y)
        backward(loss, tape)
        return y.data, x.grad, w.grad, b.grad

    got, want = run(ops.conv2d), run(stored_col_conv2d)
    assert all(np.array_equal(a, c) for a, c in zip(got, want))
    # the rows and columns past the last window get a zero gradient
    rows, cols = ((n + 2 * padding - k) // stride * stride + k - padding for n in shape[1:3])
    assert not np.any(got[1][:, rows:]) and not np.any(got[1][:, :, cols:])


# ------------------------------------------------------- mix_ffn's kernels
# The depthwise convolution and GELU are private kernels of mix_ffn.
# ``depthwise`` and ``gelu`` record them as tape ops, with the backward
# arithmetic of ``ops._mix_ffn_bwd``, so each kernel is gradchecked alone.


def windows_of(a):
    """The ``ops._tap_windows`` of a copy of the [B, H, W, C] array ``a``."""
    interior, windows = ops._tap_windows(a.shape, a.dtype)
    interior[...] = a
    return windows


def depthwise_fwd(x, w, b):
    """``ops._depthwise`` of the array ``x`` with the [C, 1, 3, 3] weight ``w``, plus the bias ``b``."""
    y = ops._depthwise(windows_of(x), ops._tiled_taps(w, x.shape[2])).reshape(x.shape)
    y += b
    return y


def depthwise_gx(g, w):
    """The input gradient of :func:`depthwise_fwd` for the output gradient ``g``."""
    flipped = ops._tiled_taps(w[..., ::-1, ::-1], g.shape[2])
    return ops._depthwise(windows_of(g), flipped).reshape(g.shape)


def depthwise(x, w, b):
    """The depthwise kernels as one tape op over [B, H, W, C] and [C, 1, 3, 3]."""
    out = Tensor._wrap(depthwise_fwd(x.data, w.data, b.data))

    def grad_fn(g):
        return depthwise_gx(g, w.data), ops._depthwise_wgrad(windows_of(x.data), g), ops._column_sums(g)

    record((x, w, b), out, grad_fn)
    return out


def gelu(x):
    """The GELU kernels as one tape op."""
    y, t = ops._gelu_fwd(x.data)
    out = Tensor._wrap(y)
    record((x,), out, lambda g: (ops._gelu_bwd(x.data, t, g),))
    return out


def naive_depthwise(x, w, b):
    """Each channel through the per-pixel conv2d loop with its own [1, 1, 3, 3] kernel."""
    return np.concatenate(
        [naive_conv2d(x[..., c : c + 1], w[c : c + 1], b[c : c + 1], 1, 1) for c in range(x.shape[3])],
        axis=3,
    )


# W = 1 puts both edge taps on the same column; H = 1 leaves only padding rows around it
@pytest.mark.parametrize(
    "shape", [(2, 5, 6, 3), (1, 1, 1, 4), (3, 4, 4, 1), (2, 5, 1, 3), (2, 1, 6, 3), (1, 1, 5, 1)]
)
def test_depthwise_matches_naive_loop(shape):
    rng = np.random.default_rng(22)
    x = rng.standard_normal(shape)
    w = rng.standard_normal((shape[3], 1, 3, 3))
    b = rng.standard_normal(shape[3])
    got = depthwise_fwd(x, w, b)
    np.testing.assert_allclose(got, naive_depthwise(x, w, b), rtol=0, atol=1e-12)


@given(st.tuples(*[st.integers(1, 6)] * 4), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_depthwise_matches_naive_loop_random_shapes(shape, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    w = rng.standard_normal((shape[3], 1, 3, 3))
    b = rng.standard_normal(shape[3])
    got = depthwise_fwd(x, w, b)
    np.testing.assert_allclose(got, naive_depthwise(x, w, b), rtol=0, atol=1e-12)


def test_depthwise_identity_kernel():
    rng = np.random.default_rng(3)
    x = rng.random((1, 6, 6, 4)).astype(np.float32)
    w = np.zeros((4, 1, 3, 3), dtype=np.float32)
    w[:, 0, 1, 1] = 1.0
    out = depthwise_fwd(x, w, np.zeros(4, dtype=np.float32))
    np.testing.assert_array_equal(out, x)


def test_depthwise_averaging_kernel_border_attenuation():
    x = np.ones((1, 6, 6, 1), dtype=np.float32)
    w = np.full((1, 1, 3, 3), 1.0 / 9.0, dtype=np.float32)
    out = depthwise_fwd(x, w, np.zeros(1, dtype=np.float32))[0, :, :, 0]
    np.testing.assert_allclose(out[1:-1, 1:-1], 1.0, rtol=1e-6)
    assert np.all(out[0, :] < 1.0) and np.all(out[:, 0] < 1.0)


def test_depthwise_gradcheck():
    rng = np.random.default_rng(4)
    x = rand64(rng, 1, 6, 6, 4)
    w = rand64(rng, 4, 1, 3, 3)
    b = rand64(rng, 4)
    assert_gradcheck(lambda: depthwise(x, w, b), [x, w, b])


def test_depthwise_single_column_gradcheck():
    rng = np.random.default_rng(23)
    x = rand64(rng, 2, 4, 1, 3)
    w = rand64(rng, 3, 1, 3, 3)
    b = rand64(rng, 3)
    assert_gradcheck(lambda: depthwise(x, w, b), [x, w, b])


def unchunked_depthwise_backward(x, w, g):
    """Input, weight and bias gradients over the whole batch at once: nine
    per-tap einsums of the output gradient with a zero-padded input."""
    _, h, wd, _ = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    gp = np.pad(g, ((0, 0), (1, 1), (1, 1), (0, 0)))
    gx = np.zeros_like(x)
    gw = np.zeros_like(w)
    for i in range(3):
        for j in range(3):
            gw[:, 0, i, j] = np.einsum("bhwc,bhwc->c", g, xp[:, i : i + h, j : j + wd])
            gx += gp[:, 2 - i : 2 - i + h, 2 - j : 2 - j + wd] * w[:, 0, i, j]
    return gx, gw, g.sum(axis=(0, 1, 2))


def depthwise_with_grads(x, w, b):
    """Forward output, the output gradient ``g`` and the x, w, b gradients,
    for the loss <y, g> of :func:`cotangent_dot`, whose gradient is exactly ``g``."""
    xt, wt, bt = t64(x), t64(w), t64(b)
    with Tape() as tape:
        y = depthwise(xt, wt, bt)
        loss = cotangent_dot(y)
    backward(loss, tape)
    return y.data, cotangent(y.shape, y.dtype), xt.grad, wt.grad, bt.grad


# W = 1 and H = 1 have every tap on an edge column or a padding row
@pytest.mark.parametrize("sample", [(4, 5, 3), (3, 1, 4), (1, 6, 2), (1, 1, 3)])
def test_depthwise_over_chunks_matches_unchunked(monkeypatch, sample):
    # as mix_ffn runs the kernels: per chunk of samples, with the weight and
    # bias gradient partials summed in chunk order
    monkeypatch.setattr(ops, "_BLOCK_BYTES", 4096)
    per_chunk = 4096 // (math.prod(sample) * 8)
    # two full chunks and a ragged third
    bsz = 2 * per_chunk + per_chunk // 2
    assert per_chunk >= 2 and bsz % per_chunk
    rng = np.random.default_rng(25)
    x = rng.standard_normal((bsz, *sample))
    w = rng.standard_normal((sample[2], 1, 3, 3))
    b = rng.standard_normal(sample[2])
    g = cotangent(x.shape, x.dtype)
    chunks = list(ops._sample_chunks(bsz, x[:1].nbytes))
    assert len(chunks) == 3
    y = np.concatenate([depthwise_fwd(x[s], w, b) for s in chunks])
    gx = np.concatenate([depthwise_gx(g[s], w) for s in chunks])
    gw = sum(ops._depthwise_wgrad(windows_of(x[s]), g[s]) for s in chunks)
    gb = sum(ops._column_sums(g[s]) for s in chunks)
    np.testing.assert_allclose(y, naive_depthwise(x, w, b), rtol=0, atol=1e-12)
    flipped = naive_depthwise(g, w[:, :, ::-1, ::-1], np.zeros_like(b))
    np.testing.assert_allclose(gx, flipped, rtol=0, atol=1e-12)
    ref_gx, ref_gw, ref_gb = unchunked_depthwise_backward(x, w, g)
    np.testing.assert_allclose(gx, ref_gx, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gw, ref_gw, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gb, ref_gb, rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", [(0, 4, 4, 3), (3, 0, 4, 3)])
def test_depthwise_empty_batch_or_rows(shape):
    rng = np.random.default_rng(26)
    w = rng.standard_normal((3, 1, 3, 3))
    y, _, gx, gw, gb = depthwise_with_grads(np.zeros(shape), w, rng.standard_normal(3))
    assert y.shape == gx.shape == shape
    assert np.array_equal(gw, np.zeros_like(w)) and np.array_equal(gb, np.zeros(3))


def test_gelu_zero_and_asymptotics():
    out = ops._gelu_fwd(np.array([0.0, 8.0, -8.0], dtype=np.float32))[0]
    assert out[0] == 0.0
    np.testing.assert_allclose(out[1], 8.0, rtol=1e-5)
    np.testing.assert_allclose(out[2], 0.0, atol=1e-5)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_forward_bit_identical_to_formula(dtype):
    rng = np.random.default_rng(9)
    c, a = math.sqrt(2.0 / math.pi), 0.044715
    # the second shape is larger than a Mix-FFN chunk's 256 KiB hidden block
    for shape in [(6, 7, 5), (7, 4001, 5)]:
        x = (rng.standard_normal(shape) * np.logspace(-6, 2, 5)).astype(dtype)
        expected = 0.5 * x * (1.0 + np.tanh(c * (x + a * x * x * x)))
        out = ops._gelu_fwd(x)[0]
        assert out.dtype == dtype and np.array_equal(out, expected)


def test_gelu_backward_bit_identical_to_formula_across_blocks():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((7, 4001, 5)).astype(np.float32) * 3
    g = cotangent(x.shape, np.float32)
    c, a = math.sqrt(2.0 / math.pi), 0.044715
    t = np.tanh(c * (x + a * x * x * x))
    du = (x * (3.0 * a) * x + 1.0) * c
    expected = ((t + 1.0) * 0.5 + (1.0 - t * t) * x * 0.5 * du) * g
    xt = Tensor(x, requires_grad=True)
    with Tape() as tape:
        # d(loss)/d(gelu) is exactly g
        loss = cotangent_dot(gelu(xt))
    backward(loss, tape)
    assert xt.grad.dtype == np.float32 and np.array_equal(xt.grad, expected)


def test_gelu_gradcheck():
    rng = np.random.default_rng(8)
    x = rand64(rng, 4, 5)
    assert_gradcheck(lambda: gelu(x), [x])


# ------------------------------------------------------------------ mix_ffn


def mix_ffn_params(rng, c, hidden, cout):
    """float64 fc1, depthwise and fc2 weights and biases, in mix_ffn's order."""
    shapes = [(hidden, c), (hidden,), (hidden, 1, 3, 3), (hidden,), (cout, hidden), (cout,)]
    return [rand64(rng, *shape) for shape in shapes]


def naive_mix_ffn(x, w1, b1, wd, bd, w2, b2):
    """The four steps over the whole batch, from their definitions."""
    c, a = math.sqrt(2.0 / math.pi), 0.044715
    d = naive_depthwise(x @ w1.T + b1, wd, bd)
    return 0.5 * d * (1.0 + np.tanh(c * (d + a * d**3))) @ w2.T + b2


def test_mix_ffn_over_chunks_matches_definition_and_gradcheck(monkeypatch, blur_cpus):
    # 576 bytes of hidden activation a sample: chunks of 2, 2 and 1 samples,
    # shared with a helper
    blur_cpus(2)
    monkeypatch.setattr(ops, "_BLOCK_BYTES", 1200)
    rng = np.random.default_rng(27)
    x = rand64(rng, 5, 3, 4, 2)
    params = mix_ffn_params(rng, 2, 6, 3)
    assert len(list(ops._sample_chunks(5, 3 * 4 * 6 * 8))) == 3
    want = naive_mix_ffn(x.data, *(p.data for p in params))
    np.testing.assert_allclose(ops.mix_ffn(x, *params).data, want, rtol=0, atol=1e-12)
    assert_gradcheck(lambda: ops.mix_ffn(x, *params), [x, *params])


@pytest.mark.parametrize("shape", [(0, 3, 4, 2), (3, 0, 4, 2)])
def test_mix_ffn_empty_batch_or_rows_gives_zero_parameter_gradients(shape):
    rng = np.random.default_rng(28)
    x = t64(np.zeros(shape))
    params = mix_ffn_params(rng, 2, 6, 3)
    with Tape() as tape:
        y = ops.mix_ffn(x, *params)
        loss = cotangent_dot(y)
    backward(loss, tape)
    assert y.shape == shape[:3] + (3,) and x.grad.shape == shape
    assert all(np.array_equal(p.grad, np.zeros(p.shape)) for p in params)


def test_a_mix_ffn_chunk_builds_each_tap_buffer_once(monkeypatch, blur_cpus):
    # fc1 writes into the tap buffer that the depthwise convolution reads, and
    # the backward's weight gradient reads the recompute's windows: one buffer
    # per forward chunk, two per backward chunk (the recompute's and the input
    # gradient's). The taps, and their flip, are tiled once per call
    blur_cpus(2)
    monkeypatch.setattr(ops, "_BLOCK_BYTES", 1200)
    calls = {"_tap_windows": [], "_tiled_taps": []}
    for name, log in calls.items():
        kernel = getattr(ops, name)
        monkeypatch.setattr(ops, name, lambda *a, kernel=kernel, log=log: log.append(a) or kernel(*a))
    rng = np.random.default_rng(30)
    x = rand64(rng, 5, 3, 4, 2)
    params = mix_ffn_params(rng, 2, 6, 3)
    with Tape() as tape:
        loss = cotangent_dot(ops.mix_ffn(x, *params))
    assert len(list(ops._sample_chunks(5, 3 * 4 * 6 * 8))) == 3
    assert [len(log) for log in calls.values()] == [3, 1]
    backward(loss, tape)
    assert [len(log) for log in calls.values()] == [3 + 2 * 3, 2]


def test_mix_ffn_tape_keeps_no_hidden_width_activation():
    # backward reruns each chunk's fc1 and depthwise convolution from x: the
    # hidden and pre-GELU arrays of every block would otherwise stay alive on
    # the tape until backward
    rng = np.random.default_rng(29)
    x = rand64(rng, 4, 5, 6, 2)
    params = mix_ffn_params(rng, 2, 7, 3)
    with Tape() as tape:
        ops.mix_ffn(x, *params)
    kept, todo = [], [cell.cell_contents for cell in tape.ops[0].grad_fn.__closure__]
    while todo:
        v = todo.pop()
        if isinstance(v, Tensor):
            todo.append(v.data)
        elif isinstance(v, (list, tuple)):
            todo.extend(v)
        elif isinstance(v, np.ndarray):
            kept.append(v)
            todo.append(v.base)
    assert any(a is x.data for a in kept)
    assert not any(a.shape[-3:] == (5, 6, 7) for a in kept)


# ---------------------------------------------------------------- linear


def test_linear_identity():
    x = Tensor(np.arange(12, dtype=np.float32).reshape(3, 4))
    w = Tensor(np.eye(4, dtype=np.float32))
    b = Tensor(np.zeros(4, dtype=np.float32))
    np.testing.assert_array_equal(ops.linear(x, w, b).data, x.data)


def test_linear_leading_broadcast_shape():
    x = Tensor(np.zeros((2, 3, 4), dtype=np.float32))
    w = Tensor(np.zeros((5, 4), dtype=np.float32))
    b = Tensor(np.zeros(5, dtype=np.float32))
    assert ops.linear(x, w, b).shape == (2, 3, 5)


def test_linear_dim_mismatch_raises():
    x = Tensor(np.zeros((2, 3), dtype=np.float32))
    w = Tensor(np.zeros((5, 4), dtype=np.float32))
    b = Tensor(np.zeros(5, dtype=np.float32))
    with pytest.raises(DimensionError):
        ops.linear(x, w, b)


def test_linear_gradcheck():
    rng = np.random.default_rng(5)
    x = rand64(rng, 2, 3, 4)
    w = rand64(rng, 5, 4)
    b = rand64(rng, 5)
    assert_gradcheck(lambda: ops.linear(x, w, b), [x, w, b])


# ------------------------------------------------------------ layer_norm


def test_layer_norm_constant_slice_is_zero():
    x = Tensor(np.full((2, 5), 3.7, dtype=np.float32))
    g = Tensor(np.ones(5, dtype=np.float32))
    b = Tensor(np.zeros(5, dtype=np.float32))
    out = ops.layer_norm(x, g, b)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-6)


def test_layer_norm_symmetric_pair():
    x = Tensor(np.array([[-1.0, 1.0]], dtype=np.float32))
    g = Tensor(np.ones(2, dtype=np.float32))
    b = Tensor(np.zeros(2, dtype=np.float32))
    out = ops.layer_norm(x, g, b)
    np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-3)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_layer_norm_statistics(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((3, 4, 8)) * 5 + 2, dtype=np.float32)
    g = Tensor(np.ones(8, dtype=np.float32))
    b = Tensor(np.zeros(8, dtype=np.float32))
    out = ops.layer_norm(x, g, b).data
    assert np.all(np.abs(out.mean(axis=-1)) < 1e-5)
    assert np.all(np.abs(out.var(axis=-1) - 1.0) < 1e-4)


@pytest.mark.parametrize("d", [8, 16, 24])
def test_layer_norm_equal_rows_equal_outputs_at_every_position(d):
    # a BLAS GEMV row mean rounds the rows of its remainder block differently
    rng = np.random.default_rng(d)
    row = (rng.standard_normal(d) * 3 + 1).astype(np.float32)
    g = Tensor(rng.standard_normal(d), dtype=np.float32)
    b = Tensor(rng.standard_normal(d), dtype=np.float32)
    for n in range(1, 41):
        out = ops.layer_norm(Tensor(np.tile(row, (n, 1))), g, b).data
        assert np.array_equal(out, np.broadcast_to(out[0], out.shape)), n


def test_layer_norm_empty_axis_raises_dimension_error():
    x = Tensor(np.zeros((3, 0), dtype=np.float32))
    g = Tensor(np.zeros(0, dtype=np.float32))
    with pytest.raises(DimensionError, match="layer_norm"):
        ops.layer_norm(x, g, g)


def test_layer_norm_gradcheck():
    rng = np.random.default_rng(6)
    x = rand64(rng, 2, 4, 8)
    g = t64(np.ones(8) + 0.1 * rng.standard_normal(8))
    b = t64(0.1 * rng.standard_normal(8))
    assert_gradcheck(lambda: ops.layer_norm(x, g, b), [x, g, b])


# ------------------------------------------------------------- attention
# Queries are [B, H, W, C], keys and values [B, h, w, C], channels-last.


def attention64(q, k, v, heads):
    """Multi-head attention by its definition in float64, one head at a time."""
    b, h, w, c = q.shape
    d = c // heads
    qf, kf, vf = (a.reshape(b, a.shape[1] * a.shape[2], c).astype(np.float64) for a in (q, k, v))
    out = np.empty_like(qf)
    for i in range(heads):
        cols = slice(i * d, (i + 1) * d)
        s = qf[..., cols] @ kf[..., cols].transpose(0, 2, 1) / math.sqrt(d)
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        out[..., cols] = e / e.sum(axis=-1, keepdims=True) @ vf[..., cols]
    return out.reshape(q.shape)


KEY_GRIDS = {1: (1, 1), 4: (2, 2), 16: (4, 4)}


@pytest.mark.parametrize("keys", [1, 4, 16])
@pytest.mark.parametrize("heads", [1, 2, 4])
def test_attention_matches_float64_definition(heads, keys):
    rng = np.random.default_rng(30 + 10 * heads + keys)
    q = rng.standard_normal((3, 4, 5, 8)) * 2
    k = rng.standard_normal((3, *KEY_GRIDS[keys], 8)) * 2
    v = rng.standard_normal((3, *KEY_GRIDS[keys], 8))
    expected = attention64(q, k, v, heads)
    got = ops.attention(t64(q), t64(k), t64(v), heads).data
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
    got32 = ops.attention(*(Tensor(a) for a in (q, k, v)), heads).data
    assert got32.dtype == np.float32
    np.testing.assert_allclose(got32, expected, rtol=0, atol=1e-5)


@pytest.mark.parametrize("keys", [1, 4, 16])
@pytest.mark.parametrize("heads", [1, 2, 4])
def test_attention_gradcheck(heads, keys):
    rng = np.random.default_rng(40 + 10 * heads + keys)
    q = rand64(rng, 2, 2, 3, 4)
    k = rand64(rng, 2, *KEY_GRIDS[keys], 4)
    v = rand64(rng, 2, *KEY_GRIDS[keys], 4)
    assert_gradcheck(lambda: ops.attention(q, k, v, heads), [q, k, v])


def one_hot_keys(b, n, dtype):
    """[b, n, 1, n] keys or values whose key j is the unit row e_j."""
    return np.broadcast_to(np.eye(n, dtype=dtype)[None, :, None, :], (b, n, 1, n)).copy()


def softmax_of(logits, dtype):
    """The probability matrix of attention with one head over n one-hot keys and values.

    Queries of C = n channels give scores q_ij * n**-0.5, and the one-hot
    values copy each query's probability row to its output. Returns the
    output and the logits as the op computes them.
    """
    b, rows, n = logits.shape
    scale = n ** -0.5
    q = Tensor((logits / scale).reshape(b, rows, 1, n), dtype=dtype)
    kv = Tensor(one_hot_keys(b, n, dtype), dtype=dtype)
    return ops.attention(q, kv, kv, 1), q.data.reshape(b, rows, n) * dtype(scale)


def softmax64(x):
    e = np.exp(x.astype(np.float64) - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def test_softmax_uniform_slice():
    out, _ = softmax_of(np.zeros((1, 1, 4)), np.float32)
    np.testing.assert_allclose(out.data, 0.25, rtol=1e-6)


def test_softmax_large_values_stable():
    out, _ = softmax_of(np.array([[[1000.0, 0.0]]]), np.float32)
    assert np.isfinite(out.data).all()
    np.testing.assert_allclose(out.data.reshape(1, 2), [[1.0, 0.0]], atol=1e-6)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_softmax_rows_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    out, _ = softmax_of(rng.standard_normal((2, 3, 7)) * 10, np.float32)
    np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)


@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-15)])
@pytest.mark.parametrize("n", [1, 2, 4, 16, 64])
def test_softmax_matches_float64_formula(dtype, tol, n):
    rng = np.random.default_rng(n)
    rows = [
        rng.standard_normal((5, n)) * 10,
        np.where(rng.random((3, n)) < 0.5, 1e4, -1e4),  # rows of +-1e4, tied at the max
        np.full((2, n), 3.25),  # every key tied
    ]
    out, logits = softmax_of(np.concatenate(rows).reshape(2, -1, n), dtype)
    out = out.data.reshape(logits.shape)
    assert out.dtype == dtype and np.isfinite(out).all()
    np.testing.assert_allclose(out, softmax64(logits), rtol=tol, atol=tol)
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=0, atol=n * np.finfo(dtype).eps)


def test_softmax_gradcheck():
    rng = np.random.default_rng(7)
    q = t64(rng.standard_normal((1, 3, 1, 6)) * math.sqrt(6))
    kv = t64(one_hot_keys(1, 6, np.float64), requires_grad=False)
    assert_gradcheck(lambda: ops.attention(q, kv, kv, 1), [q])


def test_softmax_gradcheck_at_16_keys():
    # the attention of the 128 px default has 16 keys
    rng = np.random.default_rng(27)
    q = t64(rng.standard_normal((2, 3, 1, 16)) * 4)
    kv = t64(one_hot_keys(2, 16, np.float64), requires_grad=False)
    assert_gradcheck(lambda: ops.attention(q, kv, kv, 1), [q])


@pytest.mark.parametrize("keys", [4, 16])
@pytest.mark.parametrize("heads", [1, 2, 4, 8])
@pytest.mark.parametrize("d", [4, 16])
def test_attention_equal_query_rows_equal_outputs_at_every_position(d, heads, keys):
    # every query position must round alike; d = 16 is the model's head width
    rng = np.random.default_rng(d + heads + keys)
    c = d * heads
    row = (rng.standard_normal(c) * 3).astype(np.float32)
    k = Tensor(rng.standard_normal((1, keys, 1, c)), dtype=np.float32)
    v = Tensor(rng.standard_normal((1, keys, 1, c)), dtype=np.float32)
    for n in range(1, 41):
        q = Tensor(np.tile(row, (1, n, 1, 1)))
        out = ops.attention(q, k, v, heads).data
        assert np.array_equal(out, np.broadcast_to(out[0, 0, 0], out.shape)), n


def test_softmax_empty_axis_raises_dimension_error():
    # attention over zero keys would normalize an empty row
    k = z(2, 0, 2, 8)
    with Tape() as tape:
        with pytest.raises(DimensionError, match="^attention: no keys"):
            ops.attention(z(2, 3, 3, 8), k, k, 2)
    assert tape.ops == []


@pytest.mark.parametrize(
    "q_shape, kv_shapes, heads, match",
    [
        ((2, 3, 3, 6), [(2, 2, 2, 6), (2, 2, 2, 6)], 4, "6 channels do not split into 4 heads"),
        ((2, 3, 3, 0), [(2, 2, 2, 0), (2, 2, 2, 0)], 1, "0 channels"),
        ((2, 3, 3, 8), [(2, 2, 2, 8), (2, 2, 1, 8)], 2, "equal"),
        ((2, 3, 3, 8), [(2, 2, 2, 4), (2, 2, 2, 4)], 2, "do not match"),
    ],
    ids=["heads-do-not-divide", "no-channels", "kv-mismatch", "qk-mismatch"],
)
def test_attention_bad_shapes_raise_dimension_error_and_record_nothing(q_shape, kv_shapes, heads, match):
    k, v = (z(*s) for s in kv_shapes)
    with Tape() as tape:
        with pytest.raises(DimensionError, match=f"^attention: .*{match}"):
            ops.attention(z(*q_shape), k, v, heads)
    assert tape.ops == []


# ----------------------------------------------------------- column sums


@pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-5), (np.float64, 1e-12)])
def test_column_sums_match_float64(dtype, rtol):
    a = np.random.default_rng(28).standard_normal((12288, 16)).astype(dtype)
    got = ops._column_sums(a)
    expected = a.astype(np.float64).sum(axis=0)
    assert got.dtype == dtype and got.shape == (16,)
    # rounding grows with the sum of magnitudes, not with the (cancelling) sum
    np.testing.assert_allclose(got, expected, rtol=0, atol=rtol * np.abs(a).sum(axis=0).max())


def test_column_sums_of_an_empty_leading_axis_are_zero():
    got = ops._column_sums(np.zeros((0, 4, 16), dtype=np.float32))
    assert got.dtype == np.float32 and np.array_equal(got, np.zeros(16))


# ------------------------------------------------------------ token_mean


def test_token_mean_constant_and_mean():
    x = Tensor(np.full((2, 4, 4, 3), 1.5, dtype=np.float32))
    np.testing.assert_allclose(ops.token_mean(x).data, 1.5, rtol=1e-6)
    y = Tensor(np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32).reshape(1, 2, 2, 1))
    np.testing.assert_allclose(ops.token_mean(y).data, [[2.5]], rtol=1e-6)


def test_token_mean_of_no_tokens_raises_dimension_error():
    with pytest.raises(DimensionError, match="token_mean"):
        ops.token_mean(Tensor(np.zeros((2, 3, 0, 3), dtype=np.float32)))


def test_token_mean_gradcheck():
    rng = np.random.default_rng(9)
    x = rand64(rng, 2, 4, 5, 3)
    assert_gradcheck(lambda: ops.token_mean(x), [x])


# ---------------------------------------------------------- l2_normalize


def test_l2_normalize_345_triangle():
    x = Tensor(np.array([[3.0, 4.0]], dtype=np.float32))
    np.testing.assert_allclose(ops.l2_normalize(x).data, [[0.6, 0.8]], rtol=1e-6)


def test_l2_normalize_idempotent():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((4, 16)).astype(np.float32)
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    out = ops.l2_normalize(Tensor(x)).data
    np.testing.assert_allclose(out, x, atol=1e-6)


def test_l2_normalize_degenerate_row_raises():
    x = Tensor(np.zeros((2, 8), dtype=np.float32))
    with pytest.raises(DegenerateDescriptorError):
        ops.l2_normalize(x)


@pytest.mark.parametrize("row", [0, 2])
def test_l2_normalize_near_zero_row_is_named(row):
    x = np.ones((3, 8), dtype=np.float32)
    x[row] = 1e-14
    with pytest.raises(DegenerateDescriptorError, match=f"^row {row} has a near-zero norm"):
        ops.l2_normalize(Tensor(x))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_l2_normalize_non_finite_row_raises(bad):
    x = np.ones((3, 8), dtype=np.float32)
    x[1, 5] = bad
    with pytest.raises(DegenerateDescriptorError, match="non-finite"):
        ops.l2_normalize(Tensor(x))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_l2_normalize_unit_rows(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((4, 128)) + 0.1, dtype=np.float32)
    out = ops.l2_normalize(x).data
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-5)


def test_l2_normalize_gradcheck():
    rng = np.random.default_rng(11)
    x = rand64(rng, 4, 6)
    assert_gradcheck(lambda: ops.l2_normalize(x), [x])


# ------------------------------------------------------ empty channel axes


def z(*shape):
    return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)


@pytest.mark.parametrize(
    "op, call",
    [
        ("linear", lambda: ops.linear(z(2, 3), z(0, 3), z(0))),
        ("linear", lambda: ops.linear(z(2, 0), z(4, 0), z(4))),
        ("linear", lambda: ops.linear(z(2, 0), z(4, 0), None)),
        # mix_ffn's hidden axis is its depthwise convolution's channel axis
        ("mix_ffn", lambda: ops.mix_ffn(z(2, 4, 4, 3), z(0, 3), z(0), z(0, 1, 3, 3), z(0), z(3, 0), z(3))),
        ("mix_ffn", lambda: ops.mix_ffn(z(2, 4, 4, 0), z(6, 0), z(6), z(6, 1, 3, 3), z(6), z(0, 6), z(0))),
        ("mix_ffn", lambda: ops.mix_ffn(z(2, 4, 4, 0), z(6, 0), z(6), z(6, 1, 3, 3), z(6), z(3, 6), z(3))),
        ("conv2d", lambda: ops.conv2d(z(2, 4, 4, 1), z(0, 1, 3, 3), z(0), stride=1, padding=1)),
        ("conv2d", lambda: ops.conv2d(z(2, 4, 4, 0), z(3, 0, 3, 3), z(3), stride=1, padding=1)),
        ("token_mean", lambda: ops.token_mean(z(2, 4, 4, 0))),
        ("l2_normalize", lambda: ops.l2_normalize(z(2, 0))),
    ],
    ids=[
        "linear-dout0", "linear-din0", "linear-din0-no-bias",
        "depthwise-c0", "mix_ffn-c0", "mix_ffn-c0-cout0", "conv2d-cout0",
        "conv2d-cin0", "token_mean-c0", "l2_normalize-d0",
    ],
)
def test_empty_channel_axis_raises_dimension_error_at_forward(op, call):
    with Tape() as tape:
        with pytest.raises(DimensionError, match=f"^{op}: "):
            call()
    assert tape.ops == []


@pytest.mark.parametrize(
    "call, cause",
    [
        (lambda: ops.linear(z(2, 3), z(4, 3, 1), z(4)), r"linear: bad parameter shapes w=\(4, 3, 1\)"),
        (lambda: ops.linear(z(2, 3), z(4, 3), z(5)), r"linear: bad parameter shapes w=\(4, 3\)"),
        (lambda: ops.layer_norm(z(2, 3), z(4), z(3)), r"layer_norm: gamma/beta must have shape \(3,\)"),
        (lambda: ops.conv2d(z(4, 4, 1), z(2, 1, 3, 3), z(2)), "conv2d expects 4-d input and weight"),
        (lambda: ops.conv2d(z(1, 4, 4, 1), z(2, 1, 3, 2), z(2)), "conv2d: kernel must be square"),
        (lambda: ops.conv2d(z(1, 4, 4, 1), z(2, 1, 3, 3), z(3)), r"conv2d: bias must have shape \(2,\)"),
        (lambda: ops.conv2d(z(1, 4, 4, 1), z(2, 1, 3, 3), z(2), stride=0), "conv2d: stride must be >= 1"),
        (lambda: ops.conv2d(z(1, 2, 2, 1), z(2, 1, 5, 5), z(2), padding=1),
         "conv2d: kernel larger than padded input"),
        (lambda: ops.mix_ffn(z(2, 16, 3), z(6, 3), z(6), z(6, 1, 3, 3), z(6), z(3, 6), z(3)),
         r"mix_ffn: expected a 4-d input and 2-d fc weights, got \(2, 16, 3\)"),
        (lambda: ops.mix_ffn(z(2, 4, 4, 3), z(6, 3), z(6), z(6, 1, 5, 5), z(6), z(3, 6), z(3)),
         r"mix_ffn: parameter shapes \(.*\(6, 1, 5, 5\).*\) do not fit 3 input channels"),
        (lambda: ops.token_mean(z(2, 16, 3)), r"token_mean expects a \[B, H, W, C\] tensor"),
        (lambda: ops.l2_normalize(z(2, 1, 3)), r"l2_normalize expects a \[B, D\] matrix"),
    ],
    ids=[
        "linear-w-3d", "linear-bias-length", "layer_norm-gamma", "conv2d-3d-input", "conv2d-kernel-3x2",
        "conv2d-bias-length", "conv2d-stride0", "conv2d-kernel-5-on-2", "mix_ffn-3d-input",
        "mix_ffn-depthwise-5x5", "token_mean-3d", "l2_normalize-3d",
    ],
)
def test_a_bad_shape_raises_dimension_error_naming_it_at_forward(call, cause):
    with Tape() as tape:
        with pytest.raises(DimensionError, match=f"^{cause}$"):
            call()
    assert tape.ops == []


# ------------------------------------------------- small composite pieces


def test_add_gradcheck():
    rng = np.random.default_rng(15)
    a = rand64(rng, 3, 4)
    b = rand64(rng, 3, 4)
    assert_gradcheck(lambda: ops.add(ops.add(a, b), a), [a, b])


def test_add_shape_mismatch_raises():
    with pytest.raises(DimensionError, match="add: shape mismatch"):
        ops.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


def test_forward_determinism_bit_identical():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((2, 16, 16, 3)).astype(np.float32)
    w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)

    def run():
        out = ops.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, padding=1)
        return ops.token_mean(ops.attention(out, out, out, 2)).data

    r1, r2 = run(), run()
    assert np.array_equal(r1, r2)


def test_five_random_instances_per_op_gradcheck():
    # engine-wide invariant: 5 random small-shape instances per differentiable op
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        x = rand64(rng, 2, 6, 6, 3)
        w = rand64(rng, 2, 3, 3, 3)
        b = rand64(rng, 2)
        assert_gradcheck(lambda: ops.conv2d(x, w, b, stride=1, padding=1), [x, w, b])
        xm = rand64(rng, 2, 3, 3, 2)
        pm = mix_ffn_params(rng, 2, 4, 3)
        assert_gradcheck(lambda: ops.mix_ffn(xm, *pm), [xm, *pm])
        xl = rand64(rng, 2, 7)
        wl = rand64(rng, 3, 7)
        bl = rand64(rng, 3)
        assert_gradcheck(lambda: ops.linear(xl, wl, bl), [xl, wl, bl])
        xn = rand64(rng, 2, 5)
        gn = t64(np.ones(5) + 0.05 * rng.standard_normal(5))
        bn = t64(0.05 * rng.standard_normal(5))
        assert_gradcheck(lambda: ops.layer_norm(xn, gn, bn), [xn, gn, bn])
        qa, ka, va = rand64(rng, 1, 2, 2, 4), rand64(rng, 1, 2, 1, 4), rand64(rng, 1, 2, 1, 4)
        assert_gradcheck(lambda: ops.attention(qa, ka, va, 2), [qa, ka, va])
        xp = rand64(rng, 2, 3, 3, 2)
        assert_gradcheck(lambda: ops.token_mean(xp), [xp])
        xu = t64(rng.standard_normal((3, 8)) + 0.2)
        assert_gradcheck(lambda: ops.l2_normalize(xu), [xu])
