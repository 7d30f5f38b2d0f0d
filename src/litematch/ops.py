"""Differentiable operations over :class:`~litematch.tensor.Tensor`.

These are the eight operations the descriptor network (:mod:`litematch.model`)
calls, and no others: :func:`add`, :func:`linear`, :func:`layer_norm`,
:func:`attention`, :func:`mix_ffn`, :func:`conv2d`, :func:`token_mean` and
:func:`l2_normalize`. The triplet loss records its own single tape entry
(:func:`litematch.loss.triplet_loss`). Each operation validates shapes,
raising :class:`~litematch.errors.DimensionError` for an empty channel or
feature axis before any numpy call fails on it, computes the forward
result in the input dtype, and registers one backward rule on the active
tape. No implicit broadcasting except over the leading dimensions of
:func:`linear`; all other operations require exact shapes.

Spatial activations are channels-last, [B, H, W, C], so a [B, N, C] token
matrix is a free reshape of them and every trailing-axis op (:func:`linear`,
:func:`layer_norm`) applies to either form. :func:`attention`,
:func:`mix_ffn` and :func:`token_mean` take [B, H, W, C] and reshape it
themselves. Convolution weights keep their stored layouts, [Cout, Cin, k, k]
for :func:`conv2d` and [C, 1, 3, 3] for the depthwise convolution inside
:func:`mix_ffn`, and their gradients come back in the same layouts.

A helper thread may run no public litematch function (:mod:`litematch._pool`),
so :func:`mix_ffn`'s chunks, whose backward reruns their forward, run array
kernels only: :func:`_fc1_depthwise` (fc1 written into a zero-padded tap
buffer, :func:`_tap_windows`, then the depthwise convolution), :func:`_depthwise`
and :func:`_depthwise_wgrad` (``np.einsum`` over a tap buffer's strided 3x3
window view), :func:`_gelu_fwd`, :func:`_gelu_bwd` and :func:`_linear_fwd`.

Reductions over a short axis follow three rules, because numpy's
``sum``/``mean``/``max`` over such an axis spend most of their time on
per-row overhead:

- Row sums (the statistics of :func:`layer_norm` and the softmax inside
  :func:`attention`) are ``np.einsum`` reductions. A BLAS GEMV would be
  faster, but it rounds rows differently depending on their position, so
  equal inputs would not give equal outputs.
- Column sums (every bias and gain gradient) are one BLAS GEMV,
  ``ones @ a`` (:func:`_column_sums`). Each column is one dot product, so
  position-dependent rounding across rows does not arise.
- The row max of the softmax inside :func:`attention` is a fold over the
  key columns, ``np.maximum(top, p[..., j], out=top)``: attention has a few
  to a few dozen keys, so a handful of whole-array passes beats a per-row
  loop.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from . import _pool
from .errors import DegenerateDescriptorError, DimensionError
from .tensor import Tensor, record

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
_LN_EPS = 1e-6
# The Mix-FFN runs over chunks of samples whose hidden activation is about this size. Its
# backward reruns each chunk's forward: a 64 px train step took 10-12% longer in 256 KiB chunks
# than with stored arrays, and no longer in 512 KiB; 1 MiB held 8-10 MB more RSS than 512 KiB.
_BLOCK_BYTES = 1 << 19


def _column_sums(a: np.ndarray) -> np.ndarray:
    """Sums over every leading axis of ``a``, as one BLAS GEMV ``ones @ a``.

    ``a.sum(axis=0)`` over a short trailing axis pays per-row overhead; the
    GEMV does not. An empty leading axis gives zeros.
    """
    a2 = a.reshape(-1, a.shape[-1])
    return np.ones(a2.shape[0], dtype=a2.dtype) @ a2


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"add: shape mismatch {a.shape} vs {b.shape}")
    out = Tensor._wrap(a.data + b.data)
    record((a, b), out, lambda g: (g, g))
    return out


def _linear_fwd(x: np.ndarray, w: np.ndarray, b: "np.ndarray | None") -> np.ndarray:
    """The forward kernel of :func:`linear`, on arrays; ``b`` may be None."""
    # one GEMM over all leading axes: a stack of small ones is far slower
    y = x.reshape(-1, x.shape[-1]) @ w.T
    if b is not None:
        y += b
    return y.reshape(x.shape[:-1] + (w.shape[0],))


def linear(x: Tensor, w: Tensor, b: "Tensor | None") -> Tensor:
    """Affine map over the trailing axis, broadcast over leading axes.

    ``w`` has shape [Dout, Din], ``b`` shape [Dout]; pass ``b=None`` for a
    pure projection.
    """
    if w.ndim != 2 or (b is not None and (b.ndim != 1 or b.shape[0] != w.shape[0])):
        raise DimensionError(f"linear: bad parameter shapes w={w.shape}")
    if x.shape[-1] != w.shape[1]:
        raise DimensionError(f"linear: input dim {x.shape[-1]} != weight Din {w.shape[1]}")
    din, dout = w.shape[1], w.shape[0]
    if din == 0 or dout == 0:
        raise DimensionError(f"linear: empty feature axis, weight shape {w.shape}")
    out = Tensor._wrap(_linear_fwd(x.data, w.data, None if b is None else b.data))

    def grad_fn(g):
        g2 = g.reshape(-1, dout)
        gx = (g2 @ w.data).reshape(x.shape)
        gw = g2.T @ x.data.reshape(-1, din)
        if b is None:
            return gx, gw
        return gx, gw, _column_sums(g2)

    record((x, w) if b is None else (x, w, b), out, grad_fn)
    return out


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the trailing axis to zero mean, unit variance, then affine.

    The variance gets ``_LN_EPS`` (1e-6) added before its square root.

    The row statistics, and the two row means of the backward pass, are
    ``np.einsum`` reductions over the [N, d] view: ``mean`` over a short
    trailing axis spends most of its time on per-row overhead. A GEMV
    against ``ones / d`` would be faster still, but BLAS rounds the rows of
    its remainder block differently, so equal rows at different positions
    would normalize to different values; einsum runs one loop for every row.
    The gamma and beta gradients are column sums (:func:`_column_sums`).
    """
    d = x.shape[-1] if x.ndim else 0
    if d == 0:
        raise DimensionError(f"layer_norm: the normalized trailing axis is empty, shape {x.shape}")
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(f"layer_norm: gamma/beta must have shape ({d},)")
    x2 = x.data.reshape(-1, d)
    xhat = x2 - (np.einsum("ij->i", x2) / d)[:, None]
    var = np.einsum("ij,ij->i", xhat, xhat) / d
    inv = (1.0 / np.sqrt(var + _LN_EPS))[:, None]
    xhat *= inv
    y = xhat * gamma.data
    y += beta.data
    out = Tensor._wrap(y.reshape(x.shape))

    def grad_fn(g):
        g2 = g.reshape(-1, d)
        dxhat = g2 * gamma.data
        m1 = np.einsum("ij->i", dxhat) / d
        m2 = np.einsum("ij,ij->i", dxhat, xhat) / d
        dxhat -= m1[:, None]
        dxhat -= xhat * m2[:, None]
        dxhat *= inv
        return dxhat.reshape(g.shape), _column_sums(g2 * xhat), _column_sums(g2)

    record((x, gamma, beta), out, grad_fn)
    return out


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention, before the output projection.

    ``q``: [B, H, W, C] queries; ``k``, ``v``: [B, h, w, C] keys and values.
    Returns the [B, H, W, C] context: per head of d = C / heads channels,
    softmax(q k^T / sqrt(d)) v over the h*w keys, with the heads merged
    back into channels.

    The heads are strided [B, heads, N, d] views of the [B, N, heads, d]
    reshapes, which ``np.matmul`` reads without head-split copies; the
    context and each input gradient are merged back with one copy. The
    softmax subtracts a row max folded over the key columns, exponentiates
    in place and divides by einsum row sums (see the module docstring).
    The backward pass reuses the saved probabilities.
    """
    if q.ndim != 4 or k.ndim != 4 or k.shape != v.shape:
        raise DimensionError(
            f"attention: expected [B, H, W, C] queries and equal [B, h, w, C] keys and values, "
            f"got {q.shape}, {k.shape} and {v.shape}"
        )
    bsz, _, _, c = q.shape
    if k.shape[0] != bsz or k.shape[3] != c:
        raise DimensionError(f"attention: keys {k.shape} do not match queries {q.shape}")
    m = k.shape[1] * k.shape[2]
    if m == 0:
        raise DimensionError(f"attention: no keys to attend to, key shape {k.shape}")
    if heads < 1 or c == 0 or c % heads:
        raise DimensionError(f"attention: {c} channels do not split into {heads} heads")
    d = c // heads
    scale = d ** -0.5

    def split(a: np.ndarray) -> np.ndarray:
        return a.reshape(bsz, a.shape[1] * a.shape[2], heads, d).transpose(0, 2, 1, 3)

    def merge(a: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        return a.transpose(0, 2, 1, 3).reshape(shape)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    p = np.matmul(qh, kh.transpose(0, 1, 3, 2))
    p *= scale
    top = p[..., 0].copy()
    for j in range(1, m):
        np.maximum(top, p[..., j], out=top)
    p -= top[..., None]
    np.exp(p, out=p)
    p /= np.einsum("...j->...", p)[..., None]
    out = Tensor._wrap(merge(np.matmul(p, vh), q.shape))

    def grad_fn(g):
        gh = split(g)
        gv = np.matmul(p.transpose(0, 1, 3, 2), gh)
        # softmax backward p * (dp - <dp, p>), then the scale
        gs = np.matmul(gh, vh.transpose(0, 1, 3, 2))
        gs -= np.einsum("...j,...j->...", gs, p)[..., None]
        gs *= p
        gs *= scale
        gq = np.matmul(gs, kh)
        gk = np.matmul(gs.transpose(0, 1, 3, 2), qh)
        return merge(gq, q.shape), merge(gk, k.shape), merge(gv, v.shape)

    record((q, k, v), out, grad_fn)
    return out


def _gelu_fwd(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU of an array and the tanh values t that :func:`_gelu_bwd` reads:
    0.5*x*(1 + t), t = tanh(C*(x + A*x*x*x)), in place and in that evaluation
    order, so the result is bit-identical to the plain formula."""
    t = np.multiply(x, _GELU_A)
    t *= x
    t *= x
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    y = np.multiply(x, 0.5)
    y *= 1.0 + t
    return y, t


def _gelu_bwd(x: np.ndarray, t: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The input gradient of :func:`_gelu_fwd` at ``x``, with its tanh values
    ``t``, for the output gradient ``g``."""
    # 0.5*(1 + t) + 0.5*x*(1 - t*t)*du with du = C*(1 + 3*A*x*x)
    du = np.multiply(x, 3.0 * _GELU_A)
    du *= x
    du += 1.0
    du *= _GELU_C
    dx = np.multiply(t, t)
    np.subtract(1.0, dx, out=dx)
    dx *= x
    dx *= 0.5
    dx *= du
    np.add(t, 1.0, out=du)
    du *= 0.5
    du += dx
    du *= g
    return du


def _im2col(x: np.ndarray, k: int, s: int, p: int) -> np.ndarray:
    """The [B*H'*W', Cin*k*k] im2col matrix of [B, H, W, Cin] for kernel ``k``,
    stride ``s`` and zero padding ``p``: row (b, i, j) is the window of output
    pixel (i, j), in the order of a [Cout, Cin, k, k] weight row."""
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0))) if p else x
    # [B, H', W', Cin, k, k]
    win = sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::s, ::s]
    bsz, hp, wp, cin = win.shape[:4]
    n = bsz * hp * wp
    # copying the 6-d view moves k values at a stride of Cin at a time; copy each window row's
    # k*Cin contiguous input values instead, then reorder every row to (Cin, k, k)
    runs = np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3))
    return runs.reshape(n, k, k, cin).transpose(0, 3, 1, 2).reshape(n, cin * k * k)


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-d convolution (cross-correlation) with zero padding: the im2col matrix
    through :func:`_linear_fwd`, the forward kernel of :func:`linear`.

    ``x``: [B, H, W, Cin] channels-last; ``w``: [Cout, Cin, k, k] (the stored
    layout, also that of its gradient); ``b``: [Cout]. Returns
    [B, H', W', Cout] with H' = floor((H + 2*padding - k)/stride) + 1.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise DimensionError("conv2d expects 4-d input and weight")
    bsz, h, ww, cin = x.shape
    cout, cw, kh, kw = w.shape
    if cw != cin:
        raise DimensionError(f"conv2d: input channels {cin} != weight channels {cw}")
    if kh != kw:
        raise DimensionError("conv2d: kernel must be square")
    if not cin * cout:
        raise DimensionError(f"conv2d: empty channel axis, weight shape {w.shape}")
    if b.shape != (cout,):
        raise DimensionError(f"conv2d: bias must have shape ({cout},)")
    if stride < 1:
        raise DimensionError("conv2d: stride must be >= 1")
    if h + 2 * padding < kh or ww + 2 * padding < kw:
        raise DimensionError("conv2d: kernel larger than padded input")
    k, s, p = kh, stride, padding
    hp, wp = (h + 2 * p - k) // s + 1, (ww + 2 * p - k) // s + 1
    wmat = w.data.reshape(cout, -1)
    y = _linear_fwd(_im2col(x.data, k, s, p), wmat, b.data)
    out = Tensor._wrap(y.reshape(bsz, hp, wp, cout))
    # stage 1 embeds the patch batch, neither a leaf nor recorded: nothing reads its gradient
    needs_gx = x.requires_grad or x.node is not None

    def grad_fn(g):
        gmat = g.reshape(bsz * hp * wp, cout)
        gb = _column_sums(gmat)
        # the tape keeps x, not its im2col matrix, k*k/(s*s) times x's size: rebuild it
        gw = (gmat.T @ _im2col(x.data, k, s, p)).reshape(w.shape)
        if not needs_gx:
            return None, gw, gb
        gcol = (gmat @ wmat).reshape(bsz, hp, wp, cin, k, k)
        if k == s and not p and (h, ww) == (hp * k, wp * k):
            # the windows tile x (every spatial reduction): each pixel is in one window,
            # so its gradient is one entry of gcol and the scatter is one transposed copy
            return np.ascontiguousarray(gcol.transpose(0, 1, 4, 2, 5, 3)).reshape(x.shape), gw, gb
        gxp = np.zeros((bsz, h + 2 * p, ww + 2 * p, cin), dtype=g.dtype)
        for ki in range(k):
            for kj in range(k):
                gxp[:, ki : ki + hp * s : s, kj : kj + wp * s : s] += gcol[..., ki, kj]
        gx = gxp[:, p : p + h, p : p + ww] if p else gxp
        return np.ascontiguousarray(gx), gw, gb

    record((x, w, b), out, grad_fn)
    return out


def _tap_windows(shape: tuple[int, ...], dtype) -> tuple[np.ndarray, np.ndarray]:
    """A tap buffer for a [B, H, W, C] array: its writable [B, H, W, C]
    interior, which the caller fills, and a read-only [B, H, W*C, 3, 3] view
    of the zero-padded 3x3 windows of what the interior holds.

    The flat buffer gives each sample a zero row above and below and has C
    spare zeros at each end. Window tap (i, j) of row element r = w*C + c
    then sits a fixed (i - 1) rows and (j - 1) columns of C away from it, so
    the strides are (sample, row, 1, row, C). Column padding is not stored:
    tap j = 0 at w = 0 reads the end of the row above, and j = 2 at w = W - 1
    the start of the row below, and the tiled taps zero those taps
    (:func:`_tiled_taps`).
    """
    bsz, h, w, c = shape
    row = w * c
    n = bsz * (h + 2) * row
    buf = np.empty(n + 2 * c, dtype=dtype)
    buf[:c] = 0
    buf[c + n :] = 0
    rows = buf[c : c + n].reshape(bsz, h + 2, row)
    rows[:, 0] = 0
    rows[:, -1] = 0
    s = buf.itemsize
    windows = as_strided(
        buf, (bsz, h, row, 3, 3), (s * (h + 2) * row, s * row, s, s * row, s * c), writeable=False
    )
    return rows[:, 1:-1].reshape(shape), windows


def _drop_wrapped(tiled: np.ndarray, c: int) -> np.ndarray:
    """Zero, in place, the [3, 3, W*C] taps of ``c`` channels that read across a row edge.

    These are the left taps at column 0 and the right taps at column W - 1,
    where :func:`_tap_windows` reads a neighbouring row instead of padding.
    At W = 1 both edges are the same column.
    """
    tiled[:, 0, :c] = 0
    tiled[:, 2, -c:] = 0
    return tiled


def _tiled_taps(wd: np.ndarray, w: int) -> np.ndarray:
    """The [C, 1, 3, 3] depthwise weight ``wd`` as [3, 3, C] taps repeated over
    the W*C elements of a window row, with the taps that read across a row edge
    zeroed (:func:`_drop_wrapped`)."""
    return _drop_wrapped(np.tile(wd[:, 0].transpose(1, 2, 0), (1, 1, w)), wd.shape[0])


def _sample_chunks(n: int, sample_bytes: int):
    """Yield slices of a leading axis of ``n`` samples, about ``_BLOCK_BYTES`` each.

    ``sample_bytes`` is the size of one sample's widest array, so a chunk
    of that array fits the L2 cache. Every chunk holds at least one sample,
    so empty samples and an empty leading axis need no special case.
    """
    step = max(1, _BLOCK_BYTES // max(1, sample_bytes))
    for lo in range(0, n, step):
        yield slice(lo, lo + step)


def _depthwise(windows: np.ndarray, tiled: np.ndarray) -> np.ndarray:
    """Per-channel 3x3 correlation, stride 1, zero padding 1, no bias, [B, H, W*C],
    of the [B, H, W, C] array whose :func:`_tap_windows` are ``windows``, with the
    :func:`_tiled_taps` ``tiled`` of a [C, 1, 3, 3] weight ``wd``. Its input
    gradient is the correlation of the output gradient with those of
    ``wd[..., ::-1, ::-1]``."""
    # one pass: every output element sums its nine window products
    return np.einsum("bhrij,ijr->bhr", windows, tiled)


def _depthwise_wgrad(windows: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The [C, 1, 3, 3] weight gradient of :func:`_depthwise` at the input
    whose :func:`_tap_windows` are ``windows``, for the [B, H, W, C] output gradient ``g``."""
    bsz, h, w, c = g.shape
    g3 = g.reshape(bsz, h, w * c)
    # over mix_ffn's chunks of a batch of 48 the nine einsums beat one "bhr,bhrij->ijr"
    # at every 64 px stage (5.4 against 7.4 ms at [48, 16, 16, 128]), not at 128 px
    gtaps = np.empty((3, 3, w * c), dtype=np.result_type(windows, g))
    for i in range(3):
        for j in range(3):
            np.einsum("bhr,bhr->r", g3, windows[..., i, j], out=gtaps[i, j])
    gw = _drop_wrapped(gtaps, c).reshape(3, 3, w, c).sum(axis=2)
    return np.ascontiguousarray(gw.transpose(2, 0, 1)[:, None])


def _fc1_depthwise(xs, w1, b1, tiled, bd) -> tuple[np.ndarray, np.ndarray]:
    """The :func:`_tap_windows` of fc1 of a [B, H, W, C] chunk, whose GEMM and
    bias go straight into the tap buffer's interior, and the [B, H, W, D]
    depthwise convolution of fc1, with the :func:`_tiled_taps` ``tiled`` and
    the [D] bias ``bd``: the Mix-FFN's pre-GELU activation."""
    hidden, windows = _tap_windows(xs.shape[:-1] + w1.shape[:1], np.result_type(xs, w1))
    # the bias add of _linear_fwd, into the buffer: one pass, no fc1 output to copy in
    np.add((xs.reshape(-1, xs.shape[-1]) @ w1.T).reshape(hidden.shape), b1, out=hidden)
    pre = _depthwise(windows, tiled).reshape(hidden.shape)
    pre += bd
    return windows, pre


def _mix_ffn_fwd(chunks, w1, b1, tiled, bd, w2, b2) -> None:
    # kernels only: this runs on the helper threads too (see ``_pool``)
    for _, xs, ys in chunks:
        # [1]: the tap buffer is freed before GELU and fc2 run
        pre = _fc1_depthwise(xs, w1, b1, tiled, bd)[1]
        ys[...] = _linear_fwd(_gelu_fwd(pre)[0], w2, b2)


def _mix_ffn_bwd(chunks, w1, b1, tiled, flipped, bd, w2, partials) -> None:
    # kernels only: this runs on the helper threads too (see ``_pool``)
    for i, xs, gs, gxs in chunks:
        windows, pre = _fc1_depthwise(xs, w1, b1, tiled, bd)
        f, t = _gelu_fwd(pre)
        g2 = gs.reshape(-1, w2.shape[0])
        gpre = _gelu_bwd(pre, t, (g2 @ w2).reshape(pre.shape))
        interior, gwindows = _tap_windows(gpre.shape, gpre.dtype)
        interior[...] = gpre
        gh = _depthwise(gwindows, flipped).reshape(-1, w1.shape[0])
        del interior, gwindows  # a padded copy of gpre: free it before the GEMMs below
        gxs[...] = (gh @ w1).reshape(xs.shape)
        gw1 = gh.T @ xs.reshape(-1, w1.shape[1])
        gwd = _depthwise_wgrad(windows, gpre)
        gw2 = g2.T @ f.reshape(-1, w2.shape[1])
        partials[i] = gw1, _column_sums(gh), gwd, _column_sums(gpre), gw2, _column_sums(g2)


def mix_ffn(
    x: Tensor, w1: Tensor, b1: Tensor, wd: Tensor, bd: Tensor, w2: Tensor, b2: Tensor
) -> Tensor:
    """PVTv2's Mix-FFN of [B, H, W, C]: fc1 ``w1`` [D, C], ``b1`` [D]; a 3x3
    depthwise convolution ``wd`` [D, 1, 3, 3], ``bd`` [D], zero padding 1;
    tanh GELU; fc2 ``w2`` [Cout, D], ``b2`` [Cout]. Returns [B, H, W, Cout].

    The steps run over chunks of samples whose hidden activation fits
    ``_BLOCK_BYTES`` (the L2 cache), shared with :mod:`litematch._pool`'s
    helpers, taped or not. One prologue, :func:`_fc1_depthwise`, writes a
    chunk's fc1 into the zero-padded tap buffer that the depthwise
    convolution reads, and the taps are tiled once per call. The tape keeps
    no hidden-width array: the backward shares the chunks again, reruns the
    prologue on each chunk of ``x`` (its tap windows also give the depthwise
    weight gradient), correlates the pre-GELU gradient with the flipped taps
    for the input gradient and sums the parameter-gradient partials in chunk
    order, so no result depends on which thread ran a chunk.
    """
    if x.ndim != 4 or w1.ndim != 2 or w2.ndim != 2:
        raise DimensionError(f"mix_ffn: expected a 4-d input and 2-d fc weights, got {x.shape}")
    bsz, h, w, c = x.shape
    hid, cout = w1.shape[0], w2.shape[0]
    shapes = (w1.shape, b1.shape, wd.shape, bd.shape, w2.shape, b2.shape)
    if shapes != ((hid, c), (hid,), (hid, 1, 3, 3), (hid,), (cout, hid), (cout,)):
        raise DimensionError(f"mix_ffn: parameter shapes {shapes} do not fit {c} input channels")
    if not c * hid * cout:
        raise DimensionError(f"mix_ffn: empty channel or hidden axis, parameter shapes {shapes}")
    tiled = _tiled_taps(wd.data, w)
    out = np.empty((bsz, h, w, cout), dtype=np.result_type(x.data, w1.data, wd.data, w2.data))
    slices = list(_sample_chunks(bsz, h * w * hid * x.data.itemsize))
    _pool.share(
        [(i, x.data[s], out[s]) for i, s in enumerate(slices)], _mix_ffn_fwd,
        w1.data, b1.data, tiled, bd.data, w2.data, b2.data, blas=True,
    )
    result = Tensor._wrap(out)

    def grad_fn(g):
        gx = np.empty(x.shape, dtype=g.dtype)
        partials = [None] * len(slices)
        _pool.share(
            [(i, x.data[s], g[s], gx[s]) for i, s in enumerate(slices)], _mix_ffn_bwd,
            w1.data, b1.data, tiled, _tiled_taps(wd.data[..., ::-1, ::-1], w), bd.data, w2.data,
            partials, blas=True,
        )
        grads = [np.zeros(p.shape, dtype=g.dtype) for p in (w1, b1, wd, bd, w2, b2)]
        for part in partials:  # in chunk order, whichever thread ran each chunk
            for total, partial in zip(grads, part):
                total += partial
        return gx, *grads

    record((x, w1, b1, wd, bd, w2, b2), result, grad_fn)
    return result


def token_mean(x: Tensor) -> Tensor:
    """Mean over the spatial tokens: [B, H, W, C] -> [B, C]."""
    if x.ndim != 4:
        raise DimensionError("token_mean expects a [B, H, W, C] tensor")
    bsz, h, w, c = x.shape
    n = h * w
    if not n * c:
        raise DimensionError(f"token_mean: no tokens or no channels to average, shape {x.shape}")
    out = Tensor._wrap(x.data.reshape(bsz, n, c).mean(axis=1))

    def grad_fn(g):
        return (np.broadcast_to(g[:, None, None, :] / n, (bsz, h, w, c)).copy(),)

    record((x,), out, grad_fn)
    return out


def l2_normalize(x: Tensor) -> Tensor:
    """Scale each row of [B, D] to unit Euclidean norm."""
    if x.ndim != 2:
        raise DimensionError("l2_normalize expects a [B, D] matrix")
    if x.shape[1] == 0:
        raise DimensionError(f"l2_normalize: empty feature axis, shape {x.shape}")
    norms = np.sqrt((x.data * x.data).sum(axis=1, keepdims=True))
    bad = ~np.isfinite(norms[:, 0])
    if bad.any():
        raise DegenerateDescriptorError(
            f"row {int(np.argmax(bad))} has a non-finite norm and cannot be normalized"
        )
    tiny = norms[:, 0] <= 1e-12
    if tiny.any():
        raise DegenerateDescriptorError(
            f"row {int(np.argmax(tiny))} has a near-zero norm and cannot be normalized"
        )
    y = x.data / norms
    out = Tensor._wrap(y)

    def grad_fn(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        return ((g - y * dot) / norms,)

    record((x,), out, grad_fn)
    return out
