"""Differentiable operations over :class:`~litematch.tensor.Tensor`.

These are the nine operations the descriptor network (:mod:`litematch.model`)
calls, and no others: :func:`add`, :func:`linear`, :func:`layer_norm`,
:func:`attention`, :func:`gelu`, :func:`conv2d`, :func:`depthwise_conv2d`,
:func:`token_mean` and :func:`l2_normalize`. The triplet loss records its
own single tape entry (:func:`litematch.loss.triplet_loss`). Each operation
validates shapes, raising :class:`~litematch.errors.DimensionError` for an
empty channel or feature axis before any numpy call fails on it, computes
the forward result in the input dtype, and registers one backward rule on
the active tape. No implicit broadcasting except over the leading
dimensions of :func:`linear`; all other operations require exact shapes.

Spatial activations are channels-last, [B, H, W, C], so a [B, N, C] token
matrix is a free reshape of them and every trailing-axis op (:func:`linear`,
:func:`layer_norm`, :func:`gelu`) applies to either form. :func:`attention`
and :func:`token_mean` take [B, H, W, C] and make that reshape themselves.
Convolution weights keep their stored layouts, [Cout, Cin, k, k] for
:func:`conv2d` and [C, 1, 3, 3] for :func:`depthwise_conv2d`, and their
gradients come back in the same layouts.

The heavy elementwise kernels make as few passes over memory as they can.
:func:`depthwise_conv2d` is one ``np.einsum`` per chunk of samples over a
strided 3x3 tap-window view of a copy padded with zero rows, whose taps
that would wrap across a row edge are zeroed. :func:`gelu` runs its
in-place sequence over flat blocks that fit the L2 cache. Both size their
pieces with :func:`_sample_chunks`.

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

from .errors import DegenerateDescriptorError, DimensionError
from .tensor import Tensor, active_tape, record

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
_LN_EPS = 1e-6
# Elementwise sequences, depthwise sample chunks and the model's untaped
# feed-forward chunks run over blocks of about this size to stay in the L2 cache.
_BLOCK_BYTES = 1 << 18


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
    # one GEMM over all leading axes: a stack of small ones is far slower
    x2 = x.data.reshape(-1, din)
    y = x2 @ w.data.T
    if b is not None:
        y += b.data
    out = Tensor._wrap(y.reshape(x.shape[:-1] + (dout,)))

    def grad_fn(g):
        g2 = g.reshape(-1, dout)
        gx = (g2 @ w.data).reshape(x.shape)
        gw = g2.T @ x2
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
        return dxhat.reshape(x.shape), _column_sums(g2 * xhat), _column_sums(g2)

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


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh approximation.

    Computed in place as 0.5*x*(1 + t), t = tanh(C*(x + A*x*x*x)), in that
    evaluation order, so the result is bit-identical to the plain formula.
    Forward and backward run their sequences over flat blocks of about
    ``_BLOCK_BYTES`` (:func:`_sample_chunks` over single elements).
    """
    xd = x.data
    t = np.empty(xd.shape, dtype=xd.dtype)
    y = np.empty(xd.shape, dtype=xd.dtype)
    xf, tf, yf = xd.reshape(-1), t.reshape(-1), y.reshape(-1)
    for s in _sample_chunks(xf.size, xf.itemsize):
        xs, ts, ys = xf[s], tf[s], yf[s]
        np.multiply(xs, _GELU_A, out=ts)
        ts *= xs
        ts *= xs
        ts += xs
        ts *= _GELU_C
        np.tanh(ts, out=ts)
        np.multiply(xs, 0.5, out=ys)
        ys *= 1.0 + ts
    out = Tensor._wrap(y)

    def grad_fn(g):
        # 0.5*(1 + t) + 0.5*x*(1 - t*t)*du with du = C*(1 + 3*A*x*x)
        gx = np.empty(xd.shape, dtype=xd.dtype)
        gf, gxf = g.reshape(-1), gx.reshape(-1)
        for s in _sample_chunks(xf.size, xf.itemsize):
            xs, ts, gs, du = xf[s], tf[s], gf[s], gxf[s]
            np.multiply(xs, 3.0 * _GELU_A, out=du)
            du *= xs
            du += 1.0
            du *= _GELU_C
            dx = np.multiply(ts, ts)
            np.subtract(1.0, dx, out=dx)
            dx *= xs
            dx *= 0.5
            dx *= du
            np.add(ts, 1.0, out=du)
            du *= 0.5
            du += dx
            du *= gs
        return (gx,)

    record((x,), out, grad_fn)
    return out


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-d convolution (cross-correlation) with zero padding, by im2col.

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
    if cout == 0:
        raise DimensionError(f"conv2d: no output channels, weight shape {w.shape}")
    if b.shape != (cout,):
        raise DimensionError(f"conv2d: bias must have shape ({cout},)")
    if stride < 1:
        raise DimensionError("conv2d: stride must be >= 1")
    if h + 2 * padding < kh or ww + 2 * padding < kw:
        raise DimensionError("conv2d: kernel larger than padded input")
    k, s, p = kh, stride, padding

    xp = np.pad(x.data, ((0, 0), (p, p), (p, p), (0, 0))) if p else x.data
    # backward needs only the padded shape: the tape keeps no padded copy
    padded_shape = xp.shape
    # [B, H', W', Cin, k, k]: each row of ``col`` matches a row of ``wmat``
    win = sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::s, ::s]
    hp, wp = win.shape[1], win.shape[2]
    col = np.ascontiguousarray(win).reshape(bsz * hp * wp, cin * k * k)
    wmat = w.data.reshape(cout, -1)
    out = Tensor._wrap((col @ wmat.T + b.data).reshape(bsz, hp, wp, cout))
    # stage 1 embeds the untracked patch batch, whose input gradient nothing reads
    tape = active_tape()
    needs_gx = tape is not None and tape.tracks(x)

    def grad_fn(g):
        gmat = g.reshape(bsz * hp * wp, cout)
        gb = _column_sums(gmat)
        gw = (gmat.T @ col).reshape(w.shape)
        if not needs_gx:
            return None, gw, gb
        gcol = (gmat @ wmat).reshape(bsz, hp, wp, cin, k, k)
        gxp = np.zeros(padded_shape, dtype=g.dtype)
        for ki in range(k):
            for kj in range(k):
                gxp[:, ki : ki + hp * s : s, kj : kj + wp * s : s] += gcol[..., ki, kj]
        gx = gxp[:, p : p + h, p : p + ww] if p else gxp
        return np.ascontiguousarray(gx), gw, gb

    record((x, w, b), out, grad_fn)
    return out


def _tap_windows(a: np.ndarray) -> np.ndarray:
    """Read-only [B, H, W*C, 3, 3] view of the zero-padded 3x3 windows of [B, H, W, C].

    ``a`` is copied once into a flat buffer that gives each sample a zero row
    above and below and has C spare zeros at each end. Window tap (i, j) of
    row element r = w*C + c then sits a fixed (i - 1) rows and (j - 1)
    columns of C away from it, so the strides are (sample, row, 1, row, C).
    Column padding is not stored: tap j = 0 at w = 0 reads the end of the
    row above, and j = 2 at w = W - 1 the start of the row below, and the
    caller zeroes those taps (see :func:`_edge_taps`).
    """
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


def _edge_taps(taps: np.ndarray, w: int) -> np.ndarray:
    """Tile [3, 3, C] taps along a row of W pixels to [3, 3, W*C], without the wrapping taps.

    The left taps at column 0 and the right taps at column W - 1 are zeroed,
    because there :func:`_tap_windows` reads a neighbouring row instead of
    padding. At W = 1 both edges are the same column.
    """
    c = taps.shape[2]
    tiled = np.tile(taps, (1, 1, w))
    tiled[:, 0, :c] = 0
    tiled[:, 2, -c:] = 0
    return tiled


def _sample_chunks(n: int, sample_bytes: int):
    """Yield slices of a leading axis of ``n`` samples, about ``_BLOCK_BYTES`` each.

    ``sample_bytes`` is the size of one sample's widest array, so a chunk
    of that array fits the L2 cache; :func:`gelu` passes single elements of
    a flat view as its samples. Every chunk holds at least one sample, so
    empty samples and an empty leading axis need no special case.
    """
    step = max(1, _BLOCK_BYTES // max(1, sample_bytes))
    for lo in range(0, n, step):
        yield slice(lo, lo + step)


def _correlate3x3(a: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Zero-padded 3x3 correlation of [B, H, W, C] with per-channel [3, 3, C] taps."""
    bsz, h, w, c = a.shape
    out = np.empty(a.shape, dtype=np.result_type(a, taps))
    rows = out.reshape(bsz, h, w * c)
    tiled = _edge_taps(taps, w)
    # one pass per chunk: every output element sums its nine window products in place
    for s in _sample_chunks(bsz, a[:1].nbytes):
        np.einsum("bhrij,ijr->bhr", _tap_windows(a[s]), tiled, out=rows[s])
    return out


def depthwise_conv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Per-channel 3x3 convolution, stride 1, zero padding 1 (shape preserving).

    ``x``: [B, H, W, C] channels-last; ``w``: [C, 1, 3, 3] (the stored layout,
    also that of its gradient); ``b``: [C]. Returns [B, H, W, C].

    The op runs over chunks of samples of about ``_BLOCK_BYTES``, so its
    padded scratch copy is chunk-sized and stays in cache. Per chunk, the
    forward pass and the input gradient are each one ``np.einsum`` over a
    strided tap-window view of a row-padded copy (:func:`_tap_windows`)
    with edge-zeroed taps (:func:`_edge_taps`), instead of nine shifted
    multiply-adds. The weight gradient is one einsum per tap over the same
    view, accumulated across chunks into [3, 3, W*C] before its wrapping
    edge columns are zeroed.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise DimensionError("depthwise_conv2d expects 4-d input and weight")
    bsz, h, ww, c = x.shape
    if c == 0:
        raise DimensionError(f"depthwise_conv2d: no channels, input shape {x.shape}")
    if w.shape != (c, 1, 3, 3):
        raise DimensionError(f"depthwise_conv2d: weight must be ({c},1,3,3), got {w.shape}")
    if b.shape != (c,):
        raise DimensionError(f"depthwise_conv2d: bias must have shape ({c},)")

    taps = np.ascontiguousarray(w.data[:, 0].transpose(1, 2, 0))  # [3, 3, C]
    y = _correlate3x3(x.data, taps)
    y += b.data
    out = Tensor._wrap(y)

    def grad_fn(g):
        # the input gradient correlates the output gradient with the flipped taps
        gx = _correlate3x3(g, taps[::-1, ::-1])
        g3 = g.reshape(bsz, h, ww * c)
        gtaps = np.zeros((3, 3, ww * c), dtype=g.dtype)
        # at [48, 16, 16, 128] float32, window copies included, the nine einsums took
        # 7.0 ms over chunks, 8.9 over the whole batch; one "bhr,bhrij->ijr" took 9.6
        for s in _sample_chunks(bsz, g3[:1].nbytes):
            gs, win = g3[s], _tap_windows(x.data[s])
            for i in range(3):
                for j in range(3):
                    gtaps[i, j] += np.einsum("bhr,bhr->r", gs, win[..., i, j])
        # drop the taps that read across a row edge, as :func:`_edge_taps` does
        gtaps[:, 0, :c] = 0
        gtaps[:, 2, -c:] = 0
        gw = gtaps.reshape(3, 3, ww, c).sum(axis=2)
        gw = np.ascontiguousarray(gw.transpose(2, 0, 1)[:, None])
        return gx, gw, _column_sums(g)

    record((x, w, b), out, grad_fn)
    return out


def token_mean(x: Tensor) -> Tensor:
    """Mean over the spatial tokens: [B, H, W, C] -> [B, C]."""
    if x.ndim != 4:
        raise DimensionError("token_mean expects a [B, H, W, C] tensor")
    bsz, h, w, c = x.shape
    n = h * w
    if n == 0:
        raise DimensionError(f"token_mean: no tokens to average, shape {x.shape}")
    out = Tensor._wrap(x.data.reshape(bsz, n, c).mean(axis=1))

    def grad_fn(g):
        return (np.broadcast_to(g[:, None, None, :] / n, x.shape).copy(),)

    record((x,), out, grad_fn)
    return out


def l2_normalize(x: Tensor) -> Tensor:
    """Scale each row of [B, D] to unit Euclidean norm."""
    if x.ndim != 2:
        raise DimensionError("l2_normalize expects a [B, D] matrix")
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
