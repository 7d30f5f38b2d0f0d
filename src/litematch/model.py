"""Four-stage pyramid transformer mapping grayscale patches to unit descriptors.

Each stage tokenizes its input with an overlapping strided-convolution
patch embedding and runs pre-norm encoder blocks whose attention
downsamples keys and values by the stage's reduction ratio. A linear head
over globally pooled stage-4 tokens produces the descriptor, which is
L2-normalized. No explicit positional embedding: the zero-padded
depthwise convolution inside each feed-forward provides position.

Activations are channels-last, [B, H, W, C], from the input
standardization (plain numpy: the patch batch is never a gradient target)
to the final pooling. Each block's attention projects queries, keys and
values with :func:`ops.linear` and hands them to :func:`ops.attention`,
one tape entry that splits and merges the heads itself; pooling takes the
[B, H, W, C] activation too. Parameters keep their stored layouts, which
:func:`describe_shapes` walks in parameter order for both
:func:`init_model` and checkpoint loading, so checkpoints do not depend on
the activation layout.

Each block's feed-forward is one :func:`ops.mix_ffn`, taped or not, over
chunks of samples shared with the helper threads of :mod:`litematch._pool`;
the rest of the block runs over the whole batch, where chunking measured
slower.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import ops
from .errors import ConfigError, DimensionError
from .tensor import Tensor

ALLOWED_DESCRIPTOR_DIMS = (64, 128, 256)


@dataclass(frozen=True)
class StageConfig:
    """Hyperparameters of one pyramid stage."""

    stride: int
    channels: int
    reduction: int
    heads: int
    mlp_ratio: int
    depth: int


DEFAULT_STAGES = (
    StageConfig(stride=4, channels=16, reduction=8, heads=1, mlp_ratio=8, depth=2),
    StageConfig(stride=2, channels=32, reduction=4, heads=2, mlp_ratio=8, depth=2),
    StageConfig(stride=2, channels=64, reduction=2, heads=4, mlp_ratio=4, depth=2),
    StageConfig(stride=2, channels=128, reduction=1, heads=8, mlp_ratio=8, depth=2),
)


@dataclass(frozen=True)
class ModelConfig:
    """Full network configuration; the default reproduces the reference setting."""

    stages: tuple[StageConfig, ...] = DEFAULT_STAGES
    input_size: int = 128
    descriptor_dim: int = 128

    def __post_init__(self):
        if len(self.stages) != 4:
            raise ConfigError(f"expected 4 stages, got {len(self.stages)}")
        if self.descriptor_dim not in ALLOWED_DESCRIPTOR_DIMS:
            raise ConfigError(
                f"descriptor_dim must be one of {ALLOWED_DESCRIPTOR_DIMS}, got {self.descriptor_dim}"
            )
        total_stride = 1
        for st in self.stages:
            total_stride *= st.stride
        if self.input_size <= 0 or self.input_size % total_stride != 0:
            raise ConfigError(
                f"input_size {self.input_size} must be divisible by {total_stride}"
            )
        spatial = self.input_size
        for i, st in enumerate(self.stages, start=1):
            if st.stride < 1 or st.channels < 1 or st.heads < 1 or st.mlp_ratio < 1 or st.depth < 1:
                raise ConfigError(f"stage {i}: all hyperparameters must be positive")
            if st.channels % st.heads != 0:
                raise ConfigError(
                    f"stage {i}: channels {st.channels} not divisible by heads {st.heads}"
                )
            # ops.attention rounds equal query rows by position at widths 1 and 2
            if (width := st.channels // st.heads) < 4:
                raise ConfigError(
                    f"stage {i}: head width {width} (channels/heads) must be at least 4"
                )
            spatial //= st.stride
            if st.reduction < 1 or spatial % st.reduction != 0:
                raise ConfigError(
                    f"stage {i}: spatial size {spatial} not divisible by reduction {st.reduction}"
                )


def _embed_kernel(stride: int) -> tuple[int, int]:
    """Overlapping patch embedding: kernel 2*stride - 1, padding stride - 1."""
    return 2 * stride - 1, stride - 1


def _block_shapes(blk: str, st: StageConfig) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Parameter shapes of one transformer block of stage ``st``, named under ``blk``."""
    c = st.channels
    hidden = st.mlp_ratio * c
    yield f"{blk}.norm1.gamma", (c,)
    yield f"{blk}.norm1.beta", (c,)
    yield f"{blk}.attn.q.weight", (c, c)
    yield f"{blk}.attn.q.bias", (c,)
    # no key bias: softmax is invariant to a per-query shift, so a
    # key bias would be a permanently zero-gradient parameter
    yield f"{blk}.attn.k.weight", (c, c)
    yield f"{blk}.attn.v.weight", (c, c)
    yield f"{blk}.attn.v.bias", (c,)
    if st.reduction > 1:
        yield f"{blk}.attn.sr.weight", (c, c, st.reduction, st.reduction)
        yield f"{blk}.attn.sr.bias", (c,)
        yield f"{blk}.attn.sr_norm.gamma", (c,)
        yield f"{blk}.attn.sr_norm.beta", (c,)
    yield f"{blk}.attn.proj.weight", (c, c)
    yield f"{blk}.attn.proj.bias", (c,)
    yield f"{blk}.norm2.gamma", (c,)
    yield f"{blk}.norm2.beta", (c,)
    yield f"{blk}.ffn.fc1.weight", (hidden, c)
    yield f"{blk}.ffn.fc1.bias", (hidden,)
    yield f"{blk}.ffn.dw.weight", (hidden, 1, 3, 3)
    yield f"{blk}.ffn.dw.bias", (hidden,)
    yield f"{blk}.ffn.fc2.weight", (c, hidden)
    yield f"{blk}.ffn.fc2.bias", (c,)


def describe_shapes(config: ModelConfig) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Yield ``(name, shape)`` of every parameter, in parameter order.

    The walk is lazy, so a consumer that stops at the first disagreement
    pays nothing for a corrupt stage depth.
    """
    in_ch = 1
    for i, st in enumerate(config.stages, start=1):
        c = st.channels
        k, _ = _embed_kernel(st.stride)
        pre = f"stage{i}"
        yield f"{pre}.embed.conv.weight", (c, in_ch, k, k)
        yield f"{pre}.embed.conv.bias", (c,)
        yield f"{pre}.embed.norm.gamma", (c,)
        yield f"{pre}.embed.norm.beta", (c,)
        for j in range(1, st.depth + 1):
            yield from _block_shapes(f"{pre}.block{j}", st)
        yield f"{pre}.norm.gamma", (c,)
        yield f"{pre}.norm.beta", (c,)
        in_ch = c
    yield "head.weight", (config.descriptor_dim, in_ch)
    yield "head.bias", (config.descriptor_dim,)


@dataclass
class Model:
    """Configuration plus the named trainable parameter set."""

    config: ModelConfig
    params: dict[str, Tensor]

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())


def _truncated_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """Inverse-CDF sampling of a normal truncated at +/- 2 std."""
    lo, hi = 0.022750131948179195, 0.9772498680518208  # Phi(-2), Phi(2)
    u = rng.uniform(lo, hi, size=shape)
    return (ndtri(u) * std).astype(np.float32)


def init_model(config: ModelConfig, seed: int) -> Model:
    """Deterministically initialize all parameters from ``seed``.

    Weights are truncated-normal (std 0.02), biases zero, norm gains one.
    """
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape in describe_shapes(config):
        if name.endswith(".gamma"):
            data = np.ones(shape, dtype=np.float32)
        elif name.endswith((".beta", ".bias")):
            data = np.zeros(shape, dtype=np.float32)
        else:
            data = _truncated_normal(rng, shape)
        params[name] = Tensor(data, requires_grad=True)
    return Model(config=config, params=params)


def _attention(x: Tensor, p: dict[str, Tensor], blk: str, st: StageConfig) -> Tensor:
    q = ops.linear(x, p[f"{blk}.attn.q.weight"], p[f"{blk}.attn.q.bias"])
    if st.reduction > 1:
        kv = ops.conv2d(
            x, p[f"{blk}.attn.sr.weight"], p[f"{blk}.attn.sr.bias"],
            stride=st.reduction, padding=0,
        )
        kv = ops.layer_norm(kv, p[f"{blk}.attn.sr_norm.gamma"], p[f"{blk}.attn.sr_norm.beta"])
    else:
        kv = x
    k = ops.linear(kv, p[f"{blk}.attn.k.weight"], None)
    v = ops.linear(kv, p[f"{blk}.attn.v.weight"], p[f"{blk}.attn.v.bias"])
    ctx = ops.attention(q, k, v, st.heads)
    return ops.linear(ctx, p[f"{blk}.attn.proj.weight"], p[f"{blk}.attn.proj.bias"])


def forward(model: Model, patches: Tensor) -> Tensor:
    """Map [B, 1, S, S] patches in [0, 1] to [B, descriptor_dim] unit rows.

    The patches become channels-last at entry by a free reshape.
    """
    cfg = model.config
    p = model.params
    s = cfg.input_size
    if patches.ndim != 4 or patches.shape[1:] != (1, s, s):
        raise DimensionError(
            f"expected patches of shape [B, 1, {s}, {s}], got {tuple(patches.shape)}"
        )
    # fixed input standardization: [0,1] -> mean 0.5, std 0.25; the patch
    # batch is never a gradient target, so nothing is recorded for it
    x = Tensor._wrap(((patches.data - 0.5) * 4.0).reshape(patches.shape[0], s, s, 1))
    for i, st in enumerate(cfg.stages, start=1):
        pre = f"stage{i}"
        _, pad = _embed_kernel(st.stride)
        x = ops.conv2d(
            x, p[f"{pre}.embed.conv.weight"], p[f"{pre}.embed.conv.bias"],
            stride=st.stride, padding=pad,
        )
        x = ops.layer_norm(x, p[f"{pre}.embed.norm.gamma"], p[f"{pre}.embed.norm.beta"])
        for j in range(1, st.depth + 1):
            blk = f"{pre}.block{j}"
            a = ops.layer_norm(x, p[f"{blk}.norm1.gamma"], p[f"{blk}.norm1.beta"])
            x = ops.add(x, _attention(a, p, blk, st))
            f = ops.layer_norm(x, p[f"{blk}.norm2.gamma"], p[f"{blk}.norm2.beta"])
            names = [f"{blk}.ffn.{n}.{k}" for n in ("fc1", "dw", "fc2") for k in ("weight", "bias")]
            x = ops.add(x, ops.mix_ffn(f, *(p[name] for name in names)))
        x = ops.layer_norm(x, p[f"{pre}.norm.gamma"], p[f"{pre}.norm.beta"])
    pooled = ops.token_mean(x)
    desc = ops.linear(pooled, p["head.weight"], p["head.bias"])
    return ops.l2_normalize(desc)
