"""Host-speed calibration of the end-to-end timings.

A shared host runs the same code up to ~40% slower for stretches of seconds
to minutes, and numpy, interpreter and memory-bound work slow down
together. So a run's raw timings mostly say how busy the host was. The
benchmark therefore times a fixed calibration kernel throughout each
untraced run, between set-ups and after every request or training step,
and scales each timed interval by ``REFERENCE_MS`` over the median kernel
time of the samples taken within ``WINDOW_S`` of it. The reported numbers
read as the time each operation would take on a host where the kernel
takes ``REFERENCE_MS``.

The kernel is the frozen float64 forward pass of ``reference.py`` on two
64 px patches of a fixed network, plus the frozen CLAHE and detector on a
fixed 160 px image: the same kinds of numpy and interpreter work as the
program, and none of the program's own code, so no change to ``litematch``
can move it.
"""

from __future__ import annotations

import statistics
import time
from collections import namedtuple

import numpy as np

import reference

REFERENCE_MS = 60.0  # about the kernel's median on a 2-core x86 VM
# Samples this close to an interval set its scale: two or three on each
# side of a ~1 s request, short enough to follow the host's swings of a
# few seconds.
WINDOW_S = 2.0

Stage = namedtuple("Stage", "stride channels reduction heads mlp_ratio depth")
Network = namedtuple("Network", "stages")
# The network of the seed's default model configuration at 64 px.
NETWORK = Network(
    stages=(
        Stage(4, 16, 8, 1, 8, 2),
        Stage(2, 32, 4, 2, 8, 2),
        Stage(2, 64, 2, 4, 4, 2),
        Stage(2, 128, 1, 8, 8, 2),
    )
)
PATCHES = 2
PATCH_SIZE = 64
IMAGE_SIZE = 160
CLAHE_CLIP, CLAHE_GRID = 2.0, 8
MAX_KEYPOINTS, BORDER = 16, 33


def _params(rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Random float64 parameters under the names ``reference.forward`` reads."""
    shapes: dict[str, tuple[int, ...]] = {}
    in_ch = 1
    for i, st in enumerate(NETWORK.stages, start=1):
        c, k, pre = st.channels, 2 * st.stride - 1, f"stage{i}"
        shapes[f"{pre}.embed.conv.weight"] = (c, in_ch, k, k)
        for name in ("embed.conv.bias", "embed.norm.gamma", "embed.norm.beta", "norm.gamma", "norm.beta"):
            shapes[f"{pre}.{name}"] = (c,)
        hidden = st.mlp_ratio * c
        for j in range(1, st.depth + 1):
            blk = f"{pre}.block{j}."
            for name in ("norm1.gamma", "norm1.beta", "norm2.gamma", "norm2.beta", "attn.q.bias",
                         "attn.v.bias", "attn.proj.bias", "attn.sr.bias", "attn.sr_norm.gamma",
                         "attn.sr_norm.beta", "ffn.fc2.bias"):
                shapes[blk + name] = (c,)
            for name in ("attn.q.weight", "attn.k.weight", "attn.v.weight", "attn.proj.weight"):
                shapes[blk + name] = (c, c)
            shapes[blk + "attn.sr.weight"] = (c, c, st.reduction, st.reduction)
            shapes[blk + "ffn.fc1.weight"] = (hidden, c)
            shapes[blk + "ffn.fc1.bias"] = (hidden,)
            shapes[blk + "ffn.dw.weight"] = (hidden, 1, 3, 3)
            shapes[blk + "ffn.dw.bias"] = (hidden,)
            shapes[blk + "ffn.fc2.weight"] = (c, hidden)
        in_ch = c
    shapes["head.weight"] = (128, in_ch)
    shapes["head.bias"] = (128,)
    return {name: 0.1 * rng.standard_normal(shape) for name, shape in shapes.items()}


def _image(rng: np.random.Generator) -> np.ndarray:
    """A fixed uint8 image with blob structure for the detector to find."""
    px = rng.random((IMAGE_SIZE, IMAGE_SIZE))
    for _ in range(2):  # two box blurs turn the noise into blobs
        px = (px + np.roll(px, 2, 0) + np.roll(px, 2, 1) + np.roll(px, (2, 2), (0, 1))) / 4
    px = (px - px.min()) / (px.max() - px.min())
    return np.round(255 * px).astype(np.uint8)


class Calibrator:
    """Times the fixed kernel on demand and turns nearby samples into a scale factor."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.params = _params(rng)
        self.patches = rng.random((PATCHES, 1, PATCH_SIZE, PATCH_SIZE))
        self.image = _image(rng)
        self.samples: list[tuple[float, float]] = []  # (perf_counter at mid-sample, ms)
        self.spent_s = 0.0  # wall time spent calibrating, to keep out of busy time

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference.forward(NETWORK, self.params, self.patches)
        enhanced = reference.clahe(self.image, CLAHE_CLIP, CLAHE_GRID)
        reference.detect_keypoints(enhanced, MAX_KEYPOINTS, BORDER)
        t1 = time.perf_counter()
        self.samples.append((0.5 * (t0 + t1), 1e3 * (t1 - t0)))
        self.spent_s += t1 - t0

    @property
    def median_ms(self) -> float:
        return statistics.median(ms for _, ms in self.samples)

    def factor(self, start: float, end: float) -> float:
        """Multiply the raw time of the interval [start, end] by this to get it at reference speed."""
        near = [ms for t, ms in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return REFERENCE_MS / (statistics.median(near) if near else self.median_ms)
