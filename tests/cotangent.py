"""Scalar reduction for the engine's gradient tests: a dot with a seeded random cotangent.

A mean or a sum of an op's output sends the same gradient to every
element, so a backward rule that reorders or mixes the elements of its
incoming gradient (reversed rows, say) still agrees with central
differences under it. The dot product <y, v> with a standard normal ``v``
gives every element its own weight, and its gradient is exactly ``v``.
"""

import numpy as np

from litematch.tensor import Tensor, record


def cotangent(shape, dtype, seed: int = 0) -> np.ndarray:
    """The seeded standard normal ``v`` that :func:`cotangent_dot` uses for ``shape``."""
    return np.random.default_rng(seed).standard_normal(shape).astype(dtype)


def cotangent_dot(y: Tensor, seed: int = 0) -> Tensor:
    """Scalar <y, v> on the active tape; its gradient with respect to ``y`` is ``v``."""
    v = cotangent(y.shape, y.dtype, seed)
    out = Tensor(np.vdot(y.data, v), dtype=y.dtype)
    record((y,), out, lambda g: (g * v,))
    return out
