"""LT loss: the adaptive-margin triplet objective over a stacked descriptor batch.

:func:`triplet_loss` takes the [3B, D] rows the model produces for one
training batch, anchors then positives then negatives, and records one
tape entry. The margin adapts per triplet to half the sum of the positive
and negative distances and is a plain array, so no gradient flows through
it. The hinge is max(d+ - d- + M, 0). The paper's formula as printed,
max(d+ + d- - M, 0), is not offered: with M = (d+ + d-)/2 it equals
(d+ + d-)/2, which keeps every triplet active and is minimised by sending
every descriptor to one point.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .tensor import Tensor, record


def triplet_loss(desc: Tensor) -> Tensor:
    """Mean adaptive-margin triplet loss of stacked [anchors; positives; negatives] rows.

    mean(max(d+ - d- + M, 0)) with M = (d+ + d-)/2 held constant w.r.t.
    gradients. A distance of zero gets a zero gradient: the backward pass
    clamps the denominator of the square root's derivative at 1e-12, and
    the difference it scales is zero.
    """
    if desc.ndim != 2 or 0 in desc.shape or desc.shape[0] % 3:
        raise DimensionError(
            f"triplet_loss expects [3B, D] descriptors with B, D >= 1, got shape {desc.shape}"
        )
    anchor, positive, negative = np.split(desc.data, 3)
    diff_pos = anchor - positive
    diff_neg = anchor - negative
    d_pos = np.sqrt((diff_pos * diff_pos).sum(axis=-1))
    d_neg = np.sqrt((diff_neg * diff_neg).sum(axis=-1))
    margin = (d_pos + d_neg) * 0.5
    hinge = (d_pos - d_neg) + margin
    out = Tensor._wrap(np.asarray(np.maximum(hinge, 0.0).mean(), dtype=desc.dtype))

    def grad_fn(g):
        b = hinge.shape[0]
        w = np.full(b, float(g) / b, dtype=g.dtype) * (hinge > 0)
        t_pos = w / (2.0 * np.maximum(d_pos, 1e-12))
        t_neg = -w / (2.0 * np.maximum(d_neg, 1e-12))
        g_pos = t_pos[:, None] * diff_pos
        g_pos += g_pos
        g_neg = t_neg[:, None] * diff_neg
        g_neg += g_neg
        return (np.concatenate([g_pos + g_neg, -g_pos, -g_neg]),)

    record((desc,), out, grad_fn)
    return out
