"""LT loss on stacked [anchors; positives; negatives] rows: margin arithmetic,
shapes, and gradients with the margin held constant."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from litematch.errors import DimensionError
from litematch.loss import triplet_loss
from litematch.tensor import Tape, Tensor, backward


def unit_rows_at_distances(d_pos: float, d_neg: float, dim: int = 8) -> Tensor:
    """Stacked [anchor; positive; negative] unit rows at exact distances from the anchor.

    For unit vectors at angle theta, distance = sqrt(2 - 2 cos theta); invert
    to place positive/negative on the plane spanned by e0, e1.
    """

    def at_distance(d):
        cos = 1.0 - d * d / 2.0
        sin = np.sqrt(max(0.0, 1.0 - cos * cos))
        v = np.zeros(dim)
        v[0], v[1] = cos, sin
        return v

    a = np.zeros(dim)
    a[0] = 1.0
    return Tensor(np.stack([a, at_distance(d_pos), at_distance(d_neg)]), dtype=np.float64)


def rand_desc(seed, b=16, d=32) -> np.ndarray:
    """[3b, d] unit rows: b anchors, then b positives, then b negatives."""
    x = np.random.default_rng(seed).standard_normal((3 * b, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def loop_distances(desc):
    """(d+, d-) by a scalar loop over the stacked rows."""
    b = desc.shape[0] // 3
    d_pos, d_neg = [], []
    for i in range(b):
        for other, out in ((desc[b + i], d_pos), (desc[2 * b + i], d_neg)):
            acc = 0.0
            for j in range(desc.shape[1]):
                acc += (desc[i, j] - other[j]) ** 2
            out.append(np.sqrt(acc))
    return np.array(d_pos), np.array(d_neg)


def loss_value(desc):
    return triplet_loss(Tensor(desc, dtype=np.float64)).item()


# -------------------------------------------------------------- distances


def test_distance_of_identical_rows_is_zero():
    row = np.random.default_rng(0).standard_normal(8).astype(np.float32)
    desc = Tensor(np.tile(row, (6, 1)), requires_grad=True)
    with Tape() as tape:
        loss = triplet_loss(desc)
    backward(loss, tape)
    assert loss.item() == 0.0
    assert np.all(np.isfinite(desc.grad)) and not np.any(desc.grad)


def test_distance_orthogonal_unit_rows():
    # anchor e0, positive e1, negative e0: d+ = sqrt(2), d- = 0, M = sqrt(2)/2
    desc = np.zeros((3, 5), dtype=np.float32)
    desc[0, 0] = desc[1, 1] = desc[2, 0] = 1.0
    loss = triplet_loss(Tensor(desc))
    assert loss.dtype == np.float32
    np.testing.assert_allclose(loss.item(), 1.5 * np.sqrt(2.0), rtol=1e-6)
    # and with the roles swapped, d+ = 0 and d- = sqrt(2): the hinge is -sqrt(2)/2
    assert triplet_loss(Tensor(desc[[0, 2, 1]])).item() == 0.0


def test_distance_matches_scalar_loop_reference():
    desc = np.random.default_rng(1).standard_normal((30, 16))
    d_pos, d_neg = loop_distances(desc)
    margin = (d_pos + d_neg) / 2.0
    corrected = np.mean(np.maximum(d_pos - d_neg + margin, 0.0))
    np.testing.assert_allclose(loss_value(desc), corrected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", [(0, 8), (3, 0), (4, 8), (9,)], ids=["no-rows", "no-features", "not-three-blocks", "1-d"])
def test_descriptor_shape_raises_dimension_error(shape):
    with pytest.raises(DimensionError, match="triplet_loss expects \\[3B, D\\]"):
        triplet_loss(Tensor(np.ones(shape)))


# ----------------------------------------------------------------- margin
# M = (d+ + d-)/2 is read off the loss: at d+ = d- the hinge is M, and at
# d- = 0 it is d+ + M.


def test_margin_symmetric_case():
    desc = unit_rows_at_distances(1.0, 1.0)
    np.testing.assert_allclose(triplet_loss(desc).item(), 1.0, atol=1e-9)


def test_margin_zero_pos_two_neg():
    # d+ = 0, d- = 2: M = 1, hinge 0 - 2 + 1 < 0
    assert triplet_loss(unit_rows_at_distances(0.0, 2.0)).item() == 0.0
    # the roles swapped (the negative is the anchor): M = 1, hinge 2 - 0 + 1
    np.testing.assert_allclose(triplet_loss(unit_rows_at_distances(2.0, 0.0)).item(), 3.0, atol=1e-9)


# ------------------------------------------------------------------ hinge


def test_loss_worked_example():
    # d+ = 1, d- = 2: M = 1.5, hinge 1 - 2 + 1.5
    desc = unit_rows_at_distances(1.0, 2.0)
    np.testing.assert_allclose(triplet_loss(desc).item(), 0.5, atol=1e-7)


def test_loss_zero_when_anchor_equals_positive():
    desc = unit_rows_at_distances(0.0, 1.3)
    np.testing.assert_allclose(triplet_loss(desc).item(), 0.0, atol=1e-9)


def test_corrected_zero_iff_neg_at_least_three_pos():
    easy = unit_rows_at_distances(0.3, 0.95)  # 3 d+ = 0.9 <= d-
    assert triplet_loss(easy).item() == 0.0
    hard = unit_rows_at_distances(0.3, 0.85)  # 3 d+ = 0.9 > d-
    assert triplet_loss(hard).item() > 0.0


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_loss_nonnegative(seed):
    assert loss_value(rand_desc(seed)) >= 0.0


def test_corrected_monotonic_in_distances():
    # non-decreasing in d+ at fixed d-; non-increasing in d- at fixed d+
    losses_dpos = [
        triplet_loss(unit_rows_at_distances(dp, 1.0)).item()
        for dp in np.linspace(0.05, 1.2, 12)
    ]
    assert all(b >= a - 1e-9 for a, b in zip(losses_dpos, losses_dpos[1:]))
    losses_dneg = [
        triplet_loss(unit_rows_at_distances(0.6, dn)).item()
        for dn in np.linspace(0.2, 1.9, 12)
    ]
    assert all(b <= a + 1e-9 for a, b in zip(losses_dneg, losses_dneg[1:]))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_loss_invariant_under_batch_permutation(seed):
    desc = rand_desc(seed, b=9)
    perm = np.random.default_rng(seed + 1).permutation(9)
    # the same triplet order in each of the three blocks
    shuffled = desc[np.concatenate([perm, perm + 9, perm + 18])]
    np.testing.assert_allclose(loss_value(desc), loss_value(shuffled), rtol=0, atol=1e-12)


# ----------------------------------------------- margin carries no gradient


def frozen_margin_reference_grad(desc, eps=1e-4):
    """Central differences of the loss over every one of the 3B rows, with
    the margin pinned at its base-point value; independent of the engine's
    backward rules."""

    def distances(x):
        a, p, n = np.split(x, 3)
        return np.sqrt(((a - p) ** 2).sum(axis=1)), np.sqrt(((a - n) ** 2).sum(axis=1))

    m0 = sum(distances(desc)) / 2.0

    def loss_at(x):
        d_pos, d_neg = distances(x)
        return np.mean(np.maximum(d_pos - d_neg + m0, 0.0))

    grad = np.zeros_like(desc)
    for idx in np.ndindex(*desc.shape):
        x = desc.copy()
        x[idx] += eps
        hi = loss_at(x)
        x[idx] -= 2 * eps
        lo = loss_at(x)
        grad[idx] = (hi - lo) / (2 * eps)
    return grad


def grad_of(desc):
    t = Tensor(desc.copy(), requires_grad=True, dtype=desc.dtype)
    with Tape() as tape:
        loss = triplet_loss(t)
    backward(loss, tape)
    return t.grad


def test_margin_frozen_in_gradient():
    desc = rand_desc(42, b=4, d=6)
    grad = grad_of(desc)
    assert grad.shape == desc.shape
    np.testing.assert_allclose(grad, frozen_margin_reference_grad(desc), rtol=1e-3, atol=1e-6)
    # not vacuous: every block of rows gets some gradient
    assert all(np.any(block) for block in np.split(grad, 3))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_zero_positive_distance_gives_finite_zero_gradient_rows(dtype):
    # d+ = 0 gives the hinge -d-/2 < 0: the triplet is inactive, and its
    # weight 0 over the clamped d+ keeps its three rows at exactly zero
    desc = rand_desc(5, b=3, d=8).astype(dtype)
    desc[3] = desc[0]  # triplet 0 has d+ = 0
    grad = grad_of(desc)
    assert grad.dtype == dtype and np.all(np.isfinite(grad))
    assert not np.any(grad[[0, 3, 6]])
    assert np.any(grad[[1, 4, 7]]) or np.any(grad[[2, 5, 8]])  # some triplet is active


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_zero_negative_distance_gives_finite_gradients_and_zero_negative_row(dtype):
    # d- = 0 gives the hinge 1.5 d+ > 0: an active triplet whose negative
    # term divides by the clamped d- and scales a zero difference
    desc = rand_desc(5, b=3, d=8).astype(dtype)
    desc[6] = desc[0]  # triplet 0 has d- = 0
    grad = grad_of(desc)
    assert grad.dtype == dtype and np.all(np.isfinite(grad))
    assert not np.any(grad[6])  # the negative row
    assert np.any(grad[0]) and np.any(grad[3])  # the anchor and positive still move
    # the anchor's gradient is the positive term alone: the negative adds nothing
    np.testing.assert_array_equal(grad[0], -grad[3])
