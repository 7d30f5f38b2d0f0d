"""Triplet loss semantics: margin arithmetic, both modes, gradient freezing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from litematch import ops
from litematch.errors import ConfigError, DimensionError
from litematch.loss import TripletBatch, pairwise_distance, triplet_loss
from litematch.tensor import Tape, Tensor, backward


def unit_rows_at_distances(d_pos: float, d_neg: float, dim: int = 8) -> TripletBatch:
    """Unit-norm rows with exact anchor-positive / anchor-negative distances.

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
    return TripletBatch(
        anchor=Tensor(a[None, :], dtype=np.float64),
        positive=Tensor(at_distance(d_pos)[None, :], dtype=np.float64),
        negative=Tensor(at_distance(d_neg)[None, :], dtype=np.float64),
    )


def rand_batch(seed, b=16, d=32):
    rng = np.random.default_rng(seed)

    def unit(n):
        x = rng.standard_normal((n, d))
        return x / np.linalg.norm(x, axis=1, keepdims=True)

    return TripletBatch(
        anchor=Tensor(unit(b), dtype=np.float64),
        positive=Tensor(unit(b), dtype=np.float64),
        negative=Tensor(unit(b), dtype=np.float64),
    )


# ------------------------------------------------------ pairwise_distance


def test_distance_of_identical_rows_is_zero():
    x = Tensor(np.random.default_rng(0).standard_normal((4, 8)), dtype=np.float32)
    assert np.all(pairwise_distance(x, x).data == 0.0)


def test_distance_orthogonal_unit_rows():
    a = np.zeros((1, 5), dtype=np.float32)
    b = np.zeros((1, 5), dtype=np.float32)
    a[0, 0] = 1.0
    b[0, 1] = 1.0
    np.testing.assert_allclose(
        pairwise_distance(Tensor(a), Tensor(b)).data, np.sqrt(2.0), rtol=1e-6
    )


def test_distance_matches_scalar_loop_reference():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((10, 16))
    b = rng.standard_normal((10, 16))
    got = pairwise_distance(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64)).data
    for i in range(10):
        acc = 0.0
        for j in range(16):
            acc += (a[i, j] - b[i, j]) ** 2
        assert abs(got[i] - np.sqrt(acc)) < 1e-6


def test_distance_shape_mismatch_raises():
    with pytest.raises(DimensionError):
        pairwise_distance(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


# ----------------------------------------------------------------- margin
# M = (d+ + d-)/2 is read off the loss: at d+ = d- the corrected hinge is M,
# and the literal hinge is d+ + d- - M whenever that is positive.


def test_margin_symmetric_case():
    batch = unit_rows_at_distances(1.0, 1.0)
    np.testing.assert_allclose(triplet_loss(batch, "corrected").item(), 1.0, atol=1e-9)


def test_margin_zero_pos_two_neg():
    batch = unit_rows_at_distances(0.0, 2.0)
    np.testing.assert_allclose(triplet_loss(batch, "literal").item(), 2.0 - 1.0, atol=1e-9)


# ------------------------------------------------------------- loss modes


def test_loss_worked_example_both_modes():
    batch = unit_rows_at_distances(1.0, 2.0)
    np.testing.assert_allclose(triplet_loss(batch, "corrected").item(), 0.5, atol=1e-7)
    np.testing.assert_allclose(triplet_loss(batch, "literal").item(), 1.5, atol=1e-7)


def test_loss_zero_when_anchor_equals_positive():
    batch = unit_rows_at_distances(0.0, 1.3)
    np.testing.assert_allclose(triplet_loss(batch, "corrected").item(), 0.0, atol=1e-9)


def test_corrected_zero_iff_neg_at_least_three_pos():
    easy = unit_rows_at_distances(0.3, 0.95)  # 3 d+ = 0.9 <= d-
    assert triplet_loss(easy, "corrected").item() == 0.0
    hard = unit_rows_at_distances(0.3, 0.85)  # 3 d+ = 0.9 > d-
    assert triplet_loss(hard, "corrected").item() > 0.0


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        triplet_loss(rand_batch(0), mode="fixed")
    with pytest.raises(ConfigError, match="unknown loss mode 'fixed'"):
        triplet_loss(rand_batch(0), mode="fixed")


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_loss_nonnegative_both_modes(seed):
    batch = rand_batch(seed)
    assert triplet_loss(batch, "corrected").item() >= 0.0
    assert triplet_loss(batch, "literal").item() >= 0.0


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_literal_mode_equals_half_distance_sum(seed):
    batch = rand_batch(seed)
    lit = triplet_loss(batch, "literal").item()
    d_pos = pairwise_distance(batch.anchor, batch.positive).data
    d_neg = pairwise_distance(batch.anchor, batch.negative).data
    np.testing.assert_allclose(lit, np.mean((d_pos + d_neg) / 2.0), atol=1e-6)


def test_corrected_monotonic_in_distances():
    # non-decreasing in d+ at fixed d-; non-increasing in d- at fixed d+
    losses_dpos = [
        triplet_loss(unit_rows_at_distances(dp, 1.0), "corrected").item()
        for dp in np.linspace(0.05, 1.2, 12)
    ]
    assert all(b >= a - 1e-9 for a, b in zip(losses_dpos, losses_dpos[1:]))
    losses_dneg = [
        triplet_loss(unit_rows_at_distances(0.6, dn), "corrected").item()
        for dn in np.linspace(0.2, 1.9, 12)
    ]
    assert all(b <= a + 1e-9 for a, b in zip(losses_dneg, losses_dneg[1:]))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_loss_invariant_under_batch_permutation(seed):
    batch = rand_batch(seed, b=9)
    rng = np.random.default_rng(seed + 1)
    perm = rng.permutation(9)
    shuffled = TripletBatch(
        anchor=Tensor(batch.anchor.data[perm], dtype=np.float64),
        positive=Tensor(batch.positive.data[perm], dtype=np.float64),
        negative=Tensor(batch.negative.data[perm], dtype=np.float64),
    )
    for mode in ("corrected", "literal"):
        np.testing.assert_allclose(
            triplet_loss(batch, mode).item(), triplet_loss(shuffled, mode).item(), atol=1e-12
        )


# ----------------------------------------------- margin carries no gradient


def frozen_margin_reference_grad(anchor, positive, negative, eps=1e-4):
    """Central differences of the corrected loss with the margin pinned at its
    base-point value; independent of the engine's backward rules."""
    a0 = anchor.copy()

    def d(u, v):
        return np.sqrt(((u - v) ** 2).sum(axis=1))

    m0 = (d(a0, positive) + d(a0, negative)) / 2.0

    def loss_at(a):
        return np.mean(np.maximum(d(a, positive) - d(a, negative) + m0, 0.0))

    grad = np.zeros_like(a0)
    for idx in np.ndindex(*a0.shape):
        a = a0.copy()
        a[idx] += eps
        hi = loss_at(a)
        a[idx] -= 2 * eps
        lo = loss_at(a)
        grad[idx] = (hi - lo) / (2 * eps)
    return grad


def test_margin_frozen_in_gradient():
    batch = rand_batch(42, b=4, d=6)
    anchor = Tensor(batch.anchor.data.copy(), requires_grad=True, dtype=np.float64)
    live = TripletBatch(anchor=anchor, positive=batch.positive, negative=batch.negative)
    with Tape() as tape:
        loss = triplet_loss(live, "corrected")
    backward(loss, tape)
    ref = frozen_margin_reference_grad(
        batch.anchor.data, batch.positive.data, batch.negative.data
    )
    np.testing.assert_allclose(anchor.grad, ref, rtol=1e-3, atol=1e-6)
