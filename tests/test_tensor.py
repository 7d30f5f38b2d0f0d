"""Engine core: tape semantics, backward accumulation, SGD updates."""

import math

import numpy as np
import pytest

from litematch import ops
from litematch.errors import ContractError
from litematch.tensor import SGD, Tape, Tensor, active_tape, backward, record

from cotangent import cotangent, cotangent_dot


def test_tensor_stores_float32_by_default():
    t = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert t.data.dtype == np.float32
    assert t.shape == (2, 2)
    assert t.grad is None


def scale(x, c):
    """c * x, a test-local op on the active tape."""
    out = Tensor._wrap(x.data * c)
    record((x,), out, lambda g: (g * c,))
    return out


def square_norm(x):
    """x . x of a [1, n] row as the [1, 1] projection of x by itself: both operands are x."""
    return ops.linear(x, x, None)


def test_backward_linear_case():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        loss = cotangent_dot(x)
    backward(loss, tape)
    np.testing.assert_array_equal(x.grad, cotangent((3,), np.float32))


def test_backward_quadratic_case():
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    with Tape() as tape:
        loss = cotangent_dot(square_norm(x))
    backward(loss, tape)
    np.testing.assert_allclose(x.grad, [[2.0, 4.0]] * cotangent((1, 1), np.float32)[0], rtol=1e-6)


def test_backward_accumulates_across_calls():
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    with Tape() as tape:
        loss = cotangent_dot(square_norm(x))
    backward(loss, tape)
    backward(loss, tape)
    np.testing.assert_allclose(x.grad, [[4.0, 8.0]] * cotangent((1, 1), np.float32)[0], rtol=1e-6)


def test_backward_rejects_non_scalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = scale(x, 2.0)
    with pytest.raises(ContractError):
        backward(y, tape)


def test_backward_rejects_loss_off_tape():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        _ = cotangent_dot(x)
    other = Tensor(3.0)
    with pytest.raises(ContractError):
        backward(other, tape)


def test_tape_replay_identical_gradients():
    rng = np.random.default_rng(7)
    data = rng.standard_normal((4, 5)).astype(np.float32)

    def run():
        x = Tensor(data.copy(), requires_grad=True)
        with Tape() as tape:
            loss = cotangent_dot(ops.l2_normalize(ops.linear(x, x, None)))
        backward(loss, tape)
        return x.grad

    g1, g2 = run(), run()
    np.testing.assert_array_equal(g1, g2)


def test_fanout_gradient_sums_both_paths():
    x = Tensor([2.0, -1.0], requires_grad=True)
    with Tape() as tape:
        y = scale(x, 3.0)  # 3 x
        z = ops.add(y, y)  # 6 x
        loss = cotangent_dot(z)
    backward(loss, tape)
    np.testing.assert_array_equal(x.grad, 6.0 * cotangent((2,), np.float32))


def test_nested_tape_raises_and_the_outer_tape_keeps_recording():
    x = Tensor([3.0], requires_grad=True)
    with Tape() as outer:
        with pytest.raises(ContractError, match="already recording"):
            with Tape():
                pass
        assert active_tape() is outer
        loss = cotangent_dot(scale(x, 2.0))
    assert active_tape() is None
    backward(loss, outer)
    np.testing.assert_array_equal(x.grad, 2.0 * cotangent((1,), np.float32))


def test_exception_inside_a_tape_leaves_no_tape_active():
    x = Tensor([1.0], requires_grad=True)
    tape = Tape()
    with pytest.raises(RuntimeError, match="forward failed"):
        with tape:
            scale(x, 2.0)
            raise RuntimeError("forward failed")
    assert active_tape() is None
    scale(x, 2.0)  # records nothing
    assert len(tape.ops) == 1
    with Tape() as again:  # and a new tape opens
        scale(x, 2.0)
    assert len(again.ops) == 1 and active_tape() is None


def test_no_tape_records_nothing():
    x = Tensor([1.0], requires_grad=True)
    tape = Tape()
    with tape:
        pass
    y = scale(x, 2.0)  # outside any tape
    assert tape.ops == []
    assert y.grad is None


def test_sgd_plain_gradient_descent():
    p = Tensor([1.0, 1.0], requires_grad=True)
    opt = SGD([p], lr=0.1, momentum=0.0)
    p.grad = np.array([0.5, -0.5], dtype=np.float32)
    opt.step()
    np.testing.assert_allclose(p.data, [0.95, 1.05], rtol=1e-6)
    assert p.grad is None


def test_sgd_momentum_second_step_magnitude():
    # constant gradient g: v1 = g, v2 = 0.9 g + g = 1.9 g
    p = Tensor([0.0], requires_grad=True)
    opt = SGD([p], lr=0.001, momentum=0.9)
    g = np.array([2.0], dtype=np.float32)
    p.grad = g.copy()
    opt.step()
    first = -float(p.data[0])
    p.grad = g.copy()
    opt.step()
    second = -float(p.data[0]) - first
    np.testing.assert_allclose(first, 0.001 * 2.0, rtol=1e-6)
    np.testing.assert_allclose(second, 0.001 * 1.9 * 2.0, rtol=1e-6)


def test_sgd_missing_gradient_raises():
    p = Tensor([1.0], requires_grad=True)
    opt = SGD([p], lr=0.1, momentum=0.9)
    with pytest.raises(ContractError):
        opt.step()


def test_sgd_rejects_bad_hyperparameters():
    p = Tensor([1.0], requires_grad=True)
    with pytest.raises(ContractError):
        SGD([p], lr=0.0)
    with pytest.raises(ContractError):
        SGD([p], lr=0.1, momentum=1.0)


@pytest.mark.parametrize("lr", [math.nan, math.inf, 0.0, -0.1])
def test_sgd_learning_rate_must_be_positive_and_finite(lr):
    with pytest.raises(ContractError, match=f"^learning rate must be positive and finite, got {lr}$"):
        SGD([Tensor([1.0], requires_grad=True)], lr=lr)
