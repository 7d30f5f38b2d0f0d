"""Minimal tensor engine with tape-based reverse-mode differentiation.

Tensors wrap numpy arrays (float32 by default; float64 is accepted so the
tests can replay a graph at high precision against finite differences).
Differentiable operations live in :mod:`litematch.ops`; each one appends
an entry to the active :class:`Tape`, of which there is at most one at a
time, and :func:`backward` walks the tape once in reverse, accumulating
gradients into every tensor marked ``requires_grad``.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError

GradFn = Callable[[np.ndarray], Sequence["np.ndarray | None"]]


class Tensor:
    """N-dimensional float array participating in recorded differentiation.

    ``grad`` stays ``None`` until :func:`backward` populates it; repeated
    backward passes accumulate. Only tensors constructed with
    ``requires_grad=True`` (leaves: parameters, probed inputs) receive a
    gradient; intermediate results are tracked on the tape instead.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=np.float32):
        self.data = np.asarray(data, dtype=dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @classmethod
    def _wrap(cls, data: np.ndarray) -> "Tensor":
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out.requires_grad = False
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return (
            f"Tensor(shape={tuple(self.data.shape)}, dtype={self.data.dtype}, "
            f"requires_grad={self.requires_grad})"
        )


class _TapeEntry:
    __slots__ = ("inputs", "output", "grad_fn", "needs")

    def __init__(self, inputs, output, grad_fn, needs):
        self.inputs = inputs
        self.output = output
        self.grad_fn = grad_fn
        self.needs = needs


_active: "Tape | None" = None


def active_tape() -> "Tape | None":
    return _active


class Tape:
    """Ordered record of the operations of one forward pass.

    Entries are appended in execution order, so every operation's inputs
    precede it and a single reverse sweep visits each operation exactly
    once. Use as a context manager. One tape records at a time: opening
    a tape while another is recording raises ContractError.
    """

    def __init__(self):
        self.ops: list[_TapeEntry] = []
        self._tracked: set[int] = set()

    def __enter__(self) -> "Tape":
        global _active
        if _active is not None:
            raise ContractError("a tape is already recording; tapes do not nest")
        _active = self
        return self

    def __exit__(self, *exc) -> bool:
        global _active
        _active = None
        return False

    def tracks(self, t: Tensor) -> bool:
        return t.requires_grad or id(t) in self._tracked

    def record(self, inputs: Iterable[Tensor], output: Tensor, grad_fn: GradFn) -> None:
        inputs = tuple(inputs)
        needs = tuple(self.tracks(t) for t in inputs)
        if any(needs):
            self._tracked.add(id(output))
            self.ops.append(_TapeEntry(inputs, output, grad_fn, needs))


def record(inputs: Iterable[Tensor], output: Tensor, grad_fn: GradFn) -> None:
    """Register an operation on the active tape, if any."""
    tape = active_tape()
    if tape is not None:
        tape.record(inputs, output, grad_fn)


def backward(loss: Tensor, tape: Tape) -> None:
    """Accumulate d(loss)/d(t) into ``t.grad`` for every requires_grad tensor.

    ``loss`` must be a scalar produced on ``tape``. Calling backward again
    without clearing gradients adds another copy of each gradient.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {tuple(loss.shape)}")
    if id(loss) not in tape._tracked:
        raise ContractError("loss tensor was not produced on this tape")

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for entry in reversed(tape.ops):
        g = grads.pop(id(entry.output), None)
        if g is None:
            continue
        in_grads = entry.grad_fn(g)
        for t, ig, needed in zip(entry.inputs, in_grads, entry.needs):
            if ig is None or not needed:
                continue
            if t.requires_grad:
                t.grad = ig.copy() if t.grad is None else t.grad + ig
            else:
                acc = grads.get(id(t))
                # Out-of-place accumulation: grad_fn outputs may alias g.
                grads[id(t)] = ig if acc is None else acc + ig


class SGD:
    """Stochastic gradient descent with classical momentum.

    ``step`` applies ``v <- momentum * v + grad; p <- p - lr * v`` to every
    parameter and then clears gradients, so each backward pass feeds
    exactly one update.
    """

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-3, momentum: float = 0.9):
        self.params = list(params)
        if not 0 < lr < math.inf:  # refuses NaN too
            raise ContractError(f"learning rate must be positive and finite, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ContractError(f"momentum must lie in [0, 1), got {momentum}")
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                raise ContractError("parameter has no gradient; run backward first")
            np.multiply(v, self.momentum, out=v)
            v += p.grad
            p.data -= self.lr * v
            p.grad = None
