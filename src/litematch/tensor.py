"""Minimal tensor engine with tape-based reverse-mode differentiation.

Tensors wrap numpy arrays (float32 by default; float64 is accepted so the
tests can replay a graph at high precision against finite differences).
Differentiable operations live in :mod:`litematch.ops`; each one records
its backward rule on the active :class:`Tape` (at most one at a time) with
each input's source: a leaf tensor, the index of the entry that recorded
it, or None for a constant. The tape keeps no op output, so an output no
backward rule reads is freed once the forward drops it. :func:`backward`
walks the entries once in reverse, summing gradients into a list indexed
by entry and into every tensor marked ``requires_grad``. It drops each
entry, with the arrays its rule closes over, as soon as the walk passes
it, so a tape is walked once.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ContractError

GradFn = Callable[[np.ndarray], Sequence["np.ndarray | None"]]


class Tensor:
    """N-dimensional float array participating in recorded differentiation.

    ``grad`` stays ``None`` until :func:`backward` populates it; repeated
    backward passes accumulate. Only tensors constructed with
    ``requires_grad=True`` (leaves: parameters, probed inputs) receive a
    gradient; a recorded op output's ``node`` is its (tape serial, entry index).
    """

    __slots__ = ("data", "grad", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False, dtype=np.float32):
        self.data = np.asarray(data, dtype=dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.node: tuple[int, int] | None = None

    @classmethod
    def _wrap(cls, data: np.ndarray) -> "Tensor":
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out.requires_grad = False
        out.node = None
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


class _TapeEntry(NamedTuple):
    sources: tuple
    grad_fn: GradFn


_active: "Tape | None" = None
_serials = itertools.count()


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
        # a walked entry is None: the list keeps its length, the count of recorded ops
        self.ops: list["_TapeEntry | None"] = []
        self.serial = next(_serials)
        self.walked = False

    def __enter__(self) -> "Tape":
        global _active
        if _active is not None:
            raise ContractError("a tape is already recording; tapes do not nest")
        _active = self
        return self

    def __exit__(self, *exc) -> None:
        global _active
        _active = None

    def source(self, t: Tensor) -> "Tensor | int | None":
        """``t`` if it is a leaf, else the index of the entry that recorded it
        here, or None: a constant, as is a tensor recorded on another tape."""
        if t.requires_grad:
            return t
        return t.node[1] if t.node is not None and t.node[0] == self.serial else None


def record(inputs: Iterable[Tensor], output: Tensor, grad_fn: GradFn) -> None:
    """Register an operation on the active tape, if any, unless all its inputs are constants."""
    tape = _active
    if tape is not None:
        sources = tuple(tape.source(t) for t in inputs)
        if any(s is not None for s in sources):
            output.node = (tape.serial, len(tape.ops))
            tape.ops.append(_TapeEntry(sources, grad_fn))


def backward(loss: Tensor, tape: Tape) -> None:
    """Accumulate d(loss)/d(t) into ``t.grad`` for every requires_grad tensor.

    ``loss`` must be a scalar produced on ``tape``. Each entry is dropped as
    the walk passes it, so a rule's arrays are freed before the earlier
    rules run, and a second backward on the same tape raises ContractError.
    Backward over another tape without clearing gradients adds another copy
    of each gradient.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {tuple(loss.shape)}")
    if loss.node is None or loss.node[0] != tape.serial:
        raise ContractError("loss tensor was not produced on this tape")
    if tape.walked:
        raise ContractError("this tape was already walked; record the forward on a new tape")
    tape.walked = True

    grads: list["np.ndarray | None"] = [None] * loss.node[1] + [np.ones_like(loss.data)]
    for i in reversed(range(len(grads))):
        g, grads[i] = grads[i], None
        entry, tape.ops[i] = tape.ops[i], None
        if g is None:
            continue
        for src, ig in zip(entry.sources, entry.grad_fn(g)):
            if ig is None or src is None:
                continue
            if isinstance(src, Tensor):
                src.grad = ig.copy() if src.grad is None else src.grad + ig
            else:  # out of place: grad_fn outputs may alias g
                grads[src] = ig if grads[src] is None else grads[src] + ig


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
