"""Reverse-mode automatic differentiation over dense float64 tensors.

Tensors are 0-, 1- or 2-dimensional. Every op records the inputs and a
backward closure on the output tensor; `backward` replays the records in
reverse insertion order, which is a valid topological order because an op
can only consume tensors created before it. There is no implicit
broadcasting: shape adaptation is explicit via `reshape`, `repeat_rows`
and `repeat_cols`.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np


class DimensionError(ValueError):
    """Operand shapes violate an op's contract."""


_SEQ = itertools.count()
_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (forward values only)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """Dense float64 array plus an optional op record for backprop."""

    __slots__ = ("data", "requires_grad", "_grad", "_parents", "_backward_fn",
                 "_seq", "_backward_done")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 2:
            raise DimensionError(f"tensors are at most 2-D, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None
        self._seq = next(_SEQ)
        self._backward_done = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def grad(self) -> np.ndarray | None:
        """Accumulated gradient; zeros for a grad-requiring tensor not yet visited."""
        if not self.requires_grad:
            return None
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        return self._grad

    def zero_grad(self) -> None:
        self._grad = None

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Arithmetic sugar; scalars become constant tensors of the same shape.
    def __add__(self, other):
        return add(self, _lift(other, self.shape))

    def __sub__(self, other):
        return sub(self, _lift(other, self.shape))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return NotImplemented

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def _lift(value, shape) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.full(shape, float(value)))


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t._grad is None:
        t._grad = np.array(g, dtype=np.float64, copy=True)
    else:
        t._grad = t._grad + g


def _record(data: np.ndarray, parents: tuple[Tensor, ...],
            backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
    return out


def _check_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shapes must match exactly, got {a.shape} and {b.shape}")


# ---------------------------------------------------------------------------
# primitive ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions disagree, got {a.shape} and {b.shape}")

    def backward_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _record(a.data @ b.data, (a, b), backward_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("add", a, b)

    def backward_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, g)

    return _record(a.data + b.data, (a, b), backward_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("sub", a, b)

    def backward_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, -g)

    return _record(a.data - b.data, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("mul", a, b)

    def backward_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, g * b.data)
        if b.requires_grad:
            _accumulate(b, g * a.data)

    return _record(a.data * b.data, (a, b), backward_fn)


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the last axis; all other dimensions must agree."""
    parts = list(parts)
    if not parts:
        raise ValueError("concat needs at least one part")
    ndim = parts[0].data.ndim
    if ndim == 0:
        raise DimensionError("concat needs 1-D or 2-D parts")
    for p in parts[1:]:
        if p.data.ndim != ndim or p.shape[:-1] != parts[0].shape[:-1]:
            raise DimensionError(
                f"concat: parts must agree on all but the last axis, got "
                f"{[q.shape for q in parts]}")
    widths = [p.shape[-1] for p in parts]
    offsets = np.cumsum([0] + widths)

    def backward_fn(g: np.ndarray) -> None:
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                _accumulate(p, g[..., lo:hi])

    return _record(np.concatenate([p.data for p in parts], axis=-1),
                   tuple(parts), backward_fn)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(x: Tensor) -> Tensor:
    s = _stable_sigmoid(x.data)

    def backward_fn(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, g * s * (1.0 - s))

    return _record(s, (x,), backward_fn)


def relu(x: Tensor) -> Tensor:
    def backward_fn(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, g * (x.data > 0.0))

    return _record(np.maximum(x.data, 0.0), (x,), backward_fn)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis with max-subtraction for stability."""
    if x.data.ndim == 0:
        raise DimensionError("softmax needs a 1-D or 2-D tensor")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def backward_fn(g: np.ndarray) -> None:
        if x.requires_grad:
            inner = (g * s).sum(axis=-1, keepdims=True)
            _accumulate(x, s * (g - inner))

    return _record(s, (x,), backward_fn)


def log(x: Tensor) -> Tensor:
    """Natural log; the caller is responsible for keeping inputs positive."""
    def backward_fn(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, g / x.data)

    return _record(np.log(x.data), (x,), backward_fn)


def absolute(x: Tensor) -> Tensor:
    """|x| with subgradient 0 at exactly 0."""
    def backward_fn(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, g * np.sign(x.data))

    return _record(np.abs(x.data), (x,), backward_fn)


def power(x: Tensor, p: float) -> Tensor:
    """Elementwise x**p; fractional or negative p require positive inputs."""
    out = x.data ** p

    def backward_fn(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, g * p * x.data ** (p - 1.0))

    return _record(out, (x,), backward_fn)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values into [lo, hi]; gradient passes only strictly inside."""
    def backward_fn(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, g * ((x.data > lo) & (x.data < hi)))

    return _record(np.clip(x.data, lo, hi), (x,), backward_fn)


def scale(x: Tensor, c: float) -> Tensor:
    def backward_fn(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, g * c)

    return _record(x.data * c, (x,), backward_fn)


def sum_all(x: Tensor) -> Tensor:
    """Sum of every element, as a 0-d scalar tensor."""
    def backward_fn(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, np.full_like(x.data, float(g)))

    return _record(np.asarray(x.data.sum()), (x,), backward_fn)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.data.size:
        raise DimensionError(f"reshape: cannot view {x.shape} as {shape}")

    def backward_fn(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, g.reshape(x.shape))

    return _record(x.data.reshape(shape), (x,), backward_fn)


def repeat_rows(x: Tensor, times: int) -> Tensor:
    """Explicitly broadcast a vector (or 1-row matrix) to `times` rows."""
    if times < 1:
        raise ValueError("repeat_rows needs times >= 1")
    if x.data.ndim == 1:
        base = x.data[None, :]
    elif x.data.ndim == 2 and x.shape[0] == 1:
        base = x.data
    else:
        raise DimensionError(f"repeat_rows needs a vector or a 1-row matrix, got {x.shape}")

    def backward_fn(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, g.sum(axis=0).reshape(x.shape))

    return _record(np.broadcast_to(base, (times, base.shape[1])), (x,), backward_fn)


def repeat_cols(x: Tensor, times: int) -> Tensor:
    """Explicitly broadcast a [B, 1] column to [B, times]."""
    if times < 1:
        raise ValueError("repeat_cols needs times >= 1")
    if x.data.ndim != 2 or x.shape[1] != 1:
        raise DimensionError(f"repeat_cols needs a [B, 1] column, got {x.shape}")

    def backward_fn(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, g.sum(axis=1, keepdims=True))

    return _record(np.broadcast_to(x.data, (x.shape[0], times)), (x,), backward_fn)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    if x.data.ndim != 2:
        raise DimensionError(f"slice_cols needs a 2-D tensor, got {x.shape}")
    if not (0 <= start < stop <= x.shape[1]):
        raise ValueError(f"slice_cols: bad range [{start}, {stop}) for width {x.shape[1]}")

    def backward_fn(g: np.ndarray) -> None:
        if x.requires_grad:
            full = np.zeros_like(x.data)
            full[:, start:stop] = g
            _accumulate(x, full)

    return _record(x.data[:, start:stop], (x,), backward_fn)


def rows(table: Tensor, indices) -> Tensor:
    """Gather rows of a [V, d] table; backward scatter-adds into the rows."""
    if table.data.ndim != 2:
        raise DimensionError(f"rows needs a 2-D table, got {table.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise DimensionError(f"rows needs a flat index array, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ValueError(f"rows: index out of range [0, {table.shape[0]})")

    def backward_fn(g: np.ndarray) -> None:
        if table.requires_grad:
            full = np.zeros_like(table.data)
            np.add.at(full, idx, g)
            _accumulate(table, full)

    return _record(table.data[idx], (table,), backward_fn)


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Backpropagate from a scalar loss.

    Returns a map from every reachable grad-requiring leaf tensor to its
    gradient. Gradients accumulate additively; running backward twice on
    the same tensor without rebuilding the graph is an error.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss._backward_done:
        raise RuntimeError("backward already ran for this tensor; rebuild the graph first")
    loss._backward_done = True

    # Reachable subgraph, then reverse insertion order (a topological order).
    seen: set[int] = set()
    nodes: list[Tensor] = []
    stack = [loss]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        nodes.append(t)
        stack.extend(t._parents)
    nodes.sort(key=lambda t: t._seq, reverse=True)

    _accumulate(loss, np.ones_like(loss.data))
    for node in nodes:
        if node._backward_fn is not None and node._grad is not None:
            node._backward_fn(node._grad)

    return {t: t.grad for t in nodes if t.requires_grad and not t._parents}


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.zero_grad()
