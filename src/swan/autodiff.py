"""Reverse-mode automatic differentiation over dense float64 tensors.

Tensors are 0-, 1- or 2-dimensional. Every op records the inputs and a
backward closure on the output tensor; `backward` replays the records in
reverse insertion order, which is a valid topological order because an op
can only consume tensors created before it. There is no implicit
broadcasting: shape adaptation is explicit via `reshape` and
`repeat_cols`. The fused ops (`affine`, `mix`, `pair_features`,
`dics_gate`, `abs_cos_pairs`, `bce` and `neg_row_variance`) each replace a
chain of narrow ops with one record and an analytic backward, and state
the block layout they expect. Each repeats the numpy operations of the
chain it replaces, so its values and gradients are the chain's, bit for
bit.

Importing the module fixes glibc's heap trim and mmap thresholds once
(`_set_heap_policy`), so that the temporaries of each step reuse pages.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import os
from contextlib import contextmanager
from typing import Callable, Mapping, Sequence

import numpy as np

_M_TRIM_THRESHOLD = -1  # mallopt parameter numbers, from glibc's malloc.h
_M_MMAP_THRESHOLD = -3


def _set_heap_policy(environ: Mapping[str, str], libc=None) -> bool:
    """Fix glibc's mmap threshold at 32 MiB and its trim threshold at 64 MiB.

    By default glibc returns the free top of the heap to the kernel once
    it exceeds a trim threshold that starts at 128 KiB, so a training
    step's larger temporaries land on fresh pages and every step pays
    thousands of minor page faults. The two values are the limits glibc's own dynamic
    rule moves towards on 64-bit. Setting one threshold stops glibc from
    adjusting the other, so both are set. Nothing is set off glibc, or
    when the environment already sets malloc's thresholds. `libc` is the
    C library handle, the process's own when None. Returns whether the
    policy was set.
    """
    try:  # a name lookup in the C library: no process, no file
        glibc = (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc ")
    except (AttributeError, ValueError, OSError):
        glibc = False
    if (not glibc or "MALLOC_TRIM_THRESHOLD_" in environ
            or "MALLOC_MMAP_THRESHOLD_" in environ
            or "glibc.malloc." in environ.get("GLIBC_TUNABLES", "")):
        return False
    mallopt = (ctypes.CDLL(None) if libc is None else libc).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_set = mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    trim_set = mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    return bool(mmap_set and trim_set)


_HEAP_POLICY = _set_heap_policy(os.environ)


class DimensionError(ValueError):
    """Operand shapes violate an op's contract."""


_SEQ = itertools.count()
NORM_FLOOR = 1e-12  # abs_cos_pairs treats a squared norm <= this as zero
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


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add g to t's gradient.

    Gradients are never written in place: the first one a tensor gets is
    kept as given, without a copy, and each later one makes a new sum. So
    one array may be the gradient of several tensors (an `add` hands the
    same g to both operands), and a view of another tensor's gradient.
    """
    if t._grad is None:
        t._grad = np.asarray(g, dtype=np.float64)
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


def affine(x: Tensor, w: Tensor, b: Tensor, n: int = 1) -> Tensor:
    """n Linear layers in one op: block i of the output is x_i @ w_i + b_i.

    x is [B, n*k], made of n column blocks x_i of width k; w is [n*k, m],
    made of n row blocks w_i of height k; b is [n*m], made of n blocks
    b_i. The output is [B, n*m], the n results side by side. With n = 1
    it is one Linear layer, x @ w + b; with n > 1 it is the expert-axis
    layer of n stacked MLPs past their first layer.
    """
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise DimensionError(
            f"affine needs a 2-D input and weight and a 1-D bias, got "
            f"{x.shape}, {w.shape} and {b.shape}")
    if (n < 1 or x.shape[1] % n or x.shape[1] != w.shape[0]
            or b.shape[0] != n * w.shape[1]):
        raise DimensionError(
            f"affine: {x.shape}, {w.shape} and {b.shape} are not {n} matching blocks")
    if n == 1:
        def backward_fn(g: np.ndarray) -> None:
            if x.requires_grad:
                _accumulate(x, g @ w.data.T)
            if w.requires_grad:
                _accumulate(w, x.data.T @ g)
            if b.requires_grad:
                _accumulate(b, g.sum(axis=0))

        return _record(x.data @ w.data + b.data, (x, w, b), backward_fn)
    batch, k, m = x.shape[0], x.shape[1] // n, w.shape[1]
    xs = x.data.reshape(batch, n, k).transpose(1, 0, 2)  # [n, B, k]
    ws = w.data.reshape(n, k, m)

    def backward_fn(g: np.ndarray) -> None:
        gs = g.reshape(batch, n, m).transpose(1, 0, 2)  # [n, B, m]
        if x.requires_grad:
            gx = np.matmul(gs, ws.transpose(0, 2, 1))  # [n, B, k]
            _accumulate(x, gx.transpose(1, 0, 2).reshape(batch, n * k))
        if w.requires_grad:
            _accumulate(w, np.matmul(xs.transpose(0, 2, 1), gs).reshape(n * k, m))
        if b.requires_grad:
            _accumulate(b, g.sum(axis=0))

    out = np.matmul(xs, ws).transpose(1, 0, 2).reshape(batch, n * m) + b.data
    return _record(out, (x, w, b), backward_fn)


def mix(c: Tensor, v: Tensor, n: int) -> Tensor:
    """Coefficient-weighted sum of n column blocks: sum_i c[:, i] * v_i.

    c is [B, n] and v is [B, n*d], made of n column blocks v_i of width
    d; the output is [B, d].
    """
    if c.data.ndim != 2 or v.data.ndim != 2 or c.shape != (v.shape[0], n):
        raise DimensionError(f"mix needs [B, {n}] coefficients, got {c.shape}")
    if n < 1 or v.shape[1] % n:
        raise DimensionError(f"mix: width {v.shape[1]} is not {n} equal blocks")
    batch, d = v.shape[0], v.shape[1] // n
    vs = v.data.reshape(batch, n, d)

    def backward_fn(g: np.ndarray) -> None:
        if c.requires_grad:
            _accumulate(c, (vs * g[:, None, :]).sum(axis=2))
        if v.requires_grad:
            _accumulate(v, (c.data[:, :, None] * g[:, None, :]).reshape(batch, n * d))

    return _record((c.data[:, :, None] * vs).sum(axis=1), (c, v), backward_fn)


def sum_blocks(v: Tensor, n: int) -> Tensor:
    """Sum of the n column blocks of v in block order: `mix` by ones."""
    return mix(Tensor(np.ones((v.shape[0], n))), v, n)


def pair_features(u: Tensor, t: Tensor, s: Tensor) -> Tensor:
    """[u_b, t_b, t_b - s_bi, t_b * s_bi] for every row b and block i of s.

    u is [B, du] and t is [B, d]; s is [B, I*d], made of I column blocks
    s_bi of width d. The output is [B*I, du + 3d], pair (b, i) in row
    b*I + i: the input of an attention unit that scores each of a row's
    I candidates against the row (DIN's local activation unit). It is the
    chain `rows(u, r)`, `rows(t, r)`, `reshape(s)`, `sub`, `mul` and
    `concat`, r repeating each row index I times.
    """
    if u.data.ndim != 2 or t.data.ndim != 2 or s.data.ndim != 2:
        raise DimensionError(f"pair_features needs 2-D operands, got "
                             f"{u.shape}, {t.shape} and {s.shape}")
    batch, d = t.shape
    if (u.shape[0] != batch or s.shape[0] != batch or d == 0
            or s.shape[1] == 0 or s.shape[1] % d):
        raise DimensionError(f"pair_features: {s.shape} is not I >= 1 blocks of "
                             f"{t.shape} for {u.shape[0]} rows")
    n, du = s.shape[1] // d, u.shape[1]
    rep = np.repeat(np.arange(batch), n)
    e_t = t.data[rep]
    e_s = s.data.reshape(batch * n, d)
    out = np.empty((batch * n, du + 3 * d))
    out[:, :du] = u.data[rep]
    out[:, du:du + d] = e_t
    np.subtract(e_t, e_s, out=out[:, du + d:du + 2 * d])
    np.multiply(e_t, e_s, out=out[:, du + 2 * d:])

    def backward_fn(g: np.ndarray) -> None:
        g_sub, g_mul = g[:, du + d:du + 2 * d], g[:, du + 2 * d:]
        if u.requires_grad:
            _accumulate(u, _scatter_rows(rep, g[:, :du], u.shape))
        if s.requires_grad:
            _accumulate(s, (g_mul * e_t - g_sub).reshape(s.shape))
        if t.requires_grad:
            g_t = g[:, du:du + d] + g_mul * e_s + g_sub
            _accumulate(t, _scatter_rows(rep, g_t, t.shape))

    return _record(out, (u, t, s), backward_fn)


def dics_gate(a: Tensor, c: Tensor, tau: float) -> Tensor:
    """Smooth gates sigmoid((p - t) / tau), p = sigmoid(a) and t = sigmoid(c).

    a is [B, K] logits of K selection probabilities and c the [B, 1] logit
    of each row's shared threshold. It is the chain `sigmoid(a)`,
    `sigmoid(c)`, `repeat_cols`, `sub`, `scale` by 1 / tau and `sigmoid`.
    """
    if a.data.ndim != 2 or c.shape != (a.shape[0], 1):
        raise DimensionError(f"dics_gate needs [B, K] logits and a [B, 1] "
                             f"threshold logit, got {a.shape} and {c.shape}")
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    inv_tau = 1.0 / tau
    p = _stable_sigmoid(a.data)
    t = _stable_sigmoid(c.data)
    w = _stable_sigmoid((p - t) * inv_tau)

    def backward_fn(g: np.ndarray) -> None:
        g_diff = g * w * (1.0 - w) * inv_tau
        if c.requires_grad:
            g_t = (-g_diff).sum(axis=1, keepdims=True)
            _accumulate(c, g_t * t * (1.0 - t))
        if a.requires_grad:
            _accumulate(a, g_diff * p * (1.0 - p))

    return _record(w, (a, c), backward_fn)


def abs_cos_pairs(v: Tensor, n: int) -> Tensor:
    """Sum of |cosine| over the unordered pairs of n column blocks, all rows.

    v is [B, n*d]; row b holds n vectors of width d. A pair with a
    vector whose squared norm is at most NORM_FLOOR contributes 0 and no
    gradient, so dead-ReLU outputs do not poison the backward pass. The
    result is a 0-d scalar, computed from each row's Gram matrix.
    """
    if v.data.ndim != 2 or n < 1 or v.shape[1] % n:
        raise DimensionError(f"abs_cos_pairs: {v.shape} is not {n} equal column blocks")
    batch, d = v.shape[0], v.shape[1] // n
    vs = v.data.reshape(batch, n, d)
    gram = np.matmul(vs, vs.transpose(0, 2, 1))  # [B, n, n]
    sq = np.einsum("bii->bi", gram)
    live = sq > NORM_FLOOR
    inv = np.maximum(sq, NORM_FLOOR) ** -0.5
    mask = live[:, :, None] & live[:, None, :]
    mask &= ~np.eye(n, dtype=bool)
    cos = np.where(mask, gram * inv[:, :, None] * inv[:, None, :], 0.0)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)

    def backward_fn(g: np.ndarray) -> None:
        if v.requires_grad:
            # d|cos_mn| = sign * (v_n / (|v_m||v_n|) - cos_mn v_m / |v_m|^2)
            # for each vector m of a live pair, 0 elsewhere.
            sign = np.sign(cos)
            a = sign * inv[:, :, None] * inv[:, None, :]
            t = np.abs(cos).sum(axis=2) * inv * inv
            gv = np.matmul(a, vs) - t[:, :, None] * vs
            _accumulate(v, float(g) * gv.reshape(batch, n * d))

    return _record(np.asarray(np.abs(cos[:, upper]).sum()), (v,), backward_fn)


def bce(p: Tensor, y, eps: float) -> Tensor:
    """Mean binary cross-entropy of probabilities p against targets y.

    y holds one 0/1 target per element of p. p is clamped into
    [eps, 1 - eps] before the logs, and its gradient passes only where p
    lies strictly inside that range. The result is a 0-d scalar.
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    if p.data.size != y.shape[0]:
        raise DimensionError(f"bce: {p.shape} predictions for {y.shape[0]} targets")
    raw = p.data.reshape(y.shape)
    q = np.clip(raw, eps, 1.0 - eps)
    term = y * np.log(q) + (1.0 - y) * np.log(1.0 - q)
    scale = -1.0 / y.shape[0]

    def backward_fn(g: np.ndarray) -> None:
        if p.requires_grad:
            gt = np.full_like(term, float(g * scale))
            gq = -((gt * (1.0 - y)) / (1.0 - q)) + (gt * y) / q
            inside = (raw > eps) & (raw < 1.0 - eps)
            _accumulate(p, (gq * inside).reshape(p.shape))

    return _record(np.asarray(term.sum()) * scale, (p,), backward_fn)


def neg_row_variance(w: Tensor) -> Tensor:
    """Minus the mean over rows of each row's population variance.

    w is [B, n]; the result is a 0-d scalar. Row sums are products with a
    ones column, so they round as a matrix product does.
    """
    if w.data.ndim != 2 or w.shape[1] < 1:
        raise DimensionError(f"neg_row_variance needs a [B, n] matrix, got {w.shape}")
    batch, n = w.shape
    ones = np.ones((n, 1))
    dev = w.data - (w.data @ ones) * (1.0 / n)
    row_var = ((dev * dev) @ ones) * (1.0 / n)

    def backward_fn(g: np.ndarray) -> None:
        if w.requires_grad:
            g_sq = np.full_like(row_var, float(g * (-1.0 / batch))) * (1.0 / n)
            g_dev = g_sq * dev + g_sq * dev
            g_mean = (-g_dev).sum(axis=1, keepdims=True) * (1.0 / n)
            _accumulate(w, g_dev + g_mean)

    return _record(np.asarray(row_var.sum()) * (-1.0 / batch), (w,), backward_fn)


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
    offsets = list(itertools.accumulate((p.shape[-1] for p in parts), initial=0))

    def backward_fn(g: np.ndarray) -> None:
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                _accumulate(p, g[..., lo:hi])

    return _record(np.concatenate([p.data for p in parts], axis=-1),
                   tuple(parts), backward_fn)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, with no
    overflowing exp: both branches read e = exp(-|x|)."""
    e = np.exp(-np.abs(x))
    denom = 1.0 + e
    return np.where(x >= 0, 1.0 / denom, e / denom)


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
    if math.prod(shape) != x.data.size:
        raise DimensionError(f"reshape: cannot view {x.shape} as {shape}")

    def backward_fn(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, g.reshape(x.shape))

    return _record(x.data.reshape(shape), (x,), backward_fn)


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


def rows(table: Tensor, indices) -> Tensor:
    """Gather rows of a [V, d] table; backward scatter-adds into the rows.

    A flat array of n indices gives [n, d]. A [B, k] index matrix gives
    [B, k*d]: row b holds the k rows of index row b side by side, so one
    op looks up a row batch's k embeddings as k column blocks. Indices
    must be integers; float and boolean arrays are rejected.

    The backward is one weighted `bincount` over the flat positions
    `index * d + column`: it adds each entry's contributions in order of
    occurrence, starting from 0.0, as an unbuffered scatter-add would.
    """
    if table.data.ndim != 2:
        raise DimensionError(f"rows needs a 2-D table, got {table.shape}")
    idx = np.asarray(indices)
    if idx.size and not np.issubdtype(idx.dtype, np.integer):
        raise TypeError(f"rows needs integer indices, got dtype {idx.dtype}")
    idx = idx.astype(np.int64, copy=False)
    if idx.ndim not in (1, 2):
        raise DimensionError(f"rows needs a 1-D or 2-D index array, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ValueError(f"rows: index out of range [0, {table.shape[0]})")
    d = table.shape[1]

    def backward_fn(g: np.ndarray) -> None:
        if table.requires_grad:
            _accumulate(table, _scatter_rows(idx, g, table.shape))

    out = table.data[idx].reshape(idx.shape[0], math.prod(idx.shape[1:]) * d)
    return _record(out, (table,), backward_fn)


def _scatter_rows(idx: np.ndarray, g: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The [V, d] table gradient of a gather of rows `idx`: one weighted
    `bincount` over the flat positions `index * d + column`."""
    n_rows, d = shape
    flat = (idx.reshape(-1, 1) * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=g.ravel(), minlength=n_rows * d).reshape(n_rows, d)


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss into every reachable tensor's `grad`.

    Gradients accumulate additively; running backward twice on the same
    tensor without rebuilding the graph is an error.
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

