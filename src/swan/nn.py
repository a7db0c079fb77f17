"""Linear layers and MLP stacks on top of the autodiff core."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Linear:
    """Weight and bias of one affine layer x @ w + b; `MLP` applies it."""

    def __init__(self, w: Tensor, b: Tensor):
        self.w = w
        self.b = b


class MLP:
    """Stack of Linear layers with ReLU between them and a linear output.

    With n > 1 it is n same-shaped MLPs over one input, run as one wide
    MLP (the stacked-expert layout): layer 0 is [in, n*h] with the n
    first layers side by side, every later layer is [n*h_in, h_out] with
    the n layers as row blocks, applied with `affine` over n blocks. The
    output is [B, n*out_dim], MLP i's output in column block i.
    """

    def __init__(self, layers: list[Linear], n: int = 1):
        self.layers = layers
        self.n = n

    @classmethod
    def stacked(cls, rng: np.random.Generator, n: int, in_dim: int,
                hidden: Sequence[int], out_dim: int) -> "MLP":
        """n MLPs drawn one after another from `rng`, each a glorot weight
        per layer in layer order (zero biases draw nothing), then stacked."""
        if n < 1:
            raise ValueError("a stack needs at least one MLP")
        pairs = list(zip([in_dim, *hidden], [*hidden, out_dim]))
        drawn = [[glorot_uniform(rng, a, b) for a, b in pairs] for _ in range(n)]
        layers = []
        for i, (_, b) in enumerate(pairs):
            w = np.concatenate([ws[i] for ws in drawn], axis=1 if i == 0 else 0)
            layers.append(Linear(Tensor(w, requires_grad=True),
                                 Tensor(np.zeros(n * b), requires_grad=True)))
        return cls(layers, n)

    @staticmethod
    def shapes(prefix: str, n: int, in_dim: int, hidden: Sequence[int],
               out_dim: int) -> list[tuple[str, tuple[int, ...]]]:
        """The names and shapes `named_parameters(prefix)` gives for
        `stacked(rng, n, in_dim, hidden, out_dim)`, without drawing them."""
        dims = [in_dim, *hidden, out_dim]
        out = []
        for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
            out.append((f"{prefix}.layer{i}.w", (a, n * b) if i == 0 else (n * a, b)))
            out.append((f"{prefix}.layer{i}.b", (n * b,)))
        return out

    def __call__(self, x: Tensor) -> Tensor:
        for i, layer in enumerate(self.layers):
            x = ad.affine(x, layer.w, layer.b, 1 if i == 0 else self.n)
            if i < len(self.layers) - 1:
                x = ad.relu(x)
        return x

    def named_parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        out = []
        for i, layer in enumerate(self.layers):
            out.append((f"{prefix}.layer{i}.w", layer.w))
            out.append((f"{prefix}.layer{i}.b", layer.b))
        return out
