"""Decision layer and training losses.

The decision layer gates every expert output (softmax over the full gate
vector, following the multi-gate MoE convention), scales the adaptive
experts by their selector gates, and maps the mixed vector to a click
probability. The training objective combines cross-entropy with two
auxiliary terms: a cosine loss pushing adaptive experts apart and a
variance term pushing selector gates toward 0/1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DimensionError, Tensor
from .features import Config
from .nn import MLP

_EPS = 1e-12


@dataclass
class LossWeights(Config):
    """Mixing weights for the combined objective."""

    alpha: float = 1.0
    beta: float = 1e-3
    gamma: float = 1e-3

    def _rules(self) -> tuple:
        return (("alpha", 0.0 < self.alpha < math.inf, "finite and positive"),
                ("beta", 0.0 <= self.beta < math.inf, "finite and non-negative"),
                ("gamma", 0.0 <= self.gamma < math.inf, "finite and non-negative"))


def decide(e_in: Tensor, seg_outputs: Tensor, aeg_outputs: Tensor, w: Tensor,
           gate_mlp: MLP, final_mlp: MLP) -> Tensor:
    """Final click probability from the gated expert mixture.

    `seg_outputs` is the [B, N_s*d] stack of the shared experts and
    `aeg_outputs` the [B, N_a*d] stack of the adaptive ones, d being the
    input width of the read-out `final_mlp`. Shared experts contribute
    gate * output; adaptive experts contribute gate * selector_gate *
    output. Gates come from `gate_mlp`, one linear layer over the model
    input, softmax-normalized across all experts, and the mix is one op
    over the coefficients concat(gates_seg, gates_aeg * w).
    """
    d = final_mlp.layers[0].w.shape[0]
    if seg_outputs.data.ndim != 2 or seg_outputs.shape[1] % d:
        raise DimensionError(
            f"decide: shared outputs {seg_outputs.shape} are not blocks of width {d}")
    if aeg_outputs.shape[-1] != w.shape[-1] * d:
        raise DimensionError(
            f"decide: {w.shape[-1]} selector gates for adaptive outputs "
            f"{aeg_outputs.shape} of block width {d}")
    ones = Tensor(np.ones((e_in.shape[0], seg_outputs.shape[1] // d)))
    scale = ad.concat([ones, w])
    values = ad.concat([seg_outputs, aeg_outputs])
    n_total = scale.shape[1]
    gates = gate_mlp(e_in)
    if gates.shape[-1] != n_total:
        raise DimensionError(
            f"decide: gate output width {gates.shape[-1]} != expert count {n_total}")
    coeffs = ad.mul(ad.softmax(gates), scale)
    return ad.sigmoid(final_mlp(ad.mix(coeffs, values, n_total)))


def ce_loss(labels, predictions: Tensor) -> Tensor:
    """Mean binary cross-entropy; predictions are clamped away from {0, 1}."""
    return ad.bce(predictions, labels, _EPS)


def cos_loss(aeg_outputs: Tensor, n: int) -> Tensor:
    """Sum of |cosine| over ordered pairs of distinct adaptive-expert outputs.

    `aeg_outputs` is the [B, n*d] stack of the n adaptive experts.
    Batched outputs are averaged over the rows. A pair involving a
    (numerically) zero-norm output contributes 0 with no gradient, which
    keeps dead-ReLU rows from poisoning the backward pass. The
    ordered-pair double sum equals twice the unordered sum, which is what
    `abs_cos_pairs` computes.
    """
    return ad.scale(ad.abs_cos_pairs(aeg_outputs, n), 2.0 / aeg_outputs.shape[0])


def var_loss(w: Tensor) -> Tensor:
    """Negated population variance of the selector gates (batch-averaged).

    Minimizing the total loss therefore spreads the gates apart. Exactly
    uniform gates short-circuit to 0, where the analytic gradient is zero
    anyway.
    """
    if w.data.ndim != 2 or w.shape[1] < 1:
        raise ValueError(f"var_loss needs a [B, n] matrix of gates, got {w.shape}")
    if np.all(w.data == w.data.flat[0]):
        return Tensor(np.asarray(0.0))
    return ad.neg_row_variance(w)


def total_loss(labels, predictions: Tensor, aeg_outputs: Tensor, w: Tensor,
               weights: LossWeights) -> Tensor:
    """alpha * cross-entropy + beta * cosine + gamma * gate-variance term.

    `aeg_outputs` stacks one output block per selector gate in `w`. The
    variance term is negated (see `var_loss`), so it rewards gate spread.
    """
    loss = ad.scale(ce_loss(labels, predictions), weights.alpha)
    if weights.beta > 0.0 and w.shape[-1] > 1:
        loss = ad.add(loss, ad.scale(cos_loss(aeg_outputs, w.shape[-1]),
                                     weights.beta))
    if weights.gamma > 0.0:
        loss = ad.add(loss, ad.scale(var_loss(w), weights.gamma))
    return loss
