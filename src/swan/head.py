"""Decision layer and training losses.

The decision layer gates every expert output (softmax over the full gate
vector, following the multi-gate MoE convention), scales the adaptive
experts by their selector gates, and maps the mixed vector to a click
probability. The training objective combines cross-entropy with two
auxiliary terms: a cosine loss pushing adaptive experts apart and a
variance term pushing selector gates toward 0/1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import DimensionError, Tensor
from .nn import MLP

_EPS = 1e-12


@dataclass
class HeadParams:
    gate_mlp: MLP    # one linear layer: e_in -> N_s + N_a gate logits
    final_mlp: MLP   # d_expert -> 1 logit


@dataclass
class LossWeights:
    """Mixing weights for the combined objective."""

    alpha: float = 1.0
    beta: float = 1e-3
    gamma: float = 1e-3

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if self.beta < 0.0 or self.gamma < 0.0:
            raise ValueError("beta and gamma must be non-negative")


def _as_rows(t: Tensor) -> Tensor:
    return ad.reshape(t, (1, t.shape[0])) if t.data.ndim == 1 else t


def decide(e_in: Tensor, seg_outputs: Sequence[Tensor],
           aeg_outputs: Sequence[Tensor], w: Tensor | None,
           params: HeadParams) -> Tensor:
    """Final click probability from the gated expert mixture.

    Shared experts contribute gate * output; adaptive experts contribute
    gate * selector_gate * output. Gates come from one linear layer over
    the model input, softmax-normalized across all experts.
    """
    seg_outputs = list(seg_outputs)
    aeg_outputs = list(aeg_outputs)
    n_total = len(seg_outputs) + len(aeg_outputs)
    if n_total == 0:
        raise ValueError("decide needs at least one expert output")
    if aeg_outputs:
        if w is None:
            raise ValueError("adaptive experts need selector gates")
        if w.shape[-1] != len(aeg_outputs):
            raise DimensionError(
                f"decide: {w.shape[-1]} selector gates for {len(aeg_outputs)} experts")
    gates = params.gate_mlp(e_in)
    if gates.shape[-1] != n_total:
        raise DimensionError(
            f"decide: gate output width {gates.shape[-1]} != expert count {n_total}")
    gates = ad.softmax(gates)
    d = (seg_outputs or aeg_outputs)[0].shape[1]
    mixed = None
    for i, vec in enumerate(seg_outputs):
        g = ad.repeat_cols(ad.slice_cols(gates, i, i + 1), d)
        term = ad.mul(g, vec)
        mixed = term if mixed is None else ad.add(mixed, term)
    offset = len(seg_outputs)
    for k, vec in enumerate(aeg_outputs):
        g = ad.repeat_cols(ad.slice_cols(gates, offset + k, offset + k + 1), d)
        w_k = ad.repeat_cols(ad.slice_cols(w, k, k + 1), d)
        term = ad.mul(ad.mul(g, w_k), vec)
        mixed = term if mixed is None else ad.add(mixed, term)
    return ad.sigmoid(params.final_mlp(mixed))


def ce_loss(labels, predictions: Tensor, n: int | None = None) -> Tensor:
    """Mean binary cross-entropy; predictions are clamped away from {0, 1}."""
    y = np.asarray(labels, dtype=np.float64).reshape(-1, 1)
    preds = _as_rows(predictions)
    if preds.shape != y.shape:
        preds = ad.reshape(preds, y.shape)
    if n is None:
        n = y.shape[0]
    p = ad.clip(preds, _EPS, 1.0 - _EPS)
    y_t = Tensor(y)
    one_minus_y = Tensor(1.0 - y)
    ones = Tensor(np.ones_like(y))
    term = ad.add(ad.mul(y_t, ad.log(p)),
                  ad.mul(one_minus_y, ad.log(ad.sub(ones, p))))
    return ad.scale(ad.sum_all(term), -1.0 / n)


_NORM_FLOOR = 1e-12  # squared-norm floor below which an output counts as zero


def cos_loss(aeg_outputs: Sequence[Tensor]) -> Tensor:
    """Sum of |cosine| over ordered pairs of distinct adaptive-expert outputs.

    Batched outputs are averaged over the rows. A pair involving a
    (numerically) zero-norm output contributes 0 with no gradient, which
    keeps dead-ReLU rows from poisoning the backward pass. The
    ordered-pair double sum equals twice the unordered sum, which is what
    gets built.
    """
    outputs = [_as_rows(t) for t in aeg_outputs]
    if not outputs:
        raise ValueError("cos_loss needs at least one expert output")
    if len(outputs) == 1:
        return Tensor(np.asarray(0.0))
    batch = outputs[0].shape[0]
    d = outputs[0].shape[1]
    ones_col = Tensor(np.ones((d, 1)))
    sq_norms = []
    inv_norms = []
    for out in outputs:
        sq = ad.matmul(ad.mul(out, out), ones_col)  # [B, 1]
        sq_norms.append(sq)
        inv_norms.append(ad.power(ad.clip(sq, _NORM_FLOOR, np.inf), -0.5))
    total = None
    for m in range(len(outputs)):
        for n_ in range(m + 1, len(outputs)):
            dot = ad.matmul(ad.mul(outputs[m], outputs[n_]), ones_col)
            cos = ad.mul(ad.mul(dot, inv_norms[m]), inv_norms[n_])
            mask = ((sq_norms[m].data > _NORM_FLOOR)
                    & (sq_norms[n_].data > _NORM_FLOOR))
            if not mask.all():
                cos = ad.mul(cos, Tensor(mask.astype(np.float64)))
            term = ad.absolute(cos)
            total = term if total is None else ad.add(total, term)
    return ad.scale(ad.sum_all(total), 2.0 / batch)


def var_loss(w: Tensor) -> Tensor:
    """Negated population variance of the selector gates (batch-averaged).

    Minimizing the total loss therefore spreads the gates apart. Exactly
    uniform gates short-circuit to 0, where the analytic gradient is zero
    anyway.
    """
    w2 = _as_rows(w)
    batch, n = w2.shape
    if n < 1:
        raise ValueError("var_loss needs at least one gate")
    if np.all(w2.data == w2.data.flat[0]):
        return Tensor(np.asarray(0.0))
    ones_col = Tensor(np.ones((n, 1)))
    mean = ad.repeat_cols(ad.scale(ad.matmul(w2, ones_col), 1.0 / n), n)
    dev = ad.sub(w2, mean)
    row_var = ad.scale(ad.matmul(ad.mul(dev, dev), ones_col), 1.0 / n)
    return ad.scale(ad.sum_all(row_var), -1.0 / batch)


def total_loss(labels, predictions: Tensor, aeg_outputs: Sequence[Tensor],
               w: Tensor | None, weights: LossWeights) -> Tensor:
    """alpha * cross-entropy + beta * cosine + gamma * gate-variance term.

    The variance term is negated (see `var_loss`), so it rewards gate spread.
    """
    loss = ad.scale(ce_loss(labels, predictions), weights.alpha)
    if weights.beta > 0.0 and len(list(aeg_outputs)) > 1:
        loss = ad.add(loss, ad.scale(cos_loss(aeg_outputs), weights.beta))
    if weights.gamma > 0.0 and w is not None:
        loss = ad.add(loss, ad.scale(var_loss(w), weights.gamma))
    return loss
