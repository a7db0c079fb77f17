"""Adaptive Ensemble-experts Module.

The Expert Selector turns the user embedding and the similar-scene mix
into per-expert selection probabilities plus a single shared threshold;
a smooth logistic comparison (`dics`) converts each probability/threshold
pair into a gate in (0, 1) without breaking gradients. The adaptive
group's experts are gated at the decision layer; the shared group's
experts run unconditionally for every scene. Each group is one stacked
MLP (`MLP.stacked`), so a group's N experts run as one wide MLP and
return [B, N*d_expert], expert i in column block i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .nn import MLP


def dics(p: float, t: float, tau: float) -> float:
    """Smooth gate: logistic((p - t) / tau).

    Strictly increasing in p, strictly decreasing in t; tau sharpens the
    transition toward a hard 0/1 comparison as it shrinks.
    """
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    z = (p - t) / tau
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


@dataclass
class SelectorOutput:
    p: np.ndarray  # [B, N_a] selection probabilities
    t: np.ndarray  # [B, 1] shared threshold
    w: Tensor      # [B, N_a] gate values


def expert_selector(e_user: Tensor, vec_san: Tensor, prob_mlp: MLP,
                    thre_mlp: MLP, tau: float) -> SelectorOutput:
    """Per-expert probabilities, the shared threshold and the smooth gates.

    `prob_mlp` maps e_user (+) vec_san to N_a logits and `thre_mlp` maps
    vec_san to one; `autodiff.dics_gate`, the tensor form of `dics`, turns
    the two into the gates in one op.
    """
    w, p, t = ad.dics_gate(prob_mlp(ad.concat([e_user, vec_san])),
                           thre_mlp(vec_san), tau)
    return SelectorOutput(p=p, t=t, w=w)


def aeg_forward(e_in: Tensor, w: Tensor, experts: MLP) -> Tensor:
    """Stacked adaptive-group outputs; `w` is applied at the decision layer."""
    if w.shape[-1] != experts.n:
        raise ad.DimensionError(
            f"aeg_forward: {w.shape[-1]} gates for {experts.n} experts")
    return experts(e_in)


def seg_forward(e_in: Tensor, experts: MLP) -> Tensor:
    """Stacked shared-group outputs, identical treatment for every scene."""
    return experts(e_in)
