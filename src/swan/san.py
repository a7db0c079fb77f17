"""Similarity Attention Network.

Scores each similar scene against the target scene from the user's
perspective; the scores are softmax-normalized over the retrieved
similar-scene set and used to mix the similar-scene embeddings into a
single vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .nn import MLP


@dataclass
class SanOutput:
    """Attention weights over the similar scenes and their weighted mix."""

    weights: Tensor  # [B, I], rows sum to 1
    vec: Tensor      # [B, d_scene]


def san_forward(e_user: Tensor, e_target: Tensor, e_similar: Tensor,
                score_mlp: MLP) -> SanOutput:
    """Attend over similar scenes conditioned on the user.

    Each score is MLP[e_user (+) e_target (+) (e_target - e_s) (+)
    (e_target * e_s)] where (+) is concatenation and * the elementwise
    product; weights are the softmax of the scores across the similar
    scenes and the output vector is the weight-mixed similar-scene
    embedding. `e_user` and `e_target` are row batches; `e_similar` is
    the [I, d_scene] matrix of the similar-scene embeddings, shared by
    every row (a batch holds one scene). All B*I (row, scene) pairs are
    scored in one MLP call.
    """
    if e_similar.data.ndim != 2 or e_similar.shape[0] == 0:
        raise ValueError("san_forward needs at least one similar scene")
    batch, n_similar = e_target.shape[0], e_similar.shape[0]
    # Pair (b, i) is row b * I + i.
    row_of = np.repeat(np.arange(batch), n_similar)
    scene_of = np.tile(np.arange(n_similar), batch)
    e_t = ad.rows(e_target, row_of)
    e_s = ad.rows(e_similar, scene_of)
    features = ad.concat([ad.rows(e_user, row_of), e_t,
                          ad.sub(e_t, e_s), ad.mul(e_t, e_s)])
    scores = ad.reshape(score_mlp(features), (batch, n_similar))
    weights = ad.softmax(scores)  # [B, I]
    return SanOutput(weights=weights, vec=ad.matmul(weights, e_similar))
