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
    [B, I*d_scene], row b holding the embeddings of row b's I similar
    scenes side by side, so rows of one batch may attend over different
    scenes. All B*I (row, scene) pairs are scored in one MLP call.
    """
    batch, d = e_target.shape
    if (e_similar.data.ndim != 2 or e_similar.shape[0] != batch
            or e_similar.shape[1] == 0 or e_similar.shape[1] % d):
        raise ValueError(f"san_forward needs [{batch}, I*{d}] similar-scene "
                         f"embeddings with I >= 1, got {e_similar.shape}")
    n_similar = e_similar.shape[1] // d
    # Pair (b, i) is row b * I + i.
    row_of = np.repeat(np.arange(batch), n_similar)
    e_t = ad.rows(e_target, row_of)
    e_s = ad.reshape(e_similar, (batch * n_similar, d))
    features = ad.concat([ad.rows(e_user, row_of), e_t,
                          ad.sub(e_t, e_s), ad.mul(e_t, e_s)])
    scores = ad.reshape(score_mlp(features), (batch, n_similar))
    weights = ad.softmax(scores)  # [B, I]
    return SanOutput(weights=weights, vec=ad.mix(weights, e_similar, n_similar))
