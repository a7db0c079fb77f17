"""Cross-scene Feature Representation.

Each known scene owns private embedding rows for the scene features. For
a target scene, the similar scenes' rows are applied to the target's own
feature values and mixed with the attention weights, supplementing the
(possibly cold) target-scene embedding.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import DimensionError, Tensor
from .features import EmbeddingSet


def cfr_forward(weights: Tensor, feature_idx: Mapping[str, np.ndarray],
                embeddings: EmbeddingSet, similar_ids: Sequence[str]) -> Tensor:
    """Similarity-weighted per-scene embeddings of the target's features.

    `weights` is [B, I] aligned with `similar_ids`. One gather takes,
    for every scene feature and similar scene, the scene's private row
    of the target's code from `embeddings.cfr`; the F feature blocks are
    summed per scene and the I sums mixed with the attention weights.
    """
    similar_ids = list(similar_ids)
    if weights.shape[-1] != len(similar_ids):
        raise DimensionError(
            f"cfr_forward: {weights.shape[-1]} weights for {len(similar_ids)} scenes")
    rows = embeddings.cfr_rows(feature_idx, similar_ids)         # [B, F*I]
    per_feature = ad.rows(embeddings.cfr, rows)                   # F blocks of I*d
    sums = ad.sum_blocks(per_feature, len(embeddings.cfr_offsets))  # I blocks of d
    return ad.mix(weights, sums, len(similar_ids))


def assemble_input(e_other: Tensor, e_user: Tensor, vec_san: Tensor,
                   e_target: Tensor, e_cfr: Tensor) -> Tensor:
    """Model input: e_other (+) e_user (+) vec_san (+) (e_target + e_cfr)."""
    for name, t in (("vec_san", vec_san), ("e_cfr", e_cfr)):
        if t.shape != e_target.shape:
            raise DimensionError(
                f"assemble_input: {name} shape {t.shape} != e_target shape {e_target.shape}")
    return ad.concat([e_other, e_user, vec_san, ad.add(e_target, e_cfr)])
