"""Cross-scene Feature Representation.

Each known scene owns a private embedding table set over the scene
features. For a target scene, the similar scenes' table sets are applied
to the target's own feature values and mixed with the attention weights,
supplementing the (possibly cold) target-scene embedding.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import DimensionError, Tensor
from .features import ConfigError, EmbeddingTable


def cfr_forward(weights: Tensor, scene_feature_idx: Mapping[str, np.ndarray],
                cfr_tables: Mapping[str, Mapping[str, EmbeddingTable]],
                similar_ids: Sequence[str]) -> Tensor:
    """Similarity-weighted per-scene embeddings of the target's features.

    `weights` is [B, I] aligned with `similar_ids`; each id's table set is
    applied to the target-scene feature indices (summed over the scene
    features), and the I sums are mixed with the attention weights in one
    op. The tables stay per scene: one stacked table would make every
    step's dense embedding gradient grow with the number of scenes.
    """
    similar_ids = list(similar_ids)
    if weights.shape[-1] != len(similar_ids):
        raise DimensionError(
            f"cfr_forward: {weights.shape[-1]} weights for {len(similar_ids)} scenes")
    sums = []
    for sid in similar_ids:
        if sid not in cfr_tables:
            raise ConfigError(f"no cross-scene table set for scene {sid!r}")
        tables = cfr_tables[sid]
        emb = None
        for name in sorted(tables):
            part = tables[name].lookup(scene_feature_idx[name])
            emb = part if emb is None else ad.add(emb, part)
        sums.append(emb)
    return ad.mix(weights, ad.concat(sums), len(sums))


def assemble_input(e_other: Tensor, e_user: Tensor, vec_san: Tensor,
                   e_target: Tensor, e_cfr: Tensor) -> Tensor:
    """Model input: e_other (+) e_user (+) vec_san (+) (e_target + e_cfr)."""
    for name, t in (("vec_san", vec_san), ("e_cfr", e_cfr)):
        if t.shape != e_target.shape:
            raise DimensionError(
                f"assemble_input: {name} shape {t.shape} != e_target shape {e_target.shape}")
    return ad.concat([e_other, e_user, vec_san, ad.add(e_target, e_cfr)])
