"""Shared fixtures: a small planted dataset with its graph and config."""

import os

# One BLAS thread unless the caller chose otherwise, set before numpy loads:
# on a shared machine an unpinned BLAS pool spends far more time waiting
# for cores than computing on the suite's small matrices.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from swan.datagen import GenConfig, generate  # noqa: E402
from swan.head import LossWeights  # noqa: E402
from swan.model import ModelConfig, encode_batch  # noqa: E402
from swan.srg import build_srg  # noqa: E402
from swan.training import TrainConfig  # noqa: E402


def tiny_gen_config(**overrides):
    base = dict(archetypes=2, train_scenes=6, cold_scenes=2, users=40,
                items_per_scene=30, examples_per_scene=60, user_features=2,
                item_features=3, scene_attr_features=2, label_noise=0.05,
                seed=11, attr_noise=0.2)
    base.update(overrides)
    return GenConfig(**base)


def tiny_model_config(**overrides):
    base = dict(embed_dim=4, expert_dim=4, n_aeg=2, n_seg=2, tau=0.5,
                k_neighbors=3, min_weight=1, san_hidden=(6,),
                expert_hidden=(6,), selector_hidden=(6,), final_hidden=(4,),
                dnn_hidden=(8,), buckets=4)
    base.update(overrides)
    return ModelConfig(**base)


def tiny_train_config(**overrides):
    base = dict(model=tiny_model_config(), epochs=2, batch_size=32, seed=5,
                lr=1e-2, loss=LossWeights(alpha=1.0, beta=1e-3, gamma=1e-3))
    base.update(overrides)
    return TrainConfig(**base)


def encoded(examples, schema, embeddings):
    """`encode_batch`'s codes of the examples, and each row's scene
    vocabulary index (the shared unknown-scene row for a scene the
    embeddings do not know), as a `PreparedBatch` takes them."""
    idx, scene_ids, codes = encode_batch(examples, schema)
    vocab = np.array([embeddings.scene_index(sid) for sid in scene_ids], dtype=np.int64)
    return idx, vocab[codes]


def vocab_indices(embeddings, scene_ids):
    """The scene vocabulary indices of known scene ids, in order, as the
    rows of a batch's neighbour matrix hold them."""
    return np.array([embeddings.scene_vocab[sid] for sid in scene_ids], dtype=np.int64)


@pytest.fixture(scope="session")
def tiny_data():
    result = generate(tiny_gen_config())
    graph = build_srg(result.train, result.schema, cc_threshold=0.05, buckets=4)
    return result, graph
