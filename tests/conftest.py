"""Shared fixtures: a small planted dataset with its graph and config."""

import math
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

from swan import autodiff as ad  # noqa: E402
from swan.datagen import GenConfig, generate  # noqa: E402
from swan.features import as_dataset  # noqa: E402
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
    idx, scene_ids, codes = encode_batch(as_dataset(examples, schema), schema)
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


# The bodies of four autodiff ops before their numpy layout rewrite: fancy
# indexing, a `bincount` scatter for the pair features' row sums, and
# middle-axis sums over [B, n, d] products. Reference implementations
# whose bits the rewritten ops must give; the shape checks are left out.


def _scatter_rows_before(idx, g, shape):
    n_rows, d = shape
    flat = (idx.reshape(-1, 1) * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=g.ravel(), minlength=n_rows * d).reshape(n_rows, d)


def rows_before(table, indices):
    idx = np.asarray(indices).astype(np.int64, copy=False)
    d = table.shape[1]

    def backward_fn(g):
        if table.requires_grad:
            ad._accumulate(table, _scatter_rows_before(idx, g, table.shape))

    out = table.data[idx].reshape(idx.shape[0], math.prod(idx.shape[1:]) * d)
    return ad._record(out, (table,), backward_fn)


def mix_before(c, v, n):
    batch, d = v.shape[0], v.shape[1] // n
    vs = v.data.reshape(batch, n, d)

    def backward_fn(g):
        if c.requires_grad:
            ad._accumulate(c, (vs * g[:, None, :]).sum(axis=2))
        if v.requires_grad:
            ad._accumulate(v, (c.data[:, :, None] * g[:, None, :]).reshape(batch, n * d))

    return ad._record((c.data[:, :, None] * vs).sum(axis=1), (c, v), backward_fn)


def sum_blocks_before(v, n):
    return mix_before(ad.Tensor(np.ones((v.shape[0], n))), v, n)


def pair_features_before(u, t, s):
    batch, d = t.shape
    n, du = s.shape[1] // d, u.shape[1]
    rep = np.repeat(np.arange(batch), n)
    e_t = t.data[rep]
    e_s = s.data.reshape(batch * n, d)
    out = np.empty((batch * n, du + 3 * d))
    out[:, :du] = u.data[rep]
    out[:, du:du + d] = e_t
    np.subtract(e_t, e_s, out=out[:, du + d:du + 2 * d])
    np.multiply(e_t, e_s, out=out[:, du + 2 * d:])

    def backward_fn(g):
        g_sub, g_mul = g[:, du + d:du + 2 * d], g[:, du + 2 * d:]
        if u.requires_grad:
            ad._accumulate(u, _scatter_rows_before(rep, g[:, :du], u.shape))
        if s.requires_grad:
            ad._accumulate(s, (g_mul * e_t - g_sub).reshape(s.shape))
        if t.requires_grad:
            g_t = g[:, du:du + d] + g_mul * e_s + g_sub
            ad._accumulate(t, _scatter_rows_before(rep, g_t, t.shape))

    return ad._record(out, (u, t, s), backward_fn)


KERNELS_BEFORE = {"rows": rows_before, "mix": mix_before,
                  "sum_blocks": sum_blocks_before,
                  "pair_features": pair_features_before}
