"""The wide ops of the model against the per-table, per-expert,
per-neighbour and per-pair loops they replaced, and the op counts they
bring."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import encoded, tiny_model_config, vocab_indices
from swan import autodiff as ad
from swan.aem import expert_selector
from swan.autodiff import Tensor
from swan.datagen import GenConfig, generate
from swan.head import LossWeights, ce_loss, total_loss, var_loss
from swan.model import (ComponentFlags, ModelConfig, PreparedBatch,
                        init_params, predict_scores,
                        resolve_neighbors, swan_forward)
from swan.srg import build_srg, profile_new_scene

# The acceptance model of tests/test_acceptance.py and the default model.
ACCEPT_MODEL = ModelConfig(
    embed_dim=8, expert_dim=8, n_aeg=4, n_seg=2, tau=0.02, k_neighbors=5,
    san_hidden=(16, 8), expert_hidden=(8,), selector_hidden=(16, 8),
    final_hidden=(), dnn_hidden=(16,))
CONFIGS = {"accept": ACCEPT_MODEL, "default": ModelConfig()}
WEIGHTS = LossWeights(alpha=1.0, beta=1e-3, gamma=1e-3)


@pytest.fixture(scope="module")
def data():
    gen = generate(GenConfig(seed=1, train_scenes=8, cold_scenes=2,
                             examples_per_scene=40))
    graph = build_srg(gen.train, gen.schema, cc_threshold=0.05, buckets=10)
    return gen, graph


def _batch(params, graph, examples, labels=True):
    sid = examples[0].scene_id
    profile = (graph.profiles[sid] if sid in graph.profiles
               else profile_new_scene(graph, sid, examples, params.schema))
    idx, scene_idx = encoded(examples, params.schema, params.embeddings)
    ids = resolve_neighbors(graph, sid, profile, params)
    return PreparedBatch(
        feature_idx=idx, scene_idx=scene_idx,
        labels=np.array([float(ex.label) for ex in examples]) if labels else None,
        neighbors=np.tile(vocab_indices(params.embeddings, ids), (len(examples), 1)))


# ---------------------------------------------------------------------------
# the loops the wide ops replaced, in numpy


def _mlp(x, layers):
    for i, (w, b) in enumerate(layers):
        x = x @ w + b
        if i < len(layers) - 1:
            x = np.maximum(x, 0.0)
    return x


def _layers(mlp):
    return [(layer.w.data, layer.b.data) for layer in mlp.layers]


def _experts(stack):
    """The n per-expert MLPs held in a stacked MLP, as (w, b) layer lists."""
    experts = [[] for _ in range(stack.n)]
    for j, (w, b) in enumerate(_layers(stack)):
        parts = zip(np.split(w, stack.n, axis=1 if j == 0 else 0),
                    np.split(b, stack.n))
        for layers, part in zip(experts, parts):
            layers.append(part)
    return experts


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _cos_loss_pairs(outputs):
    """Sum of |cosine| over ordered pairs, row-averaged; zero norms count 0."""
    total = np.zeros((outputs[0].shape[0], 1))
    sq = [(o * o).sum(axis=1, keepdims=True) for o in outputs]
    inv = [np.maximum(s, ad.NORM_FLOOR) ** -0.5 for s in sq]
    for m in range(len(outputs)):
        for n in range(m + 1, len(outputs)):
            dot = (outputs[m] * outputs[n]).sum(axis=1, keepdims=True)
            cos = dot * inv[m] * inv[n]
            cos = cos * ((sq[m] > ad.NORM_FLOOR) & (sq[n] > ad.NORM_FLOOR))
            total = total + np.abs(cos)
    return total.sum() * 2.0 / outputs[0].shape[0]


def _block(emb, feat):
    """Feature `feat`'s rows of the stacked embedding table."""
    lo = emb.offsets[feat.name]
    return emb.table.data[lo:lo + feat.num_indices]


def _cfr_block(emb, scene, feat):
    """The private rows of scene feature `feat` of the scene with
    vocabulary index `scene`."""
    lo = scene * emb.cfr_width + emb.cfr_offsets[feat.name]
    return emb.cfr.data[lo:lo + feat.num_indices]


def _reference(params, batch):
    """Prediction and loss of one batch, built table by table and loop by loop."""
    cfg = params.config
    emb, schema, idx = params.embeddings, params.schema, batch.feature_idx
    e_user, e_other = (np.concatenate([_block(emb, f)[idx[f.name]] for f in feats],
                                      axis=1)
                       for feats in (schema.user_features, schema.other_features))
    scene_table = emb.table.data[emb.scene_offset:]
    e_target = scene_table[batch.scene_idx] + sum(
        _block(emb, f)[idx[f.name]] for f in schema.scene_features)
    rows = e_target.shape[0]
    vec = np.zeros_like(e_target)
    e_cfr = np.zeros_like(e_target)
    if batch.neighbors.size:
        sims = [scene_table[col] for col in batch.neighbors.T]
        scores = [_mlp(np.concatenate([e_user, e_target, e_target - e_s,
                                       e_target * e_s], axis=1),
                       _layers(params.mlps["san"])) for e_s in sims]
        weights = _softmax(np.concatenate(scores, axis=1))
        vec = sum(weights[:, i:i + 1] * e_s for i, e_s in enumerate(sims))
        if cfg.flags.cfr:
            e_cfr = sum(
                weights[:, i:i + 1] * sum(
                    np.stack([_cfr_block(emb, scene, f)[code]
                              for scene, code in zip(col, idx[f.name])])
                    for f in schema.scene_features)
                for i, col in enumerate(batch.neighbors.T))
    e_in = np.concatenate([e_other, e_user, vec, e_target + e_cfr], axis=1)
    if cfg.flags.aem:
        with ad.no_grad():
            w = expert_selector(Tensor(e_user), Tensor(vec), params.mlps["selector.prob"],
                                params.mlps["selector.thre"], cfg.tau).w.data
    else:
        w = np.ones((rows, cfg.n_aeg))
    aeg = [_mlp(e_in, layers) for layers in _experts(params.mlps["aeg"])]
    seg = [_mlp(e_in, layers) for layers in _experts(params.mlps["seg"])]
    gates = _softmax(_mlp(e_in, _layers(params.mlps["gate"])))
    mixed = sum(gates[:, i:i + 1] * out for i, out in enumerate(seg))
    mixed = mixed + sum(gates[:, len(seg) + k:len(seg) + k + 1] * w[:, k:k + 1] * out
                        for k, out in enumerate(aeg))
    yhat = 1.0 / (1.0 + np.exp(-_mlp(mixed, _layers(params.mlps["final"]))))
    flags = cfg.flags
    loss = WEIGHTS.alpha * ce_loss(batch.labels, Tensor(yhat)).item()
    if flags.loss_cos:
        loss += WEIGHTS.beta * _cos_loss_pairs(aeg)
    if flags.loss_var and flags.aem:
        loss += WEIGHTS.gamma * var_loss(Tensor(w)).item()
    return yhat, loss


def _fused(params, batch):
    flags = params.config.flags
    weights = LossWeights(
        alpha=WEIGHTS.alpha, beta=WEIGHTS.beta if flags.loss_cos else 0.0,
        gamma=WEIGHTS.gamma if (flags.loss_var and flags.aem) else 0.0)
    out = swan_forward(params, batch)
    return out.yhat.data, total_loss(batch.labels, out.yhat, out.aeg_outputs,
                                     out.w, weights).item()


class TestParityWithLoops:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @pytest.mark.parametrize("flags", [ComponentFlags(), ComponentFlags(cfr=False),
                                       ComponentFlags(aem=False)],
                             ids=["full", "no-cfr", "no-aem"])
    def test_known_and_cold_batches(self, data, name, flags):
        gen, graph = data
        params = init_params("swan", gen.schema, graph.scene_ids,
                             replace(CONFIGS[name], flags=flags), seed=3)
        known = [ex for ex in gen.train if ex.scene_id == graph.scene_ids[1]][:16]
        cold_sid = gen.test[-1].scene_id
        cold = [ex for ex in gen.test if ex.scene_id == cold_sid][:7]
        for examples in (known, cold):
            batch = _batch(params, graph, examples)
            assert batch.neighbors.size
            yhat, loss = _fused(params, batch)
            ref_yhat, ref_loss = _reference(params, batch)
            np.testing.assert_allclose(yhat, ref_yhat, rtol=1e-12, atol=0.0)
            assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_empty_neighbourhood(self, data, name):
        gen, graph = data
        config = replace(CONFIGS[name], min_weight=10 ** 6)
        params = init_params("swan", gen.schema, graph.scene_ids, config, seed=4)
        batch = _batch(params, graph, gen.test[:5])
        assert batch.neighbors.shape == (5, 0)
        yhat, loss = _fused(params, batch)
        ref_yhat, ref_loss = _reference(params, batch)
        np.testing.assert_allclose(yhat, ref_yhat, rtol=1e-12, atol=0.0)
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0.0)

    def test_tiny_config(self, tiny_data):
        result, graph = tiny_data
        params = init_params("swan", result.schema, graph.scene_ids,
                             tiny_model_config(), seed=5)
        batch = _batch(params, graph, result.train[:9])
        yhat, loss = _fused(params, batch)
        ref_yhat, ref_loss = _reference(params, batch)
        np.testing.assert_allclose(yhat, ref_yhat, rtol=1e-12, atol=0.0)
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# op counts


@pytest.fixture
def op_counter(monkeypatch):
    """Counts the ops autodiff records while the test runs."""
    counts = [0]
    record = ad._record

    def counted(*args, **kwargs):
        counts[0] += 1
        return record(*args, **kwargs)

    monkeypatch.setattr(ad, "_record", counted)
    return counts


class TestOpCounts:
    @pytest.mark.parametrize("name, count", [("accept", 54), ("default", 60)])
    def test_training_step(self, data, op_counter, name, count):
        gen, graph = data
        params = init_params("swan", gen.schema, graph.scene_ids, CONFIGS[name], seed=6)
        examples = [ex for ex in gen.train if ex.scene_id == graph.scene_ids[0]]
        batch = _batch(params, graph, examples)
        assert batch.neighbors.shape[1] == CONFIGS[name].k_neighbors
        op_counter[0] = 0
        out = swan_forward(params, batch)
        loss = total_loss(batch.labels, out.yhat, out.aeg_outputs, out.w, WEIGHTS)
        assert op_counter[0] == count
        ad.backward(loss)
        assert op_counter[0] == count  # backward records nothing

    @staticmethod
    def _cold_request_ops(data, op_counter, config):
        """Ops one 10-row request from a cold scene records."""
        gen, graph = data
        params = init_params("swan", gen.schema, graph.scene_ids, config, seed=7)
        cold_sid = gen.test[0].scene_id
        assert cold_sid not in graph.scene_ids
        request = [ex for ex in gen.test if ex.scene_id == cold_sid][:10]
        assert _batch(params, graph, request, labels=False).neighbors.shape[1] \
            == config.k_neighbors
        op_counter[0] = 0
        predict_scores(params, graph, request)
        return op_counter[0]

    def test_request(self, data, op_counter):
        assert self._cold_request_ops(data, op_counter, CONFIGS["default"]) == 51

    def test_accept_request(self, data, op_counter):
        assert self._cold_request_ops(data, op_counter, CONFIGS["accept"]) == 45
