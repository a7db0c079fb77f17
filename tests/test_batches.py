"""Tests for the scene batcher that training and scoring share."""

import math

import numpy as np
import pytest

from conftest import tiny_gen_config, tiny_model_config
from swan import autodiff as ad
from swan import model as swan_model
from swan.datagen import generate
from swan.features import group_by_scene
from swan.model import (ComponentFlags, PreparedBatch, dnn_forward,
                        encode_batch, init_dnn_params, init_swan_params,
                        predict, predict_scores, resolve_neighbors,
                        scene_batches, scene_neighbors, swan_forward)
from swan.srg import build_srg, profile_new_scene, profile_scenes
from swan.training import _shuffled_batches


def _neighbours(params, ids, n_rows):
    """A scene's neighbour ids as the [n_rows, I] matrix a batch carries."""
    return np.tile(params.embeddings.scene_indices(ids), (n_rows, 1))


def _old_scene_batches(dataset, schema, params, graph, batch_size):
    """The training batcher as it was before training and scoring shared
    one: each scene's examples encoded on their own, then cut; as
    (scene id, batch) pairs."""
    groups = {}
    for ex in dataset:
        groups.setdefault(ex.scene_id, []).append(ex)
    batches = []
    for sid in sorted(groups):
        examples = groups[sid]
        neighbors = []
        if params.kind == "swan":
            neighbors = resolve_neighbors(graph, sid, graph.profiles[sid], params)
        idx, scene_idx = encode_batch(examples, schema, params.embeddings)
        labels = np.array([ex.label for ex in examples], dtype=np.float64)
        for lo in range(0, len(examples), batch_size):
            hi = min(lo + batch_size, len(examples))
            batches.append((sid, PreparedBatch(
                feature_idx={k: v[lo:hi] for k, v in idx.items()},
                scene_idx=scene_idx[lo:hi],
                labels=labels[lo:hi],
                neighbors=_neighbours(params, neighbors, hi - lo))))
    return batches


def _params(kind, schema, graph, config):
    init = init_swan_params if kind == "swan" else init_dnn_params
    return init(schema, graph.scene_ids, config, seed=3)


class TestSceneBatches:
    @pytest.mark.parametrize("kind, flags", [
        ("swan", ComponentFlags()),
        ("swan", ComponentFlags(srg=False)),
        ("dnn", ComponentFlags()),
    ])
    @pytest.mark.parametrize("batch_size", [7, 32, 1000])
    def test_training_batches_match_the_old_batcher(self, tiny_data, kind,
                                                    flags, batch_size):
        result, graph = tiny_data
        params = _params(kind, result.schema, graph,
                         tiny_model_config(flags=flags))
        # The old path shuffled the examples with one permutation drawn
        # from the training rng, as the new one shuffles their codes.
        order = np.random.default_rng(batch_size).permutation(len(result.train))
        old = _old_scene_batches([result.train[i] for i in order],
                                 result.schema, params, graph, batch_size)
        new = _shuffled_batches(result.train, result.schema, params, graph,
                                np.random.default_rng(batch_size), batch_size)
        assert len(new) == len(old)
        for b, (sid, a) in zip(new, old):
            assert np.all(b.scene_idx == params.embeddings.scene_index(sid))
            assert b.feature_idx.keys() == a.feature_idx.keys()
            for name in a.feature_idx:
                np.testing.assert_array_equal(b.feature_idx[name],
                                              a.feature_idx[name])
                assert b.feature_idx[name].dtype == np.int64
            np.testing.assert_array_equal(b.scene_idx, a.scene_idx)
            np.testing.assert_array_equal(b.labels, a.labels)
            assert b.labels.dtype == np.float64
            np.testing.assert_array_equal(b.neighbors, a.neighbors)
            assert b.neighbors.dtype == np.int64
        if kind == "swan":
            assert any(b.neighbors.size for b in new)

    def test_rows_cover_the_dataset_once_in_scene_order(self, tiny_data):
        result, graph = tiny_data
        params = _params("swan", result.schema, graph, tiny_model_config())
        data = list(result.test) + list(result.train)
        idx, scene_idx = encode_batch(data, params.schema, params.embeddings)
        rows = [at for at, _ in scene_batches(params, graph, data, idx,
                                              scene_idx, None, 25)]
        assert all(len(at) <= 25 for at in rows)
        groups = group_by_scene(data)
        expected = np.concatenate([groups[sid] for sid in sorted(groups)])
        np.testing.assert_array_equal(np.concatenate(rows), expected)

    def test_cold_scene_profiled_from_its_rows(self, tiny_data):
        result, graph = tiny_data
        params = _params("swan", result.schema, graph, tiny_model_config())
        data = list(result.test)
        idx, scene_idx = encode_batch(data, params.schema, params.embeddings)
        for at, batch in scene_batches(params, graph, data, idx, scene_idx,
                                       None, 512):
            sid = data[at[0]].scene_id
            assert sid not in graph.profiles
            rows = [ex for ex in data if ex.scene_id == sid]
            profile = profile_new_scene(graph, sid, rows, params.schema)
            np.testing.assert_array_equal(batch.neighbors, _neighbours(
                params, resolve_neighbors(graph, sid, profile, params), len(at)))


def _mixed(result):
    """Known rows from three training scenes, every row of one cold scene
    and a single row of another, interleaved."""
    train_groups = group_by_scene(result.train)
    test_groups = group_by_scene(result.test)
    known = [result.train[i] for sid in sorted(train_groups)[:3]
             for i in train_groups[sid][:11]]
    cold_sids = sorted(test_groups)
    cold = [result.test[i] for i in test_groups[cold_sids[0]]]
    single = result.test[test_groups[cold_sids[1]][0]]
    rows = known + cold + [single]
    order = np.random.default_rng(0).permutation(len(rows))
    return [rows[i] for i in order], cold_sids[0]


class TestPredictScores:
    @pytest.mark.parametrize("kind, min_weight", [
        ("swan", 1), ("swan", 10 ** 6), ("dnn", 1)])
    def test_mixed_dataset_equals_per_scene_and_single_row_calls(
            self, tiny_data, kind, min_weight):
        result, graph = tiny_data
        params = _params(kind, result.schema, graph,
                         tiny_model_config(min_weight=min_weight))
        data, multi_row_cold = _mixed(result)
        scores = predict_scores(params, graph, data)

        groups = group_by_scene(data)
        assert len(groups) == 5
        assert sum(sid not in graph.profiles for sid in groups) == 2
        for sid, rows in groups.items():
            per_scene = predict_scores(params, graph, [data[i] for i in rows])
            np.testing.assert_array_equal(scores[rows], per_scene)
        # A one-row batch goes through BLAS kernels of another shape, which
        # may round the last bit differently; hence a relative 1e-14.
        singles = [i for i, ex in enumerate(data) if ex.scene_id != multi_row_cold]
        np.testing.assert_allclose(
            [predict(params, graph, data[i]) for i in singles], scores[singles],
            rtol=1e-14, atol=0.0)

        if kind == "swan":
            idx, scene_idx = encode_batch(data, params.schema, params.embeddings)
            neighbours = [b.neighbors.size for _, b in scene_batches(
                params, graph, data, idx, scene_idx, None, 512)]
            assert all(neighbours) if min_weight == 1 else not any(neighbours)

    def test_gates_equal_per_scene_gates(self, tiny_data):
        result, graph = tiny_data
        params = _params("swan", result.schema, graph, tiny_model_config())
        data, _ = _mixed(result)
        _, gates = predict_scores(params, graph, data, collect_gates=True)
        for rows in group_by_scene(data).values():
            _, per_scene = predict_scores(params, graph, [data[i] for i in rows],
                                          collect_gates=True)
            np.testing.assert_array_equal(gates[rows], per_scene)

    def test_empty_dataset(self, tiny_data):
        result, graph = tiny_data
        params = _params("swan", result.schema, graph, tiny_model_config())
        assert predict_scores(params, graph, []).shape == (0,)


# ---------------------------------------------------------------------------
# cross-scene scoring against one forward per scene


def _per_scene_scores(params, graph, dataset):
    """Scores and gates as scoring computed them scene by scene: each
    scene's rows cut on their own, a cold scene profiled from its
    Example rows, one forward per chunk."""
    scores = np.empty(len(dataset))
    gates = np.empty((len(dataset), params.config.n_aeg))
    idx, scene_idx = encode_batch(dataset, params.schema, params.embeddings)
    with ad.no_grad():
        for sid, rows in sorted(group_by_scene(dataset).items()):
            ids = []
            if params.kind == "swan":
                profile = graph.profiles.get(sid) or profile_new_scene(
                    graph, sid, [dataset[i] for i in rows], params.schema)
                ids = resolve_neighbors(graph, sid, profile, params)
            rows = np.asarray(rows)
            for lo in range(0, len(rows), 512):
                at = rows[lo:lo + 512]
                batch = PreparedBatch(
                    feature_idx={k: v[at] for k, v in idx.items()},
                    scene_idx=scene_idx[at], labels=None,
                    neighbors=_neighbours(params, ids, len(at)))
                if params.kind == "swan":
                    out = swan_forward(params, batch)
                    scores[at] = out.yhat.data[:, 0]
                    gates[at] = out.w.data
                else:
                    scores[at] = dnn_forward(params, batch).data[:, 0]
    return scores, gates


def _neighbour_counts(params, graph, dataset):
    """The numbers of neighbours the scenes of `dataset` get."""
    idx, _ = encode_batch(dataset, params.schema, params.embeddings)
    return {len(n) for n in scene_neighbors(params, graph, idx,
                                            group_by_scene(dataset)).values()}


def _fewer_than_k(result, graph, dataset):
    """The smallest min_weight that leaves some scene of `dataset` with
    at least one neighbour but fewer than k."""
    for min_weight in range(1, len(graph.layout) + 1):
        params = _params("swan", result.schema, graph,
                         tiny_model_config(min_weight=min_weight))
        counts = _neighbour_counts(params, graph, dataset)
        if any(0 < c < params.config.k_neighbors for c in counts):
            return min_weight
    raise AssertionError("no min_weight gives a partial neighbourhood")


def _large(result):
    """More than one chunk of rows, known and cold scenes together."""
    return list(result.train) + list(result.test) + list(result.train)


class TestCrossSceneScoring:
    @pytest.mark.parametrize("dataset", ["mixed", "large"])
    @pytest.mark.parametrize("kind, min_weight", [
        ("swan", 1), ("swan", "fewer"), ("swan", 10 ** 6), ("dnn", 1)])
    def test_scores_equal_one_forward_per_scene(self, tiny_data, dataset, kind,
                                                min_weight):
        result, graph = tiny_data
        data = _mixed(result)[0] if dataset == "mixed" else _large(result)
        if min_weight == "fewer":
            min_weight = _fewer_than_k(result, graph, data)
        params = _params(kind, result.schema, graph,
                         tiny_model_config(min_weight=min_weight))
        expected, expected_gates = _per_scene_scores(params, graph, data)
        if kind == "swan":
            scores, gates = predict_scores(params, graph, data, collect_gates=True)
            np.testing.assert_allclose(gates, expected_gates, rtol=1e-12, atol=0.0)
        else:
            scores = predict_scores(params, graph, data)
        np.testing.assert_allclose(scores, expected, rtol=1e-12, atol=0.0)

    def test_large_dataset_chunks_cross_scenes(self, tiny_data):
        result, graph = tiny_data
        params = _params("swan", result.schema, graph, tiny_model_config())
        data = _large(result)
        assert len(data) > swan_model.PREDICT_BATCH
        idx, scene_idx = encode_batch(data, params.schema, params.embeddings)
        batches = list(scene_batches(params, graph, data, idx, scene_idx, None,
                                     swan_model.PREDICT_BATCH, by_scene=False))
        assert all(len(at) <= swan_model.PREDICT_BATCH for at, _ in batches)
        assert any(len(set(b.scene_idx.tolist())) > 1 for _, b in batches)
        assert sorted(np.concatenate([at for at, _ in batches])) == \
            list(range(len(data)))
        # Known and cold scenes alike keep their own neighbours in a chunk.
        for at, batch in batches:
            for row, nbrs in zip(at, batch.neighbors):
                sid = data[row].scene_id
                profile = graph.profiles.get(sid) or profile_new_scene(
                    graph, sid, [ex for ex in data if ex.scene_id == sid],
                    params.schema)
                np.testing.assert_array_equal(nbrs, params.embeddings.scene_indices(
                    resolve_neighbors(graph, sid, profile, params)))

    def test_chunks_share_one_neighbour_count(self, tiny_data):
        result, graph = tiny_data
        data = _large(result)
        params = _params("swan", result.schema, graph, tiny_model_config(
            min_weight=_fewer_than_k(result, graph, data)))
        idx, scene_idx = encode_batch(data, params.schema, params.embeddings)
        counts = [b.neighbors.shape[1] for _, b in scene_batches(
            params, graph, data, idx, scene_idx, None, 64, by_scene=False)]
        assert len(set(counts)) > 1
        assert counts == sorted(counts)

    def test_cold_profiles_from_codes_equal_profile_new_scene(self, tiny_data):
        result, graph = tiny_data
        params = _params("swan", result.schema, graph, tiny_model_config())
        data, _ = _mixed(result)
        data = data + list(result.test)
        idx, _ = encode_batch(data, params.schema, params.embeddings)
        groups = group_by_scene(data)
        cold = sorted(sid for sid in groups if sid not in graph.profiles)
        assert len(cold) == 2
        profiles = profile_scenes(graph, cold, idx, [groups[sid] for sid in cold])
        for sid, profile in zip(cold, profiles):
            assert profile == profile_new_scene(
                graph, sid, [data[i] for i in groups[sid]], params.schema)

    def test_many_cold_scenes_take_few_forwards(self, monkeypatch):
        gen = generate(tiny_gen_config(train_scenes=6, cold_scenes=150,
                                       items_per_scene=8, examples_per_scene=8))
        graph = build_srg(gen.train, gen.schema, cc_threshold=0.05, buckets=4)
        params = _params("swan", gen.schema, graph, tiny_model_config())
        calls = [0]
        forward = swan_model.swan_forward

        def counted(*args):
            calls[0] += 1
            return forward(*args)

        monkeypatch.setattr(swan_model, "swan_forward", counted)
        scores = predict_scores(params, graph, gen.test)
        assert len(group_by_scene(gen.test)) == 150
        bound = (math.ceil(len(gen.test) / swan_model.PREDICT_BATCH)
                 + params.config.k_neighbors + 1)
        assert 0 < calls[0] <= bound
        assert np.all((scores > 0.0) & (scores < 1.0))
