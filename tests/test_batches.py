"""Tests for the scene batcher that training and scoring share."""

import numpy as np
import pytest

from conftest import tiny_model_config
from swan.features import group_by_scene
from swan.model import (ComponentFlags, PreparedBatch, encode_batch,
                        init_dnn_params, init_swan_params, predict,
                        predict_scores, resolve_neighbors, scene_batches)
from swan.srg import profile_new_scene
from swan.training import _shuffled_batches


def _old_scene_batches(dataset, schema, params, graph, batch_size):
    """The training batcher as it was before training and scoring shared
    one: each scene's examples encoded on their own, then cut."""
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
            batches.append(PreparedBatch(
                scene_id=sid,
                feature_idx={k: v[lo:hi] for k, v in idx.items()},
                scene_idx=scene_idx[lo:hi],
                labels=labels[lo:hi],
                neighbor_ids=neighbors))
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
        for b, a in zip(new, old):
            assert b.scene_id == a.scene_id
            assert b.feature_idx.keys() == a.feature_idx.keys()
            for name in a.feature_idx:
                np.testing.assert_array_equal(b.feature_idx[name],
                                              a.feature_idx[name])
                assert b.feature_idx[name].dtype == np.int64
            np.testing.assert_array_equal(b.scene_idx, a.scene_idx)
            np.testing.assert_array_equal(b.labels, a.labels)
            assert b.labels.dtype == np.float64
            assert b.neighbor_ids == a.neighbor_ids
        if kind == "swan":
            assert any(b.neighbor_ids for b in new)

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
        for _, batch in scene_batches(params, graph, data, idx, scene_idx,
                                      None, 512):
            assert batch.scene_id not in graph.profiles
            rows = [ex for ex in data if ex.scene_id == batch.scene_id]
            profile = profile_new_scene(graph, batch.scene_id, rows,
                                        params.schema)
            assert batch.neighbor_ids == resolve_neighbors(
                graph, batch.scene_id, profile, params)


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
            neighbours = [b.neighbor_ids for _, b in scene_batches(
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
