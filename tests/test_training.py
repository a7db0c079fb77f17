"""Tests for the training loop, baseline, evaluation and sweeps."""

import numpy as np
import pytest

from conftest import tiny_model_config, tiny_train_config
from swan.autodiff import Tensor
from swan.features import ConfigError, Dataset, Example
from swan.metrics import evaluate
from swan.model import predict_scores
from swan.srg import build_srg
from swan.training import (Adam, TrainConfig, baseline_dnn, gate_saturation,
                           run_sweep, train)


def _params_snapshot(params):
    return {name: t.data.copy() for name, t in params.named_parameters()}


def _assert_snapshots_equal(a, b):
    assert a.keys() == b.keys()
    for name in a:
        assert np.array_equal(a[name], b[name]), name


class TestTrain:
    def test_loss_decreases_on_toy_set(self, tiny_data):
        result, graph = tiny_data
        config = tiny_train_config(epochs=5)
        out = train(result.train, graph, config)
        losses = out.epoch_losses
        assert len(losses) == 5
        assert losses[0] > losses[1] > losses[2]

    def test_zero_learning_rate_keeps_params(self, tiny_data):
        result, graph = tiny_data
        config = tiny_train_config(lr=0.0, epochs=1)
        from swan.model import init_swan_params
        fresh = init_swan_params(result.schema, graph.scene_ids, config.model,
                                 config.seed)
        out = train(result.train, graph, config)
        _assert_snapshots_equal(_params_snapshot(fresh),
                                _params_snapshot(out.params))

    def test_same_seed_bit_identical(self, tiny_data):
        result, graph = tiny_data
        config = tiny_train_config(epochs=2)
        a = train(result.train, graph, config)
        b = train(result.train, graph, config)
        _assert_snapshots_equal(_params_snapshot(a.params),
                                _params_snapshot(b.params))
        assert a.epoch_losses == b.epoch_losses

    def test_empty_dataset_rejected(self, tiny_data):
        _, graph = tiny_data
        with pytest.raises(ValueError):
            train(Dataset(), graph, tiny_train_config())

    def test_scene_missing_from_graph_rejected(self, tiny_data):
        result, _ = tiny_data
        half = Dataset(result.train[: len(result.train) // 2],
                       schema=result.schema)
        partial_graph = build_srg(half, result.schema, cc_threshold=0.05,
                                  buckets=4)
        with pytest.raises(ValueError, match="missing from the graph"):
            train(result.train, partial_graph, tiny_train_config())

    def test_trained_model_beats_chance_in_sample(self, tiny_data):
        result, graph = tiny_data
        config = tiny_train_config(epochs=6, lr=2e-2)
        out = train(result.train, graph, config)
        labels = [ex.label for ex in result.train]
        scores = predict_scores(out.params, graph, result.train)
        from swan.metrics import auc
        assert auc(labels, scores) > 0.8


class TestBaseline:
    def test_outputs_in_unit_interval(self, tiny_data):
        result, _ = tiny_data
        out = baseline_dnn(result.train, tiny_train_config(epochs=1))
        scores = predict_scores(out.params, None, result.test[:20])
        assert np.all((scores > 0) & (scores < 1))

    def test_same_seed_bit_identical(self, tiny_data):
        result, _ = tiny_data
        config = tiny_train_config(epochs=1)
        a = baseline_dnn(result.train, config)
        b = baseline_dnn(result.train, config)
        _assert_snapshots_equal(_params_snapshot(a.params),
                                _params_snapshot(b.params))


class TestAdam:
    def test_single_step_matches_closed_form(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p._grad = np.array([0.5, -1.5])
        opt = Adam([p], lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
        opt.step()
        g = np.array([0.5, -1.5])
        m_hat = (0.1 * g) / (1 - 0.9)
        v_hat = (0.001 * g * g) / (1 - 0.999)
        expected = np.array([1.0, -2.0]) - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(p.data, expected, atol=1e-12)

    def test_zero_gradient_step_still_moves(self):
        # Dense Adam: the first moment keeps the earlier gradient, so a
        # step with an all-zero gradient moves the tensor anyway.
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = Adam([p], lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
        g = np.array([0.5, -1.5])
        p._grad = g.copy()
        opt.step()
        before = p.data.copy()
        opt.zero_grad()
        opt.step()
        m = 0.9 * (0.1 * g)
        v = 0.999 * (0.001 * g * g)
        m_hat = m / (1 - 0.9 ** 2)
        v_hat = v / (1 - 0.999 ** 2)
        expected = before - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert not np.array_equal(p.data, before)
        np.testing.assert_allclose(p.data, expected, atol=1e-12)


class TestTrainConfigJson:
    def test_unknown_keys_named(self):
        obj = tiny_train_config().to_json()
        obj["warmup"] = 3
        with pytest.raises(ConfigError, match="warmup"):
            TrainConfig.from_json(obj)

    def test_unknown_loss_keys_named(self):
        obj = tiny_train_config().to_json()
        obj["loss"]["delta"] = 0.1
        with pytest.raises(ConfigError, match="delta"):
            TrainConfig.from_json(obj)

    def test_stale_model_field_named(self):
        obj = tiny_train_config().to_json()
        obj["model"]["hard_gate_inference"] = False
        with pytest.raises(ConfigError, match="hard_gate_inference"):
            TrainConfig.from_json(obj)


class TestEvaluate:
    def test_overfit_toy_auc_high(self, tiny_data):
        result, graph = tiny_data
        config = tiny_train_config(epochs=8, lr=2e-2)
        out = train(result.train, graph, config)
        report = evaluate(out.params, graph,
                          Dataset(result.train, schema=result.schema))
        assert report.auc_all > 0.95
        assert report.auc_cold_start is None  # every scene is known

    def test_pooled_not_averaged(self, tiny_data):
        """Overall AUC pools examples; it is not the mean of per-scene AUCs."""
        result, graph = tiny_data
        from swan.model import init_swan_params
        params = init_swan_params(result.schema, graph.scene_ids,
                                  tiny_model_config(), seed=0)
        # Construct a two-scene set with per-scene AUCs 1.0 and 0.5 but a
        # pooled ranking that differs from their average.
        examples = []
        for i in range(30):
            examples.append(Example(user=result.train[0].user,
                                    item=result.train[0].item,
                                    scene_id="s_one", label=i % 2))
        for i in range(30):
            examples.append(Example(user=result.train[1].user,
                                    item=result.train[1].item,
                                    scene_id="s_two", label=i % 2))
        scores = np.concatenate([
            np.where(np.arange(30) % 2 == 1, 0.9, 0.1),   # perfect in s_one
            np.full(30, 0.5),                             # all ties in s_two
        ])
        from swan.metrics import auc
        labels = [ex.label for ex in examples]
        per_one = auc(labels[:30], scores[:30])
        per_two = auc(labels[30:], scores[30:])
        pooled = auc(labels, scores)
        assert per_one == 1.0 and per_two == 0.5
        assert pooled != (per_one + per_two) / 2

    def test_reference_to_itself_flags_gini(self, tiny_data):
        result, graph = tiny_data
        config = tiny_train_config(epochs=1)
        out = train(result.train, graph, config)
        test = Dataset(result.test, schema=result.schema)
        base = evaluate(out.params, graph, test, min_scene_examples=20)
        again = evaluate(out.params, graph, test, reference=base,
                         min_scene_examples=20)
        assert again.gini_improvement == 0.0
        assert again.gini_defined is False

    def test_small_scenes_pool_into_other(self, tiny_data):
        result, graph = tiny_data
        from swan.model import init_swan_params
        params = init_swan_params(result.schema, graph.scene_ids,
                                  tiny_model_config(), seed=1)
        report = evaluate(params, graph,
                          Dataset(result.test, schema=result.schema),
                          min_scene_examples=10 ** 6)
        assert set(report.per_scene) == {"other"}
        assert "pooled_small_scenes" in report.warnings

    def test_cold_start_auc_present_for_cold_scenes(self, tiny_data):
        result, graph = tiny_data
        config = tiny_train_config(epochs=1)
        out = train(result.train, graph, config)
        report = evaluate(out.params, graph,
                          Dataset(result.test, schema=result.schema))
        assert report.auc_cold_start is not None
        assert 0.0 <= report.auc_cold_start <= 1.0


class TestSweep:
    def test_tau_sweep_entries(self, tiny_data):
        result, graph = tiny_data
        config = tiny_train_config(epochs=1)
        entries = run_sweep("tau", [1.0, 0.01], result.train, result.test,
                            result.schema, graph, config)
        assert [e["value"] for e in entries] == [1.0, 0.01]
        for e in entries:
            assert 0.0 <= e["auc_all"] <= 1.0
            assert 0.0 <= e["gate_saturation"] <= 1.0

    def test_cc_threshold_sweep_rebuilds_graph(self, tiny_data):
        result, graph = tiny_data
        config = tiny_train_config(epochs=1)
        entries = run_sweep("cc_threshold", [0.01, 0.3], result.train,
                            result.test, result.schema, graph, config)
        assert entries[0]["n_key_features"] >= entries[1]["n_key_features"]

    def test_unknown_param_rejected(self, tiny_data):
        result, graph = tiny_data
        with pytest.raises(ValueError):
            run_sweep("dropout", [0.1], result.train, result.test,
                      result.schema, graph, tiny_train_config())


def test_gate_saturation_fraction():
    gates = np.array([[0.01, 0.99], [0.5, 0.96], [0.02, 0.5]])
    assert gate_saturation(gates) == pytest.approx(4 / 6)
    assert gate_saturation(None) is None
