"""Tests for the training loop, baseline, evaluation and sweeps."""

import re

import numpy as np
import pytest

from conftest import tiny_model_config, tiny_train_config
from swan.autodiff import Tensor
from swan.features import ConfigError, Dataset, Example
from swan.metrics import evaluate
from swan.model import predict_scores
from swan import training
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
        missing = sorted({ex.scene_id for ex in result.train}
                         - set(partial_graph.profiles))
        assert len(missing) == 3
        with pytest.raises(ValueError, match="missing from the graph") as err:
            train(result.train, partial_graph, tiny_train_config())
        for sid in missing:
            assert repr(sid) in str(err.value)
        for sid in partial_graph.profiles:
            assert repr(sid) not in str(err.value)

    def test_scene_missing_from_graph_rejected_before_init(self, tiny_data,
                                                           monkeypatch):
        result, _ = tiny_data
        half = Dataset(result.train[: len(result.train) // 2],
                       schema=result.schema)
        partial_graph = build_srg(half, result.schema, cc_threshold=0.05,
                                  buckets=4)

        def no_init(*args, **kwargs):
            raise AssertionError("parameters initialised before the check")
        monkeypatch.setattr(training, "init_swan_params", no_init)
        with pytest.raises(ValueError, match="missing from the graph"):
            train(result.train, partial_graph, tiny_train_config())

    @pytest.mark.parametrize("kind", ["swan", "dnn"])
    @pytest.mark.parametrize("label", [2, -1, True, False, 0.5, None, "1"])
    def test_non_binary_label_rejected_before_init(self, tiny_data, monkeypatch,
                                                   kind, label):
        # The rule load_dataset applies to label fields: 0 or 1, no booleans.
        result, graph = tiny_data
        rows = [Example(ex.user, ex.item, ex.scene_id, ex.label)
                for ex in result.train]
        rows[5].label = label
        rows[9].label = 3

        def no_init(*args, **kwargs):
            raise AssertionError("parameters initialised before the check")
        monkeypatch.setattr(training, "init_swan_params", no_init)
        monkeypatch.setattr(training, "init_dnn_params", no_init)
        with pytest.raises(ValueError, match=rf"example 5 \(scene "
                           rf"'{rows[5].scene_id}'\): label must be 0 or 1, "
                           rf"got {re.escape(repr(label))}$"):
            train(rows, graph, tiny_train_config(model_kind=kind),
                  schema=result.schema)

    def test_numeric_zero_one_labels_accepted(self, tiny_data):
        result, graph = tiny_data
        as_float = [Example(ex.user, ex.item, ex.scene_id, float(ex.label))
                    for ex in result.train]
        as_numpy = [Example(ex.user, ex.item, ex.scene_id, np.int64(ex.label))
                    for ex in result.train]
        config = tiny_train_config(epochs=1)
        expected = train(result.train, graph, config).epoch_losses
        for rows in (as_float, as_numpy):
            assert train(rows, graph, config,
                         schema=result.schema).epoch_losses == expected

    def test_graph_scene_missing_from_training_set_rejected(self, tiny_data):
        # Every graph scene can be retrieved as a neighbour, and a neighbour
        # needs a trained scene embedding and cross-scene tables.
        result, graph = tiny_data
        dropped = graph.scene_ids[:2]
        subset = Dataset([ex for ex in result.train if ex.scene_id not in dropped],
                         schema=result.schema)
        pattern = (r"train: the graph has 2 scene\(s\) the model does not "
                   rf"know: '{dropped[0]}', '{dropped[1]}'")
        with pytest.raises(ValueError, match=pattern):
            train(subset, graph, tiny_train_config(epochs=1))

    def test_trained_model_beats_chance_in_sample(self, tiny_data):
        result, graph = tiny_data
        config = tiny_train_config(epochs=6, lr=2e-2)
        out = train(result.train, graph, config)
        labels = [ex.label for ex in result.train]
        scores = predict_scores(out.params, graph, result.train)
        from swan.metrics import auc
        assert auc(labels, scores) > 0.8

    def test_non_finite_loss_names_the_scene(self, tiny_data, monkeypatch):
        result, graph = tiny_data
        seen = []
        forward = training.swan_forward

        def spy(params, batch):
            seen.append(batch)
            return forward(params, batch)

        monkeypatch.setattr(training, "swan_forward", spy)
        monkeypatch.setattr(training, "total_loss",
                            lambda *args: Tensor(np.array(np.nan)))
        with pytest.raises(RuntimeError,
                           match=r"non-finite loss at epoch 0 batch 0") as info:
            train(result.train, graph, tiny_train_config())
        scenes = sorted({ex.scene_id for ex in result.train})
        first = seen[0].scene_idx
        assert np.all(first == first[0])
        assert str(info.value).endswith(f"(scene {scenes[first[0]]!r})")


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


class ReferenceAdam:
    """Per-tensor dense Adam, the loop the flat-buffer optimizer replaced."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            update = (self.m[i] / bc1) / (np.sqrt(self.v[i] / bc2) + self.eps)
            p.data = p.data - self.lr * update

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()


def _mixed_tensors(rng):
    shapes = [(), (3,), (2, 4), (), (40, 25), (3, 2), (0, 4), (1,), (300,)]
    # Small values, so that a last-bit change in the update shows in p.
    return [Tensor(rng.normal(size=s) * 1e-3, requires_grad=True)
            for s in shapes]


def _flatten(arrays):
    return np.concatenate([a.ravel() for a in arrays])


class TestFlatAdam:
    def test_matches_per_tensor_reference_bitwise(self):
        rng = np.random.default_rng(3)
        flat = _mixed_tensors(rng)
        ref = [Tensor(t.data.copy(), requires_grad=True) for t in flat]
        opt = Adam(flat, lr=0.05, beta1=0.8, beta2=0.99, eps=1e-6)
        ref_opt = ReferenceAdam(ref, lr=0.05, beta1=0.8, beta2=0.99, eps=1e-6)
        for step in range(6):
            for i, (a, b) in enumerate(zip(flat, ref)):
                if i % 3 == 0:      # a gradient
                    g = rng.normal(size=a.shape)
                    a._grad, b._grad = g.copy(), g.copy()
                elif i % 3 == 1 and step % 2 == 0:   # an all-zero gradient
                    a._grad, b._grad = np.zeros(a.shape), np.zeros(a.shape)
                # otherwise never touched: _grad stays None
            opt.step()
            ref_opt.step()
            opt.zero_grad()
            ref_opt.zero_grad()
            for a, b in zip(flat, ref):
                assert a.shape == b.shape
                assert np.array_equal(a.data, b.data)
            # The moments too: a last-bit difference there can vanish in p.
            assert np.array_equal(opt.m, _flatten(ref_opt.m))
            assert np.array_equal(opt.v, _flatten(ref_opt.v))

    def test_params_view_the_flat_buffer(self):
        tensors = _mixed_tensors(np.random.default_rng(0))
        before = [t.data.copy() for t in tensors]
        opt = Adam(tensors)
        assert opt.flat.size == sum(b.size for b in before)
        for t, b in zip(tensors, before):
            assert t.data.base is opt.flat
            assert np.array_equal(t.data, b)

    @pytest.mark.parametrize("kind", ["swan", "dnn"])
    def test_trained_model_bytes_match_reference(self, tiny_data, tmp_path,
                                                 monkeypatch, kind):
        from swan import training
        from swan.serialize import save_model
        result, graph = tiny_data
        config = tiny_train_config(epochs=2, model_kind=kind)
        g = graph if kind == "swan" else None
        flat = train(result.train, g, config)
        monkeypatch.setattr(training, "Adam", ReferenceAdam)
        ref = train(result.train, g, config)
        assert flat.epoch_losses == ref.epoch_losses
        save_model(flat.params, tmp_path / "flat.bin", g)
        save_model(ref.params, tmp_path / "ref.bin", g)
        assert (tmp_path / "flat.bin").read_bytes() == \
            (tmp_path / "ref.bin").read_bytes()

    def test_empty_parameter_list(self):
        opt = Adam([])
        opt.step()
        opt.zero_grad()
        assert opt.t == 1

    def test_rebound_data_raises(self):
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones((2, 2)), requires_grad=True)
        opt = Adam([a, b])
        opt.step()
        b.data = np.zeros((2, 2))
        with pytest.raises(RuntimeError, match="parameter 1"):
            opt.step()


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

    @pytest.mark.parametrize("name, value", [
        ("epochs", "x"), ("epochs", True), ("epochs", 2.0),
        ("batch_size", "32"), ("batch_size", None), ("seed", False),
        ("seed", 1.5), ("lr", "0.01"), ("lr", True), ("beta1", None),
        ("beta2", [0.999]), ("adam_eps", "1e-8")])
    def test_wrongly_typed_field_named(self, name, value):
        with pytest.raises(ConfigError, match=rf"TrainConfig {name} must be"):
            TrainConfig.from_json({"model": {}, name: value})

    def test_numpy_numbers_accepted(self):
        config = TrainConfig(epochs=np.int64(3), seed=np.int32(2),
                             lr=np.float64(0.01), beta1=1)
        assert config.epochs == 3 and config.beta1 == 1


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
