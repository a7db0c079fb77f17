"""Tests for the training loop, baseline, evaluation and sweeps."""

import math
import re

import numpy as np
import pytest

from conftest import KERNELS_BEFORE, tiny_model_config, tiny_train_config
from swan import autodiff as ad
from swan.autodiff import Tensor
from swan.datagen import GenConfig
from swan.features import ConfigError, Dataset, Example
from swan.head import LossWeights
from swan.metrics import evaluate
from swan.model import (ComponentFlags, ModelConfig, init_params, predict,
                        predict_scores)
from swan import metrics, model, training
from swan.srg import build_srg, select_key_features
from swan.training import (Adam, TrainConfig, baseline_dnn, gate_saturation,
                           run_sweep, train)


def _rows_add_at(table, indices):
    """`autodiff.rows` with the np.add.at scatter it had before bincount."""
    idx = np.asarray(indices, dtype=np.int64)
    d = table.shape[1]

    def backward_fn(g):
        if table.requires_grad:
            full = np.zeros_like(table.data)
            np.add.at(full, idx, g.reshape(*idx.shape, d))
            ad._accumulate(table, full)

    out = table.data[idx].reshape(idx.shape[0], math.prod(idx.shape[1:]) * d)
    return ad._record(out, (table,), backward_fn)


BAD_LABELS = [2, -1, True, False, 0.5, None, "1"]


def _with_bad_labels(examples, label):
    """Copies of the examples with `label` at row 5 and 3 at row 9."""
    rows = [Example(ex.user, ex.item, ex.scene_id, ex.label) for ex in examples]
    rows[5].label = label
    rows[9].label = 3
    return rows


def _bad_label_message(rows, label):
    """The error that names row 5's label, as a full-match pattern."""
    return (rf"^example 5 \(scene '{rows[5].scene_id}'\): label must be 0 or 1, "
            rf"got {re.escape(repr(label))}$")


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
        fresh = init_params("swan", result.schema, graph.scene_ids, config.model,
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

    @pytest.mark.parametrize("kind", ["swan", "dnn"])
    def test_rows_scatter_trains_as_add_at(self, tiny_data, monkeypatch, kind):
        # Every gather calls ad.rows, so patching it swaps the scatter of
        # every embedding, scene-id, CFR and SAN row gradient.
        result, graph = tiny_data
        graph = graph if kind == "swan" else None
        config = tiny_train_config(model_kind=kind)
        new = train(result.train, graph, config)
        calls = []

        def rows(table, indices):
            calls.append(1)
            return _rows_add_at(table, indices)
        monkeypatch.setattr(ad, "rows", rows)
        old = train(result.train, graph, config)
        assert calls
        assert new.epoch_losses == old.epoch_losses
        for (name, a), (_, b) in zip(new.params.named_parameters(),
                                     old.params.named_parameters()):
            assert a.data.tobytes() == b.data.tobytes(), name

    def test_kernel_bodies_train_as_before(self, tiny_data, monkeypatch):
        # `rows`, `mix`, `sum_blocks` and `pair_features` as they were
        # before their numpy layout rewrite, in every gather and block sum
        # of a whole run: the only check of the signed zeros that reach
        # Adam through them.
        result, graph = tiny_data
        config = tiny_train_config()
        new = train(result.train, graph, config)
        new_scores = predict_scores(new.params, graph, result.test)
        calls = set()

        def counted(name, body):
            def call(*args):
                calls.add(name)
                return body(*args)
            return call
        for name, body in KERNELS_BEFORE.items():
            monkeypatch.setattr(ad, name, counted(name, body))
        old = train(result.train, graph, config)
        assert calls == set(KERNELS_BEFORE)
        assert new.epoch_losses == old.epoch_losses
        for (name, a), (_, b) in zip(new.params.named_parameters(),
                                     old.params.named_parameters()):
            assert a.data.tobytes() == b.data.tobytes(), name
        old_scores = predict_scores(old.params, graph, result.test)
        assert new_scores.tobytes() == old_scores.tobytes()

    def test_empty_dataset_rejected(self, tiny_data):
        _, graph = tiny_data
        with pytest.raises(ValueError):
            train(Dataset(), graph, tiny_train_config())

    def test_unknown_model_kind_rejected(self, tiny_data):
        result, graph = tiny_data
        with pytest.raises(ValueError, match="unknown model kind 'mystery'"):
            train(result.train, graph, tiny_train_config(model_kind="mystery"))

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

    def test_full_model_without_graph_rejected_before_init(self, tiny_data,
                                                           monkeypatch):
        result, _ = tiny_data

        def no_init(*args, **kwargs):
            raise AssertionError("parameters initialised before the check")
        monkeypatch.setattr(training, "init_params", no_init)
        with pytest.raises(ValueError,
                           match="^the full model needs a scene relation graph$"):
            train(result.train, None, tiny_train_config())

    def test_scene_missing_from_graph_rejected_before_init(self, tiny_data,
                                                           monkeypatch):
        result, _ = tiny_data
        half = Dataset(result.train[: len(result.train) // 2],
                       schema=result.schema)
        partial_graph = build_srg(half, result.schema, cc_threshold=0.05,
                                  buckets=4)

        def no_init(*args, **kwargs):
            raise AssertionError("parameters initialised before the check")
        monkeypatch.setattr(training, "init_params", no_init)
        with pytest.raises(ValueError, match="missing from the graph"):
            train(result.train, partial_graph, tiny_train_config())

    @pytest.mark.parametrize("kind", ["swan", "dnn"])
    @pytest.mark.parametrize("label", BAD_LABELS)
    def test_non_binary_label_rejected_before_init(self, tiny_data, monkeypatch,
                                                   kind, label):
        # The rule load_dataset applies to label fields: 0 or 1, no booleans.
        result, graph = tiny_data
        rows = _with_bad_labels(result.train, label)

        def no_init(*args, **kwargs):
            raise AssertionError("parameters initialised before the check")
        monkeypatch.setattr(training, "init_params", no_init)
        with pytest.raises(ValueError, match=_bad_label_message(rows, label)):
            train(rows, graph, tiny_train_config(model_kind=kind),
                  schema=result.schema)

    @pytest.mark.parametrize("call", ["build_srg", "select_key_features", "evaluate"])
    @pytest.mark.parametrize("label", BAD_LABELS)
    def test_non_binary_label_rejected_by_every_label_reader(self, tiny_data,
                                                             call, label):
        # train's rule and message, wherever labels are read from examples.
        result, graph = tiny_data
        rows = _with_bad_labels(result.train, label)
        params = init_params("swan", result.schema, graph.scene_ids,
                             tiny_model_config(), seed=0)
        run = {"build_srg": lambda: build_srg(rows, result.schema, 0.05, buckets=4),
               "select_key_features": lambda: select_key_features(rows, result.schema),
               "evaluate": lambda: evaluate(params, graph, rows)}[call]
        with pytest.raises(ValueError, match=_bad_label_message(rows, label)):
            run()

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
    def test_default_json_pinned(self):
        obj = TrainConfig().to_json()
        assert obj.pop("model") == ModelConfig().to_json()
        assert obj == {"model_kind": "swan", "lr": 0.001, "beta1": 0.9,
                       "beta2": 0.999, "adam_eps": 1e-08, "batch_size": 256,
                       "epochs": 2, "seed": 0,
                       "loss": {"alpha": 1.0, "beta": 0.001, "gamma": 0.001}}

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
        ("beta2", [0.999]), ("adam_eps", "1e-8"), ("model_kind", 3),
        ("model_kind", None), ("model", []), ("loss", 3)])
    def test_wrongly_typed_field_named(self, name, value):
        with pytest.raises(ConfigError, match=rf"TrainConfig {name} must be"):
            TrainConfig.from_json({"model": {}, name: value})

    @pytest.mark.parametrize("name, value", [
        ("embed_dim", "8"), ("embed_dim", 8.0), ("expert_dim", True),
        ("n_aeg", None), ("n_seg", 2.5), ("san_hidden", ["16"]),
        ("expert_hidden", [8, 4.0]), ("dnn_hidden", [False]),
        ("k_neighbors", "3"), ("min_weight", 2.5), ("cc_threshold", "x"),
        ("cc_threshold", True), ("buckets", None), ("san_hidden", 16),
        ("flags", []), ("flags", None),
        # in type but out of range
        ("embed_dim", -2), ("embed_dim", 0), ("expert_dim", 0), ("k_neighbors", 0),
        ("buckets", 0), ("san_hidden", [0]), ("expert_hidden", [8, -3]),
        ("selector_hidden", [0]), ("final_hidden", [0]), ("dnn_hidden", [16, 0]),
        ("min_weight", -1), ("cc_threshold", float("nan")), ("cc_threshold", -0.1),
        ("cc_threshold", 1.5), ("cc_threshold", float("inf"))])
    def test_wrongly_typed_model_size_named(self, name, value):
        with pytest.raises(ConfigError, match=rf"ModelConfig {name} must be"):
            TrainConfig.from_json({"model": {name: value}})

    @pytest.mark.parametrize("cls", [TrainConfig, ModelConfig, ComponentFlags,
                                     LossWeights, GenConfig])
    @pytest.mark.parametrize("obj", [[], None, "{}"])
    def test_non_object_config_named(self, cls, obj):
        with pytest.raises(ConfigError, match=rf"{cls.__name__} must be a JSON object"):
            cls.from_json(obj)

    def test_numpy_numbers_accepted(self):
        config = TrainConfig(epochs=np.int64(3), seed=np.int32(2),
                             lr=np.float64(0.01), beta1=0)
        assert config.epochs == 3 and config.beta1 == 0

    @pytest.mark.parametrize("cls, name, value", [
        (TrainConfig, "lr", math.nan), (TrainConfig, "lr", math.inf),
        (TrainConfig, "lr", -1e-3), (TrainConfig, "beta1", 1),
        (TrainConfig, "beta1", -0.1), (TrainConfig, "beta1", math.nan),
        (TrainConfig, "beta2", 1.0), (TrainConfig, "beta2", 1.5),
        (TrainConfig, "beta2", math.nan), (TrainConfig, "adam_eps", 0.0),
        (TrainConfig, "adam_eps", -1e-8), (TrainConfig, "adam_eps", math.nan),
        (TrainConfig, "adam_eps", math.inf), (TrainConfig, "epochs", 0),
        (LossWeights, "alpha", math.nan), (LossWeights, "alpha", 0.0),
        (LossWeights, "beta", math.nan), (LossWeights, "beta", math.inf),
        (LossWeights, "gamma", math.inf), (LossWeights, "gamma", -0.1),
        (ModelConfig, "tau", math.nan), (ModelConfig, "tau", math.inf),
        (ModelConfig, "tau", 0.0)])
    def test_out_of_range_value_named(self, cls, name, value):
        # NaN compares False with everything, so each rule must reject it.
        with pytest.raises(ValueError, match=rf"{cls.__name__} {name} must be"):
            cls(**{name: value})


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
        params = init_params("swan", result.schema, graph.scene_ids,
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
        base = evaluate(out.params, graph, test)
        again = evaluate(out.params, graph, test, reference=base)
        assert again.gini_improvement == 0.0
        assert again.gini_defined is False

    def test_small_scenes_pool_into_other(self, tiny_data, monkeypatch):
        result, graph = tiny_data
        params = init_params("swan", result.schema, graph.scene_ids,
                             tiny_model_config(), seed=1)
        monkeypatch.setattr(metrics, "MIN_SCENE_EXAMPLES", 10 ** 6)
        report = evaluate(params, graph,
                          Dataset(result.test, schema=result.schema))
        assert set(report.per_scene) == {"other"}
        assert "pooled_small_scenes" in report.warnings

    @pytest.mark.parametrize("score", ["predict", "predict_scores", "evaluate"])
    def test_full_model_without_graph_rejected(self, tiny_data, score):
        # Scored without its graph, every scene of a full model would have
        # no neighbours.
        result, graph = tiny_data
        params = init_params("swan", result.schema, graph.scene_ids,
                             tiny_model_config(), seed=0)
        run = {"predict": lambda: predict(params, None, result.test[0]),
               "predict_scores": lambda: predict_scores(params, None, result.test),
               "evaluate": lambda: evaluate(params, None, result.test)}[score]
        with pytest.raises(ValueError,
                           match="^the full model needs a scene relation graph$"):
            run()

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

    @pytest.mark.parametrize("kind", ["swan", "dnn"])
    def test_sweep_scores_each_value_once(self, tiny_data, monkeypatch, kind):
        result, graph = tiny_data
        graph = graph if kind == "swan" else None
        config = tiny_train_config(epochs=1, model_kind=kind)
        calls = []
        score_rows = model.score_rows

        def counted(*args, **kwargs):
            calls.append(1)
            return score_rows(*args, **kwargs)
        monkeypatch.setattr(model, "score_rows", counted)
        entries = run_sweep("lr", [1e-2, 3e-2], result.train, result.test,
                            result.schema, graph, config)
        assert len(calls) == 2
        # The entry of the last value, as `evaluate` and `predict_scores`
        # give it.
        out = train(result.train, graph, training._config_with(config, "lr", 3e-2))
        report = evaluate(out.params, graph, result.test)
        assert (entries[-1]["auc_all"], entries[-1]["auc_cold_start"]) == (
            report.auc_all, report.auc_cold_start)
        if kind == "swan":
            _, gates = predict_scores(out.params, graph, result.test,
                                      collect_gates=True)
            assert entries[-1]["gate_saturation"] == gate_saturation(gates)
        else:
            assert "gate_saturation" not in entries[-1]

    def test_cc_threshold_sweep_rebuilds_graph(self, tiny_data):
        result, graph = tiny_data
        config = tiny_train_config(epochs=1)
        entries = run_sweep("cc_threshold", [0.01, 0.3], result.train,
                            result.test, result.schema, graph, config)
        assert entries[0]["n_key_features"] >= entries[1]["n_key_features"]

    @pytest.mark.parametrize("param", ["n_aeg", "epochs", "batch_size",
                                       "k_neighbors", "min_weight"])
    def test_integer_field_takes_integral_values_only(self, tiny_data, param):
        config = training._config_with(tiny_train_config(), param, 3.0)
        value = getattr(config.model, param, getattr(config, param, None))
        assert value == 3 and type(value) is int
        result, graph = tiny_data
        with pytest.raises(ConfigError, match=rf"Config {param} must be an "
                                              r"integer, got 2\.5"):
            run_sweep(param, [2.5], result.train, result.test, result.schema,
                      graph, tiny_train_config())

    def test_unknown_param_rejected(self, tiny_data):
        result, graph = tiny_data
        with pytest.raises(ValueError):
            run_sweep("dropout", [0.1], result.train, result.test,
                      result.schema, graph, tiny_train_config())


def test_gate_saturation_fraction():
    gates = np.array([[0.01, 0.99], [0.5, 0.96], [0.02, 0.5]])
    assert gate_saturation(gates) == pytest.approx(4 / 6)
    assert gate_saturation(np.full((2, 3), 0.5)) == 0.0
