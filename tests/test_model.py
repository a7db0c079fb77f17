"""Tests for model assembly, prediction paths and the composed pipeline."""

import hashlib

import numpy as np
import pytest

from dataclasses import replace

from conftest import (encoded, tiny_gen_config, tiny_model_config,
                      tiny_train_config, vocab_indices)
from swan import autodiff as ad
from swan import model as swan_model
from swan.aem import expert_selector
from swan.cfr import assemble_input, cfr_forward
from swan.datagen import generate
from swan.features import ConfigError, embed_indices
from swan.head import decide
from swan.metrics import evaluate
from swan.model import (ComponentFlags, ModelConfig, PreparedBatch,
                        init_params,
                        predict, predict_scores, resolve_neighbors,
                        swan_forward)
from swan.nn import glorot_uniform
from swan.san import san_forward
from swan.serialize import load_model, save_model
from swan.srg import build_srg, profile_new_scene, similar_scenes
from swan.training import train


def _batch(params, graph, examples):
    """One-scene batch built the way criterion 1 of the acceptance suite does."""
    sid = examples[0].scene_id
    profile = (graph.profiles[sid] if sid in graph.profiles
               else profile_new_scene(graph, sid, examples, params.schema))
    idx, scene_idx = encoded(examples, params.schema, params.embeddings)
    ids = resolve_neighbors(graph, sid, profile, params)
    return PreparedBatch(feature_idx=idx, scene_idx=scene_idx, labels=None,
                         neighbors=np.tile(vocab_indices(params.embeddings, ids),
                                           (len(examples), 1)))


def _zero_all(params):
    for _, t in params.named_parameters():
        t.data = np.zeros_like(t.data)


class TestPredict:
    def test_zeroed_params_predict_half(self, tiny_data):
        result, graph = tiny_data
        params = init_params("swan", result.schema, graph.scene_ids,
                             tiny_model_config(), seed=0)
        _zero_all(params)
        assert predict(params, graph, result.train[0]) == 0.5
        assert predict(params, graph, result.test[0]) == 0.5

    def test_zeroed_dnn_predicts_half(self, tiny_data):
        result, graph = tiny_data
        params = init_params("dnn", result.schema, graph.scene_ids,
                             tiny_model_config(), seed=0)
        _zero_all(params)
        assert predict(params, None, result.test[0]) == 0.5

    def test_cold_scene_with_no_neighbors_still_predicts(self, tiny_data):
        result, graph = tiny_data
        config = tiny_model_config(min_weight=10 ** 6)
        params = init_params("swan", result.schema, graph.scene_ids, config, seed=1)
        ex = result.test[0]
        batch = _batch(params, graph, [ex])
        assert batch.neighbors.shape == (1, 0)
        value = predict(params, graph, ex)
        assert 0.0 < value < 1.0

    def test_prediction_in_unit_interval(self, tiny_data):
        result, graph = tiny_data
        params = init_params("swan", result.schema, graph.scene_ids,
                             tiny_model_config(), seed=2)
        for ex in result.test[:10]:
            assert 0.0 < predict(params, graph, ex) < 1.0

    def test_known_scene_reprofile_consistency(self):
        # A scene whose training profile came from a single item profiles
        # identically through the cold-start path, so both routes retrieve
        # the same neighbors.
        gen = generate(tiny_gen_config(items_per_scene=1, examples_per_scene=12,
                                       train_scenes=4, cold_scenes=1))
        graph = build_srg(gen.train, gen.schema, cc_threshold=0.01, buckets=3)
        params = init_params("swan", gen.schema, graph.scene_ids,
                             tiny_model_config(), seed=3)
        ex = gen.train[0]
        stored = graph.profiles[ex.scene_id]
        re_profile = profile_new_scene(graph, ex.scene_id, [ex], gen.schema)
        assert re_profile.slots == stored.slots
        assert (resolve_neighbors(graph, ex.scene_id, stored, params)
                == resolve_neighbors(graph, ex.scene_id, re_profile, params))

    def test_predict_scores_aligns_with_predict(self, tiny_data):
        # Known scenes use the stored profile in both paths; a cold scene
        # matches only when its profiling inputs coincide, i.e. a single
        # example. Larger cold groups profile from all their examples.
        result, graph = tiny_data
        params = init_params("swan", result.schema, graph.scene_ids,
                             tiny_model_config(), seed=4)
        subset = list(result.train[:9]) + [result.test[0]]
        scores = predict_scores(params, graph, subset)
        singles = np.array([predict(params, graph, ex) for ex in subset])
        np.testing.assert_allclose(scores, singles, atol=1e-12)

    def test_gates_collected_per_example(self, tiny_data):
        result, graph = tiny_data
        params = init_params("swan", result.schema, graph.scene_ids,
                             tiny_model_config(), seed=5)
        subset = list(result.test[:9])
        _, gates = predict_scores(params, graph, subset, collect_gates=True)
        assert gates.shape == (9, params.config.n_aeg)
        assert np.all((gates > 0) & (gates < 1))


class TestInit:
    def test_stacked_tables_equal_per_table_draws(self, tiny_data):
        # The two stacked tables hold, and leave the generator as, the
        # per-table draws in their old order: one per feature, the scene
        # ids, then one per known scene and scene feature.
        result, graph = tiny_data
        config = tiny_model_config()
        schema, d = result.schema, config.embed_dim
        params = init_params("swan", schema, graph.scene_ids, config, seed=3)
        rng = np.random.default_rng(3)

        def draw(n_rows):
            return rng.uniform(-0.05, 0.05, size=(n_rows, d))

        table = [draw(f.num_indices) for f in schema]
        table.append(draw(len(graph.scene_ids) + 1))
        cfr = [draw(f.num_indices) for _ in sorted(graph.scene_ids)
               for f in schema.scene_features]
        emb = params.embeddings
        np.testing.assert_array_equal(emb.table.data, np.concatenate(table))
        np.testing.assert_array_equal(emb.cfr.data, np.concatenate(cfr))
        san_w = params.mlps["san"].layers[0].w.data
        np.testing.assert_array_equal(san_w, glorot_uniform(rng, *san_w.shape))
        names = [name for name, _ in params.named_parameters()]
        assert names[:3] == ["emb", "cfr", "san.layer0.w"]
        assert not any(name.startswith(("emb.", "cfr.")) for name in names)


    @pytest.mark.parametrize("kind, digest", [
        ("swan", "3950e7437568dd5b8cd8cadb2133ff1bb4def4e31a8b189fa0e9456b88ae471c"),
        ("dnn", "7dc333b930f3e33326df7793665351771c90ff0f1c32988d173847aa4a77b534")])
    def test_initialization_pinned(self, tiny_data, kind, digest):
        # sha256 over each parameter's name, shape and float64 bytes, in
        # named_parameters order: any change to the draw order, the names
        # or the layout of a seeded initialization changes it.
        result, _ = tiny_data
        ids = sorted({ex.scene_id for ex in result.train})
        params = init_params(kind, result.schema, ids, tiny_model_config(), seed=7)
        h = hashlib.sha256()
        for name, t in params.named_parameters():
            h.update(f"{name}{t.shape}".encode())
            h.update(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
        assert h.hexdigest() == digest

    def test_repeated_scene_ids_count_once(self, tiny_data):
        # A repeat must not skip a vocabulary index, which would move the
        # last known scene onto the row that unknown scenes share.
        result, graph = tiny_data
        ids = list(graph.scene_ids)
        once = init_params("swan", result.schema, ids, tiny_model_config(), seed=3)
        twice = init_params("swan", result.schema, ids[:1] + ids, tiny_model_config(),
                            seed=3)
        assert twice.embeddings.scene_vocab == once.embeddings.scene_vocab
        assert sorted(once.embeddings.scene_vocab.values()) == list(range(len(ids)))
        for (name, a), (_, b) in zip(once.named_parameters(), twice.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)


class TestComposedPipeline:
    def test_forward_matches_module_composition(self, tiny_data):
        """predict() must equal the hand-composed module pipeline."""
        result, graph = tiny_data
        config = tiny_model_config()
        params = init_params("swan", result.schema, graph.scene_ids, config, seed=6)
        ex = result.train[0]

        got = predict(params, graph, ex)

        # Compose the stages with the public module functions.
        profile = graph.profiles[ex.scene_id]
        neighbor_ids = [graph.scene_ids[i] for i in similar_scenes(
            graph, [[cat for _, _, cat in profile.slots]], k=config.k_neighbors,
            min_weight=config.min_weight)[0]]
        emb = params.embeddings
        idx, scene_idx = encoded([ex], params.schema, emb)
        neighbors = vocab_indices(emb, neighbor_ids)[None, :]  # one row
        with ad.no_grad():
            bundle = embed_indices(idx, scene_idx, emb, params.schema)
            e_target = bundle.e_target
            e_similar = ad.rows(emb.table, emb.scene_rows(neighbors))
            san_out = san_forward(bundle.e_user, e_target, e_similar,
                                  params.mlps["san"])
            e_cfr = cfr_forward(san_out.weights, idx, emb, neighbors)
            e_in = assemble_input(bundle.e_other, bundle.e_user, san_out.vec,
                                  e_target, e_cfr)
            gates = expert_selector(bundle.e_user, san_out.vec,
                                    params.mlps["selector.prob"],
                                    params.mlps["selector.thre"], config.tau)
            aeg_outs = params.mlps["aeg"](e_in)
            seg_outs = params.mlps["seg"](e_in)
            yhat = decide(e_in, seg_outs, aeg_outs, gates, params.mlps["gate"],
                          params.mlps["final"])
        assert got == pytest.approx(float(yhat.data[0, 0]), abs=1e-10)


class TestAblationWiring:
    def test_srg_off_randomizes_neighbors_deterministically(self, tiny_data):
        result, graph = tiny_data
        config = replace(tiny_model_config(), flags=ComponentFlags(srg=False))
        params = init_params("swan", result.schema, graph.scene_ids, config, seed=7)
        sid = graph.scene_ids[0]
        n1 = resolve_neighbors(graph, sid, graph.profiles[sid], params)
        n2 = resolve_neighbors(graph, sid, graph.profiles[sid], params)
        assert n1 == n2
        ranked = similar_scenes(graph, graph.categories[:1], k=config.k_neighbors,
                                min_weight=config.min_weight)[0]
        assert len(n1) == len(ranked)

    def test_aem_off_fixes_gates_to_one(self, tiny_data):
        result, graph = tiny_data
        config = replace(tiny_model_config(), flags=ComponentFlags(aem=False))
        params = init_params("swan", result.schema, graph.scene_ids, config, seed=8)
        batch = _batch(params, graph, [result.train[0]])
        out = swan_forward(params, batch)
        np.testing.assert_array_equal(out.w.data, 1.0)

    def test_cfr_off_zeroes_cross_scene_block(self, tiny_data, monkeypatch):
        result, graph = tiny_data
        base = tiny_model_config()
        config_on = base
        config_off = replace(base, flags=ComponentFlags(cfr=False))
        on = init_params("swan", result.schema, graph.scene_ids, config_on, seed=9)
        off = init_params("swan", result.schema, graph.scene_ids, config_off, seed=9)
        ex = result.train[0]
        b_on = _batch(on, graph, [ex])
        b_off = _batch(off, graph, [ex])
        d = base.embed_dim
        inputs = []

        def recorded(*args):
            out = assemble_input(*args)
            inputs.append(out.data)
            return out
        monkeypatch.setattr(swan_model, "assemble_input", recorded)
        swan_forward(on, b_on)
        swan_forward(off, b_off)
        e_in_on, e_in_off = inputs
        # Identical up to the last block, where CFR is zeroed out.
        np.testing.assert_array_equal(e_in_on[:, :-d], e_in_off[:, :-d])
        assert not np.array_equal(e_in_on[:, -d:], e_in_off[:, -d:])


def _mismatched_graph(graph, case):
    """The graph without its first scene ("fewer"), or with one more scene
    after the others whose categories no scene shares, so that it is never
    retrieved ("extra"); and the scene only one side has."""
    if case == "fewer":
        return replace(graph, scene_ids=graph.scene_ids[1:],
                       categories=graph.categories[1:]), graph.scene_ids[0]
    ghost = graph.scene_ids[-1] + "_ghost"
    row = np.full((1, len(graph.layout)), 10 ** 6)
    return replace(graph, scene_ids=[*graph.scene_ids, ghost],
                   categories=np.concatenate([graph.categories, row])), ghost


class TestGraphPairing:
    """The full model's graph holds exactly the model's scenes, so graph
    row i is scene vocabulary index i; every place where a model meets its
    graph refuses another one, naming the scene only one side has."""

    @pytest.mark.parametrize("case", ["fewer", "extra"])
    @pytest.mark.parametrize("entry", ["train", "load_model", "predict_scores",
                                       "evaluate", "predict"])
    def test_graph_without_exactly_the_models_scenes_is_refused(
            self, tiny_data, tmp_path, entry, case):
        result, graph = tiny_data
        bad, sid = _mismatched_graph(graph, case)
        params = init_params("swan", result.schema, graph.scene_ids,
                             tiny_model_config(), seed=0)
        phrase = ("missing from the graph" if case == "fewer"
                  else "the model does not know")
        with pytest.raises(ValueError, match=phrase) as err:
            if entry == "train":
                train(result.train, bad, tiny_train_config(epochs=1))
            elif entry == "load_model":
                save_model(params, tmp_path / "model.bin", graph=bad)
                load_model(tmp_path / "model.bin")
            elif entry == "predict_scores":
                predict_scores(params, bad, result.test)
            elif entry == "evaluate":
                evaluate(params, bad, result.test)
            else:
                predict(params, bad, result.test[0])
        assert repr(sid) in str(err.value)
        if entry != "predict_scores":
            # The message names no call the caller did not make.
            assert "predict_scores" not in str(err.value)


class TestConfigJson:
    def test_default_json_pinned(self):
        assert ModelConfig().to_json() == {
            "embed_dim": 16, "expert_dim": 16, "n_aeg": 10, "n_seg": 10,
            "tau": 0.001, "k_neighbors": 5, "min_weight": 1,
            "cc_threshold": 0.05, "buckets": 10, "san_hidden": [32, 16],
            "expert_hidden": [32, 16], "selector_hidden": [32, 16],
            "final_hidden": [16], "dnn_hidden": [64, 32],
            "flags": {"srg": True, "aem": True, "cfr": True,
                      "loss_var": True, "loss_cos": True}}

    def test_model_config_round_trip(self):
        config = replace(tiny_model_config(), flags=ComponentFlags(loss_cos=False))
        again = ModelConfig.from_json(config.to_json())
        assert again == config

    def test_unknown_model_keys_named(self):
        obj = tiny_model_config().to_json()
        obj["hard_gate_inference"] = False
        with pytest.raises(ConfigError, match="hard_gate_inference"):
            ModelConfig.from_json(obj)

    @pytest.mark.parametrize("name, value", [
        ("srg", "false"), ("aem", 0), ("cfr", None), ("loss_var", 1.0),
        ("loss_cos", [True])])
    def test_wrongly_typed_flag_named(self, name, value):
        with pytest.raises(ConfigError, match=rf"ComponentFlags {name} must be a bool"):
            ModelConfig.from_json({"flags": {name: value}})

    def test_unknown_flag_keys_named(self):
        obj = ComponentFlags().to_json()
        obj["gate_softmax"] = True
        with pytest.raises(ConfigError, match="gate_softmax"):
            ComponentFlags.from_json(obj)
        obj = tiny_model_config().to_json()
        obj["flags"]["gate_softmax"] = True
        with pytest.raises(ConfigError, match="gate_softmax"):
            ModelConfig.from_json(obj)
