"""Tests for the binary model format."""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_train_config
from swan.model import ModelConfig, init_params, param_shapes, predict_scores
from swan.serialize import MAGIC, load_model, save_model
from swan.srg import SceneRelationGraph
from swan.training import baseline_dnn, train


class TestModelFile:
    def test_magic_header(self, tmp_path, tiny_data):
        result, graph = tiny_data
        out = train(result.train, graph, tiny_train_config(epochs=1))
        path = tmp_path / "model.bin"
        save_model(out.params, path, graph=graph)
        assert path.read_bytes()[:8] == MAGIC
        assert MAGIC == b"SWANMDL5"

    def test_round_trip_predictions_identical(self, tmp_path, tiny_data):
        result, graph = tiny_data
        out = train(result.train, graph, tiny_train_config(epochs=1))
        path = tmp_path / "model.bin"
        save_model(out.params, path, graph=graph)
        loaded, loaded_graph = load_model(path)
        assert loaded.kind == "swan"
        before = predict_scores(out.params, graph, result.test[:30])
        after = predict_scores(loaded, loaded_graph, result.test[:30])
        np.testing.assert_array_equal(before, after)

    def test_round_trip_dnn(self, tmp_path, tiny_data):
        result, _ = tiny_data
        out = baseline_dnn(result.train, tiny_train_config(epochs=1))
        path = tmp_path / "model.bin"
        save_model(out.params, path)
        loaded, graph = load_model(path)
        assert loaded.kind == "dnn" and graph is None
        before = predict_scores(out.params, None, result.test[:30])
        after = predict_scores(loaded, None, result.test[:30])
        np.testing.assert_array_equal(before, after)

    def test_serialization_is_byte_deterministic(self, tmp_path, tiny_data):
        result, graph = tiny_data
        config = tiny_train_config(epochs=1)
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        save_model(train(result.train, graph, config).params, p1, graph=graph)
        save_model(train(result.train, graph, config).params, p2, graph=graph)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMODEL" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_model(path)

    def test_old_format_rejected(self, tmp_path):
        path = tmp_path / "old.bin"
        path.write_bytes(b"SWANMDL1" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_model(path)

    def test_previous_format_rejected(self, tmp_path):
        # SWANMDL2 files hold one tensor per expert, SWANMDL3 files one
        # embedding table per feature and per scene, SWANMDL4 files a graph
        # with an edge list and per-scene slot triples; they are not read.
        path = tmp_path / "old.bin"
        for magic in (b"SWANMDL2", b"SWANMDL3", b"SWANMDL4"):
            path.write_bytes(magic + b"\x00" * 64)
            with pytest.raises(ValueError, match="old.bin: not a model file of "
                                                 "this format.*magic"):
                load_model(path)

    def test_stacked_expert_manifest(self, tmp_path, tiny_data):
        result, graph = tiny_data
        config = tiny_train_config(epochs=1)
        out = train(result.train, graph, config)
        path = tmp_path / "model.bin"
        save_model(out.params, path, graph=graph)
        data = path.read_bytes()
        (length,) = struct.unpack(">Q", data[8:16])
        shapes = {m["name"]: m["shape"]
                  for m in json.loads(data[16:16 + length])["params"]}
        n, h, d = config.model.n_aeg, config.model.expert_hidden[0], config.model.expert_dim
        assert shapes["aeg.layer0.w"][1] == n * h
        assert shapes["aeg.layer1.w"] == [n * h, d]
        assert shapes["aeg.layer1.b"] == [n * d]
        assert not any(name.startswith("aeg.0.") for name in shapes)
        schema, d, n_scenes = result.schema, config.model.embed_dim, len(graph.scene_ids)
        assert shapes["emb"] == [sum(f.num_indices for f in schema) + n_scenes + 1, d]
        assert shapes["cfr"] == [
            n_scenes * sum(f.num_indices for f in schema.scene_features), d]
        assert not any(name.startswith(("emb.", "cfr.")) for name in shapes)


def _dnn_file(tmp_path, tiny_data):
    out = baseline_dnn(tiny_data[0].train, tiny_train_config(epochs=1))
    path = tmp_path / "model.bin"
    save_model(out.params, path)
    data = path.read_bytes()
    (length,) = struct.unpack(">Q", data[8:16])
    return path, data, 16 + length


class TestMalformedFile:
    @pytest.mark.parametrize("name", ["emb", "tower.layer0.w", "tower.layer1.b"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_names_file_and_tensor(self, tmp_path, tiny_data,
                                                        name, bad):
        path, data, end = _dnn_file(tmp_path, tiny_data)
        offset = end
        for meta in json.loads(data[16:end])["params"]:
            if meta["name"] == name:
                break
            offset += math.prod(meta["shape"]) * 8
        data = bytearray(data)
        data[offset:offset + 8] = struct.pack("<d", bad)
        path.write_bytes(data)
        with pytest.raises(ValueError, match=rf"model\.bin: parameter {name} holds "
                                             "non-finite values"):
            load_model(path)

    def test_unknown_kind_rejected(self, tmp_path, tiny_data):
        path, data, end = _dnn_file(tmp_path, tiny_data)
        header = json.loads(data[16:end])
        header["kind"] = "mystery"
        blob = json.dumps(header).encode("utf-8")
        path.write_bytes(MAGIC + struct.pack(">Q", len(blob)) + blob + data[end:])
        with pytest.raises(ValueError, match="mystery"):
            load_model(path)

    @pytest.mark.parametrize("cut", [0, 4, 16, 100])
    def test_truncated_header_rejected(self, tmp_path, tiny_data, cut):
        path, data, _ = _dnn_file(tmp_path, tiny_data)
        path.write_bytes(data[:8 + cut])
        with pytest.raises(ValueError, match="model.bin: truncated header"):
            load_model(path)

    @pytest.mark.parametrize("drop", [1, 8, 1000])
    def test_truncated_payload_rejected(self, tmp_path, tiny_data, drop):
        path, data, _ = _dnn_file(tmp_path, tiny_data)
        path.write_bytes(data[:-drop])
        with pytest.raises(ValueError,
                           match="model.bin: truncated parameter payload"):
            load_model(path)

    @pytest.mark.parametrize("header", [{}, {"kind": "swan"}, [], "swan", 3,
                                        None])
    def test_malformed_header_names_file(self, tmp_path, header):
        path = tmp_path / "model.bin"
        blob = json.dumps(header).encode("utf-8")
        path.write_bytes(MAGIC + struct.pack(">Q", len(blob)) + blob)
        with pytest.raises(ValueError, match="model.bin: model header"):
            load_model(path)

    @pytest.mark.parametrize("field, value", [
        ("params", {"emb.x": [1]}), ("params", [["emb.x", [1]]]),
        ("params", [{"name": "emb.x", "shape": [-1]}]), ("seed", "0"),
        ("config", []), ("schema", {}), ("scene_ids", [1, 2]),
        ("graph", []), ("kind", None)])
    def test_badly_typed_field_names_file(self, tmp_path, tiny_data, field, value):
        path, data, end = _dnn_file(tmp_path, tiny_data)
        header = json.loads(data[16:end])
        header[field] = value
        blob = json.dumps(header).encode("utf-8")
        path.write_bytes(MAGIC + struct.pack(">Q", len(blob)) + blob + data[end:])
        with pytest.raises(ValueError, match="model.bin: "):
            load_model(path)

    @pytest.mark.parametrize("seed", [-1, True, False])
    def test_bad_seed_names_field(self, tmp_path, tiny_data, seed):
        """Before, -1 failed in the random generator and `true` loaded and
        was saved back as `true`."""
        path, data, end = _dnn_file(tmp_path, tiny_data)
        header = json.loads(data[16:end])
        header["seed"] = seed
        blob = json.dumps(header).encode("utf-8")
        path.write_bytes(MAGIC + struct.pack(">Q", len(blob)) + blob + data[end:])
        with pytest.raises(ValueError, match="^.*model.bin: model header field "
                                             "'seed' is (negative|not a JSON integer)$"):
            load_model(path)

    def test_non_string_feature_name_names_file(self, tmp_path, tiny_data):
        result, graph = tiny_data
        out = train(result.train, graph, tiny_train_config(epochs=1))
        path = tmp_path / "model.bin"
        save_model(out.params, path, graph=graph)
        data = path.read_bytes()
        (length,) = struct.unpack(">Q", data[8:16])
        header = json.loads(data[16:16 + length])
        header["schema"][-1]["name"] = None
        blob = json.dumps(header).encode("utf-8")
        path.write_bytes(MAGIC + struct.pack(">Q", len(blob)) + blob
                         + data[16 + length:])
        with pytest.raises(ValueError, match="model.bin: bad model header.*"
                                             "is not a string"):
            load_model(path)

    def test_graph_with_unknown_scenes_names_file_and_scenes(self, tmp_path, tiny_data):
        result, graph = tiny_data
        out = train(result.train, graph, tiny_train_config(epochs=1))
        wider = SceneRelationGraph(
            ["ghost_a", "ghost_b", *graph.scene_ids], graph.layout,
            np.concatenate([graph.categories[:2], graph.categories]),
            key_features=graph.key_features,
            buckets=graph.buckets, boundaries=graph.boundaries,
            cc_threshold=graph.cc_threshold)
        path = tmp_path / "model.bin"
        save_model(out.params, path, graph=wider)
        with pytest.raises(ValueError,
                           match=r"model.bin: the graph has 2 scene\(s\) the model "
                                 r"does not know: 'ghost_a', 'ghost_b'"):
            load_model(path)

    @pytest.mark.parametrize("kinds, forge, match", [
        pytest.param(("swan", "dnn"), lambda h: h["schema"][0].update(vocab=10 ** 12),
                     "shape mismatch for emb", id="vocab"),
        pytest.param(("swan", "dnn"), lambda h: h["config"].update(embed_dim=10 ** 9),
                     "shape mismatch for emb", id="embed_dim"),
        pytest.param(("swan", "dnn"), lambda h: h.update(scene_ids=[]),
                     "shape mismatch for emb", id="scene_ids"),
        pytest.param(("swan", "dnn"),
                     lambda h: h["config"].update(dnn_hidden=[10 ** 9],
                                                  san_hidden=[10 ** 9]),
                     r"shape mismatch for (tower|san)\.layer0\.w", id="hidden"),
        pytest.param(("swan",),
                     lambda h: h["config"].update(n_aeg=10 ** 9, expert_dim=10 ** 9),
                     r"shape mismatch for selector\.prob", id="experts"),
        pytest.param(("swan", "dnn"), lambda h: h["config"].update(embed_dim="8"),
                     "bad model header.*embed_dim", id="string_size"),
        pytest.param(("swan", "dnn"), lambda h: h["config"].update(dnn_hidden=[4.0]),
                     "bad model header.*dnn_hidden", id="float_size")])
    def test_forged_sizes_rejected_before_allocating(self, tmp_path, tiny_data, kinds,
                                                     forge, match):
        """Sizes in the header that the payload does not hold raise a
        ValueError naming the file, not a MemoryError (a 10**12 vocabulary
        would ask for 14.6 TiB)."""
        result, graph = tiny_data
        config = tiny_train_config(epochs=1)
        for kind in kinds:
            out = (train(result.train, graph, config) if kind == "swan"
                   else baseline_dnn(result.train, config))
            path = tmp_path / "model.bin"
            save_model(out.params, path)
            data = path.read_bytes()
            (length,) = struct.unpack(">Q", data[8:16])
            header = json.loads(data[16:16 + length])
            forge(header)
            blob = json.dumps(header).encode("utf-8")
            path.write_bytes(MAGIC + struct.pack(">Q", len(blob)) + blob
                             + data[16 + length:])
            with pytest.raises(ValueError, match="model.bin: " + match):
                load_model(path)

    def test_param_shapes_are_those_init_makes(self, tiny_data):
        result, _ = tiny_data
        ids = sorted({ex.scene_id for ex in result.train})
        for config in (tiny_train_config().model, ModelConfig(n_aeg=1, n_seg=3),
                       ModelConfig(san_hidden=(), expert_hidden=(5, 4, 3),
                                   final_hidden=(2,), dnn_hidden=())):
            for kind in ("swan", "dnn"):
                params = init_params(kind, result.schema, ids, config)
                assert param_shapes(kind, result.schema, ids, config) == [
                    (name, t.shape) for name, t in params.named_parameters()]


# JSON values; integers stay small, so that no fuzzed size allocates much.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(-1e3, 1e3)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10)


def _replace_at(obj, data):
    """A copy of `obj` with one value somewhere inside replaced by fuzz."""
    if isinstance(obj, dict) and obj and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(sorted(obj)))
        return {**obj, key: _replace_at(obj[key], data)}
    if isinstance(obj, list) and obj and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(obj) - 1))
        return obj[:i] + [_replace_at(obj[i], data)] + obj[i + 1:]
    return data.draw(_JSON)


class TestLoaderFuzz:
    """load_model raises only ValueError, whatever follows the magic."""

    @pytest.fixture(scope="class")
    def model_file(self, tmp_path_factory, tiny_data):
        result, graph = tiny_data
        out = train(result.train, graph, tiny_train_config(epochs=1))
        path = tmp_path_factory.mktemp("fuzz") / "model.bin"
        save_model(out.params, path, graph=graph)
        data = path.read_bytes()
        (length,) = struct.unpack(">Q", data[8:16])
        return path, json.loads(data[16:16 + length]), data[16 + length:]

    @staticmethod
    def _load(path, header, payload: bytes):
        blob = json.dumps(header).encode("utf-8", "surrogatepass")
        path.write_bytes(MAGIC + struct.pack(">Q", len(blob)) + blob + payload)
        try:
            load_model(path)
        except ValueError:
            pass

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_value_replaced(self, model_file, data):
        path, header, payload = model_file
        key = data.draw(st.sampled_from(sorted(header)))
        self._load(path, {**header, key: _replace_at(header[key], data)}, payload)

    @given(header=_JSON, payload=st.binary(max_size=32))
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_header(self, model_file, header, payload):
        self._load(model_file[0], header, payload)

    @given(st.binary(max_size=200))
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_bytes_after_magic(self, model_file, tail):
        path = model_file[0]
        path.write_bytes(MAGIC + tail)
        try:
            load_model(path)
        except ValueError:
            pass
