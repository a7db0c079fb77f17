"""Tests for the binary model format."""

import json
import struct

import numpy as np
import pytest

from conftest import tiny_train_config
from swan.model import predict_scores
from swan.serialize import MAGIC, load_model, save_model
from swan.training import baseline_dnn, train


class TestModelFile:
    def test_magic_header(self, tmp_path, tiny_data):
        result, graph = tiny_data
        out = train(result.train, graph, tiny_train_config(epochs=1))
        path = tmp_path / "model.bin"
        save_model(out.params, path, graph=graph)
        assert path.read_bytes()[:8] == MAGIC
        assert MAGIC == b"SWANMDL2"

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


def _dnn_file(tmp_path, tiny_data):
    out = baseline_dnn(tiny_data[0].train, tiny_train_config(epochs=1))
    path = tmp_path / "model.bin"
    save_model(out.params, path)
    data = path.read_bytes()
    (length,) = struct.unpack(">Q", data[8:16])
    return path, data, 16 + length


class TestMalformedFile:
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
