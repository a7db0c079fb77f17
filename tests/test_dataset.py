"""Tests of `features.Dataset`: a sequence of Examples held as columns,
and the same results whether a call reads its columns or its rows."""

import hashlib
import json

import numpy as np
import pytest

from conftest import tiny_gen_config, tiny_train_config
from swan.datagen import generate
from swan.features import (Dataset, Example, Feature, FeatureSchema,
                           ParseError, SchemaError, as_dataset, click_labels,
                           encode_columns, load_dataset, scene_codes,
                           write_dataset)
from swan.metrics import evaluate
from swan.model import encode_batch
from swan.serialize import save_model
from swan.srg import build_srg, save_graph
from swan.training import train


@pytest.fixture(scope="module")
def generated():
    return generate(tiny_gen_config())


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestSequence:
    def test_length_indices_and_iteration(self, generated):
        ds = generated.train
        n = len(ds)
        assert n == 6 * 60
        rows = list(ds)
        assert len(rows) == n
        assert rows == [ds[i] for i in range(n)]
        assert ds[-1] == rows[-1] and ds[-n] == rows[0]
        assert ds[np.int64(7)] == rows[7]
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                ds[bad]

    @pytest.mark.parametrize("window", [slice(5, 130), slice(None, None, -7),
                                        slice(200, 10, -3), slice(50, 50)])
    def test_slices_are_datasets_with_the_schema(self, generated, window):
        ds = generated.train
        part = ds[window]
        assert isinstance(part, Dataset)
        assert part.schema is ds.schema
        assert list(part) == list(ds)[window]
        if len(part):
            ids, codes = scene_codes(part)
            assert ids == sorted({ex.scene_id for ex in part})
            assert [ids[c] for c in codes] == [ex.scene_id for ex in part]

    def test_rows_hold_plain_values_in_schema_order(self, generated):
        schema = generated.schema
        for ex in generated.train[:40]:
            assert list(ex.user) == [f.name for f in schema.user_features]
            assert list(ex.item) == [f.name for f in schema
                                     if f.group != "user"]
            for f in schema:
                value = (ex.user if f.group == "user" else ex.item)[f.name]
                assert type(value) is (float if f.kind == "numeric" else int)
            assert type(ex.label) is int and type(ex.scene_id) is str

    def test_returned_rows_are_copies(self, generated):
        ds = generated.train
        before = list(ds)
        row = ds[3]
        row.user["user_f0"] = "changed"
        row.item.clear()
        row.label = 7
        row.scene_id = "elsewhere"
        for ex in ds:
            ex.user.clear()
        assert list(ds) == before
        assert ds[3] == before[3]

    def test_built_from_examples(self, generated):
        rows = list(generated.test)
        ds = Dataset(rows, schema=generated.schema)
        assert list(ds) == rows
        assert Dataset().schema is None and len(Dataset()) == 0
        with pytest.raises(ValueError, match="needs their feature schema"):
            Dataset(rows)

    def test_rows_must_hold_exactly_the_schema(self, generated):
        rows = list(generated.test[:10])
        rows[4] = Example(dict(rows[4].user), {**rows[4].item, "extra": 1},
                          rows[4].scene_id, rows[4].label)
        with pytest.raises(SchemaError, match=rf"^example 4 \(scene "
                           rf"'{rows[4].scene_id}'\): unknown feature name 'extra'$"):
            Dataset(rows, schema=generated.schema)
        del rows[4].item["extra"]
        del rows[4].item["item_f1"]
        with pytest.raises(SchemaError, match=r"^example 4 .*: example is missing "
                                              r"feature 'item_f1'$"):
            Dataset(rows, schema=generated.schema)


class TestLoadOddValues:
    SCHEMA = FeatureSchema([
        Feature("city", "categorical", "user", vocab=3),
        Feature("price", "numeric", "item", boundaries=(10.0, 20.0)),
        Feature("brand", "categorical", "item", vocab=4)])

    def _write(self, path):
        rows = [Example({"city": 1}, {"price": 15.0, "brand": 2}, "s1", 1),
                Example({"city": "paris"}, {"price": 3, "brand": True}, "s2", 0),
                Example({"city": 2 ** 70}, {"price": 2 ** 70, "brand": 3}, "s1", 0),
                Example({"city": False}, {"price": 25.5, "brand": "x"}, "s2", 1)]
        write_dataset(rows, path)
        return rows

    def test_values_kept_and_file_round_trips(self, tmp_path):
        path = tmp_path / "odd.jsonl"
        rows = self._write(path)
        loaded = load_dataset(path, self.SCHEMA)
        assert loaded.oov_count == 5
        assert list(loaded) == rows
        for got, want in zip(loaded, rows):
            for name, value in {**want.user, **want.item}.items():
                assert type({**got.user, **got.item}[name]) is type(value)
        codes = encode_columns(loaded, self.SCHEMA)
        assert codes["city"].tolist() == [1, 3, 3, 3]
        assert codes["brand"].tolist() == [2, 4, 3, 4]
        assert codes["price"].tolist() == [1, 0, 2, 2]
        again = tmp_path / "again.jsonl"
        write_dataset(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_encoding_errors_name_row_and_scene(self, tmp_path):
        path = tmp_path / "odd.jsonl"
        self._write(path)
        loaded = load_dataset(path, self.SCHEMA)
        as_numeric = FeatureSchema([Feature("brand", "numeric", "item",
                                            boundaries=(1.0,))])
        with pytest.raises(SchemaError, match=r"^example 1 \(scene 's2'\): "
                                              r"numeric feature 'brand': boolean"):
            encode_columns(loaded, as_numeric)
        with pytest.raises(SchemaError, match=r"^example 0 \(scene 's1'\): example "
                                              r"is missing feature 'size'$"):
            encode_columns(loaded, [Feature("size", "categorical", "item", vocab=2)])

    def test_load_errors_name_file_and_line(self, tmp_path):
        path = tmp_path / "odd.jsonl"
        self._write(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"user": {"city": 1}, "item": {"brand": 1},
                                 "scene_id": "s3", "label": 0}) + "\n")
            fh.write(json.dumps({"user": {"city": 1},
                                 "item": {"brand": 1, "price": "cheap"},
                                 "scene_id": "s3", "label": 0}) + "\n")
        with pytest.raises(SchemaError, match=r"odd\.jsonl:5: example is missing "
                                              r"feature 'price'"):
            load_dataset(path, self.SCHEMA)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:4] + lines[5:]) + "\n")
        with pytest.raises(ParseError, match=r"odd\.jsonl:5: numeric feature "
                                             r"'price': not a number"):
            load_dataset(path, self.SCHEMA)


def test_columns_and_rows_give_identical_results(generated, tmp_path):
    """Every result read from a Dataset's columns equals the one read from
    list(dataset) rows: codes, scene codes, labels, graph.json, model.bin
    and report.json bytes."""
    schema = generated.schema
    outputs = {}
    for form in ("columns", "rows"):
        train_set, test_set = generated.train, generated.test
        if form == "rows":
            train_set, test_set = list(train_set), list(test_set)
        columns = as_dataset(train_set, schema)
        idx, scene_ids, codes = encode_batch(columns, schema)
        graph = build_srg(train_set, schema, cc_threshold=0.05, buckets=4)
        params = train(train_set, graph, tiny_train_config(epochs=1),
                       schema=schema).params
        report = evaluate(params, graph, test_set)
        out = tmp_path / form
        out.mkdir()
        save_graph(graph, out / "graph.json")
        save_model(params, out / "model.bin", graph)
        report.save(out / "report.json")
        outputs[form] = (
            {name: c.tolist() for name, c in idx.items()}, scene_ids,
            codes.tolist(), click_labels(columns).tolist(),
            [_sha256(out / name) for name in ("graph.json", "model.bin",
                                               "report.json")])
    assert outputs["columns"] == outputs["rows"]
