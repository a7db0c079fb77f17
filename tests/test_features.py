"""Tests for schema handling, dataset IO and embedding lookups."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swan import autodiff as ad
from swan.autodiff import Tensor, backward
from swan.features import (ConfigError, EmbeddingSet, Example, Feature,
                           FeatureSchema, ParseError, SchemaError,
                           embed_indices, encode_columns,
                           fit_numeric_boundaries, load_dataset, write_dataset)
from swan.model import encode_batch


@pytest.fixture
def schema():
    return FeatureSchema([
        Feature("age_band", "categorical", "user", vocab=5),
        Feature("city", "categorical", "user", vocab=3),
        Feature("price", "numeric", "item", boundaries=(10.0, 20.0)),
        Feature("brand", "categorical", "item", vocab=4),
        Feature("theme", "categorical", "scene", vocab=3),
        Feature("hour", "categorical", "other", vocab=24),
    ])


def _example(scene="s1", label=1, **overrides):
    ex = Example(user={"age_band": 2, "city": 1},
                 item={"price": 15.0, "brand": 3, "theme": 0, "hour": 7},
                 scene_id=scene, label=label)
    ex.user.update(overrides.get("user", {}))
    ex.item.update(overrides.get("item", {}))
    return ex


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            FeatureSchema([Feature("x", "categorical", "user", vocab=2),
                           Feature("x", "numeric", "item", boundaries=(1.0,))])

    @pytest.mark.parametrize("name", [None, 3, ["x"]])
    def test_non_string_name_rejected(self, name):
        with pytest.raises(SchemaError, match="is not a string"):
            Feature(name, "categorical", "user", vocab=2)
        with pytest.raises(SchemaError, match="is not a string"):
            FeatureSchema.from_json([{"name": name, "kind": "categorical",
                                      "group": "scene", "vocab": 2}])

    @pytest.mark.parametrize("entry, missing", [
        ({"kind": "categorical", "group": "item", "vocab": 3}, "'name'"),
        ({"name": "x", "group": "item", "vocab": 3}, "'kind'"),
        ({"name": "x", "kind": "categorical", "vocab": 3}, "'group'"),
        ({"vocab": 3}, "'name', 'kind', 'group'")])
    def test_entry_missing_key_named(self, entry, missing):
        with pytest.raises(SchemaError) as info:
            FeatureSchema.from_json([entry])
        assert missing in str(info.value)
        assert repr(entry) in str(info.value)

    def test_unknown_kind_and_group(self):
        with pytest.raises(SchemaError):
            Feature("x", "ordinal", "user", vocab=2)
        with pytest.raises(SchemaError):
            Feature("x", "categorical", "context", vocab=2)

    def test_categorical_encode_and_oov(self, schema):
        feat = schema["brand"]
        assert feat.encode(3) == 3
        assert feat.encode(4) == feat.oov_index
        assert feat.encode(-1) == feat.oov_index

    def test_numeric_encode_buckets(self, schema):
        feat = schema["price"]
        assert feat.encode(5.0) == 0
        assert feat.encode(10.0) == 1  # boundary goes to the upper bucket
        assert feat.encode(15.0) == 1
        assert feat.encode(25.0) == 2

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_numeric_encode_rejects_non_finite(self, schema, value):
        with pytest.raises(SchemaError, match="price.*non-finite"):
            schema["price"].encode(value)

    @pytest.mark.parametrize("value", [True, False])
    def test_numeric_encode_rejects_bool(self, schema, value):
        with pytest.raises(SchemaError, match="price.*boolean"):
            schema["price"].encode(value)

    @pytest.mark.parametrize("value", [True, False, float("nan"),
                                       float("inf")])
    def test_categorical_bool_and_non_finite_are_oov(self, schema, value):
        feat = schema["brand"]
        assert feat.encode(value) == feat.oov_index
        assert feat.is_oov(value)

    @pytest.mark.parametrize("value", [float("nan"), float("-inf")])
    def test_fit_numeric_boundaries_rejects_non_finite(self, value):
        sch = FeatureSchema([Feature("v", "numeric", "item")])
        examples = [Example(user={}, item={"v": float(i)}, scene_id="s", label=0)
                    for i in range(10)]
        examples[4].item["v"] = value
        with pytest.raises(SchemaError, match="'v'.*non-finite"):
            fit_numeric_boundaries(examples, sch, buckets=4)

    def test_fit_numeric_boundaries_rejects_bool(self):
        sch = FeatureSchema([Feature("v", "numeric", "item")])
        examples = [Example(user={}, item={"v": float(i)}, scene_id="s", label=0)
                    for i in range(10)]
        examples[4].item["v"] = True
        with pytest.raises(SchemaError, match="'v'.*boolean"):
            fit_numeric_boundaries(examples, sch, buckets=4)

    def test_json_round_trip(self, schema):
        again = FeatureSchema.from_json(json.loads(json.dumps(schema.to_json())))
        assert [f.name for f in again] == [f.name for f in schema]
        assert again["price"].boundaries == schema["price"].boundaries

    def test_fit_numeric_boundaries_equal_frequency(self):
        sch = FeatureSchema([Feature("v", "numeric", "item")])
        examples = [Example(user={}, item={"v": float(i)}, scene_id="s", label=0)
                    for i in range(1, 11)]
        fitted = fit_numeric_boundaries(examples, sch, buckets=5)
        codes = [fitted["v"].encode(float(i)) for i in range(1, 11)]
        assert sorted(set(codes)) == [0, 1, 2, 3, 4]


class TestDatasetIO:
    def test_round_trip(self, tmp_path, schema):
        path = tmp_path / "data.jsonl"
        examples = [_example(), _example(scene="s2", label=0), _example(label=0)]
        write_dataset(examples, path)
        loaded = load_dataset(path, schema)
        assert len(loaded) == 3
        assert loaded[1].scene_id == "s2"
        assert [ex.label for ex in loaded] == [1, 0, 0]
        # Byte-for-byte stable on rewrite.
        path2 = tmp_path / "again.jsonl"
        write_dataset(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_label_names_line(self, tmp_path, schema):
        path = tmp_path / "data.jsonl"
        write_dataset([_example()], path)
        with open(path, "a") as fh:
            rec = {"user": {"age_band": 1, "city": 0},
                   "item": {"price": 1.0, "brand": 0, "theme": 0, "hour": 0},
                   "scene_id": "s9", "label": 2}
            fh.write(json.dumps(rec) + "\n")
        with pytest.raises(ParseError, match=":2:"):
            load_dataset(path, schema)

    def test_malformed_json_names_position(self, tmp_path, schema):
        path = tmp_path / "data.jsonl"
        path.write_text('{"user": {notjson}}\n')
        with pytest.raises(ParseError, match="data.jsonl:1:"):
            load_dataset(path, schema)

    def test_unknown_feature_name_is_schema_error(self, tmp_path, schema):
        path = tmp_path / "data.jsonl"
        ex = _example()
        ex.item["mystery"] = 1
        write_dataset([ex], path)
        with pytest.raises(SchemaError, match="mystery"):
            load_dataset(path, schema)

    def test_missing_feature_is_schema_error(self, tmp_path, schema):
        path = tmp_path / "data.jsonl"
        ex = _example()
        del ex.item["brand"]
        write_dataset([ex], path)
        with pytest.raises(SchemaError, match="brand"):
            load_dataset(path, schema)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_numeric_names_line_and_feature(self, tmp_path, schema,
                                                       token):
        path = tmp_path / "data.jsonl"
        write_dataset([_example()], path)
        line = json.dumps(_example(item={"price": 0.0}).__dict__)
        with open(path, "a") as fh:
            fh.write(line.replace('"price": 0.0', f'"price": {token}') + "\n")
        with pytest.raises(ParseError, match=r"data\.jsonl:2: .*'price'"):
            load_dataset(path, schema)

    def test_bool_numeric_names_line_and_feature(self, tmp_path, schema):
        path = tmp_path / "data.jsonl"
        write_dataset([_example(item={"price": True})], path)
        with pytest.raises(ParseError, match=r"data\.jsonl:1: .*'price'"):
            load_dataset(path, schema)

    def test_bool_categoricals_counted_as_oov(self, tmp_path, schema):
        path = tmp_path / "data.jsonl"
        write_dataset([_example(user={"city": True}),
                       _example(item={"brand": False, "hour": True})], path)
        loaded = load_dataset(path, schema)
        assert loaded.oov_count == 3
        enc = encode_columns([loaded[1]], schema)
        assert enc["brand"][0] == schema["brand"].oov_index
        assert enc["hour"][0] == schema["hour"].oov_index

    def test_oov_counted(self, tmp_path, schema):
        path = tmp_path / "data.jsonl"
        write_dataset([_example(), _example(item={"brand": 9})], path)
        loaded = load_dataset(path, schema)
        assert len(loaded) == 2
        assert loaded.oov_count == 1


_FUZZ_SCHEMA = FeatureSchema([
    Feature("age_band", "categorical", "user", vocab=5),
    Feature("price", "numeric", "item", boundaries=(10.0, 20.0)),
    Feature("theme", "categorical", "scene", vocab=3),
])
# JSON values, numbers beyond float range and non-ASCII text included.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 400, 10 ** 400)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8)
_FEATURE_VALUES = st.dictionaries(
    st.sampled_from(["age_band", "price", "theme", "other"]), _JSON, max_size=4)
# Records close to valid ones, so that the checks past JSON parsing run too.
_RECORDS = st.fixed_dictionaries(
    {"user": _FEATURE_VALUES | _JSON, "item": _FEATURE_VALUES | _JSON,
     "scene_id": _JSON, "label": st.sampled_from([0, 1]) | _JSON},
    optional={"extra": _JSON})


class TestDatasetFuzz:
    """load_dataset raises only ParseError or SchemaError, whatever the file holds."""

    def _load(self, tmp_path_factory, data: bytes):
        path = tmp_path_factory.mktemp("fuzz") / "data.jsonl"
        path.write_bytes(data)
        try:
            load_dataset(str(path), _FUZZ_SCHEMA)
        except (ParseError, SchemaError):
            pass

    @given(st.lists(st.text(), max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_text_lines(self, tmp_path_factory, lines):
        self._load(tmp_path_factory, "\n".join(lines).encode("utf-8", "surrogatepass"))

    @given(st.binary(max_size=64))
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_bytes(self, tmp_path_factory, data):
        self._load(tmp_path_factory, data)

    @given(st.lists(_RECORDS, min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_near_valid_records(self, tmp_path_factory, records):
        self._load(tmp_path_factory, "\n".join(
            json.dumps(r) for r in records).encode("utf-8", "surrogatepass"))

    def test_invalid_utf8_names_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_bytes(b"\n\xff\xfe\n")
        with pytest.raises(ParseError, match=r"data.jsonl:2:1: not valid UTF-8"):
            load_dataset(str(path), _FUZZ_SCHEMA)

    def test_integer_past_the_digit_limit_names_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"label": ' + "9" * 5000 + "}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"data.jsonl:1: "):
            load_dataset(str(path), _FUZZ_SCHEMA)

    def test_numeric_beyond_float_range_names_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_dataset([Example(user={"age_band": 1},
                               item={"price": 10 ** 400, "theme": 0},
                               scene_id="s", label=0)], str(path))
        with pytest.raises(ParseError, match=r"data.jsonl:1: numeric feature 'price'"):
            load_dataset(str(path), _FUZZ_SCHEMA)


def _embed_one(example, tables, schema):
    """Embeddings of the one-row encoded batch holding `example`."""
    idx, scene_idx = encode_batch([example], schema, tables)
    return embed_indices(idx, scene_idx, tables, schema)


def _block(table, tables, feat):
    """Feature `feat`'s rows of an array laid out like `tables.table`."""
    lo = tables.offsets[feat.name]
    return table[lo:lo + feat.num_indices]


class TestEmbedding:
    def test_user_width_forced_by_schema(self):
        sch = FeatureSchema([Feature("u", "categorical", "user", vocab=3)])
        rng = np.random.default_rng(0)
        tables = EmbeddingSet.create(rng, sch, ["s1"], dim=4)
        ex = Example(user={"u": 1}, item={}, scene_id="s1", label=0)
        bundle = _embed_one(ex, tables, sch)
        assert bundle.e_user.shape == (1, 4)

    def test_group_separation(self, schema):
        rng = np.random.default_rng(1)
        tables = EmbeddingSet.create(rng, schema, ["s1"], dim=4)
        a = _example()
        b = _example(item={"brand": 1, "price": 2.0})
        ea = _embed_one(a, tables, schema)
        eb = _embed_one(b, tables, schema)
        np.testing.assert_array_equal(ea.e_user.data, eb.e_user.data)
        assert not np.array_equal(ea.e_other.data, eb.e_other.data)

    def test_unseen_scene_uses_oov_id_row_but_same_attr(self, schema):
        rng = np.random.default_rng(2)
        tables = EmbeddingSet.create(rng, schema, ["s1", "s2"], dim=4)
        known = _embed_one(_example(scene="s1"), tables, schema)
        cold = _embed_one(_example(scene="never_seen"), tables, schema)
        table = tables.table.data
        attr = _block(table, tables, schema["theme"])[0]
        assert not np.array_equal(known.e_target.data, cold.e_target.data)
        # The same scene-attribute row in both, plus each one's id row.
        np.testing.assert_array_equal(known.e_target.data[0],
                                      attr + table[tables.scene_offset])
        np.testing.assert_array_equal(cold.e_target.data[0], attr + table[-1])

    def test_embed_is_pure(self, schema):
        rng = np.random.default_rng(3)
        tables = EmbeddingSet.create(rng, schema, ["s1"], dim=8)
        one = _embed_one(_example(), tables, schema)
        two = _embed_one(_example(), tables, schema)
        for a, b in ((one.e_user, two.e_user), (one.e_other, two.e_other),
                     (one.e_target, two.e_target)):
            assert np.array_equal(a.data, b.data)

    def test_gradient_only_in_looked_up_rows(self, schema):
        rng = np.random.default_rng(4)
        tables = EmbeddingSet.create(rng, schema, ["s1"], dim=4)
        ex = _example()
        bundle = _embed_one(ex, tables, schema)
        loss = ad.sum_all(ad.concat([bundle.e_user, bundle.e_target,
                                     bundle.e_other]))
        backward(loss)
        enc = encode_columns([ex], schema)
        for feat in schema:
            grad = _block(tables.table.grad, tables, feat)
            visited = enc[feat.name][0]
            for row in range(grad.shape[0]):
                if row == visited:
                    assert np.abs(grad[row]).sum() > 0
                else:
                    np.testing.assert_array_equal(grad[row], 0.0)

    def test_missing_table_is_config_error(self, schema):
        rng = np.random.default_rng(5)
        tables = EmbeddingSet.create(rng, schema, ["s1"], dim=4)
        del tables.offsets["brand"]
        with pytest.raises(ConfigError, match="brand"):
            _embed_one(_example(), tables, schema)

    def test_concat_order_follows_schema_order(self):
        rng = np.random.default_rng(6)
        f1 = Feature("a", "categorical", "user", vocab=3)
        f2 = Feature("b", "categorical", "user", vocab=3)
        sch12 = FeatureSchema([f1, f2])
        sch21 = FeatureSchema([f2, f1])
        tables = EmbeddingSet.create(rng, sch12, ["s"], dim=4)
        ex = Example(user={"a": 1, "b": 2}, item={}, scene_id="s", label=0)
        e12 = _embed_one(ex, tables, sch12).e_user.data[0]
        # The same rows, laid out in sch21's order.
        table = tables.table.data
        table21 = np.concatenate([_block(table, tables, f2), _block(table, tables, f1),
                                  table[tables.scene_offset:]])
        tables21 = EmbeddingSet(sch21, Tensor(table21), tables.scene_vocab)
        e21 = _embed_one(ex, tables21, sch21).e_user.data[0]
        np.testing.assert_array_equal(e12[:4], e21[4:])
        np.testing.assert_array_equal(e12[4:], e21[:4])
