"""Tests for schema handling, dataset IO and embedding lookups."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import encoded, tiny_model_config, tiny_train_config
from swan import autodiff as ad
from swan.autodiff import Tensor, backward
from swan.features import (ConfigError, EmbeddingSet, Example, Feature,
                           FeatureSchema, ParseError, SchemaError,
                           embed_indices, encode_columns,
                           fit_numeric_boundaries, load_dataset, write_dataset,
                           write_json)
from swan.metrics import evaluate
from swan.model import init_params, predict_scores
from swan.srg import build_srg
from swan.training import train


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

    @pytest.mark.parametrize("vocab", [3.5, 3.0, True, "3"])
    def test_non_integer_vocab_rejected(self, vocab):
        """A float vocabulary would hand out a float OOV index, which an
        int64 code array truncates onto a valid code."""
        with pytest.raises(SchemaError, match="'x'.*is not an integer"):
            Feature("x", "categorical", "user", vocab=vocab)
        with pytest.raises(SchemaError, match="'x'.*is not an integer"):
            FeatureSchema.from_json([{"name": "x", "kind": "categorical",
                                      "group": "scene", "vocab": vocab}])

    @pytest.mark.parametrize("boundaries", [[False, True], [0.5, True]])
    def test_non_number_boundaries_rejected(self, boundaries):
        """A boolean edge is no number, as a boolean value is none."""
        with pytest.raises(SchemaError, match="'x'.*are not a list of numbers"):
            FeatureSchema.from_json([{"name": "x", "kind": "numeric",
                                      "group": "item", "boundaries": boundaries}])

    @pytest.mark.parametrize("vocab", [None, 0, -2, False])
    def test_missing_vocab_rejected(self, vocab):
        with pytest.raises(SchemaError, match="'x' needs a vocabulary size"):
            Feature("x", "categorical", "user", vocab=vocab)

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

    def test_write_json_format(self, tmp_path):
        """Every JSON file swan writes: one-space indent, keys sorted at
        every depth, ASCII escapes and a final newline."""
        obj = {"b": {"z": 1, "a": [3, {"y": 2.5, "x": None}]}, "a": "caf\u00e9"}
        path = tmp_path / "out.json"
        write_json(path, obj)
        assert path.read_bytes() == (json.dumps(obj, indent=1, sort_keys=True)
                                     + "\n").encode("utf-8")

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

    @pytest.mark.parametrize("scene_id", [None, True, 5, 5.0, [1, 2], {"a": 1}])
    def test_non_string_scene_id_names_line(self, tmp_path, schema, scene_id):
        """Before, any scene_id was made a string: null became scene "None",
        and 5 and 5.0 became two scenes."""
        path = tmp_path / "data.jsonl"
        write_dataset([_example()], path)
        rec = json.loads(path.read_text().splitlines()[0])
        with open(path, "a") as fh:
            fh.write(json.dumps({**rec, "scene_id": scene_id}) + "\n")
        with pytest.raises(ParseError, match=r"data.jsonl:2: scene_id must be a "
                                             r"string, got "):
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
        write_dataset([_example(), ex], path)
        with pytest.raises(SchemaError, match=r"data\.jsonl:2: example is missing "
                                              r"feature 'brand'"):
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


_MISSING = object()
# Raw values of every kind a column may hold: in- and out-of-vocabulary
# ints, booleans, integral and other floats, NaN and ±inf, -0.0, strings,
# None, numpy scalars, ints past int64 and past the float range.
_RAW = (st.integers(-3, 12) | st.booleans() | st.integers(-3, 12).map(float)
        | st.floats(allow_nan=True, allow_infinity=True) | st.just(-0.0)
        | st.text(max_size=2) | st.none() | st.integers(-3, 12).map(np.int64)
        | st.floats(-20, 20).map(np.float64) | st.sampled_from(
            [2 ** 63 - 1, 2 ** 63, -2 ** 63 - 1, 2 ** 64, 10 ** 400, -10 ** 400]))
# Columns mostly of one type, so that the one-pass path runs too, and
# sometimes with a row that lacks the feature.
_COLUMN = st.sampled_from([
    st.integers(-3, 12), st.integers(-3, 12) | st.booleans(),
    st.integers(-2 ** 70, 2 ** 70), st.integers(-30, 30) | st.just(10 ** 400),
    st.floats(-30, 30) | st.integers(-30, 30) | st.just(-0.0),
    st.floats(-30, 30) | st.floats(allow_nan=True, allow_infinity=True), _RAW,
]).flatmap(lambda values: st.lists(values | st.just(_MISSING) if values is _RAW
                                   else values, max_size=12))


def _row_value(i, ex, f, convert):
    """`convert` of example i's value of `f`; a SchemaError names the row."""
    source = ex.user if f.group == "user" else ex.item
    try:
        if f.name not in source:
            raise SchemaError(f"example is missing feature {f.name!r}")
        return convert(source[f.name])
    except SchemaError as e:
        raise SchemaError(f"example {i} (scene {ex.scene_id!r}): {e}") from None


def _per_value(examples, features):
    """encode_columns' reference: Feature.encode per value, feature by
    feature, row by row."""
    out = {}
    for f in features:
        codes = [_row_value(i, ex, f, f.encode) for i, ex in enumerate(examples)]
        out[f.name] = np.array(codes, dtype=np.int64)
    return out


def _outcome(fn, *args):
    try:
        return "codes", fn(*args)
    except Exception as e:
        return "error", (type(e), str(e))


class TestEncodeColumns:
    @given(vocab=st.integers(1, 10),
           boundaries=st.lists(st.floats(-25, 25) | st.just(0.0) | st.just(-0.0),
                               max_size=4).map(sorted),
           cat=_COLUMN, num=_COLUMN, numeric_first=st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_equals_per_value_encode(self, vocab, boundaries, cat, num, numeric_first):
        """Same codes and dtype, or the same first error, as Feature.encode
        value by value; empty boundaries (one bucket) and zero rows included."""
        n = min(len(cat), len(num))
        examples = [Example(user={} if c is _MISSING else {"c": c},
                            item={} if x is _MISSING else {"x": x},
                            scene_id="s", label=0)
                    for c, x in zip(cat[:n], num[:n])]
        features = [Feature("c", "categorical", "user", vocab=vocab),
                    Feature("x", "numeric", "item", boundaries=tuple(boundaries))]
        if numeric_first:
            features.reverse()
        got, want = (_outcome(encode_columns, examples, features),
                     _outcome(_per_value, examples, features))
        assert got[0] == want[0], (got, want)
        if got[0] == "error":
            assert got[1] == want[1]
        else:
            assert list(got[1]) == list(want[1])
            for name, codes in want[1].items():
                assert got[1][name].dtype == np.int64
                np.testing.assert_array_equal(got[1][name], codes)

    @given(boundaries=st.lists(st.floats(-25, 25), max_size=3))
    @example(boundaries=[3.0, 1.0, 2.0])
    @settings(max_examples=200, deadline=None)
    def test_unsorted_boundaries_rejected(self, boundaries):
        """The unsorted lists among what the strategy above once drew do
        not build a feature, here or from schema.json; the sorted ones do."""
        entry = {"name": "x", "kind": "numeric", "group": "item",
                 "boundaries": boundaries}
        if boundaries == sorted(boundaries):
            assert FeatureSchema.from_json([entry])["x"].boundaries == tuple(boundaries)
            return
        with pytest.raises(SchemaError, match="numeric feature 'x': bucket boundaries"):
            Feature("x", "numeric", "item", boundaries=tuple(boundaries))
        with pytest.raises(SchemaError, match="numeric feature 'x'"):
            FeatureSchema.from_json([entry])

    @pytest.mark.parametrize("boundaries, ok", [
        ([float("nan"), 1.0], False), ([1.0, float("nan")], False),
        ([float("inf")], False), ([-float("inf"), 0.0], False),
        ([0.0, -0.0, 0.0], True), ([1.0, 1.0, 2.0], True), ([], True)])
    def test_boundaries_finite_and_non_decreasing(self, boundaries, ok):
        if ok:
            edges = Feature("x", "numeric", "item", boundaries=boundaries).boundaries
            assert [repr(b) for b in edges] == [repr(b) for b in boundaries]
        else:
            with pytest.raises(SchemaError, match="'x'.*not finite and sorted"):
                Feature("x", "numeric", "item", boundaries=boundaries)

    def test_one_pass_without_encode(self, monkeypatch):
        """All-int categorical and all-number numeric columns never reach
        Feature.encode."""
        def fail(self, value):
            raise AssertionError(f"Feature.encode({value!r}) called")
        monkeypatch.setattr(Feature, "encode", fail)
        features = [Feature("c", "categorical", "user", vocab=4),
                    Feature("x", "numeric", "item", boundaries=(-1.0, 0.0, 2.5)),
                    Feature("y", "numeric", "item", boundaries=(0.0,)),
                    Feature("z", "numeric", "item", boundaries=())]
        rows = [(0, -3.0, 1, 7.5), (3, -0.0, -1, -2.0), (4, 2.5, 0, 0.0),
                (-1, 9.0, 5, 1e300), (2 ** 62, -1.0, 2 ** 62, -1e-300)]
        examples = [Example(user={"c": c}, item={"x": x, "y": y, "z": z},
                            scene_id="s", label=0) for c, x, y, z in rows]
        codes = encode_columns(examples, features)
        assert {name: c.tolist() for name, c in codes.items()} == {
            "c": [0, 3, 4, 4, 4], "x": [0, 2, 3, 3, 1], "y": [1, 0, 1, 1, 1],
            "z": [0, 0, 0, 0, 0]}
        assert all(c.dtype == np.int64 for c in codes.values())
        assert {n: c.tolist() for n, c in encode_columns([], features).items()} == {
            "c": [], "x": [], "y": [], "z": []}


def _fit_per_value(examples, schema, buckets):
    """fit_numeric_boundaries' reference: Feature.number per value,
    feature by feature, row by row."""
    fitted = []
    for feat in schema:
        if feat.kind != "numeric" or feat.boundaries is not None:
            fitted.append(feat)
            continue
        values = np.array([_row_value(i, ex, feat, feat.number)
                           for i, ex in enumerate(examples)])
        if values.size == 0:
            raise ValueError(f"no values to fit boundaries for {feat.name!r}")
        qs = np.quantile(values, np.arange(1, buckets) / buckets)
        fitted.append(Feature(feat.name, feat.kind, feat.group,
                              boundaries=tuple(np.unique(qs))))
    return FeatureSchema(fitted)


class TestFitNumericBoundaries:
    @given(x=_COLUMN, y=_COLUMN, buckets=st.integers(1, 6))
    @example(x=[1.0, 2, float("nan")], y=[0.5] * 3, buckets=2)
    @example(x=[1.0, 2.0, 3.0], y=[1, float("-inf"), 0], buckets=3)
    @example(x=[1e308, 1e308, -1.0], y=[0.5] * 3, buckets=2)
    @example(x=[0.5] * 2, y=[10 ** 400, -10 ** 400], buckets=2)
    @example(x=[3, True, 1], y=[0.5] * 3, buckets=2)
    @settings(max_examples=400, deadline=None)
    def test_equals_per_value_fit(self, x, y, buckets):
        """The same boundaries, -0.0 and value types included, or the same
        first error, as Feature.number value by value; zero rows included."""
        n = min(len(x), len(y))
        examples = [Example(user={} if a is _MISSING else {"x": a},
                            item={} if b is _MISSING else {"y": b},
                            scene_id="s", label=0)
                    for a, b in zip(x[:n], y[:n])]
        schema = FeatureSchema([Feature("x", "numeric", "user"),
                                Feature("c", "categorical", "item", vocab=3),
                                Feature("y", "numeric", "item")])
        got, want = (_outcome(fit_numeric_boundaries, examples, schema, buckets),
                     _outcome(_fit_per_value, examples, schema, buckets))
        assert got[0] == want[0], (got, want)
        if got[0] == "error":
            assert got[1] == want[1]
        else:
            assert repr(got[1].to_json()) == repr(want[1].to_json())

    def test_one_pass_without_number(self, monkeypatch):
        """Columns of plain ints and floats never reach Feature.number."""
        def fail(self, value):
            raise AssertionError(f"Feature.number({value!r}) called")
        monkeypatch.setattr(Feature, "number", fail)
        schema = FeatureSchema([Feature("x", "numeric", "user"),
                                Feature("y", "numeric", "item")])
        examples = [Example(user={"x": a}, item={"y": float(i)}, scene_id="s",
                            label=0)
                    for i, a in enumerate([3, -1.5, 2 ** 70, 0, 7.25])]
        fitted = fit_numeric_boundaries(examples, schema, buckets=4)
        assert fitted["x"].boundaries == (0.0, 3.0, 7.25)
        assert fitted["y"].boundaries == (1.0, 2.0, 3.0)


class TestRowNamedErrors:
    """A bad value in a list of examples is named by its row and scene, as a
    bad label is, whichever call encodes the list."""

    @pytest.mark.parametrize("value, cause", [
        (float("nan"), "numeric feature 'item_f0': non-finite value nan"),
        (True, "numeric feature 'item_f0': boolean value True"),
        (None, "example is missing feature 'item_f0'")])
    @pytest.mark.parametrize("call", ["train", "evaluate", "predict_scores",
                                      "build_srg"])
    def test_bad_value_names_its_row(self, tiny_data, call, value, cause):
        result, graph = tiny_data
        rows = list(result.train if call in ("train", "build_srg") else result.test)
        at = len(rows) // 2
        item = {k: v for k, v in rows[at].item.items() if k != "item_f0"}
        if value is not None:
            item["item_f0"] = value
        rows[at] = Example(user=rows[at].user, item=item,
                           scene_id=rows[at].scene_id, label=rows[at].label)
        params = init_params("swan", result.schema, graph.scene_ids,
                             tiny_model_config(), seed=0)
        with pytest.raises(SchemaError) as err:
            if call == "train":
                train(rows, graph, tiny_train_config(epochs=1), schema=result.schema)
            elif call == "evaluate":
                evaluate(params, graph, rows)
            elif call == "predict_scores":
                predict_scores(params, graph, rows)
            else:
                build_srg(rows, result.schema, buckets=4)
        assert str(err.value) == f"example {at} (scene {rows[at].scene_id!r}): {cause}"

    @pytest.mark.parametrize("call", ["train", "build_srg"])
    def test_unfitted_feature_names_no_row(self, tiny_data, call):
        result, graph = tiny_data
        unfitted = FeatureSchema([replace(f, boundaries=None) if f.kind == "numeric"
                                  else f for f in result.schema])
        with pytest.raises(SchemaError) as err:
            if call == "train":
                train(result.train, graph, tiny_train_config(epochs=1), schema=unfitted)
            else:
                build_srg(result.train, unfitted, buckets=4)
        assert str(err.value) == "numeric feature 'item_f0' has no fitted boundaries"


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
    idx, scene_idx = encoded([example], schema, tables)
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
