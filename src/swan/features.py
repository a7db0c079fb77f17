"""Feature schema, dataset ingestion and the embedding store.

Dataset files are UTF-8 JSON lines with keys `user`, `item`, `scene_id`
and `label`. Features whose group is `user` are read from the `user`
object; item, scene and other features are carried in the `item` object.
The schema file is a JSON array of feature descriptors.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass, fields
from functools import cache, cached_property
from operator import attrgetter, itemgetter
from typing import Iterable, Sequence, get_origin, get_type_hints

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

logger = logging.getLogger(__name__)

GROUPS = ("user", "item", "scene", "other")
KINDS = ("categorical", "numeric")


class ParseError(ValueError):
    """A dataset line could not be parsed; the message names file and line."""


class SchemaError(ValueError):
    """An example does not match the feature schema."""


class ConfigError(ValueError):
    """A configuration value is invalid, or does not fit the schema."""


def write_json(path, obj) -> None:
    """Write `obj` in swan's one JSON file format: UTF-8, one-space indent,
    sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_json(path, parse, what: str, error: type = ValueError):
    """`parse` applied to the JSON value in the UTF-8 file at `path`. Bad
    UTF-8, malformed or too deeply nested JSON, and an AttributeError,
    KeyError, TypeError, ValueError or OverflowError from `parse` all raise
    one `error` that starts with the path and keeps the cause's text."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(json.load(fh))
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError,
            RecursionError) as exc:
        raise error(f"{path}: bad {what} file: {type(exc).__name__}: {exc}") from None


def sorted_finite(values: Sequence[float]) -> bool:
    """True when every value is finite and none exceeds the next: bucket
    edges that `bisect_right` and `np.searchsorted` split alike."""
    return (all(map(math.isfinite, values))
            and all(a <= b for a, b in zip(values, values[1:])))


@cache
def field_types(cls) -> dict:
    """Each field of dataclass `cls` with its annotation, resolved once per class."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


_NOUNS = {int: "integer", float: "real number", bool: "bool", str: "string"}


def _has_type(value, hint) -> bool:
    """True when `value` is of the annotated type `hint`; a bool is no number."""
    if type(value) is hint:
        return True
    if hint in (int, float):
        kind = numbers.Integral if hint is int else numbers.Real
        return isinstance(value, kind) and not isinstance(value, bool)
    if get_origin(hint) is tuple:
        return isinstance(value, tuple) and all(
            _has_type(v, hint.__args__[0]) for v in value)
    return isinstance(value, hint)


def _type_name(hint) -> str:
    if get_origin(hint) is tuple:
        return f"a tuple of {_NOUNS[hint.__args__[0]]}s"
    noun = _NOUNS.get(hint, hint.__name__)
    return f"{'an' if noun[0] in 'aeiou' else 'a'} {noun}"


class Config:
    """Base of the config dataclasses. Every field must have its annotated
    type, then pass the range rules of `_rules`; either failure raises a
    ConfigError naming the class and the field. The JSON form writes
    tuples as lists and nested configs as objects."""

    def _rules(self) -> tuple:
        """(field, ok, rule) triples, each written so that NaN fails it."""
        return ()

    def __post_init__(self):
        name = type(self).__name__
        for field_name, hint in field_types(type(self)).items():
            value = getattr(self, field_name)
            if not _has_type(value, hint):
                raise ConfigError(f"{name} {field_name} must be "
                                  f"{_type_name(hint)}, got {value!r}")
        for field_name, ok, rule in self._rules():
            if not ok:
                raise ConfigError(f"{name} {field_name} must be {rule}, "
                                  f"got {getattr(self, field_name)!r}")

    def to_json(self) -> dict:
        out = {}
        for name in field_types(type(self)):
            value = getattr(self, name)
            out[name] = (value.to_json() if isinstance(value, Config)
                         else list(value) if isinstance(value, tuple) else value)
        return out

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise ConfigError(f"{cls.__name__} must be a JSON object, got {obj!r}")
        types = field_types(cls)
        unknown = set(obj) - set(types)
        if unknown:
            raise ConfigError(f"unknown {cls.__name__} keys {sorted(unknown)}")
        kwargs = dict(obj)
        for name, value in obj.items():
            hint = types[name]
            nested = isinstance(hint, type) and issubclass(hint, Config)
            if nested or get_origin(hint) is tuple:
                if not isinstance(value, dict if nested else list):
                    raise ConfigError(f"{cls.__name__} {name} must be "
                                      f"{'an object' if nested else 'a list'}, "
                                      f"got {value!r}")
                kwargs[name] = hint.from_json(value) if nested else tuple(value)
        return cls(**kwargs)

    @classmethod
    def load(cls, path: str):
        return read_json(path, cls.from_json, "config", ConfigError)


@dataclass(frozen=True)
class Feature:
    """One feature descriptor.

    Categorical features carry a vocabulary size, a positive int; raw
    values are integer codes in [0, vocab) and anything else, booleans
    included, maps to a reserved OOV index. Numeric features carry finite,
    sorted bucket boundaries (fit on a training split) and encode to the
    bucket index of the raw value, which must be a finite number and not
    a boolean.
    """

    name: str
    kind: str
    group: str
    vocab: int | None = None
    boundaries: tuple[float, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise SchemaError(f"feature name {self.name!r} is not a string")
        if self.kind not in KINDS:
            raise SchemaError(f"feature {self.name!r}: unknown kind {self.kind!r}")
        if self.group not in GROUPS:
            raise SchemaError(f"feature {self.name!r}: unknown group {self.group!r}")
        if self.kind == "categorical":
            if self.vocab is None or (isinstance(self.vocab, int) and self.vocab < 1):
                raise SchemaError(f"categorical feature {self.name!r} needs a vocabulary size")
            if isinstance(self.vocab, bool) or not isinstance(self.vocab, int):
                raise SchemaError(f"categorical feature {self.name!r}: vocabulary size "
                                  f"{self.vocab!r} is not an integer")
        elif self.boundaries is not None:
            if not (isinstance(self.boundaries, (list, tuple))
                    and all(_has_type(b, float) for b in self.boundaries)):
                raise SchemaError(f"numeric feature {self.name!r}: bucket boundaries "
                                  f"{self.boundaries!r} are not a list of numbers")
            edges = tuple(float(b) for b in self.boundaries)
            if not sorted_finite(edges):
                raise SchemaError(f"numeric feature {self.name!r}: bucket boundaries "
                                  f"{list(edges)} are not finite and sorted")
            object.__setattr__(self, "boundaries", edges)

    @property
    def num_indices(self) -> int:
        """Number of distinct encoded indices, including the OOV row."""
        if self.kind == "categorical":
            return self.vocab + 1
        return len(self._edges) + 1

    @property
    def oov_index(self) -> int:
        if self.kind != "categorical":
            raise SchemaError(f"numeric feature {self.name!r} has no OOV index")
        return self.vocab

    def encode(self, value) -> int:
        if self.kind == "categorical":
            if isinstance(value, bool):
                return self.oov_index
            try:
                code = int(value)
            except (TypeError, ValueError, OverflowError):
                return self.oov_index
            if code != value or not 0 <= code < self.vocab:
                return self.oov_index
            return code
        return bisect_right(self._edges, self.number(value))

    def number(self, value) -> float:
        """A raw numeric value as a float; SchemaError unless finite and not a bool."""
        # A finite float passes straight through: value - value is 0.0 for
        # it, and NaN, which is truthy, for NaN and ±inf.
        if type(value) is float and not value - value:
            return value
        if isinstance(value, bool):
            raise SchemaError(f"numeric feature {self.name!r}: boolean value {value!r}")
        try:
            x = float(value)
        except OverflowError:
            raise SchemaError(
                f"numeric feature {self.name!r}: non-finite value {value!r}") from None
        except (TypeError, ValueError):
            raise SchemaError(
                f"numeric feature {self.name!r}: not a number: {value!r}") from None
        if not math.isfinite(x):
            raise SchemaError(f"numeric feature {self.name!r}: non-finite value {value!r}")
        return x

    @cached_property
    def _edges(self) -> np.ndarray:
        """The fitted boundaries as a float64 array; the one SchemaError for
        a numeric feature without them."""
        if self.boundaries is None:
            raise SchemaError(f"numeric feature {self.name!r} has no fitted boundaries")
        return np.array(self.boundaries, dtype=np.float64)

    def to_json(self) -> dict:
        out = {"name": self.name, "kind": self.kind, "group": self.group}
        if self.vocab is not None:
            out["vocab"] = self.vocab
        if self.boundaries is not None:
            out["boundaries"] = list(self.boundaries)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "Feature":
        """The feature a schema entry describes; SchemaError naming the
        entry when it is not an object or lacks `name`, `kind` or `group`."""
        if not isinstance(obj, dict):
            raise SchemaError(f"schema entry {obj!r} is not an object")
        missing = [key for key in ("name", "kind", "group") if key not in obj]
        if missing:
            raise SchemaError(f"schema entry {obj!r} lacks "
                              f"{', '.join(map(repr, missing))}")
        return cls(name=obj["name"], kind=obj["kind"], group=obj["group"],
                   vocab=obj.get("vocab"), boundaries=obj.get("boundaries"))


class FeatureSchema:
    """Ordered collection of feature descriptors with unique names."""

    def __init__(self, features: Sequence[Feature]):
        names = [f.name for f in features]
        if len(set(names)) != len(names):
            raise SchemaError("feature names must be unique")
        self.features = list(features)
        self._by_name = {f.name: f for f in self.features}

    def __iter__(self):
        return iter(self.features)

    def __len__(self):
        return len(self.features)

    def __getitem__(self, name: str) -> Feature:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"unknown feature name {name!r}") from None

    def group(self, group: str) -> list[Feature]:
        return [f for f in self.features if f.group == group]

    @property
    def user_features(self) -> list[Feature]:
        return self.group("user")

    @property
    def scene_features(self) -> list[Feature]:
        return self.group("scene")

    @property
    def other_features(self) -> list[Feature]:
        """Features embedded into E_o: the item and other groups, schema order."""
        return [f for f in self.features if f.group in ("item", "other")]

    def to_json(self) -> list[dict]:
        return [f.to_json() for f in self.features]

    @classmethod
    def from_json(cls, obj: list[dict]) -> "FeatureSchema":
        if not isinstance(obj, list):
            raise SchemaError(f"a schema must be a list of feature entries, got {obj!r}")
        return cls([Feature.from_json(o) for o in obj])

    def save(self, path: str) -> None:
        write_json(path, self.to_json())

    @classmethod
    def load(cls, path: str) -> "FeatureSchema":
        return read_json(path, cls.from_json, "schema", SchemaError)


@dataclass
class Example:
    """One impression: raw feature values, scene identifier, click label."""

    user: dict
    item: dict
    scene_id: str
    label: int


def is_click_label(label) -> bool:
    """True for a label of 0 or 1, of any numeric type; a boolean is not one."""
    return not isinstance(label, (bool, np.bool_)) and label in (0, 1)


def click_labels(examples: Sequence[Example]) -> np.ndarray:
    """The examples' labels as a float64 array; ValueError for an empty
    list, the one empty-list rule of every call that reads labels, or
    naming the first example whose label is not a click label."""
    if len(examples) == 0:
        raise ValueError("no examples: this call needs a non-empty dataset")
    labels = [ex.label for ex in examples]
    # Plain int labels of 0 and 1 pass in two C-level passes; anything else
    # goes through the per-row rule, which names the first bad row.
    if set(map(type, labels)) != {int} or not set(labels) <= {0, 1}:
        for i, label in enumerate(labels):
            if not is_click_label(label):
                raise ValueError(f"example {i} (scene {examples[i].scene_id!r}): "
                                 f"label must be 0 or 1, got {label!r}")
    return np.array(labels, dtype=np.float64)


class Dataset(list):
    """A list of Examples that remembers its schema and the OOV count from load."""

    def __init__(self, examples: Iterable[Example] = (),
                 schema: "FeatureSchema | None" = None):
        super().__init__(examples)
        self.oov_count = 0
        self.schema = schema


def _feature_value(example: Example, feat: Feature):
    source = example.user if feat.group == "user" else example.item
    if feat.name not in source:
        raise SchemaError(f"example is missing feature {feat.name!r}")
    return source[feat.name]


def encode_columns(examples: Sequence[Example],
                   features: Iterable[Feature]) -> dict[str, np.ndarray]:
    """Each feature's codes over the examples, as one int64 array per
    feature name; the only code that turns examples into codes.

    A column is encoded in one numpy pass when every value is a Python
    int (categorical) or every value is an int or float and their sum is
    finite (numeric with fitted boundaries). Any other column (booleans,
    other types, a missing value, ints past int64 or past the float
    range, NaN or ±inf) goes through `Feature.encode` value by value in
    row order (`_per_value`), so the codes and the first error raised are
    those of `Feature.encode` either way, the error naming its row.
    """
    sources: dict[str, list[dict]] = {}
    out = {}
    for f in features:
        values = _column_values(examples, f, sources)
        codes = None if values is None else _column_codes(f, values)
        if codes is None:
            codes = np.array(list(_per_value(examples, f, f.encode)), dtype=np.int64)
        out[f.name] = codes
    return out


def _per_value(examples: Sequence[Example], feat: Feature, convert) -> Iterable:
    """`convert` of each example's `feat` value; a SchemaError names its row."""
    for i, ex in enumerate(examples):
        try:
            yield convert(_feature_value(ex, feat))
        except SchemaError as e:
            raise SchemaError(f"example {i} (scene {ex.scene_id!r}): {e}") from None


def _column_values(examples: Sequence[Example], feat: Feature,
                   sources: dict[str, list[dict]]) -> list | None:
    """`feat`'s raw values over the examples in row order, or None when an
    example lacks it; `sources` keeps each group's value dicts between
    calls."""
    group = "user" if feat.group == "user" else "item"
    if group not in sources:
        sources[group] = list(map(attrgetter(group), examples))
    try:
        return list(map(itemgetter(feat.name), sources[group]))
    except (LookupError, TypeError):
        return None


def _float_column(values: list) -> np.ndarray | None:
    """The values as one float64 array when every one is a Python int or
    float and their sum is finite, or None when they need `Feature.number`
    one by one.

    A sum is finite only if every term is: NaN and ±inf carry through it,
    and a sum that overflows, or an int past the float range, takes the
    per-value path.
    """
    try:
        if set(map(type, values)) <= {int, float} and math.isfinite(sum(values)):
            return np.array(values, dtype=np.float64)
    except OverflowError:
        pass
    return None


def _column_codes(feat: Feature, values: list) -> np.ndarray | None:
    """`feat`'s codes over its values in one numpy pass, or None when the
    column needs `Feature.encode` per value."""
    if feat.kind == "categorical":
        if not set(map(type, values)) <= {int}:
            return None
        try:
            codes = np.array(values, dtype=np.int64)
            # Viewed as uint64, a negative code is past the vocabulary too.
            codes[codes.view(np.uint64) >= np.uint64(feat.vocab)] = feat.vocab
        except OverflowError:
            return None
        return codes
    edges = feat._edges  # an unfitted feature fails here, naming no row
    x = _float_column(values)
    if x is None:
        return None
    return np.searchsorted(edges, x, side="right").astype(np.int64, copy=False)


def scene_codes(examples: Sequence[Example]) -> tuple[list[str], np.ndarray]:
    """The examples' distinct scene ids, sorted, and each example's index
    into them as an int64 array."""
    ids = list(map(attrgetter("scene_id"), examples))
    scenes = sorted(set(ids))
    index = {sid: i for i, sid in enumerate(scenes)}
    return scenes, np.fromiter(map(index.__getitem__, ids), dtype=np.int64,
                               count=len(ids))


def group_rows(codes: np.ndarray, n_groups: int,
               order: np.ndarray | None = None) -> list[np.ndarray]:
    """Row indices of each code in range(n_groups), in the row order
    `order` (ascending rows by default), by one stable argsort."""
    rows = (codes.argsort(kind="stable") if order is None
            else order[codes[order].argsort(kind="stable")])
    ends = np.bincount(codes, minlength=n_groups).cumsum().tolist()
    return [rows[lo:hi] for lo, hi in zip([0, *ends], ends)]


def quantile_edges(values: np.ndarray, buckets: int) -> tuple[float, ...]:
    """Equal-frequency bucket edges of one column: its distinct
    i / buckets quantiles, for i = 1 .. buckets - 1."""
    if buckets < 1:
        raise ValueError("buckets must be >= 1")
    return tuple(np.unique(np.quantile(values, np.arange(1, buckets) / buckets)))


def fit_numeric_boundaries(examples: Sequence[Example], schema: FeatureSchema,
                           buckets: int = 10) -> FeatureSchema:
    """Fit equal-frequency bucket boundaries (`quantile_edges`) for numeric
    features lacking them."""
    sources: dict[str, list[dict]] = {}
    fitted = []
    for feat in schema:
        if feat.kind != "numeric" or feat.boundaries is not None:
            fitted.append(feat)
            continue
        column = _column_values(examples, feat, sources)
        values = None if column is None else _float_column(column)
        if values is None:
            values = np.array(list(_per_value(examples, feat, feat.number)))
        if values.size == 0:
            raise ValueError(f"no values to fit boundaries for {feat.name!r}")
        fitted.append(Feature(feat.name, feat.kind, feat.group,
                              boundaries=quantile_edges(values, buckets)))
    return FeatureSchema(fitted)


def load_dataset(path: str, schema: FeatureSchema) -> Dataset:
    """Load a JSON-lines dataset, validating every record against the schema.

    Malformed lines raise ParseError naming file, line and column, and so
    do a scene_id that is not a string and a numeric value that is not a
    finite number (JSON's NaN and Infinity included) or is a boolean; an
    unknown or missing feature raises SchemaError naming file and line.
    Out-of-vocabulary categorical values, booleans included, are kept
    (they encode to the reserved index later) and counted.
    """
    known_user = {f.name for f in schema if f.group == "user"}
    known_item = {f.name for f in schema if f.group != "user"}
    ds = Dataset(schema=schema)
    # Bytes that are not UTF-8 decode to lone surrogates, caught per line.
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as e:
                    raise ParseError(f"{path}:{lineno}:{e.start + 1}: "
                                     "not valid UTF-8") from None
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(f"{path}:{lineno}:{e.colno}: {e.msg}") from None
            except (ValueError, RecursionError) as e:
                raise ParseError(f"{path}:{lineno}: {e}") from None
            if not isinstance(obj, dict):
                raise ParseError(f"{path}:{lineno}: record is not a JSON object")
            extra = set(obj) - {"user", "item", "scene_id", "label"}
            if extra:
                raise ParseError(f"{path}:{lineno}: unexpected keys {sorted(extra)}")
            for key in ("user", "item", "scene_id", "label"):
                if key not in obj:
                    raise ParseError(f"{path}:{lineno}: missing key {key!r}")
            if not isinstance(obj["user"], dict) or not isinstance(obj["item"], dict):
                raise ParseError(f"{path}:{lineno}: 'user' and 'item' must be objects")
            if not isinstance(obj["scene_id"], str):
                raise ParseError(f"{path}:{lineno}: scene_id must be a string, "
                                 f"got {obj['scene_id']!r}")
            label = obj["label"]
            if not is_click_label(label):
                raise ParseError(f"{path}:{lineno}: label must be 0 or 1, got {label!r}")
            for name in obj["user"]:
                if name not in known_user:
                    raise SchemaError(f"{path}:{lineno}: unknown feature name {name!r}")
            for name in obj["item"]:
                if name not in known_item:
                    raise SchemaError(f"{path}:{lineno}: unknown feature name {name!r}")
            ex = Example(user=dict(obj["user"]), item=dict(obj["item"]),
                         scene_id=obj["scene_id"], label=int(label))
            for feat in schema:
                try:
                    value = _feature_value(ex, feat)
                except SchemaError as e:
                    raise SchemaError(f"{path}:{lineno}: {e}") from None
                if feat.kind == "numeric":
                    try:
                        feat.number(value)
                    except SchemaError as e:
                        raise ParseError(f"{path}:{lineno}: {e}") from None
            ds.append(ex)
    categorical = [f for f in schema if f.kind == "categorical"]
    ds.oov_count = sum(int((codes == f.oov_index).sum()) for f, codes in
                       zip(categorical, encode_columns(ds, categorical).values()))
    if ds.oov_count:
        logger.warning("%s: %d out-of-vocabulary categorical values mapped to the "
                       "reserved index", path, ds.oov_count)
    return ds


def write_dataset(examples: Iterable[Example], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps({"user": ex.user, "item": ex.item,
                                 "scene_id": ex.scene_id, "label": ex.label},
                                sort_keys=True))
            fh.write("\n")


# ---------------------------------------------------------------------------
# embedding store


def _stacked_offsets(features: Sequence[Feature]) -> tuple[dict[str, int], int]:
    """Each feature's first row when the features' rows are stacked in
    order, and the number of rows they take."""
    offsets, total = {}, 0
    for f in features:
        offsets[f.name] = total
        total += f.num_indices
    return offsets, total


def _uniform_rows(rng: np.random.Generator, num_rows: int, dim: int) -> Tensor:
    return Tensor(rng.uniform(-0.05, 0.05, size=(num_rows, dim)), requires_grad=True)


class EmbeddingSet:
    """Every embedding row of a model, in at most two parameter tensors.

    `table` is [ΣV + S + 1, d]: the rows of each schema feature in schema
    order (code c of feature f is row `offsets[f] + c`; a categorical
    feature's last row is its OOV row), then one row per known scene id
    in sorted order, then the row that every unknown scene shares. `cfr`,
    which only the full model has, is [S·V_s, d]: each known scene's
    private rows for the scene features, code c of scene feature f for
    the scene with vocabulary index j at row `j·V_s + cfr_offsets[f] + c`.
    This class is the only code that knows the layout: callers hand it
    codes and get the row indices to gather with `autodiff.rows`.
    """

    def __init__(self, schema: FeatureSchema, table: Tensor,
                 scene_vocab: dict[str, int], cfr: Tensor | None = None):
        self.schema = schema
        self.table = table
        self.cfr = cfr
        self.scene_vocab = scene_vocab
        self.offsets, self.scene_offset = _stacked_offsets(schema)
        self.cfr_offsets, self.cfr_width = _stacked_offsets(schema.scene_features)

    @classmethod
    def create(cls, rng: np.random.Generator, schema: FeatureSchema,
               scene_ids: Sequence[str], dim: int,
               cfr: bool = False) -> "EmbeddingSet":
        """Seeded tables, each drawn in one uniform draw of its full size;
        the cross-scene table, if asked for, after the shared one."""
        vocab = {sid: i for i, sid in enumerate(sorted(set(scene_ids)))}
        table_shape, cfr_shape = cls.shapes(schema, len(vocab), dim)
        table = _uniform_rows(rng, *table_shape)
        cfr_table = _uniform_rows(rng, *cfr_shape) if cfr else None
        return cls(schema, table, vocab, cfr_table)

    @staticmethod
    def shapes(schema: FeatureSchema, num_scenes: int,
               dim: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """The shapes of `table` and `cfr` for `num_scenes` known scenes."""
        return ((_stacked_offsets(schema)[1] + num_scenes + 1, dim),
                (num_scenes * _stacked_offsets(schema.scene_features)[1], dim))

    def scene_index(self, scene_id: str) -> int:
        return self.scene_vocab.get(scene_id, len(self.scene_vocab))

    def rows(self, idx: dict[str, np.ndarray], scene_idx: np.ndarray,
             cols: Sequence[Feature | None]) -> np.ndarray:
        """[B, len(cols)] row indices into `table` for a batch of B rows.

        An entry of `cols` is a schema feature, whose column holds the
        rows of its codes in `idx`, or None, whose column holds the rows
        of the scene indices `scene_idx` (from `scene_index`).
        """
        out = np.empty((len(scene_idx), len(cols)), dtype=np.int64)
        for j, feat in enumerate(cols):
            if feat is None:
                out[:, j] = self.scene_offset + scene_idx
            elif feat.name in self.offsets:
                out[:, j] = self.offsets[feat.name] + idx[feat.name]
            else:
                raise ConfigError(f"no embedding rows for feature {feat.name!r}")
        return out

    def scene_rows(self, scenes: np.ndarray) -> np.ndarray:
        """Row indices into `table` of an array of scene vocabulary indices,
        in its shape."""
        return self.scene_offset + scenes

    def cfr_rows(self, idx: dict[str, np.ndarray],
                 neighbors: np.ndarray) -> np.ndarray:
        """[B, F·I] row indices into `cfr` for a [B, I] matrix of known
        scenes' vocabulary indices, a row of it per batch row: column f·I + i
        holds the row of scene feature f's code in the private rows of
        scene neighbors[:, i]."""
        bad = neighbors[(neighbors < 0) | (neighbors >= len(self.scene_vocab))]
        if bad.size:
            raise ConfigError(f"no cross-scene rows for scene index {bad[0]}")
        bases = self.cfr_width * neighbors
        return np.concatenate([(self.cfr_offsets[f.name] + idx[f.name])[:, None] + bases
                               for f in self.schema.scene_features], axis=1)


@dataclass
class EmbeddingBundle:
    """Grouped embeddings of a row batch of examples."""

    e_user: Tensor    # [B, U*d], the user features side by side
    e_target: Tensor  # [B, d], scene id plus scene features
    e_other: Tensor   # [B, O*d], the item and other features side by side


def embed_indices(idx: dict[str, np.ndarray], scene_idx: np.ndarray,
                  tables: EmbeddingSet, schema: FeatureSchema) -> EmbeddingBundle:
    """Batched embedding lookup over pre-encoded index arrays, one gather
    per group, its columns in `schema` order.

    The target-scene embedding sums the scene-feature embeddings and the
    scene-id embedding, so that it keeps the scene-identifier width.
    """
    def gather(cols):
        return ad.rows(tables.table, tables.rows(idx, scene_idx, cols))

    target = [*schema.scene_features, None]
    return EmbeddingBundle(
        e_user=gather(schema.user_features),
        e_target=ad.sum_blocks(gather(target), len(target)),
        e_other=gather(schema.other_features),
    )
