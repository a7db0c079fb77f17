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
from bisect import bisect_right
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

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
    """Model configuration is inconsistent with the schema."""


def _known_keys(cls, obj: dict) -> dict:
    """A copy of `obj`; keys that are not fields of `cls` raise ConfigError
    naming them."""
    unknown = set(obj) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys {sorted(unknown)}")
    return dict(obj)


@dataclass(frozen=True)
class Feature:
    """One feature descriptor.

    Categorical features carry a vocabulary size; raw values are integer
    codes in [0, vocab) and anything else, booleans included, maps to a
    reserved OOV index. Numeric features carry sorted bucket boundaries
    (fit on a training split) and encode to the bucket index of the raw
    value, which must be a finite number and not a boolean.
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
            if not self.vocab or self.vocab < 1:
                raise SchemaError(f"categorical feature {self.name!r} needs a vocabulary size")
        elif self.boundaries is not None:
            object.__setattr__(self, "boundaries", tuple(float(b) for b in self.boundaries))

    @property
    def num_indices(self) -> int:
        """Number of distinct encoded indices, including the OOV row."""
        if self.kind == "categorical":
            return self.vocab + 1
        if self.boundaries is None:
            raise SchemaError(f"numeric feature {self.name!r} has no fitted boundaries")
        return len(self.boundaries) + 1

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
        if self.boundaries is None:
            raise SchemaError(f"numeric feature {self.name!r} has no fitted boundaries")
        return bisect_right(self.boundaries, self.number(value))

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

    def is_oov(self, value) -> bool:
        return self.kind == "categorical" and self.encode(value) == self.oov_index

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
        entry when it lacks `name`, `kind` or `group`."""
        missing = [key for key in ("name", "kind", "group") if key not in obj]
        if missing:
            raise SchemaError(f"schema entry {obj!r} lacks "
                              f"{', '.join(map(repr, missing))}")
        return cls(name=obj["name"], kind=obj["kind"], group=obj["group"],
                   vocab=obj.get("vocab"),
                   boundaries=tuple(obj["boundaries"]) if "boundaries" in obj else None)


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
        return cls([Feature.from_json(o) for o in obj])

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "FeatureSchema":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


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


class Dataset(list):
    """A list of Examples that remembers its schema and the OOV count from load."""

    def __init__(self, examples: Iterable[Example] = (), oov_count: int = 0,
                 schema: "FeatureSchema | None" = None):
        super().__init__(examples)
        self.oov_count = oov_count
        self.schema = schema


def _feature_value(example: Example, feat: Feature):
    source = example.user if feat.group == "user" else example.item
    if feat.name not in source:
        raise SchemaError(f"example is missing feature {feat.name!r}")
    return source[feat.name]


def encode_columns(examples: Sequence[Example],
                   features: Iterable[Feature]) -> dict[str, np.ndarray]:
    """Each feature's codes over the examples, as one int64 array per
    feature name; the only code that turns examples into codes."""
    return {f.name: np.fromiter((f.encode(_feature_value(ex, f)) for ex in examples),
                                dtype=np.int64, count=len(examples))
            for f in features}


def group_by_scene(examples: Sequence[Example]) -> dict[str, list[int]]:
    """Row indices of each scene, scenes by first appearance, rows in order."""
    groups: dict[str, list[int]] = {}
    for i, ex in enumerate(examples):
        groups.setdefault(ex.scene_id, []).append(i)
    return groups


def fit_numeric_boundaries(examples: Sequence[Example], schema: FeatureSchema,
                           buckets: int = 10) -> FeatureSchema:
    """Fit equal-frequency bucket boundaries for numeric features lacking them."""
    if buckets < 1:
        raise ValueError("buckets must be >= 1")
    fitted = []
    for feat in schema:
        if feat.kind != "numeric" or feat.boundaries is not None:
            fitted.append(feat)
            continue
        values = np.array([feat.number(_feature_value(ex, feat)) for ex in examples])
        if values.size == 0:
            raise ValueError(f"no values to fit boundaries for {feat.name!r}")
        qs = np.quantile(values, np.arange(1, buckets) / buckets)
        edges = tuple(np.unique(qs))
        fitted.append(Feature(feat.name, feat.kind, feat.group, boundaries=edges))
    return FeatureSchema(fitted)


def load_dataset(path: str, schema: FeatureSchema) -> Dataset:
    """Load a JSON-lines dataset, validating every record against the schema.

    Malformed lines raise ParseError naming file, line and column, and so
    does a numeric value that is not a finite number (JSON's NaN and
    Infinity included) or is a boolean; unknown feature names raise
    SchemaError. Out-of-vocabulary categorical values, booleans included,
    are kept (they encode to the reserved index later) and counted.
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
                         scene_id=str(obj["scene_id"]), label=int(label))
            for feat in schema:
                value = _feature_value(ex, feat)
                if feat.kind == "numeric":
                    try:
                        feat.number(value)
                    except SchemaError as e:
                        raise ParseError(f"{path}:{lineno}: {e}") from None
                elif feat.is_oov(value):
                    ds.oov_count += 1
            ds.append(ex)
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
        table = _uniform_rows(rng, _stacked_offsets(schema)[1] + len(vocab) + 1, dim)
        cfr_rows = len(vocab) * _stacked_offsets(schema.scene_features)[1]
        cfr_table = _uniform_rows(rng, cfr_rows, dim) if cfr else None
        return cls(schema, table, vocab, cfr_table)

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

    def scene_indices(self, scene_ids: Sequence[str]) -> np.ndarray:
        """Vocabulary indices of known scene ids, in order; ConfigError
        naming the first unknown one."""
        unknown = [sid for sid in scene_ids if sid not in self.scene_vocab]
        if unknown:
            raise ConfigError(f"no scene rows for scene {unknown[0]!r}")
        return np.array([self.scene_vocab[sid] for sid in scene_ids], dtype=np.int64)

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
