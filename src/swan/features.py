"""Feature schema, dataset ingestion and embedding tables.

Dataset files are UTF-8 JSON lines with keys `user`, `item`, `scene_id`
and `label`. Features whose group is `user` are read from the `user`
object; item, scene and other features are carried in the `item` object.
The schema file is a JSON array of feature descriptors.
"""

from __future__ import annotations

import json
import logging
from bisect import bisect_right
from dataclasses import dataclass
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


@dataclass(frozen=True)
class Feature:
    """One feature descriptor.

    Categorical features carry a vocabulary size; raw values are integer
    codes in [0, vocab) and anything else maps to a reserved OOV index.
    Numeric features carry sorted bucket boundaries (fit on a training
    split) and encode to the bucket index of the raw value.
    """

    name: str
    kind: str
    group: str
    vocab: int | None = None
    boundaries: tuple[float, ...] | None = None

    def __post_init__(self):
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
            try:
                code = int(value)
            except (TypeError, ValueError):
                return self.oov_index
            if code != value or not 0 <= code < self.vocab:
                return self.oov_index
            return code
        if self.boundaries is None:
            raise SchemaError(f"numeric feature {self.name!r} has no fitted boundaries")
        return bisect_right(self.boundaries, float(value))

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


def encode_example(example: Example, schema: FeatureSchema) -> dict[str, int]:
    """Encode every schema feature of one example to its table index."""
    return {f.name: f.encode(_feature_value(example, f)) for f in schema}


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
        values = np.array([float(_feature_value(ex, feat)) for ex in examples])
        if values.size == 0:
            raise ValueError(f"no values to fit boundaries for {feat.name!r}")
        qs = np.quantile(values, np.arange(1, buckets) / buckets)
        edges = tuple(np.unique(qs))
        fitted.append(Feature(feat.name, feat.kind, feat.group, boundaries=edges))
    return FeatureSchema(fitted)


def load_dataset(path: str, schema: FeatureSchema) -> Dataset:
    """Load a JSON-lines dataset, validating every record against the schema.

    Malformed lines raise ParseError naming file, line and column; unknown
    feature names raise SchemaError. Out-of-vocabulary categorical values
    are kept (they encode to the reserved index later) and counted.
    """
    known_user = {f.name for f in schema if f.group == "user"}
    known_item = {f.name for f in schema if f.group != "user"}
    ds = Dataset(schema=schema)
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(f"{path}:{lineno}:{e.colno}: {e.msg}") from None
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
            if label not in (0, 1) or isinstance(label, bool):
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
                if feat.is_oov(value):
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
# embedding tables


class EmbeddingTable:
    """Learnable [rows, dim] matrix; the last row is reserved for OOV lookups."""

    def __init__(self, weights: Tensor):
        self.weights = weights

    @classmethod
    def create(cls, rng: np.random.Generator, num_rows: int, dim: int,
               init_scale: float = 0.05) -> "EmbeddingTable":
        w = rng.uniform(-init_scale, init_scale, size=(num_rows, dim))
        return cls(Tensor(w, requires_grad=True))

    @property
    def num_rows(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]

    def lookup(self, indices) -> Tensor:
        return ad.rows(self.weights, np.atleast_1d(indices))


class EmbeddingSet:
    """Shared feature tables plus the scene-identifier table.

    The scene vocabulary maps known scene ids to rows; unknown scenes hit
    the reserved last row.
    """

    def __init__(self, schema: FeatureSchema, dim: int,
                 feature_tables: dict[str, EmbeddingTable],
                 scene_table: EmbeddingTable, scene_vocab: dict[str, int]):
        self.schema = schema
        self.dim = dim
        self.feature_tables = feature_tables
        self.scene_table = scene_table
        self.scene_vocab = scene_vocab

    @classmethod
    def create(cls, rng: np.random.Generator, schema: FeatureSchema,
               scene_ids: Sequence[str], dim: int) -> "EmbeddingSet":
        tables = {f.name: EmbeddingTable.create(rng, f.num_indices, dim) for f in schema}
        vocab = {sid: i for i, sid in enumerate(sorted(scene_ids))}
        scene_table = EmbeddingTable.create(rng, len(vocab) + 1, dim)
        return cls(schema, dim, tables, scene_table, vocab)

    def scene_index(self, scene_id: str) -> int:
        return self.scene_vocab.get(scene_id, len(self.scene_vocab))

    def table(self, name: str) -> EmbeddingTable:
        try:
            return self.feature_tables[name]
        except KeyError:
            raise ConfigError(f"no embedding table for feature {name!r}") from None

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = [(f"emb.{f.name}", self.feature_tables[f.name].weights)
               for f in self.schema]
        out.append(("emb.scene_id", self.scene_table.weights))
        return out


@dataclass
class EmbeddingBundle:
    """Grouped embeddings of a row batch of examples."""

    e_user: Tensor
    e_scene_id: Tensor
    e_scene_attr: Tensor
    e_other: Tensor


def _concat_features(idx: dict[str, np.ndarray], feats: Sequence[Feature],
                     tables: EmbeddingSet, batch: int) -> Tensor:
    if not feats:
        return Tensor(np.zeros((batch, 0)))
    return ad.concat([tables.table(f.name).lookup(idx[f.name]) for f in feats])


def _sum_features(idx: dict[str, np.ndarray], feats: Sequence[Feature],
                  tables: EmbeddingSet, batch: int) -> Tensor:
    if not feats:
        return Tensor(np.zeros((batch, tables.dim)))
    parts = [tables.table(f.name).lookup(idx[f.name]) for f in feats]
    out = parts[0]
    for p in parts[1:]:
        out = ad.add(out, p)
    return out


def embed_indices(idx: dict[str, np.ndarray], scene_idx: np.ndarray,
                  tables: EmbeddingSet, schema: FeatureSchema) -> EmbeddingBundle:
    """Batched embedding lookup over pre-encoded index arrays.

    The scene-attribute embedding is the sum of the scene-group feature
    embeddings so that it matches the scene-identifier width.
    """
    batch = len(scene_idx)
    return EmbeddingBundle(
        e_user=_concat_features(idx, schema.user_features, tables, batch),
        e_scene_id=tables.scene_table.lookup(scene_idx),
        e_scene_attr=_sum_features(idx, schema.scene_features, tables, batch),
        e_other=_concat_features(idx, schema.other_features, tables, batch),
    )

