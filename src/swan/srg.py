"""Scene Relation Graph: key-feature selection, scene profiling and
identical-feature edge weights.

Construction runs in three steps: select item features by absolute
Pearson correlation with the click label, aggregate each key feature per
scene (mean, population variance, max, min), then bucket every aggregate
column into equal-frequency categories over all scenes jointly. The graph
is that [scenes, slots] category matrix; an edge weight, the number of
slots where two rows agree, is computed when asked for. Bucket boundaries
are kept so a scene never seen at build time can be profiled and matched
(the cold-start entry point) by the same aggregate and categorize code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .features import (Example, FeatureSchema, SchemaError, click_labels,
                       encode_columns, group_rows, quantile_edges, read_json,
                       scene_codes, sorted_finite, write_json)

AGGREGATES = ("mean", "var", "max", "min")


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation; 0.0 when either side has zero variance."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    dx = x - x.mean()
    dy = y - y.mean()
    denom = np.sqrt((dx * dx).sum() * (dy * dy).sum())
    if denom == 0.0:
        return 0.0
    return float((dx * dy).sum() / denom)


def select_key_features(examples: Sequence[Example], schema: FeatureSchema,
                        cc_threshold: float = 0.05) -> list[str]:
    """Item features whose |Pearson r| with the examples' click labels
    reaches the threshold.

    Encoded values (category codes, bucket indices) are the correlation
    inputs. Constant features are dropped. Results are sorted by |r|
    descending with ties broken by name.
    """
    labels = click_labels(examples)
    return _key_features(encode_columns(examples, schema.group("item")), labels,
                         cc_threshold)


def _key_features(codes: dict[str, np.ndarray], labels: np.ndarray,
                  cc_threshold: float) -> list[str]:
    """select_key_features over the item columns of encoded rows whose
    click labels are `labels`."""
    if len(labels) < 2:
        raise ValueError("key-feature selection needs at least 2 examples")
    scored = []
    for name, col in codes.items():
        r = pearson(col, labels)
        if abs(r) >= cc_threshold and col.std() > 0.0:
            scored.append((name, abs(r)))
    scored.sort(key=lambda t: (-t[1], t[0]))
    return [name for name, _ in scored]


@dataclass(frozen=True)
class SceneProfile:
    """Categorized aggregate vector for one scene: (key feature, aggregate
    kind, category index) slots, in one layout for every scene in a graph."""

    scene_id: str
    slots: tuple[tuple[str, str, int], ...]


def aggregates(codes: dict[str, np.ndarray], groups: Sequence) -> np.ndarray:
    """[groups, slots] aggregates of code columns over row groups.

    Slots run column by column, with AGGREGATES in order within each
    column. The groups are taken by row count: for each count n, the code
    columns of the G groups of n rows are gathered into one C-contiguous
    [F, G, n] float64 block, and each aggregate is reduced over its last
    axis. numpy sums each length-n row pairwise, as it does a 1-D slice,
    so a value rounds the same whatever the other groups hold.
    """
    by_size: dict[int, list[int]] = {}
    for g, rows in enumerate(groups):
        by_size.setdefault(len(rows), []).append(g)
    if 0 in by_size:
        raise ValueError("a scene profile needs at least one item")
    out = np.empty((len(codes), len(groups), len(AGGREGATES)))
    if codes:
        columns = np.array(list(codes.values()), dtype=np.float64)  # [F, rows]
        for n, at in by_size.items():
            block = np.take(columns, [groups[g] for g in at], axis=1)
            # Mean and population variance as np.mean and np.var compute
            # them, from one sum per row.
            mean = np.add.reduce(block, axis=-1, keepdims=True) / n
            dev = block - mean
            out[:, at, 0] = mean[..., 0]
            out[:, at, 1] = np.add.reduce(dev * dev, axis=-1) / n
            out[:, at, 2] = block.max(axis=-1)
            out[:, at, 3] = block.min(axis=-1)
    return out.transpose(1, 0, 2).reshape(len(groups), -1)


def bucket_boundaries(raw: np.ndarray, buckets: int) -> list[tuple[float, ...]]:
    """Equal-frequency bucket edges of each aggregate column, over all scenes."""
    if len(raw) == 0:
        raise ValueError("bucket_boundaries needs at least one scene")
    return [quantile_edges(col, buckets) for col in raw.T]


def pad_edges(boundaries: Sequence[Sequence[float]]) -> np.ndarray:
    """The slots' bucket edge lists as one [slots, max edges] matrix, each
    row padded with +inf."""
    width = max(map(len, boundaries), default=0)
    return np.array([(*edges, *(math.inf,) * (width - len(edges)))
                     for edges in boundaries]).reshape(len(boundaries), width)


def categorize(raw: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """[scenes, slots] categories of aggregates, by the [slots, max edges]
    matrix `pad_edges` makes of the columns' edge lists.

    A category is the number of the column's edges below the value, as
    `np.searchsorted(edges, value, side="left")` counts them; side "left"
    keeps a degenerate column (all values equal) in category 0. All
    columns take one comparison.
    """
    return (edges < raw[..., None]).sum(-1, dtype=np.int64)


def _layout(key_features: Sequence[str]) -> tuple[tuple[str, str], ...]:
    return tuple((name, agg) for name in key_features for agg in AGGREGATES)


def _profiles(scene_ids: Sequence[str], layout: Sequence[tuple[str, str]],
              categories: np.ndarray) -> dict[str, SceneProfile]:
    """Each scene's profile from its row of a [scenes, slots] category matrix."""
    return {sid: SceneProfile(sid, tuple((*slot, cat) for slot, cat in zip(layout, row)))
            for sid, row in zip(scene_ids, categories.tolist())}


@dataclass(eq=False)
class SceneRelationGraph:
    """Weighted undirected graph over scenes, stored as its category matrix.

    Row i of the [S, slots] int matrix `categories` is the profile of
    `scene_ids[i]` (sorted, unique) over the slots of `layout`, (key
    feature, aggregate) pairs. An edge weight is the number of slots two
    rows agree on; `edges`, `profiles`, `bucket_edges` and `by_slot` are
    views built when first read. The build metadata (key features, one
    bucket-edge tuple per slot) travels with the graph so new scenes can
    be profiled against it.
    """

    scene_ids: list[str]
    layout: tuple[tuple[str, str], ...]
    categories: np.ndarray
    key_features: tuple[str, ...] = ()
    buckets: int = 0
    boundaries: list[tuple[float, ...]] = field(default_factory=list)
    cc_threshold: float = 0.0

    def __post_init__(self) -> None:
        ids = self.scene_ids
        if not (isinstance(ids, list) and all(isinstance(s, str) for s in ids)
                and all(a < b for a, b in zip(ids, ids[1:]))):
            raise SchemaError("graph scene ids must be unique strings in sorted order")
        self.categories = np.asarray(self.categories, dtype=np.int64)
        if self.categories.shape != (len(ids), len(self.layout)):
            raise SchemaError(f"graph categories have shape {self.categories.shape}, "
                              f"not {len(ids)} scenes x {len(self.layout)} slots")

    @cached_property
    def profiles(self) -> dict[str, SceneProfile]:
        return _profiles(self.scene_ids, self.layout, self.categories)

    @cached_property
    def bucket_edges(self) -> np.ndarray:
        """`boundaries` as the +inf-padded matrix `categorize` compares with."""
        return pad_edges(self.boundaries)

    @cached_property
    def by_slot(self) -> np.ndarray:
        """`categories` as a contiguous [slots, S] matrix, the layout in
        which `similar_scenes` compares."""
        return np.ascontiguousarray(self.categories.T)

    @cached_property
    def edges(self) -> dict[tuple[str, str], int]:
        """Every scene pair whose profiles share at least one slot."""
        ids, cats, edges = self.scene_ids, self.categories, {}
        for i, a in enumerate(ids):
            shared = (cats[i + 1:] == cats[i]).sum(1).tolist()
            edges.update(((a, b), w) for b, w in zip(ids[i + 1:], shared) if w)
        return edges


def similar_scenes(graph: SceneRelationGraph, targets: np.ndarray,
                   k: int = 5, min_weight: int = 1) -> list[np.ndarray]:
    """Each row of a [T, slots] target category matrix's top-k graph rows
    by shared-slot weight, as int64 indices. A target does not have to be
    a graph scene. Ties break by ascending scene id; rows below
    `min_weight` are pruned, so fewer than k may come back.
    """
    if not graph.scene_ids:
        raise ValueError("similar_scenes needs a non-empty graph")
    if k < 1:
        raise ValueError("k must be >= 1")
    targets = np.asarray(targets, dtype=np.int64)
    if targets.ndim != 2 or targets.shape[1] != len(graph.layout):
        raise SchemaError(f"targets {targets.shape} do not fit the graph's layout")
    n_slots = len(graph.layout)
    # Key: the slots a graph row does not share, slots - weight, in the
    # smallest unsigned type that holds it; the slot-major [T, slots, S]
    # comparison adds S-wide rows.
    differ = graph.by_slot != targets[:, :, None]
    key = differ.view(np.uint8).sum(1, dtype=np.min_scalar_type(n_slots))
    # The rows follow the sorted ids, so a stable sort (a radix sort on
    # small unsigned keys) breaks ties by id.
    order = np.argsort(key, axis=1, kind="stable")[:, :k]
    # The rows at or above min_weight lead each order; a slice caps them at k.
    kept = (key <= n_slots - min_weight).sum(1).tolist()
    return [row[:n] for row, n in zip(order, kept)]


def scene_categories(graph: SceneRelationGraph, codes: dict[str, np.ndarray],
                     groups: Sequence) -> np.ndarray:
    """[groups, slots] categories of row groups, with the graph's stored
    bucket boundaries.

    `codes` holds a code column per feature, the graph's key features
    among them, and `groups[g]` the rows of one scene in it. The scenes
    do not have to be graph nodes.
    """
    if not graph.boundaries:
        raise ValueError("graph carries no bucket boundaries; rebuild with build_srg")
    missing = [name for name in graph.key_features if name not in codes]
    if missing:
        raise SchemaError(f"unknown feature name {missing[0]!r}")
    raw = aggregates({name: codes[name] for name in graph.key_features}, groups)
    return categorize(raw, graph.bucket_edges)


def profile_new_scene(graph: SceneRelationGraph, scene_id: str,
                      scene_examples: Sequence[Example],
                      schema: FeatureSchema) -> SceneProfile:
    """Profile an unseen scene with the graph's stored bucket boundaries."""
    codes = encode_columns(scene_examples, [schema[name] for name in graph.key_features])
    cats = scene_categories(graph, codes, [np.arange(len(scene_examples))])
    return _profiles([scene_id], graph.layout, cats)[scene_id]


def build_srg(examples: Sequence[Example], schema: FeatureSchema,
              cc_threshold: float = 0.05, buckets: int = 10) -> SceneRelationGraph:
    """Full three-step construction from a labeled training dataset.

    The item columns are encoded once; key-feature selection and every
    scene's profile read them.
    """
    labels = click_labels(examples)
    codes = encode_columns(examples, schema.group("item"))
    key = _key_features(codes, labels, cc_threshold)
    if not key:
        raise ValueError(f"no feature reaches |r| >= {cc_threshold}; lower the threshold")
    ids, rows = scene_codes(examples)
    raw = aggregates({name: codes[name] for name in key}, group_rows(rows, len(ids)))
    layout = _layout(key)
    boundaries = bucket_boundaries(raw, buckets)
    return SceneRelationGraph(ids, layout, categorize(raw, pad_edges(boundaries)),
                              key_features=tuple(key), buckets=buckets,
                              boundaries=boundaries,
                              cc_threshold=cc_threshold)


# ---------------------------------------------------------------------------
# graph persistence (stable key order for diffability)


def graph_to_json(graph: SceneRelationGraph) -> dict:
    return {
        "boundaries": [list(edges) for edges in graph.boundaries],
        "buckets": graph.buckets,
        "categories": graph.categories.tolist(),
        "cc_threshold": graph.cc_threshold,
        "key_features": list(graph.key_features),
        "layout": [list(slot) for slot in graph.layout],
        "scene_ids": list(graph.scene_ids),
    }


def graph_from_json(obj: dict) -> SceneRelationGraph:
    """The graph `graph_to_json` wrote; SchemaError when the file is of the
    old node-and-edge format, its matrix is not one non-negative int per
    scene and slot, or its bucket boundaries are not finite and sorted or
    do not cover its layout."""
    if "nodes" in obj or "edges" in obj:
        raise SchemaError("old graph format (nodes and edges); rebuild it with srg build")
    layout = tuple(tuple(slot) for slot in obj["layout"])
    if not all(len(slot) == 2 and all(isinstance(x, str) for x in slot)
               for slot in layout):
        raise SchemaError("graph layout slots must be [key feature, aggregate] pairs")
    cats = obj["categories"]
    if not (isinstance(cats, list) and all(
            isinstance(row, list) and len(row) == len(layout)
            and all(type(c) is int and c >= 0 for c in row) for row in cats)):
        raise SchemaError("graph categories must be one non-negative int per layout slot")
    bounds = [tuple(edges) for edges in obj["boundaries"]]
    if not all(map(sorted_finite, bounds)):
        raise SchemaError("graph bucket boundaries must be finite and sorted")
    graph = SceneRelationGraph(
        obj["scene_ids"], layout, cats, key_features=tuple(obj["key_features"]),
        buckets=int(obj["buckets"]), boundaries=bounds,
        cc_threshold=float(obj["cc_threshold"]))
    if bounds and (layout != _layout(graph.key_features) or len(bounds) != len(layout)):
        raise SchemaError("graph bucket boundaries must be one per key feature x aggregate")
    return graph


def save_graph(graph: SceneRelationGraph, path: str) -> None:
    write_json(path, graph_to_json(graph))


def load_graph(path: str) -> SceneRelationGraph:
    """The graph in a graph.json file; SchemaError naming the file when the
    file is not one."""
    return read_json(path, graph_from_json, "graph", SchemaError)
