"""Scene Relation Graph: key-feature selection, scene profiling and
identical-feature edge weights.

Construction runs in three steps: select item features by absolute
Pearson correlation with the click label, aggregate each key feature per
scene (mean, population variance, max, min), then bucket every aggregate
column into equal-frequency categories over all scenes jointly. The edge
weight between two scenes is the number of profile slots holding the
same category. Bucket boundaries are kept on the graph so a scene never
seen at build time can still be profiled and matched (the cold-start
entry point) through the same aggregate and categorize code as the build.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .features import (Example, FeatureSchema, SchemaError, encode_columns,
                       group_by_scene)

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


def select_key_features(examples: Sequence[Example], labels: Sequence[int],
                        schema: FeatureSchema, cc_threshold: float = 0.05,
                        max_features: int | None = None) -> list[str]:
    """Item features whose |Pearson r| with the label reaches the threshold.

    Encoded values (category codes, bucket indices) are the correlation
    inputs. Constant features are dropped. Results are sorted by |r|
    descending with ties broken by name; `max_features` optionally caps
    the list after sorting.
    """
    return _key_features(encode_columns(examples, schema.group("item")), labels,
                         len(examples), cc_threshold, max_features)


def _key_features(codes: dict[str, np.ndarray], labels: Sequence[int],
                  n_examples: int, cc_threshold: float,
                  max_features: int | None) -> list[str]:
    """select_key_features over the item columns of `n_examples` encoded rows."""
    if n_examples == 0:
        raise ValueError("select_key_features needs a non-empty dataset")
    if n_examples < 2:
        raise ValueError("select_key_features needs at least 2 examples")
    y = np.asarray(labels, dtype=np.float64)
    if y.shape[0] != n_examples:
        raise ValueError("labels must align with examples")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("labels must be binary")
    scored = []
    for name, col in codes.items():
        r = pearson(col, y)
        if abs(r) >= cc_threshold and col.std() > 0.0:
            scored.append((name, abs(r)))
    scored.sort(key=lambda t: (-t[1], t[0]))
    selected = [name for name, _ in scored]
    if max_features is not None:
        selected = selected[:max_features]
    return selected


@dataclass(frozen=True)
class SceneProfile:
    """Categorized aggregate vector for one scene: (key feature, aggregate
    kind, category index) slots, in one layout for every scene in a graph."""

    scene_id: str
    slots: tuple[tuple[str, str, int], ...]


def aggregates(codes: dict[str, np.ndarray], groups: Sequence) -> np.ndarray:
    """[groups, slots] aggregates of code columns over row groups.

    Slots run column by column, with AGGREGATES in order within each
    column. Each value is a 1-D reduction over one (group, column) slice,
    so it rounds the same whatever the other groups hold.
    """
    out = np.empty((len(groups), len(codes) * len(AGGREGATES)))
    for g, rows in enumerate(groups):
        if len(rows) == 0:
            raise ValueError("a scene profile needs at least one item")
        stats = []
        for col in codes.values():
            values = col[rows].astype(np.float64)
            # population variance
            stats += [values.mean(), values.var(), values.max(), values.min()]
        out[g] = stats
    return out


def bucket_boundaries(raw: np.ndarray, buckets: int) -> list[tuple[float, ...]]:
    """Equal-frequency bucket edges of each aggregate column, over all scenes."""
    if buckets < 1:
        raise ValueError("buckets must be >= 1")
    if len(raw) == 0:
        raise ValueError("bucket_boundaries needs at least one scene")
    qs = np.arange(1, buckets) / buckets
    return [tuple(np.unique(np.quantile(np.sort(col), qs))) for col in raw.T]


def categorize(raw: np.ndarray, boundaries: Sequence[Sequence[float]]) -> np.ndarray:
    """[scenes, slots] categories of aggregates, one edge list per column."""
    # side="left" keeps a degenerate column (all values equal) in category 0.
    return np.stack([np.searchsorted(edges, col, side="left")
                     for edges, col in zip(boundaries, raw.T)], axis=1)


def _layout(key_features: Sequence[str]) -> list[tuple[str, str]]:
    return [(name, agg) for name in key_features for agg in AGGREGATES]


def _profiles(scene_ids: Sequence[str], layout: list[tuple[str, str]],
              raw: np.ndarray, boundaries: list) -> list[SceneProfile]:
    """One profile per aggregate row, categorized under `boundaries`."""
    return [SceneProfile(sid, tuple((*slot, cat) for slot, cat in zip(layout, row)))
            for sid, row in zip(scene_ids, categorize(raw, boundaries).tolist())]


@dataclass
class SceneRelationGraph:
    """Weighted undirected graph over scene profiles.

    Edge weight counts the profile slots with identical categories; zero
    weights are not stored. Construction checks that the profiles share
    one slot `layout` and keeps them as `categories`, an [S, slots] int
    matrix whose rows follow the sorted `scene_ids`. The build metadata
    (key features, bucket edges) travels with the graph so new scenes can
    be profiled against it.
    """

    profiles: dict[str, SceneProfile]
    edges: dict[tuple[str, str], int]
    key_features: tuple[str, ...] = ()
    buckets: int = 0
    boundaries: dict[tuple[str, str], tuple[float, ...]] = field(default_factory=dict)
    cc_threshold: float = 0.0

    def __post_init__(self) -> None:
        self.scene_ids = sorted(self.profiles)
        layouts = {tuple((name, agg) for name, agg, _ in p.slots)
                   for p in self.profiles.values()}
        if len(layouts) > 1:
            raise SchemaError("profiles have inconsistent slot layouts")
        self.layout = layouts.pop() if layouts else ()
        self.categories = np.array(
            [[cat for _, _, cat in self.profiles[sid].slots] for sid in self.scene_ids],
            dtype=np.int64).reshape(len(self.scene_ids), len(self.layout))

    def weight(self, a: str, b: str) -> int:
        if a == b:
            return len(self.profiles[a].slots)
        return self.edges.get((min(a, b), max(a, b)), 0)


def build_graph(profiles: Sequence[SceneProfile] | dict[str, SceneProfile],
                ) -> SceneRelationGraph:
    """Connect every scene pair whose profiles share at least one slot."""
    if isinstance(profiles, dict):
        profiles = list(profiles.values())
    if not profiles:
        raise ValueError("build_graph needs at least one profile")
    graph = SceneRelationGraph(
        profiles={p.scene_id: p for p in sorted(profiles, key=lambda p: p.scene_id)},
        edges={})
    ids, cats = graph.scene_ids, graph.categories
    for i, a in enumerate(ids):
        shared = (cats[i + 1:] == cats[i]).sum(1).tolist()
        graph.edges.update(((a, b), w) for b, w in zip(ids[i + 1:], shared) if w)
    return graph


def similar_scenes(graph: SceneRelationGraph, target: SceneProfile,
                   k: int = 5, min_weight: int = 1) -> list[tuple[str, int]]:
    """Top-k known scenes by shared-slot weight against a target profile.

    The target does not have to be a graph node. Ties break by ascending
    scene id; scenes below `min_weight` are pruned, so fewer than k
    results may come back.
    """
    if not graph.scene_ids:
        raise ValueError("similar_scenes needs a non-empty graph")
    if k < 1:
        raise ValueError("k must be >= 1")
    if tuple((name, agg) for name, agg, _ in target.slots) != graph.layout:
        raise SchemaError("target profile's slot layout differs from the graph's")
    shared = (graph.categories == [cat for _, _, cat in target.slots]).sum(1)
    # The rows follow the sorted ids, so a stable sort breaks ties by id.
    order = np.argsort(-shared, kind="stable")[:k]
    return [(graph.scene_ids[i], int(shared[i])) for i in order
            if shared[i] >= min_weight]


def profile_scenes(graph: SceneRelationGraph, scene_ids: Sequence[str],
                   codes: dict[str, np.ndarray], groups: Sequence) -> list[SceneProfile]:
    """Profiles of scenes from encoded rows, with the graph's stored bucket
    boundaries.

    `codes` holds a code column per feature, the graph's key features
    among them, and `groups[i]` the rows of `scene_ids[i]` in it. The
    scenes do not have to be graph nodes.
    """
    if not graph.boundaries:
        raise ValueError("graph carries no bucket boundaries; rebuild with build_srg")
    missing = [name for name in graph.key_features if name not in codes]
    if missing:
        raise SchemaError(f"unknown feature name {missing[0]!r}")
    layout = _layout(graph.key_features)
    raw = aggregates({name: codes[name] for name in graph.key_features}, groups)
    return _profiles(scene_ids, layout, raw, [graph.boundaries[s] for s in layout])


def profile_new_scene(graph: SceneRelationGraph, scene_id: str,
                      scene_examples: Sequence[Example],
                      schema: FeatureSchema) -> SceneProfile:
    """Profile an unseen scene with the graph's stored bucket boundaries."""
    codes = encode_columns(scene_examples, [schema[name] for name in graph.key_features])
    return profile_scenes(graph, [scene_id], codes,
                          [np.arange(len(scene_examples))])[0]


def build_srg(examples: Sequence[Example], schema: FeatureSchema,
              cc_threshold: float = 0.05, buckets: int = 10,
              max_features: int | None = None) -> SceneRelationGraph:
    """Full three-step construction from a labeled training dataset.

    The item columns are encoded once; key-feature selection and every
    scene's profile read them.
    """
    codes = encode_columns(examples, schema.group("item"))
    key = _key_features(codes, [ex.label for ex in examples], len(examples),
                        cc_threshold, max_features)
    if not key:
        raise ValueError(f"no feature reaches |r| >= {cc_threshold}; lower the threshold")
    groups = group_by_scene(examples)
    ids = sorted(groups)
    raw = aggregates({name: codes[name] for name in key}, [groups[sid] for sid in ids])
    layout = _layout(key)
    boundaries = bucket_boundaries(raw, buckets)
    graph = build_graph(_profiles(ids, layout, raw, boundaries))
    graph.key_features = tuple(key)
    graph.buckets = buckets
    graph.boundaries = dict(zip(layout, boundaries))
    graph.cc_threshold = cc_threshold
    return graph


# ---------------------------------------------------------------------------
# graph persistence (stable key order for diffability)


def graph_to_json(graph: SceneRelationGraph) -> dict:
    return {
        "aggregates": list(AGGREGATES),
        "boundaries": [{"feature": name, "aggregate": agg, "edges": list(edges)}
                       for (name, agg), edges in sorted(graph.boundaries.items())],
        "buckets": graph.buckets,
        "cc_threshold": graph.cc_threshold,
        "edges": [[a, b, w] for (a, b), w in sorted(graph.edges.items())],
        "key_features": list(graph.key_features),
        "nodes": [{"profile": [list(slot) for slot in graph.profiles[sid].slots],
                   "scene_id": sid}
                  for sid in graph.scene_ids],
    }


def graph_from_json(obj: dict) -> SceneRelationGraph:
    """The graph `graph_to_json` wrote; SchemaError when its edges are not
    the ones its profiles give."""
    if not all(isinstance(node["scene_id"], str) for node in obj["nodes"]):
        raise SchemaError("graph scene ids must be strings")
    graph = build_graph([SceneProfile(
        scene_id=node["scene_id"],
        slots=tuple((name, agg, int(cat)) for name, agg, cat in node["profile"]))
        for node in obj["nodes"]])
    if {(a, b): int(w) for a, b, w in obj["edges"]} != graph.edges:
        raise SchemaError("graph edges differ from the ones its profiles give")
    graph.key_features = tuple(obj["key_features"])
    graph.buckets = int(obj["buckets"])
    graph.boundaries = {(e["feature"], e["aggregate"]): tuple(e["edges"])
                        for e in obj["boundaries"]}
    graph.cc_threshold = float(obj["cc_threshold"])
    return graph


def save_graph(graph: SceneRelationGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_json(graph), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_graph(path: str) -> SceneRelationGraph:
    """The graph in a graph.json file; SchemaError naming the file when the
    file is not one."""
    try:
        with open(path, encoding="utf-8") as fh:
            return graph_from_json(json.load(fh))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: bad graph file: {exc!r}") from None
