"""Scene Relation Graph: key-feature selection, scene profiling and
identical-feature edge weights.

Construction runs in three steps: select item features by absolute
Pearson correlation with the click label, aggregate each key feature per
scene (mean, population variance, max, min), then bucket every aggregate
column into equal-frequency categories over all scenes jointly. The edge
weight between two scenes is the number of profile slots holding the
same category. Bucket boundaries are kept on the graph so a scene never
seen at build time can still be profiled and matched (the cold-start
entry point).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .features import Example, FeatureSchema, SchemaError, _feature_value

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


def _item_matrix(examples: Sequence[Example],
                 schema: FeatureSchema) -> tuple[list[str], np.ndarray]:
    """Encoded item-group feature values, one column per feature."""
    feats = schema.group("item")
    names = [f.name for f in feats]
    cols = np.empty((len(examples), len(feats)))
    for j, feat in enumerate(feats):
        cols[:, j] = [feat.encode(_feature_value(ex, feat)) for ex in examples]
    return names, cols


def select_key_features(examples: Sequence[Example], labels: Sequence[int],
                        schema: FeatureSchema, cc_threshold: float = 0.05,
                        max_features: int | None = None) -> list[str]:
    """Item features whose |Pearson r| with the label reaches the threshold.

    Encoded values (category codes, bucket indices) are the correlation
    inputs. Constant features are dropped. Results are sorted by |r|
    descending with ties broken by name; `max_features` optionally caps
    the list after sorting.
    """
    if len(examples) == 0:
        raise ValueError("select_key_features needs a non-empty dataset")
    if len(examples) < 2:
        raise ValueError("select_key_features needs at least 2 examples")
    y = np.asarray(labels, dtype=np.float64)
    if y.shape[0] != len(examples):
        raise ValueError("labels must align with examples")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("labels must be binary")

    names, cols = _item_matrix(examples, schema)
    scored = []
    for j, name in enumerate(names):
        r = pearson(cols[:, j], y)
        if abs(r) >= cc_threshold and cols[:, j].std() > 0.0:
            scored.append((name, abs(r)))
    scored.sort(key=lambda t: (-t[1], t[0]))
    selected = [name for name, _ in scored]
    if max_features is not None:
        selected = selected[:max_features]
    return selected


def profile_scene(scene_examples: Sequence[Example], key_features: Sequence[str],
                  schema: FeatureSchema) -> dict[tuple[str, str], float]:
    """Raw per-scene aggregates of the key features over the scene's items."""
    if len(scene_examples) == 0:
        raise ValueError("profile_scene needs at least one item")
    out: dict[tuple[str, str], float] = {}
    for name in key_features:
        feat = schema[name]
        values = np.array([feat.encode(_feature_value(ex, feat))
                           for ex in scene_examples], dtype=np.float64)
        out[(name, "mean")] = float(values.mean())
        out[(name, "var")] = float(values.var())  # population variance
        out[(name, "max")] = float(values.max())
        out[(name, "min")] = float(values.min())
    return out


@dataclass(frozen=True)
class SceneProfile:
    """Categorized aggregate vector for one scene.

    Slots are (key feature, aggregate kind, category index) triples with
    an identical layout for every scene in a graph.
    """

    scene_id: str
    slots: tuple[tuple[str, str, int], ...]

    @property
    def layout(self) -> tuple[tuple[str, str], ...]:
        return tuple((name, agg) for name, agg, _ in self.slots)

    @property
    def categories(self) -> tuple[int, ...]:
        return tuple(cat for _, _, cat in self.slots)


def _slot_columns(raw_by_scene: dict[str, dict[tuple[str, str], float]],
                  ) -> list[tuple[str, str]]:
    """Canonical slot order: the first scene's (feature, aggregate) order."""
    first = raw_by_scene[sorted(raw_by_scene)[0]]
    columns = list(first)
    layout = set(columns)
    for sid in sorted(raw_by_scene):
        if set(raw_by_scene[sid]) != layout:
            raise SchemaError("scenes disagree on their (feature, aggregate) slots")
    return columns


def bucket_boundaries(raw_by_scene: dict[str, dict[tuple[str, str], float]],
                      buckets: int) -> dict[tuple[str, str], tuple[float, ...]]:
    """Equal-frequency bucket edges per aggregate column, over all scenes."""
    if buckets < 1:
        raise ValueError("buckets must be >= 1")
    if not raw_by_scene:
        raise ValueError("categorize needs at least one scene")
    edges: dict[tuple[str, str], tuple[float, ...]] = {}
    for col in _slot_columns(raw_by_scene):
        values = np.sort([raw_by_scene[sid][col] for sid in sorted(raw_by_scene)])
        qs = np.quantile(values, np.arange(1, buckets) / buckets)
        edges[col] = tuple(np.unique(qs))
    return edges


def _categorize_value(value: float, edges: tuple[float, ...]) -> int:
    # side="left" keeps a degenerate column (all values equal) in category 0.
    return int(np.searchsorted(edges, value, side="left"))


def categorize(raw_by_scene: dict[str, dict[tuple[str, str], float]],
               buckets: int) -> tuple[dict[str, SceneProfile],
                                      dict[tuple[str, str], tuple[float, ...]]]:
    """Bucket every aggregate column jointly; returns profiles and boundaries."""
    edges = bucket_boundaries(raw_by_scene, buckets)
    columns = _slot_columns(raw_by_scene)
    profiles = {}
    for sid in sorted(raw_by_scene):
        slots = tuple((name, agg, _categorize_value(raw_by_scene[sid][(name, agg)],
                                                    edges[(name, agg)]))
                      for name, agg in columns)
        profiles[sid] = SceneProfile(scene_id=sid, slots=slots)
    return profiles, edges


@dataclass
class SceneRelationGraph:
    """Weighted undirected graph over scene profiles.

    Edge weight counts the profile slots with identical categories; zero
    weights are not stored. The build metadata (key features, bucket
    edges) travels with the graph so new scenes can be profiled against it.
    """

    profiles: dict[str, SceneProfile]
    edges: dict[tuple[str, str], int]
    key_features: tuple[str, ...] = ()
    buckets: int = 0
    boundaries: dict[tuple[str, str], tuple[float, ...]] = field(default_factory=dict)
    cc_threshold: float = 0.0

    @property
    def scene_ids(self) -> list[str]:
        return sorted(self.profiles)

    def weight(self, a: str, b: str) -> int:
        if a == b:
            return profile_weight(self.profiles[a], self.profiles[b])
        return self.edges.get((min(a, b), max(a, b)), 0)


def profile_weight(a: SceneProfile, b: SceneProfile) -> int:
    if a.layout != b.layout:
        raise SchemaError("profiles have different slot layouts")
    return _shared_slots(a, b)


def _shared_slots(a: SceneProfile, b: SceneProfile) -> int:
    """Edge weight of two profiles whose layouts the caller has checked.

    With equal layouts, two slots are equal exactly when their
    categories are.
    """
    return sum(1 for x, y in zip(a.slots, b.slots) if x == y)


def build_graph(profiles: Sequence[SceneProfile] | dict[str, SceneProfile],
                ) -> SceneRelationGraph:
    """Connect every scene pair whose profiles share at least one slot."""
    if isinstance(profiles, dict):
        profiles = list(profiles.values())
    if not profiles:
        raise ValueError("build_graph needs at least one profile")
    layouts = {p.layout for p in profiles}
    if len(layouts) != 1:
        raise SchemaError("profiles have inconsistent slot layouts")
    by_id = {p.scene_id: p for p in sorted(profiles, key=lambda p: p.scene_id)}
    ids = sorted(by_id)
    edges: dict[tuple[str, str], int] = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            w = _shared_slots(by_id[a], by_id[b])
            if w > 0:
                edges[(a, b)] = w
    return SceneRelationGraph(profiles=by_id, edges=edges)


def similar_scenes(graph: SceneRelationGraph, target: SceneProfile,
                   k: int = 5, min_weight: int = 1) -> list[tuple[str, int]]:
    """Top-k known scenes by shared-slot weight against a target profile.

    The target does not have to be a graph node. Ties break by ascending
    scene id; scenes below `min_weight` are pruned, so fewer than k
    results may come back.
    """
    if not graph.profiles:
        raise ValueError("similar_scenes needs a non-empty graph")
    if k < 1:
        raise ValueError("k must be >= 1")
    if next(iter(graph.profiles.values())).layout != target.layout:
        raise SchemaError("target profile's slot layout differs from the graph's")
    weighted = []
    for sid in graph.scene_ids:
        w = _shared_slots(graph.profiles[sid], target)
        if w >= min_weight:
            weighted.append((sid, w))
    weighted.sort(key=lambda t: (-t[1], t[0]))
    return weighted[:k]


def profile_new_scene(graph: SceneRelationGraph, scene_id: str,
                      scene_examples: Sequence[Example],
                      schema: FeatureSchema) -> SceneProfile:
    """Profile an unseen scene with the graph's stored bucket boundaries."""
    if not graph.boundaries:
        raise ValueError("graph carries no bucket boundaries; rebuild with build_srg")
    raw = profile_scene(scene_examples, graph.key_features, schema)
    slots = tuple((name, agg, _categorize_value(raw[(name, agg)],
                                                graph.boundaries[(name, agg)]))
                  for name in graph.key_features for agg in AGGREGATES)
    return SceneProfile(scene_id=scene_id, slots=slots)


def build_srg(examples: Sequence[Example], schema: FeatureSchema,
              cc_threshold: float = 0.05, buckets: int = 10,
              max_features: int | None = None) -> SceneRelationGraph:
    """Full three-step construction from a labeled training dataset."""
    labels = [ex.label for ex in examples]
    key = select_key_features(examples, labels, schema, cc_threshold, max_features)
    if not key:
        raise ValueError(f"no feature reaches |r| >= {cc_threshold}; lower the threshold")
    by_scene: dict[str, list[Example]] = {}
    for ex in examples:
        by_scene.setdefault(ex.scene_id, []).append(ex)
    raw = {sid: profile_scene(items, key, schema) for sid, items in by_scene.items()}
    profiles, edges = categorize(raw, buckets)
    graph = build_graph(profiles)
    graph.key_features = tuple(key)
    graph.buckets = buckets
    graph.boundaries = edges
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
    profiles = {node["scene_id"]: SceneProfile(
        scene_id=node["scene_id"],
        slots=tuple((name, agg, int(cat)) for name, agg, cat in node["profile"]))
        for node in obj["nodes"]}
    if len({p.layout for p in profiles.values()}) > 1:
        raise SchemaError("graph profiles have inconsistent slot layouts")
    return SceneRelationGraph(
        profiles=profiles,
        edges={(a, b): int(w) for a, b, w in obj["edges"]},
        key_features=tuple(obj["key_features"]),
        buckets=int(obj["buckets"]),
        boundaries={(e["feature"], e["aggregate"]): tuple(e["edges"])
                    for e in obj["boundaries"]},
        cc_threshold=float(obj["cc_threshold"]),
    )


def save_graph(graph: SceneRelationGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_json(graph), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_graph(path: str) -> SceneRelationGraph:
    with open(path, encoding="utf-8") as fh:
        return graph_from_json(json.load(fh))
