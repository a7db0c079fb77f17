"""Synthetic dynamic multi-scene dataset generator and clustering utilities.

Scenes are planted on a small set of hidden archetypes: an archetype
fixes the item feature distributions of its scenes, the (noisy) scene
attribute values, and how user feature values translate into click
affinity. Same-archetype scenes therefore share key-feature statistics,
which is exactly the structure the scene relation graph is meant to
pick up, while cold-start scenes draw from the same archetype pool but
never appear in the training split.

Labels follow a deterministic threshold rule: click iff the latent score
(user-archetype affinity + item quality + calibrated bias) is positive,
then flipped with the configured noise probability. The bias is fit on
the training split so the positive rate lands on the configured target
after noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .features import (Config, Dataset, Example, Feature, FeatureSchema,
                       fit_numeric_boundaries, read_json, write_json)


@dataclass(frozen=True)
class GenConfig(Config):
    """Generator knobs; the JSON config file mirrors these field names."""

    archetypes: int = 4
    train_scenes: int = 60
    cold_scenes: int = 20
    users: int = 400
    items_per_scene: int = 150
    examples_per_scene: int = 800
    user_features: int = 4
    item_features: int = 7
    scene_attr_features: int = 2
    label_noise: float = 0.1
    seed: int = 0
    positive_rate: float = 0.25
    user_vocab: int = 8
    attr_noise: float = 0.4
    archetype_spread: float = 0.7
    affinity_scale: float = 1.6
    quality_scale: float = 1.5
    quality_profile: tuple[float, ...] = (1.0, 0.62, 0.33, 0.26, 0.11, 0.0, 0.0)

    def _rules(self) -> tuple:
        counts = ("archetypes", "train_scenes", "cold_scenes", "users",
                  "items_per_scene", "examples_per_scene", "user_features",
                  "item_features", "scene_attr_features", "user_vocab")
        return (*((name, getattr(self, name) >= 1, "positive") for name in counts),
                ("seed", self.seed >= 0, "at least 0"),
                ("label_noise", 0.0 <= self.label_noise < 0.5, "in [0, 0.5)"),
                ("positive_rate", 0.0 < self.positive_rate < 1.0, "in (0, 1)"),
                ("attr_noise", 0.0 <= self.attr_noise <= 1.0, "in [0, 1]"),
                *((name, 0.0 <= getattr(self, name) < math.inf,
                   "finite and non-negative")
                  for name in ("archetype_spread", "affinity_scale", "quality_scale")),
                ("quality_profile", all(map(math.isfinite, self.quality_profile)),
                 "a tuple of finite numbers"))


@dataclass
class GroundTruth:
    """Hidden generator state, emitted for diagnostics only."""

    scene_archetypes: dict[str, int]
    archetype_user_weights: list  # [A][user_features][user_vocab]
    quality_weights: list         # [item_features]
    item_means: list              # [A][item_features]
    item_sigmas: list             # [A][item_features]
    bias: float

    def to_json(self) -> dict:
        return {
            "archetype_user_weights": self.archetype_user_weights,
            "bias": self.bias,
            "item_means": self.item_means,
            "item_sigmas": self.item_sigmas,
            "quality_weights": self.quality_weights,
            "scene_archetypes": dict(self.scene_archetypes),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GroundTruth":
        return cls(scene_archetypes=dict(obj["scene_archetypes"]),
                   archetype_user_weights=obj["archetype_user_weights"],
                   quality_weights=obj["quality_weights"],
                   item_means=obj["item_means"], item_sigmas=obj["item_sigmas"],
                   bias=float(obj["bias"]))

    def save(self, path: str) -> None:
        write_json(path, self.to_json())

    @classmethod
    def load(cls, path: str) -> "GroundTruth":
        return read_json(path, cls.from_json, "truth")


@dataclass
class GenResult:
    train: Dataset
    test: Dataset
    truth: GroundTruth
    schema: FeatureSchema


def _quality_weights(cfg: GenConfig) -> np.ndarray:
    """Per-feature quality weights, spread over the cc-threshold grid.

    The relative profile is padded with zeros or truncated to the feature
    count; each feature-label correlation is meant to sit well inside one
    threshold band instead of hugging an edge.
    """
    rel = np.zeros(cfg.item_features)
    given = np.asarray(cfg.quality_profile, dtype=np.float64)
    rel[:min(len(given), cfg.item_features)] = given[:cfg.item_features]
    return cfg.quality_scale * rel


def generate(config: GenConfig) -> GenResult:
    """Build the train split, the cold-start test split and the ground truth."""
    cfg = config
    rng = np.random.default_rng(cfg.seed)
    A = cfg.archetypes

    user_values = rng.integers(0, cfg.user_vocab,
                               size=(cfg.users, cfg.user_features))
    # Per-archetype preference of each user feature value; affinity variance
    # is roughly affinity_scale squared. Rows are centered over the value
    # vocabulary so no archetype gets a population-level rate shift. Odd
    # archetypes invert their predecessor's preferences: transferring
    # across the wrong pair is then actively harmful, not merely
    # uninformative.
    user_weights = rng.normal(0.0, cfg.affinity_scale / np.sqrt(cfg.user_features),
                              size=(A, cfg.user_features, cfg.user_vocab))
    user_weights -= user_weights.mean(axis=2, keepdims=True)
    for a in range(1, A, 2):
        user_weights[a] = -user_weights[a - 1]
    # Archetype item means sit on an equally spaced grid (independently
    # permuted per feature, plus jitter). Adjacent archetypes stay one
    # spread apart on every feature: scene-level aggregates separate them
    # cleanly while a single item remains ambiguous.
    offsets = np.arange(A, dtype=np.float64) - (A - 1) / 2.0
    item_means = np.empty((A, cfg.item_features))
    for f in range(cfg.item_features):
        item_means[:, f] = cfg.archetype_spread * rng.permutation(offsets)
    item_means += rng.normal(0.0, 0.15 * cfg.archetype_spread,
                             size=item_means.shape)
    item_sigmas = rng.uniform(0.85, 1.15, size=(A, cfg.item_features))
    quality_w = _quality_weights(cfg)

    def scene_archetype_list(count: int) -> list[int]:
        kinds = np.array([i % A for i in range(count)])
        rng.shuffle(kinds)
        return [int(a) for a in kinds]

    train_ids = [f"scene_{i:04d}" for i in range(cfg.train_scenes)]
    cold_ids = [f"cold_{i:04d}" for i in range(cfg.cold_scenes)]
    archetypes = dict(zip(train_ids, scene_archetype_list(cfg.train_scenes)))
    archetypes.update(zip(cold_ids, scene_archetype_list(cfg.cold_scenes)))

    def make_scene(scene_id: str) -> dict:
        a = archetypes[scene_id]
        items = rng.normal(item_means[a], item_sigmas[a],
                           size=(cfg.items_per_scene, cfg.item_features))
        attrs = np.full(cfg.scene_attr_features, a)
        noisy = rng.random(cfg.scene_attr_features) < cfg.attr_noise
        attrs[noisy] = rng.integers(0, A, size=int(noisy.sum()))
        return {"archetype": a, "items": items, "attrs": attrs}

    scenes = {sid: make_scene(sid) for sid in train_ids + cold_ids}

    def draw_examples(scene_ids: Sequence[str]):
        # Quality is centered on the archetype's item means so that scene
        # base rates do not drift with the archetype; without this, every
        # archetype-conditioned feature picks up a spurious label
        # correlation through the scene-level rate shifts.
        drawn = []
        for sid in scene_ids:
            scene = scenes[sid]
            a = scene["archetype"]
            u_idx = rng.integers(0, cfg.users, size=cfg.examples_per_scene)
            i_idx = rng.integers(0, cfg.items_per_scene,
                                 size=cfg.examples_per_scene)
            affinity = user_weights[a][np.arange(cfg.user_features),
                                       user_values[u_idx]].sum(axis=1)
            quality = (scene["items"][i_idx] - item_means[a]) @ quality_w
            drawn.append((sid, u_idx, i_idx, affinity + quality))
        return drawn

    train_raw = draw_examples(train_ids)
    test_raw = draw_examples(cold_ids)

    # Threshold-rule labels: calibrate the bias so the post-flip positive
    # rate lands on the target.
    eps = cfg.label_noise
    pre_flip_rate = (cfg.positive_rate - eps) / (1.0 - 2.0 * eps)
    pre_flip_rate = min(max(pre_flip_rate, 1e-6), 1.0 - 1e-6)
    z_train = np.concatenate([z for _, _, _, z in train_raw])
    bias = -float(np.quantile(z_train, 1.0 - pre_flip_rate))

    user_names = [f"user_f{j}" for j in range(cfg.user_features)]
    item_names = ([f"item_f{j}" for j in range(cfg.item_features)]
                  + [f"scene_f{j}" for j in range(cfg.scene_attr_features)])

    def to_examples(raw) -> list[Example]:
        # Rows are built from each scene's `tolist()` columns, so every value
        # is a plain Python int or float and encodes in one numpy pass.
        out = []
        for sid, u_idx, i_idx, z in raw:
            scene = scenes[sid]
            labels = (z + bias > 0.0).astype(np.int64)
            flips = rng.random(len(labels)) < eps
            labels[flips] = 1 - labels[flips]
            attrs = scene["attrs"].tolist()
            for user, item, label in zip(user_values[u_idx].tolist(),
                                         scene["items"][i_idx].tolist(),
                                         labels.tolist()):
                out.append(Example(user=dict(zip(user_names, user)),
                                   item=dict(zip(item_names, item + attrs)),
                                   scene_id=sid, label=label))
        return out

    train_examples = to_examples(train_raw)
    test_examples = to_examples(test_raw)

    schema = FeatureSchema(
        [Feature(f"user_f{j}", "categorical", "user", vocab=cfg.user_vocab)
         for j in range(cfg.user_features)]
        + [Feature(f"item_f{j}", "numeric", "item")
           for j in range(cfg.item_features)]
        + [Feature(f"scene_f{j}", "categorical", "scene", vocab=A)
           for j in range(cfg.scene_attr_features)])
    schema = fit_numeric_boundaries(train_examples, schema, buckets=10)

    truth = GroundTruth(
        scene_archetypes={sid: int(a) for sid, a in archetypes.items()},
        archetype_user_weights=user_weights.tolist(),
        quality_weights=quality_w.tolist(),
        item_means=item_means.tolist(),
        item_sigmas=item_sigmas.tolist(),
        bias=bias)
    return GenResult(train=Dataset(train_examples, schema=schema),
                     test=Dataset(test_examples, schema=schema),
                     truth=truth, schema=schema)


# ---------------------------------------------------------------------------
# k-means and silhouette (dataset-preparation utilities)


def _pairwise_sq_dist(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centers[None, :, :]
    return (diff * diff).sum(axis=-1)


LLOYD_ITERATIONS = 100
KMEANS_RESTARTS = 4


def _lloyd(pts: np.ndarray, k: int, rng: np.random.Generator):
    n = len(pts)
    # k-means++ seeding
    centers = np.empty((k, pts.shape[1]))
    centers[0] = pts[rng.integers(n)]
    closest = _pairwise_sq_dist(pts, centers[:1]).ravel()
    for j in range(1, k):
        prob = closest / closest.sum() if closest.sum() > 0 else np.full(n, 1.0 / n)
        centers[j] = pts[rng.choice(n, p=prob)]
        closest = np.minimum(closest, _pairwise_sq_dist(pts, centers[j:j + 1]).ravel())

    assign = np.full(n, -1, dtype=np.int64)
    prev_inertia = np.inf
    inertia = prev_inertia
    for _ in range(LLOYD_ITERATIONS):
        d2 = _pairwise_sq_dist(pts, centers)
        new_assign = d2.argmin(axis=1)
        inertia = float(d2[np.arange(n), new_assign].sum())
        assert inertia <= prev_inertia + 1e-9, "Lloyd iteration increased inertia"
        prev_inertia = inertia
        if (new_assign == assign).all():
            break
        assign = new_assign
        for j in range(k):
            members = pts[assign == j]
            if len(members):
                centers[j] = members.mean(axis=0)
            else:
                worst = d2[np.arange(n), assign].argmax()
                centers[j] = pts[worst]
    return assign, centers, inertia


def kmeans(points, k: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """At most LLOYD_ITERATIONS Lloyd iterations from each of
    KMEANS_RESTARTS seeded k-means++ starts.

    Returns (assignments, centroids) of the restart with the lowest
    inertia. Inertia is asserted non-increasing across iterations; an
    emptied cluster is re-seeded at the point farthest from its assigned
    centroid.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = len(pts)
    if k < 1 or k > n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if k > len(np.unique(pts, axis=0)):
        raise ValueError(f"k={k} exceeds the number of distinct points")
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(KMEANS_RESTARTS):
        assign, centers, inertia = _lloyd(pts, k, rng)
        if best is None or inertia < best[2]:
            best = (assign, centers, inertia)
    return best[0], best[1]


def silhouette(points, assignments) -> float:
    """Mean silhouette coefficient; singleton clusters contribute 0."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    assign = np.asarray(assignments, dtype=np.int64)
    labels = np.unique(assign)
    if len(labels) < 2:
        raise ValueError("silhouette needs at least two clusters")
    if len(assign) != len(pts):
        raise ValueError("assignments must align with points")
    dist = np.sqrt(np.maximum(_pairwise_sq_dist(pts, pts), 0.0))
    sizes = {lab: int((assign == lab).sum()) for lab in labels}
    scores = np.zeros(len(pts))
    for i in range(len(pts)):
        own = assign[i]
        if sizes[own] == 1:
            continue
        a = dist[i][assign == own].sum() / (sizes[own] - 1)
        b = min(dist[i][assign == lab].mean() for lab in labels if lab != own)
        scores[i] = (b - a) / max(a, b)
    return float(scores.mean())


def choose_k(points, ks: Sequence[int], seed: int = 0) -> tuple[int, dict[int, float]]:
    """Silhouette sweep over candidate cluster counts; ties pick the smaller k."""
    scores: dict[int, float] = {}
    for k in ks:
        assign, _ = kmeans(points, k, seed=seed)
        scores[k] = silhouette(points, assign)
    best = max(sorted(scores), key=lambda k: (scores[k], -k))
    return best, scores
