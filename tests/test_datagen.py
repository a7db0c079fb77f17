"""Tests for the synthetic generator, k-means and silhouette."""

import hashlib
import json
from dataclasses import fields
from math import inf, nan

import numpy as np
import pytest

from conftest import tiny_gen_config
from swan.datagen import GenConfig, choose_k, generate, kmeans, silhouette
from swan.features import (ConfigError, Feature, encode_columns, load_dataset,
                           write_dataset)


def small_config(**overrides):
    base = dict(archetypes=3, train_scenes=9, cold_scenes=3, users=60,
                items_per_scene=40, examples_per_scene=80, user_features=3,
                item_features=4, scene_attr_features=2, label_noise=0.1,
                seed=7)
    base.update(overrides)
    return GenConfig(**base)


def _recomputed_scores(result, config):
    """Latent score of every example, rebuilt from the emitted ground truth."""
    truth = result.truth
    weights = np.asarray(truth.archetype_user_weights)
    quality = np.asarray(truth.quality_weights)
    means = np.asarray(truth.item_means)
    scores = []
    for ex in result.train:
        a = truth.scene_archetypes[ex.scene_id]
        affinity = sum(weights[a][j][ex.user[f"user_f{j}"]]
                       for j in range(config.user_features))
        q = sum(quality[j] * (ex.item[f"item_f{j}"] - means[a][j])
                for j in range(config.item_features))
        scores.append(affinity + q + truth.bias)
    return np.asarray(scores)


def _digest(result) -> str:
    """sha256 over every row's user and item dicts (keys in order, each
    value with its Python type), scene id and label, then the schema and
    the ground truth."""
    h = hashlib.sha256()
    for split in (result.train, result.test):
        h.update(b"split")
        for ex in split:
            row = tuple([(k, type(v).__name__, v) for k, v in d.items()]
                        for d in (ex.user, ex.item))
            h.update(repr((row, ex.scene_id, type(ex.label).__name__,
                           ex.label)).encode())
    h.update(json.dumps([result.schema.to_json(), result.truth.to_json()],
                        sort_keys=True).encode())
    return h.hexdigest()


class TestGenerate:
    @pytest.mark.parametrize("config, digest", [
        (tiny_gen_config(),
         "4dc532a50c4c03659c2857b0b92edbe682a6f93d4c16d03c0eb58a472f8f4666"),
        (small_config(),
         "e0907054555fc3d11b544965f542cb79843eaa253b2212de18b749a2d0130fc4")])
    def test_output_pinned(self, config, digest):
        """Seeded output is fixed down to value types and dict key order:
        the rows, the fitted schema and the ground truth."""
        assert _digest(generate(config)) == digest

    def test_columns_take_the_one_pass_paths(self, monkeypatch):
        """Generated values are plain ints and floats, so fitting bucket
        boundaries and encoding never go value by value."""
        def fail(self, value):
            raise AssertionError(f"per-value call on {value!r}")
        monkeypatch.setattr(Feature, "encode", fail)
        monkeypatch.setattr(Feature, "number", fail)
        result = generate(small_config())
        for split in (result.train, result.test):
            codes = encode_columns(split, result.schema)
            assert all(len(c) == len(split) for c in codes.values())

    def test_deterministic_given_seed(self):
        a = generate(small_config())
        b = generate(small_config())
        assert len(a.train) == len(b.train)
        for x, y in zip(a.train, b.train):
            assert x.user == y.user and x.item == y.item
            assert x.scene_id == y.scene_id and x.label == y.label
        assert a.truth.to_json() == b.truth.to_json()

    def test_noiseless_labels_follow_threshold_rule(self):
        config = small_config(label_noise=0.0, archetypes=1, train_scenes=4,
                              cold_scenes=1)
        result = generate(config)
        z = _recomputed_scores(result, config)
        labels = np.array([ex.label for ex in result.train])
        np.testing.assert_array_equal(labels, (z > 0).astype(int))

    def test_cold_scenes_never_in_train(self):
        result = generate(small_config())
        train_scenes = {ex.scene_id for ex in result.train}
        test_scenes = {ex.scene_id for ex in result.test}
        assert train_scenes.isdisjoint(test_scenes)
        assert len(test_scenes) == 3

    def test_positive_rate_near_target(self):
        for seed in (0, 1, 2):
            result = generate(small_config(seed=seed, train_scenes=12,
                                           examples_per_scene=400))
            labels = np.array([ex.label for ex in result.train])
            assert abs(labels.mean() - 0.25) < 0.03

    def test_archetypes_balanced_and_attrs_noisy_copy(self):
        config = small_config(attr_noise=0.0)
        result = generate(config)
        for ex in result.train:
            a = result.truth.scene_archetypes[ex.scene_id]
            assert ex.item["scene_f0"] == a and ex.item["scene_f1"] == a

    def test_round_trips_through_dataset_files(self, tmp_path):
        result = generate(small_config())
        path = tmp_path / "train.jsonl"
        write_dataset(result.train, path)
        loaded = load_dataset(path, result.schema)
        assert len(loaded) == len(result.train)
        assert loaded.oov_count == 0

    def test_truth_round_trip(self, tmp_path):
        result = generate(small_config())
        path = tmp_path / "truth.json"
        result.truth.save(path)
        assert json.loads(path.read_text()) == result.truth.to_json()

    def test_default_json_pinned(self):
        assert GenConfig().to_json() == {
            "archetypes": 4, "train_scenes": 60, "cold_scenes": 20,
            "users": 400, "items_per_scene": 150, "examples_per_scene": 800,
            "user_features": 4, "item_features": 7, "scene_attr_features": 2,
            "label_noise": 0.1, "seed": 0, "positive_rate": 0.25,
            "user_vocab": 8, "attr_noise": 0.4, "archetype_spread": 0.7,
            "affinity_scale": 1.6, "quality_scale": 1.5,
            "quality_profile": [1.0, 0.62, 0.33, 0.26, 0.11, 0.0, 0.0]}

    def test_unknown_config_keys_named(self):
        obj = small_config().to_json()
        obj["trian_scenes"] = 3
        obj["noise"] = 0.2
        with pytest.raises(ConfigError, match=r"\['noise', 'trian_scenes'\]"):
            GenConfig.from_json(obj)

    @pytest.mark.parametrize("value", [None, 0.5, "1.0"])
    def test_quality_profile_not_a_list_named(self, value):
        # null selected a decay profile that no longer exists.
        with pytest.raises(ConfigError, match="GenConfig quality_profile must be a list"):
            GenConfig.from_json({"quality_profile": value})

    @pytest.mark.parametrize("name, value", [
        *((f.name, bad) for f in fields(GenConfig) for bad in ("x", True)),
        ("users", 2.5), ("seed", None), ("quality_profile", ["a"]),
        ("quality_profile", [1.0, True]),
        # in type but out of range
        *(("attr_noise", bad) for bad in (-0.1, 1.5, nan, inf)),
        *((name, bad) for name in ("archetype_spread", "affinity_scale",
                                   "quality_scale")
          for bad in (-1.0, nan, inf)),
        ("quality_profile", [1.0, nan]), ("quality_profile", [inf, 0.5]),
        ("seed", -1)])
    def test_wrongly_typed_field_named(self, name, value):
        with pytest.raises(ConfigError, match=rf"GenConfig {name} must be"):
            GenConfig.from_json({name: value})

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            small_config(label_noise=0.5)
        with pytest.raises(ValueError):
            small_config(archetypes=0)


def _blobs(rng, centers, n_per, spread=0.4):
    points = np.concatenate([c + spread * rng.normal(size=(n_per, len(c)))
                             for c in centers])
    labels = np.repeat(np.arange(len(centers)), n_per)
    return points, labels


class TestKmeans:
    def test_two_separated_groups_recovered(self):
        rng = np.random.default_rng(0)
        points, planted = _blobs(rng, [(-5.0, -5.0), (5.0, 5.0)], 30)
        assign, _ = kmeans(points, 2, seed=0)
        # Same partition up to label swap.
        agreement = max((assign == planted).mean(), (assign != planted).mean())
        assert agreement == 1.0

    def test_k_equals_n_zero_inertia(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(6, 2))
        assign, centers = kmeans(points, 6, seed=0)
        assert sorted(assign) == list(range(6))
        np.testing.assert_allclose(
            np.sort(centers, axis=0), np.sort(points, axis=0), atol=1e-12)

    def test_invalid_k(self):
        points = np.zeros((4, 2))
        points[1:] = np.arange(3)[:, None]
        with pytest.raises(ValueError):
            kmeans(points, 0)
        with pytest.raises(ValueError):
            kmeans(points, 5)

    def test_k_exceeding_distinct_points(self):
        points = np.array([[0.0], [0.0], [1.0]])
        with pytest.raises(ValueError):
            kmeans(points, 3)

    def test_planted_three_blobs_recovered(self):
        rng = np.random.default_rng(2)
        points, planted = _blobs(rng, [(-6, 0), (6, 0), (0, 9)], 40)
        assign, _ = kmeans(points, 3, seed=3)
        # Permutation-invariant agreement: each planted blob maps to one cluster.
        for blob in range(3):
            values, counts = np.unique(assign[planted == blob],
                                       return_counts=True)
            assert counts.max() == 40
        assert len({assign[planted == b][0] for b in range(3)}) == 3

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(50, 3))
        a1, c1 = kmeans(points, 4, seed=9)
        a2, c2 = kmeans(points, 4, seed=9)
        assert np.array_equal(a1, a2) and np.array_equal(c1, c2)


class TestSilhouette:
    def test_two_tight_far_blobs(self):
        rng = np.random.default_rng(5)
        points, labels = _blobs(rng, [(-10.0,), (10.0,)], 25, spread=0.1)
        assert silhouette(points, labels) > 0.9

    def test_four_point_line(self):
        # Split at the gap: a = 0.1 for every point, b = 10.05 for the outer
        # points and 9.95 for the inner ones.
        points = np.array([[0.0], [0.1], [10.0], [10.1]])
        labels = np.array([0, 0, 1, 1])
        value = silhouette(points, labels)
        expected = np.mean([(10.05 - 0.1) / 10.05, (9.95 - 0.1) / 9.95,
                            (9.95 - 0.1) / 9.95, (10.05 - 0.1) / 10.05])
        assert value == pytest.approx(expected, abs=1e-9)
        assert value > 0.98

    def test_single_cluster_rejected(self):
        with pytest.raises(ValueError):
            silhouette(np.zeros((4, 1)), np.zeros(4, dtype=int))

    def test_singleton_cluster_contributes_zero(self):
        points = np.array([[0.0], [0.2], [9.0]])
        labels = np.array([0, 0, 1])
        oracle = np.mean([(9.0 - 0.2) / 9.0, (8.8 - 0.2) / 8.8, 0.0])
        assert silhouette(points, labels) == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_quadratic_oracle(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(60, 3))
        assign, _ = kmeans(points, 4, seed=seed)

        def oracle():
            total = 0.0
            for i in range(len(points)):
                same = [j for j in range(len(points))
                        if assign[j] == assign[i] and j != i]
                if not same:
                    continue
                a = np.mean([np.linalg.norm(points[i] - points[j]) for j in same])
                b = min(np.mean([np.linalg.norm(points[i] - points[j])
                                 for j in range(len(points)) if assign[j] == lab])
                        for lab in set(assign) if lab != assign[i])
                total += (b - a) / max(a, b)
            return total / len(points)

        assert silhouette(points, assign) == pytest.approx(oracle(), abs=1e-9)


class TestChooseK:
    def test_three_blob_sweep_selects_three(self):
        rng = np.random.default_rng(6)
        points, _ = _blobs(rng, [(-6, 0), (6, 0), (0, 9)], 40, spread=0.8)
        best, scores = choose_k(points, [2, 3, 4, 6, 9], seed=0)
        assert best == 3
        assert set(scores) == {2, 3, 4, 6, 9}
