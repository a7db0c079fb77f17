"""Tests for the scene relation graph construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swan.features import Example, Feature, FeatureSchema, SchemaError
from swan.srg import (SceneProfile, build_graph, build_srg, categorize,
                      graph_from_json, graph_to_json, pearson,
                      profile_new_scene, profile_scene, select_key_features,
                      similar_scenes)


def _item_schema(n_features, vocab=12):
    return FeatureSchema([Feature(f"f{i}", "categorical", "item", vocab=vocab)
                          for i in range(n_features)])


def _examples_from_matrix(values, labels, scene_ids=None):
    n, m = values.shape
    scene_ids = scene_ids or ["s"] * n
    return [Example(user={}, item={f"f{j}": int(values[i, j]) for j in range(m)},
                    scene_id=scene_ids[i], label=int(labels[i]))
            for i in range(n)]


def _pearson_two_pass(x, y):
    """Definitional oracle: explicit means, then explicit covariance loops."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((xi - mx) * (yi - my) for xi, yi in zip(x, y))
    vx = sum((xi - mx) ** 2 for xi in x)
    vy = sum((yi - my) ** 2 for yi in y)
    if vx == 0 or vy == 0:
        return 0.0
    return cov / (vx ** 0.5 * vy ** 0.5)


class TestKeyFeatureSelection:
    def test_pearson_matches_two_pass_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(size=30)
            y = rng.normal(size=30)
            assert pearson(x, y) == pytest.approx(_pearson_two_pass(x, y), abs=1e-12)

    def test_feature_equal_to_label_selected(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, size=40)
        values = np.column_stack([labels, rng.integers(0, 5, size=40)])
        examples = _examples_from_matrix(values, labels)
        schema = _item_schema(2)
        selected = select_key_features(examples, labels, schema, cc_threshold=1.0)
        assert selected == ["f0"]

    def test_anticorrelated_feature_selected(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 2, size=40)
        values = np.column_stack([1 - labels])
        examples = _examples_from_matrix(values, labels)
        selected = select_key_features(examples, labels, _item_schema(1), 0.99)
        assert selected == ["f0"]

    def test_constant_feature_excluded(self):
        labels = np.array([0, 1] * 10)
        values = np.full((20, 1), 3)
        examples = _examples_from_matrix(values, labels)
        assert select_key_features(examples, labels, _item_schema(1), 0.0) == []

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            select_key_features([], [], _item_schema(1), 0.05)

    def test_planted_five_of_twenty(self):
        # Labels are a noisy function of features 0..4 only.
        rng = np.random.default_rng(3)
        n = 4000
        values = rng.integers(0, 12, size=(n, 20))
        signal = (values[:, :5] @ np.array([3.0, 2.5, 2.0, 1.5, 1.2]))
        z = signal - np.median(signal) + rng.normal(0, 2.0, size=n)
        labels = (z > 0).astype(int)
        examples = _examples_from_matrix(values, labels)
        selected = select_key_features(examples, labels, _item_schema(20), 0.05)
        # Verify against an independent correlation computation.
        expected = [f"f{j}" for j in range(20)
                    if abs(_pearson_two_pass(values[:, j], labels)) >= 0.05]
        assert sorted(selected) == sorted(expected)
        assert sorted(selected) == [f"f{j}" for j in range(5)]

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(4)
        n = 500
        values = rng.integers(0, 8, size=(n, 10))
        labels = ((values[:, 0] + rng.normal(0, 3, n)) > 3.5).astype(int)
        examples = _examples_from_matrix(values, labels)
        schema = _item_schema(10)
        counts = [len(select_key_features(examples, labels, schema, t))
                  for t in (0.0, 0.01, 0.02, 0.05, 0.1, 0.3, 1.0)]
        assert counts == sorted(counts, reverse=True)

    def test_max_features_cap(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 2, size=200)
        values = np.column_stack([labels, labels ^ (rng.random(200) < 0.2),
                                  labels ^ (rng.random(200) < 0.4)])
        examples = _examples_from_matrix(values, labels)
        selected = select_key_features(examples, labels, _item_schema(3), 0.01,
                                       max_features=2)
        assert len(selected) == 2
        assert selected[0] == "f0"


class TestProfiling:
    def test_aggregates_direct(self):
        schema = _item_schema(1)
        examples = _examples_from_matrix(np.array([[1], [3]]), [0, 0])
        raw = profile_scene(examples, ["f0"], schema)
        assert raw[("f0", "mean")] == 2.0
        assert raw[("f0", "var")] == 1.0
        assert raw[("f0", "max")] == 3.0
        assert raw[("f0", "min")] == 1.0

    def test_single_item_scene(self):
        schema = _item_schema(1)
        examples = _examples_from_matrix(np.array([[7]]), [0])
        raw = profile_scene(examples, ["f0"], schema)
        assert raw[("f0", "mean")] == 7.0
        assert raw[("f0", "var")] == 0.0
        assert raw[("f0", "max")] == raw[("f0", "min")] == 7.0

    def test_population_variance(self):
        schema = _item_schema(1)
        examples = _examples_from_matrix(np.array([[2], [4], [6], [8]]), [0] * 4)
        raw = profile_scene(examples, ["f0"], schema)
        assert raw[("f0", "mean")] == 5.0
        assert raw[("f0", "var")] == 5.0
        assert raw[("f0", "max")] == 8.0
        assert raw[("f0", "min")] == 2.0

    def test_empty_scene_rejected(self):
        with pytest.raises(ValueError):
            profile_scene([], ["f0"], _item_schema(1))


class TestCategorize:
    def test_two_scenes_two_buckets(self):
        raw = {"a": {("f", "mean"): 1.0}, "b": {("f", "mean"): 5.0}}
        profiles, _ = categorize(raw, buckets=2)
        assert profiles["a"].categories == (0,)
        assert profiles["b"].categories == (1,)

    def test_degenerate_column_all_zero(self):
        raw = {s: {("f", "mean"): 4.2} for s in "abcd"}
        profiles, _ = categorize(raw, buckets=10)
        assert all(profiles[s].categories == (0,) for s in "abcd")

    def test_ten_scenes_five_buckets(self):
        raw = {f"s{i:02d}": {("f", "mean"): float(i + 1)} for i in range(10)}
        profiles, _ = categorize(raw, buckets=5)
        cats = [profiles[f"s{i:02d}"].categories[0] for i in range(10)]
        assert cats == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]

    def test_bad_bucket_count(self):
        with pytest.raises(ValueError):
            categorize({"a": {("f", "mean"): 1.0}}, buckets=0)


def _profile(sid, cats, names=None):
    names = names or [f"k{i}" for i in range(len(cats))]
    return SceneProfile(sid, tuple((n, "mean", c) for n, c in zip(names, cats)))


class TestGraph:
    def test_shared_slot_weight(self):
        # Profiles sharing exactly two categorized slots get weight 2.
        g = build_graph([_profile("s2", (0, 1, 2)), _profile("s3", (0, 1, 3))])
        assert g.weight("s2", "s3") == 2

    def test_identical_profiles_full_weight(self):
        g = build_graph([_profile("a", tuple(range(7))),
                         _profile("b", tuple(range(7)))])
        assert g.weight("a", "b") == 7

    def test_disjoint_profiles_no_edge(self):
        g = build_graph([_profile("a", (0, 0)), _profile("b", (1, 1))])
        assert g.edges == {}

    def test_inconsistent_layout_rejected(self):
        with pytest.raises(SchemaError):
            build_graph([_profile("a", (0,)), _profile("b", (0, 1))])

    def test_symmetry_exhaustive(self):
        rng = np.random.default_rng(6)
        profiles = [_profile(f"s{i}", tuple(rng.integers(0, 3, size=4)))
                    for i in range(50)]
        g = build_graph(profiles)
        for i in range(50):
            for j in range(50):
                assert g.weight(f"s{i}", f"s{j}") == g.weight(f"s{j}", f"s{i}")

    def test_json_round_trip(self):
        g = build_graph([_profile("a", (0, 1)), _profile("b", (0, 2))])
        g.key_features = ("k0", "k1")
        g.buckets = 3
        g.boundaries = {("k0", "mean"): (0.5,), ("k1", "mean"): (1.5, 2.5)}
        g.cc_threshold = 0.05
        again = graph_from_json(graph_to_json(g))
        assert again.edges == g.edges
        assert again.profiles["a"].slots == g.profiles["a"].slots
        assert again.boundaries == g.boundaries

    def test_json_inconsistent_layout_rejected(self):
        obj = graph_to_json(build_graph([_profile("a", (0, 1)),
                                         _profile("b", (0, 2))]))
        obj["nodes"][1]["profile"] = [["k0", "mean", 0], ["k9", "max", 2]]
        with pytest.raises(SchemaError, match="layout"):
            graph_from_json(obj)


class TestSimilarScenes:
    def test_identical_target_ranks_first_full_weight(self):
        g = build_graph([_profile("a", (0, 1, 2)), _profile("b", (0, 9, 9))])
        out = similar_scenes(g, _profile("q", (0, 1, 2)), k=2, min_weight=1)
        assert out[0] == ("a", 3)

    def test_unreachable_threshold_empty(self):
        g = build_graph([_profile("a", (0, 1)), _profile("b", (0, 1))])
        assert similar_scenes(g, _profile("q", (0, 1)), k=3, min_weight=99) == []

    def test_rank_and_tie_break(self):
        g = build_graph([
            _profile("s_d", (0, 1, 9)), _profile("s_b", (0, 1, 2)),
            _profile("s_a", (0, 1, 3)), _profile("s_c", (7, 8, 6)),
        ])
        out = similar_scenes(g, _profile("q", (0, 1, 4)), k=3, min_weight=1)
        assert out == [("s_a", 2), ("s_b", 2), ("s_d", 2)]

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            similar_scenes(
                build_graph([_profile("a", (0,))]).__class__({}, {}),
                _profile("q", (0,)))

    def test_target_layout_mismatch_rejected(self):
        g = build_graph([_profile("a", (0, 1)), _profile("b", (0, 2))])
        with pytest.raises(SchemaError, match="layout"):
            similar_scenes(g, _profile("q", (0, 1, 2)))
        with pytest.raises(SchemaError, match="layout"):
            similar_scenes(g, _profile("q", (0, 1), names=["k0", "other"]))

    @given(st.permutations(range(6)))
    @settings(max_examples=30, deadline=None)
    def test_stable_under_input_permutation(self, order):
        rng = np.random.default_rng(7)
        cats = [tuple(rng.integers(0, 3, size=4)) for _ in range(6)]
        profiles = [_profile(f"s{i}", cats[i]) for i in range(6)]
        base = build_graph(profiles)
        permuted = build_graph([profiles[i] for i in order])
        target = _profile("q", (0, 1, 2, 0))
        assert (similar_scenes(base, target, k=4) ==
                similar_scenes(permuted, target, k=4))


class TestEndToEnd:
    def test_build_srg_and_profile_new_scene(self):
        rng = np.random.default_rng(8)
        rows, labels, scene_ids = [], [], []
        for s in range(6):
            center = (s % 2) * 6
            for _ in range(40):
                v = center + rng.integers(0, 4)
                rows.append([v])
                labels.append(int(v >= 5))
                scene_ids.append(f"s{s}")
        examples = _examples_from_matrix(np.array(rows), labels, scene_ids)
        graph = build_srg(examples, _item_schema(1), cc_threshold=0.05, buckets=4)
        assert graph.key_features == ("f0",)
        assert set(graph.profiles) == {f"s{s}" for s in range(6)}

        new_rows = [[6 + rng.integers(0, 4)] for _ in range(40)]
        new = _examples_from_matrix(np.array(new_rows), [1] * 40,
                                    ["new"] * 40)
        profile = profile_new_scene(graph, "new", new, _item_schema(1))
        ranked = similar_scenes(graph, profile, k=3)
        assert ranked, "a same-cluster neighbor should clear the threshold"
        assert int(ranked[0][0][1]) % 2 == 1  # odd scenes share the high cluster
