"""Tests for the scene relation graph construction."""

import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_gen_config, tiny_model_config, tiny_train_config
from swan.datagen import generate
from swan.features import (Example, Feature, FeatureSchema, SchemaError, group_rows,
                           scene_codes)
from swan.srg import (AGGREGATES, SceneProfile, SceneRelationGraph, aggregates,
                      bucket_boundaries, build_srg, categorize,
                      graph_from_json, graph_to_json, load_graph, pearson,
                      profile_new_scene, select_key_features, similar_scenes)
from swan import srg as swan_srg
from swan.metrics import evaluate
from swan.model import ComponentFlags, ModelConfig, predict_scores, resolve_neighbors
from swan.serialize import load_model, save_model
from swan.training import train


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


def _loop_aggregates(codes, groups):
    """`aggregates` as it was: one scene and one column at a time, four
    1-D reductions each."""
    out = np.empty((len(groups), len(codes) * len(AGGREGATES)))
    for g, rows in enumerate(groups):
        stats = []
        for col in codes.values():
            values = col[rows].astype(np.float64)
            stats += [values.mean(), values.var(), values.max(), values.min()]
        out[g] = stats
    return out


@st.composite
def _grouped_codes(draw):
    """Code columns over row groups: one-row groups, groups of equal and of
    unequal sizes, constant columns and narrow or wide code ranges."""
    sizes = draw(st.lists(st.just(1) | st.integers(1, 12) | st.integers(1, 300),
                          min_size=1, max_size=12))
    if draw(st.booleans()):
        sizes += sizes[:draw(st.integers(0, len(sizes)))]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_rows = sum(sizes)
    codes = {}
    for j in range(draw(st.integers(1, 4))):
        high = draw(st.sampled_from([1, 4, 10 ** 6]))  # 1: a constant column
        codes[f"f{j}"] = rng.integers(0, high, n_rows) + rng.integers(0, 50)
    groups = np.split(rng.permutation(n_rows), np.cumsum(sizes)[:-1])
    if draw(st.booleans()):
        groups = [np.sort(rows) for rows in groups]
    return codes, groups


def _aggregates(values):
    """One scene's aggregates of one code column, keyed by aggregate kind."""
    raw = aggregates({"f0": np.array(values)}, [np.arange(len(values))])
    return dict(zip(AGGREGATES, raw[0]))


class TestProfiling:
    def test_aggregates_direct(self):
        raw = _aggregates([1, 3])
        assert raw == {"mean": 2.0, "var": 1.0, "max": 3.0, "min": 1.0}

    def test_single_item_scene(self):
        raw = _aggregates([7])
        assert raw == {"mean": 7.0, "var": 0.0, "max": 7.0, "min": 7.0}

    def test_population_variance(self):
        raw = _aggregates([2, 4, 6, 8])
        assert raw == {"mean": 5.0, "var": 5.0, "max": 8.0, "min": 2.0}

    def test_empty_scene_rejected(self):
        with pytest.raises(ValueError):
            aggregates({"f0": np.array([1, 2])}, [np.arange(2), np.arange(0)])

    @given(_grouped_codes())
    @settings(max_examples=150, deadline=None)
    def test_aggregates_equal_per_scene_loop_bit_for_bit(self, case):
        # The grouped reductions must round each value as the 1-D
        # reduction over that scene's slice did.
        codes, groups = case
        np.testing.assert_array_equal(aggregates(codes, groups).view(np.int64),
                                      _loop_aggregates(codes, groups).view(np.int64))

    def test_no_key_columns(self):
        assert aggregates({}, [np.arange(3), np.arange(2)]).shape == (2, 0)

    def test_slots_run_feature_by_feature(self):
        codes = {"b": np.array([1, 3, 5]), "a": np.array([0, 0, 6])}
        raw = aggregates(codes, [[0, 1], [2]])
        assert raw.tolist() == [[2.0, 1.0, 3.0, 1.0, 0.0, 0.0, 0.0, 0.0],
                                [5.0, 0.0, 5.0, 5.0, 6.0, 0.0, 6.0, 6.0]]


def _categories(values, buckets):
    """Categories of one aggregate column bucketed over its own scenes."""
    raw = np.array(values, dtype=np.float64)[:, None]
    return categorize(raw, bucket_boundaries(raw, buckets))[:, 0].tolist()


class TestCategorize:
    def test_two_scenes_two_buckets(self):
        assert _categories([1.0, 5.0], buckets=2) == [0, 1]

    def test_degenerate_column_all_zero(self):
        assert _categories([4.2] * 4, buckets=10) == [0] * 4

    def test_ten_scenes_five_buckets(self):
        cats = _categories([float(i + 1) for i in range(10)], buckets=5)
        assert cats == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]

    @given(_grouped_codes(), st.integers(1, 8), st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_searchsorted_per_slot(self, case, buckets, data):
        raw = _loop_aggregates(*case)
        boundaries = bucket_boundaries(raw, buckets)
        # Also values on an edge and one ulp to each side of it.
        edges = [e for col in boundaries for e in col]
        if edges:
            on_edge = np.array(data.draw(st.lists(
                st.sampled_from(edges), min_size=raw.shape[1], max_size=raw.shape[1])))
            raw = np.vstack([raw, on_edge, np.nextafter(on_edge, -np.inf),
                             np.nextafter(on_edge, np.inf)])
        want = np.stack([np.searchsorted(col_edges, col, side="left")
                         for col_edges, col in zip(boundaries, raw.T)], axis=1)
        got = categorize(raw, boundaries)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)

    def test_slots_without_edges(self):
        np.testing.assert_array_equal(categorize(np.ones((2, 2)), [(), ()]),
                                      np.zeros((2, 2)))

    def test_bad_bucket_count(self):
        with pytest.raises(ValueError):
            bucket_boundaries(np.array([[1.0]]), buckets=0)


def _profile(sid, cats, names=None):
    names = names or [f"k{i}" for i in range(len(cats))]
    return SceneProfile(sid, tuple((n, "mean", c) for n, c in zip(names, cats)))


def _graph(profiles):
    """The graph whose rows are the profiles' categories, ids sorted."""
    profiles = sorted(profiles, key=lambda p: p.scene_id)
    return SceneRelationGraph([p.scene_id for p in profiles],
                              tuple((name, agg) for name, agg, _ in profiles[0].slots),
                              [[cat for _, _, cat in p.slots] for p in profiles])


def _ranked(g, target, k=5, min_weight=1):
    """`similar_scenes` of one target profile as (scene id, weight) pairs,
    each weight counted from the profiles."""
    rows = similar_scenes(g, [[cat for _, _, cat in target.slots]], k=k,
                          min_weight=min_weight)[0]
    return [(g.scene_ids[i], _shared(g.profiles[g.scene_ids[i]], target))
            for i in rows.tolist()]


def _shared(a, b):
    return sum(1 for x, y in zip(a.slots, b.slots) if x == y)


def _pair_loop_edges(profiles):
    """The edges of a scan over every scene pair, in sorted id order."""
    by_id = {p.scene_id: p for p in profiles}
    ids = sorted(by_id)
    edges = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            w = _shared(by_id[a], by_id[b])
            if w > 0:
                edges[(a, b)] = w
    return edges


def _profile_scan(profiles, target, k, min_weight):
    """Neighbours of a scan over every profile: weight down, then id up."""
    weighted = [(p.scene_id, _shared(p, target)) for p in profiles]
    weighted = [(sid, w) for sid, w in weighted if w >= min_weight]
    weighted.sort(key=lambda t: (-t[1], t[0]))
    return weighted[:k]


def _graph_with_boundaries():
    """Two scenes over key features k0 and k1, with the build metadata."""
    layout = [(name, agg) for name in ("k0", "k1") for agg in AGGREGATES]
    g = _graph([
        SceneProfile("a", tuple((*slot, i % 3) for i, slot in enumerate(layout))),
        SceneProfile("b", tuple((*slot, 1) for slot in layout))])
    g.key_features = ("k0", "k1")
    g.buckets = 3
    g.boundaries = [(0.5, 1.5 + i) for i in range(len(layout))]
    g.cc_threshold = 0.05
    return g


def _random_profiles(rng, n_scenes, n_slots, n_cats):
    """Profiles over a random category matrix, ids in shuffled order."""
    cats = rng.integers(0, n_cats, size=(n_scenes, n_slots))
    ids = [f"s{i}" for i in rng.permutation(n_scenes)]
    return [_profile(sid, tuple(int(c) for c in row)) for sid, row in zip(ids, cats)]


class TestGraph:
    def test_shared_slot_weight(self):
        # Profiles sharing exactly two categorized slots get weight 2.
        g = _graph([_profile("s2", (0, 1, 2)), _profile("s3", (0, 1, 3))])
        assert g.edges[("s2", "s3")] == 2

    def test_identical_profiles_full_weight(self):
        g = _graph([_profile("a", tuple(range(7))),
                    _profile("b", tuple(range(7)))])
        assert g.edges[("a", "b")] == 7

    def test_disjoint_profiles_no_edge(self):
        g = _graph([_profile("a", (0, 0)), _profile("b", (1, 1))])
        assert g.edges == {}

    def test_inconsistent_layout_rejected(self):
        with pytest.raises(SchemaError):
            SceneRelationGraph(["a", "b"], (("k0", "mean"),), [[0, 0], [0, 1]])

    def test_symmetry_exhaustive(self):
        rng = np.random.default_rng(6)
        profiles = [_profile(f"s{i}", tuple(rng.integers(0, 3, size=4)))
                    for i in range(50)]
        g = _graph(profiles)
        for i in range(50):
            for j in range(50):
                if i != j:
                    pair = tuple(sorted((f"s{i}", f"s{j}")))
                    assert g.edges.get(pair, 0) == _shared(profiles[i], profiles[j]) \
                        == _shared(profiles[j], profiles[i])
        assert all(a < b for a, b in g.edges)

    def test_json_round_trip(self):
        g = _graph_with_boundaries()
        again = graph_from_json(graph_to_json(g))
        assert again.scene_ids == g.scene_ids and again.layout == g.layout
        np.testing.assert_array_equal(again.categories, g.categories)
        assert again.edges == g.edges
        assert again.profiles["a"].slots == g.profiles["a"].slots
        assert again.boundaries == g.boundaries
        assert (again.key_features, again.buckets, again.cc_threshold) == \
            (g.key_features, g.buckets, g.cc_threshold)

    def test_edges_match_pair_loop(self):
        rng = np.random.default_rng(9)
        for n_scenes, n_slots, n_cats in [(1, 3, 2), (2, 1, 2), (12, 4, 3),
                                          (40, 8, 2), (40, 20, 10), (25, 0, 1)]:
            profiles = _random_profiles(rng, n_scenes, n_slots, n_cats)
            g = _graph(profiles)
            assert g.edges == _pair_loop_edges(profiles)
            assert all(type(w) is int for w in g.edges.values())
            assert g.categories.shape == (n_scenes, n_slots)

    @pytest.mark.parametrize("broken", [{"scene_ids": None}, {"categories": 3},
                                        {"layout": None}, {"buckets": None}])
    def test_load_graph_names_file(self, tmp_path, broken):
        g = _graph([_profile("a", (0, 1)), _profile("b", (0, 2))])
        obj = {**graph_to_json(g), **broken}
        obj = {k: v for k, v in obj.items() if v is not None}
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(SchemaError, match="graph.json: bad graph file"):
            load_graph(str(path))

    def test_json_inconsistent_layout_rejected(self):
        obj = graph_to_json(_graph([_profile("a", (0, 1)),
                                    _profile("b", (0, 2))]))
        obj["categories"][1] = [0, 2, 5]
        with pytest.raises(SchemaError, match="layout"):
            graph_from_json(obj)

    @pytest.mark.parametrize("change", [
        {"categories": [[0, 1], [0, True]]},      # a boolean category
        {"categories": [[0, 1], [0, 2.0]]},       # a float category
        {"categories": [[0, 1], [0, "2"]]},       # a string category
        {"categories": [[0, 1], [0, -1]]},        # a negative category
        {"categories": [[0, 1], [0]]},            # a ragged matrix
        {"categories": [[0, 1, 2], [0, 2, 3]]},   # rows wider than the layout
        {"categories": [[0, 1]]},                 # fewer rows than scenes
        {"categories": [[0, 1], [0, 2], [1, 1]]},  # more rows than scenes
        {"categories": [0, 1]},                   # rows that are not lists
        {"scene_ids": ["b", "a"]},                # not in sorted order
        {"scene_ids": ["a", "a"]},                # not unique
        {"scene_ids": ["a", 2]},                  # not a string
        {"scene_ids": "ab"},                      # not a list
        {"layout": [["k0", "mean"], ["k1"]]},     # a slot that is not a pair
    ])
    def test_loose_matrix_rejected(self, change):
        obj = graph_to_json(_graph([_profile("a", (0, 1)),
                                    _profile("b", (0, 2))]))
        with pytest.raises(SchemaError):
            graph_from_json({**obj, **change})

    @pytest.mark.parametrize("change", [
        {"key_features": ["k1", "k0"]},           # layout in another order
        {"key_features": ["k0"]},                 # a layout slot without a key feature
        {"boundaries": "drop one"},               # a slot without boundaries
        {"boundaries": "one more"},               # more entries than slots
    ])
    def test_boundaries_not_covering_layout_rejected(self, change):
        obj = graph_to_json(_graph_with_boundaries())
        if change.get("boundaries") == "drop one":
            change = {"boundaries": obj["boundaries"][1:]}
        elif change.get("boundaries") == "one more":
            change = {"boundaries": [*obj["boundaries"], obj["boundaries"][0]]}
        with pytest.raises(SchemaError, match="boundaries"):
            graph_from_json({**obj, **change})

    @pytest.mark.parametrize("edges", [[2.0, float("nan"), 1.0], [2.0, 1.0],
                                       [float("nan")], [1.0, float("inf")]])
    def test_unsorted_or_non_finite_boundaries_rejected(self, tmp_path, edges):
        obj = graph_to_json(_graph_with_boundaries())
        obj["boundaries"][3] = edges
        with pytest.raises(SchemaError, match="finite and sorted"):
            graph_from_json(obj)
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(SchemaError, match="graph.json: bad graph file.*finite"):
            load_graph(str(path))

    @pytest.mark.parametrize("edges", [[0.0, -0.0, 0.0], [1.0, 1.0], [], [-3.5]])
    def test_non_decreasing_boundaries_load(self, edges):
        obj = graph_to_json(_graph_with_boundaries())
        obj["boundaries"][3] = edges
        assert graph_from_json(obj).boundaries[3] == tuple(edges)

    def test_old_graph_file_rejected(self, tmp_path):
        g = _graph([_profile("a", (0, 1)), _profile("b", (0, 2))])
        old = {"aggregates": list(AGGREGATES), "boundaries": [], "buckets": 0,
               "cc_threshold": 0.0, "edges": [["a", "b", 1]], "key_features": [],
               "nodes": [{"profile": [list(slot) for slot in g.profiles[sid].slots],
                          "scene_id": sid} for sid in g.scene_ids]}
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(old))
        with pytest.raises(SchemaError, match="graph.json: .*old graph format"):
            load_graph(str(path))

    def test_views_built_when_read(self):
        g = _graph([_profile("a", (0, 1)), _profile("b", (0, 2))])
        assert "edges" not in vars(g) and "profiles" not in vars(g)
        assert g.edges == {("a", "b"): 1}
        assert g.profiles["b"] == _profile("b", (0, 2))
        assert "c" not in g.profiles
        assert "edges" in vars(g) and "profiles" in vars(g)


class TestSimilarScenes:
    def test_identical_target_ranks_first_full_weight(self):
        g = _graph([_profile("a", (0, 1, 2)), _profile("b", (0, 9, 9))])
        out = _ranked(g, _profile("q", (0, 1, 2)), k=2, min_weight=1)
        assert out[0] == ("a", 3)

    def test_unreachable_threshold_empty(self):
        g = _graph([_profile("a", (0, 1)), _profile("b", (0, 1))])
        assert _ranked(g, _profile("q", (0, 1)), k=3, min_weight=99) == []

    def test_rank_and_tie_break(self):
        g = _graph([
            _profile("s_d", (0, 1, 9)), _profile("s_b", (0, 1, 2)),
            _profile("s_a", (0, 1, 3)), _profile("s_c", (7, 8, 6)),
        ])
        out = _ranked(g, _profile("q", (0, 1, 4)), k=3, min_weight=1)
        assert out == [("s_a", 2), ("s_b", 2), ("s_d", 2)]

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            similar_scenes(
                SceneRelationGraph([], (), np.zeros((0, 0), dtype=np.int64)),
                np.zeros((1, 0), dtype=np.int64))

    def test_target_layout_mismatch_rejected(self):
        g = _graph([_profile("a", (0, 1)), _profile("b", (0, 2))])
        with pytest.raises(SchemaError, match="layout"):
            similar_scenes(g, [[0, 1, 2]])
        # The category matrix carries no names; the profile route checks them.
        params = SimpleNamespace(config=ModelConfig(), seed=0)
        with pytest.raises(SchemaError, match="layout"):
            resolve_neighbors(g, "q", _profile("q", (0, 1), names=["k0", "other"]),
                              params)

    def test_match_profile_scan(self):
        """One call over the [T, slots] matrix of the 20 targets of a case
        gives, row by row, each target's scan, for each drawn k and
        min_weight of the case."""
        rng = np.random.default_rng(10)
        for n_scenes, n_slots, n_cats in [(1, 3, 2), (9, 4, 2), (30, 6, 3), (60, 12, 8)]:
            profiles = _random_profiles(rng, n_scenes, n_slots, n_cats)
            g = _graph(profiles)
            targets, draws = [], []
            for _ in range(20):
                targets.append(_profile("q", tuple(int(c) for c in
                                                   rng.integers(0, n_cats, size=n_slots))))
                k = int(rng.integers(1, n_scenes + 3))
                min_weight = int(rng.integers(0, n_slots + 2))
                draws.append((k, min_weight))
            matrix = np.array([[cat for _, _, cat in t.slots] for t in targets])
            for k, min_weight in draws:
                found = similar_scenes(g, matrix, k=k, min_weight=min_weight)
                assert len(found) == len(targets)
                for target, rows in zip(targets, found):
                    assert rows.dtype == np.int64
                    assert ([(g.scene_ids[i], _shared(g.profiles[g.scene_ids[i]], target))
                             for i in rows.tolist()]
                            == _profile_scan(profiles, target, k, min_weight))
                    assert _ranked(g, target, k, min_weight) == \
                        _profile_scan(profiles, target, k, min_weight)

    @given(st.permutations(range(6)))
    @settings(max_examples=30, deadline=None)
    def test_stable_under_input_permutation(self, order):
        rng = np.random.default_rng(7)
        cats = [tuple(rng.integers(0, 3, size=4)) for _ in range(6)]
        profiles = [_profile(f"s{i}", cats[i]) for i in range(6)]
        base = _graph(profiles)
        permuted = _graph([profiles[i] for i in order])
        target = _profile("q", (0, 1, 2, 0))
        assert (_ranked(base, target, k=4) ==
                _ranked(permuted, target, k=4))
        # Each target's neighbours do not depend on the other targets or
        # on their order in the [T, slots] matrix.
        targets = np.array([cats[i] for i in order] + [(0, 1, 2, 0)])
        found = similar_scenes(base, targets, k=4)
        alone = [similar_scenes(base, row[None], k=4)[0] for row in targets]
        assert [rows.tolist() for rows in found] == [rows.tolist() for rows in alone]


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
        ranked = _ranked(graph, profile, k=3)
        assert ranked, "a same-cluster neighbor should clear the threshold"
        assert int(ranked[0][0][1]) % 2 == 1  # odd scenes share the high cluster

    def test_training_scene_profiles_as_stored(self, tiny_data):
        result, graph = tiny_data
        ids, codes = scene_codes(result.train)
        for sid, rows in zip(ids, group_rows(codes, len(ids))):
            profile = profile_new_scene(graph, sid, [result.train[i] for i in rows],
                                        result.schema)
            assert profile == graph.profiles[sid]

    @pytest.mark.parametrize("srg", [True, False])
    def test_pipeline_builds_no_profiles(self, monkeypatch, srg):
        # Scene codes, matrix rows and category matrices carry every scene
        # from encoding to the forward pass; no profile object is made.
        def fail(*args, **kwargs):
            raise AssertionError("a scene profile was built")

        monkeypatch.setattr(swan_srg, "_profiles", fail)
        monkeypatch.setattr(swan_srg, "SceneProfile", fail)
        result = generate(tiny_gen_config())
        graph = build_srg(result.train, result.schema, cc_threshold=0.05, buckets=4)
        config = tiny_train_config(epochs=1, model=tiny_model_config(
            flags=ComponentFlags(srg=srg)))
        params = train(result.train, graph, config).params
        report = evaluate(params, graph, result.test)
        assert report.auc_cold_start is not None
        cold = [ex for ex in result.test if ex.scene_id not in graph.scene_ids][:5]
        assert cold
        scores = predict_scores(params, graph, result.train[:5] + cold + result.train[5:7])
        assert np.all((scores > 0.0) & (scores < 1.0))

    def test_pipeline_leaves_views_unbuilt(self, tmp_path):
        # Training, scoring and model files read the matrix, never the
        # edge or profile views.
        result = generate(tiny_gen_config())
        graph = build_srg(result.train, result.schema, cc_threshold=0.05, buckets=4)
        params = train(result.train, graph, tiny_train_config(epochs=1)).params
        evaluate(params, graph, result.test)
        cold = [ex for ex in result.test if ex.scene_id not in graph.scene_ids][:5]
        assert cold
        predict_scores(params, graph, cold + result.train[:5])
        path = tmp_path / "model.bin"
        save_model(params, path, graph)
        loaded_params, loaded = load_model(path)
        predict_scores(loaded_params, loaded, cold + result.train[:5])
        for g in (graph, loaded):
            assert "edges" not in vars(g) and "profiles" not in vars(g)
