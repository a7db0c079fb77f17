"""Tests for AUC, Gini and the evaluation report."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_model_config
from swan import features, metrics, model, srg
from swan.features import Example, scene_codes
from swan.metrics import (MIN_SCENE_EXAMPLES, EvalReport, UndefinedMetricError,
                          auc, evaluate, gini, improvement_ratios)
from swan.model import init_params


def brute_force_auc(labels, scores):
    """Pair-counting oracle: concordant pairs plus half the ties."""
    labels = np.asarray(labels)
    scores = np.asarray(scores)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def pairwise_gini(values):
    """Definitional oracle: explicit double sum of absolute differences."""
    x = list(values)
    n = len(x)
    mean = sum(x) / n
    total = sum(abs(a - b) for a in x for b in x)
    return total / (2 * n * n * mean)


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([1, 0], [0.9, 0.1]) == 1.0

    def test_all_ties_half(self):
        assert auc([1, 0, 1, 0], [0.3, 0.3, 0.3, 0.3]) == 0.5

    def test_three_of_four_pairs_concordant(self):
        assert auc([1, 1, 0, 0], [0.8, 0.3, 0.5, 0.1]) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            auc([1, 1], [0.2, 0.3])
        with pytest.raises(UndefinedMetricError):
            auc([0, 0], [0.2, 0.3])

    def test_returns_a_float(self):
        assert type(auc([1, 0, 1], [0.9, 0.1, 0.2])) is float

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            auc([0, 2], [0.1, 0.2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(ValueError, match="scores must be finite"):
            auc([1, 0, 1, 0], [0.9, bad, 0.4, 0.2])

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_brute_force_exactly(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 200))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # Quantized scores force plenty of ties.
        scores = np.round(rng.uniform(0, 1, size=n), 2)
        assert auc(labels, scores) == brute_force_auc(labels, scores)

    @given(st.lists(st.tuples(st.integers(0, 1),
                              st.floats(0, 1, allow_nan=False)),
                    min_size=2, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force_hypothesis(self, pairs):
        labels = [l for l, _ in pairs]
        scores = [round(s, 2) for _, s in pairs]
        if min(labels) == max(labels):
            labels[0] = 1 - labels[0]
        assert auc(labels, scores) == brute_force_auc(labels, scores)


class TestGini:
    def test_perfect_equality(self):
        assert gini([3.3, 3.3, 3.3]) == pytest.approx(0.0, abs=1e-15)

    def test_zero_one_pair(self):
        assert gini([0.0, 1.0]) == pytest.approx(0.5, abs=1e-15)

    def test_one_two_three(self):
        assert gini([1.0, 2.0, 3.0]) == pytest.approx(2 / 9, abs=1e-15)

    def test_all_zero_rejected(self):
        with pytest.raises(UndefinedMetricError):
            gini([0.0, 0.0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gini([1.0, -0.5])

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_pairwise_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 5, size=int(rng.integers(1, 40)))
        if x.sum() == 0:
            x[0] = 1.0
        assert gini(x) == pytest.approx(pairwise_gini(x), abs=1e-12)

    @given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=30),
           st.floats(0.001, 1000.0))
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance(self, values, c):
        x = np.asarray(values)
        assert gini(c * x) == pytest.approx(gini(x), abs=1e-12)


class TestImprovementRatios:
    def test_self_reference_all_zero(self):
        report = EvalReport(auc_all=0.7, auc_cold_start=0.7,
                            per_scene={"a": 0.7, "b": 0.6})
        gains, skipped = improvement_ratios(report, report)
        assert gains == {"a": 0.0, "b": 0.0}
        assert skipped == []

    def test_relative_gain(self):
        report = EvalReport(auc_all=0.8, auc_cold_start=None,
                            per_scene={"a": 0.75})
        ref = EvalReport(auc_all=0.7, auc_cold_start=None,
                         per_scene={"a": 0.7})
        gains, _ = improvement_ratios(report, ref)
        assert gains["a"] == pytest.approx(0.25 / 0.2 - 1.0)

    def test_reference_at_chance_skipped(self):
        report = EvalReport(auc_all=0.8, auc_cold_start=None,
                            per_scene={"a": 0.75, "b": 0.8})
        ref = EvalReport(auc_all=0.5, auc_cold_start=None,
                         per_scene={"a": 0.5, "b": 0.7})
        gains, skipped = improvement_ratios(report, ref)
        assert skipped == ["a"]
        assert set(gains) == {"b"}

    def test_worse_than_reference_floors_at_zero(self):
        report = EvalReport(auc_all=0.6, auc_cold_start=None,
                            per_scene={"a": 0.6})
        ref = EvalReport(auc_all=0.7, auc_cold_start=None,
                         per_scene={"a": 0.7})
        gains, _ = improvement_ratios(report, ref)
        assert gains["a"] == 0.0

    def test_report_json_round_trip(self, tmp_path):
        report = EvalReport(auc_all=0.8125, auc_cold_start=0.75,
                            per_scene={"a": 0.9, "other": 0.7},
                            gini_improvement=0.12, gini_defined=True,
                            warnings={"pooled_small_scenes": ["x"]})
        path = tmp_path / "report.json"
        report.save(path)
        again = EvalReport.load(path)
        assert again.to_json() == report.to_json()


class TestEvaluate:
    @pytest.mark.parametrize("form", ["dataset", "list"])
    def test_reads_the_scenes_once(self, tiny_data, monkeypatch, form):
        """One evaluate() call makes one pass over its rows' scenes, the one
        scoring makes, whatever form the rows come in."""
        result, graph = tiny_data
        params = init_params("swan", result.schema, graph.scene_ids,
                             tiny_model_config(), seed=0)
        test = result.test if form == "dataset" else list(result.test)
        passes = []

        def counted(examples):
            passes.append(len(examples))
            return scene_codes(examples)
        for module in (features, model, metrics, srg):
            if hasattr(module, "scene_codes"):
                monkeypatch.setattr(module, "scene_codes", counted)
        report = evaluate(params, graph, test)
        assert passes == [len(test)]
        monkeypatch.undo()
        assert report.to_json() == evaluate(params, graph, test).to_json()


def _scored(monkeypatch, labels, scores, scenes, known=()):
    """evaluate() of rows with these labels, scores and scene ids, scoring
    replaced by the given scores; the scenes in `known` are the model's,
    the others cold."""
    ids = sorted(set(scenes))
    codes = np.searchsorted(ids, scenes)
    monkeypatch.setattr(model, "score_rows", lambda *args: (
        np.asarray(scores, dtype=np.float64), None, ids, codes))
    params = SimpleNamespace(embeddings=SimpleNamespace(scene_vocab=set(known)))
    return evaluate(params, None, [Example({}, {}, sid, label)
                                   for sid, label in zip(scenes, labels)])


def _per_group(labels, scores, scenes, known):
    """The report's AUCs and warnings from one pair-counting AUC per scene,
    pool and cold pool, as evaluate() defines them."""
    labels, scores, scenes = np.asarray(labels), np.asarray(scores), np.asarray(scenes)

    def pooled_auc(rows, name):
        y = labels[rows]
        if y.min() == y.max():
            single.append(name)
            return None
        return brute_force_auc(y, scores[rows])
    per_scene, single, small = {}, [], []
    for sid in sorted(set(scenes.tolist())):
        rows = scenes == sid
        if rows.sum() < MIN_SCENE_EXAMPLES:
            small.append(sid)
        elif (value := pooled_auc(rows, sid)) is not None:
            per_scene[sid] = value
    if small and (value := pooled_auc(np.isin(scenes, small), "<other pool>")) is not None:
        per_scene["other"] = value
    cold = ~np.isin(scenes, list(known))
    auc_cold = pooled_auc(cold, "<cold pool>") if cold.any() else None
    warnings = {"single_class_scenes": single} if single else {}
    if small:
        warnings["pooled_small_scenes"] = small
    return {"auc_all": brute_force_auc(labels, scores), "auc_cold_start": auc_cold,
            "per_scene": per_scene, "warnings": warnings}


@st.composite
def _scene_rows(draw):
    """Rows of 1 to 5 scenes, sizes around MIN_SCENE_EXAMPLES, some scenes
    of one class, some known; scores on a coarse grid (many ties), each
    scene's in its own range, so that one scene's top score often ties
    the next one's lowest; the rows of all scenes interleaved."""
    labels, scores, scenes, known = [], [], [], []
    for s in range(draw(st.integers(1, 5))):
        sid = f"s{s}"
        size = draw(st.sampled_from([1, 2, 7, MIN_SCENE_EXAMPLES - 1,
                                     MIN_SCENE_EXAMPLES, MIN_SCENE_EXAMPLES + 1, 45]))
        one_class = draw(st.sampled_from([None, 0, 1]))
        labels += [draw(st.integers(0, 1)) if one_class is None else one_class
                   for _ in range(size)]
        low = draw(st.integers(0, 6))
        high = draw(st.integers(low, 6))
        scores += [draw(st.integers(low, high)) / 8 for _ in range(size)]
        scenes += [sid] * size
        if draw(st.booleans()):
            known.append(sid)
    order = draw(st.permutations(range(len(labels))))
    return ([labels[i] for i in order], [scores[i] for i in order],
            [scenes[i] for i in order], known)


class TestEvaluateAucs:
    @given(_scene_rows())
    @settings(max_examples=150, deadline=None)
    def test_match_per_group_auc(self, rows):
        """Every AUC of the report equals the pair-counting AUC of its own
        rows, bit for bit, and the single-class and pooled scenes are named."""
        labels, scores, scenes, known = rows
        with pytest.MonkeyPatch.context() as mp:
            if min(labels) == max(labels):
                with pytest.raises(UndefinedMetricError):
                    _scored(mp, labels, scores, scenes, known)
                return
            report = _scored(mp, labels, scores, scenes, known)
        expected = _per_group(labels, scores, scenes, known)
        assert report.auc_all == expected["auc_all"]
        assert report.auc_cold_start == expected["auc_cold_start"]
        assert report.per_scene == expected["per_scene"]
        assert report.warnings == expected["warnings"]
        assert all(type(v) is float for v in
                   [report.auc_all, *report.per_scene.values()])
        if not known:
            assert report.auc_cold_start == report.auc_all

    def test_single_class_pool_recorded(self, monkeypatch):
        """A pool of small scenes that holds one class has no AUC and is
        named, as a single-class cold pool is."""
        rng = np.random.default_rng(0)
        labels = [0, 1] * 30 + [0] * 10
        report = _scored(monkeypatch, labels, rng.random(70),
                         ["big"] * 60 + ["small"] * 10, known=["big", "small"])
        assert set(report.per_scene) == {"big"}
        assert report.warnings == {"pooled_small_scenes": ["small"],
                                   "single_class_scenes": ["<other pool>"]}
        report = _scored(monkeypatch, [1] * 10 + labels[:60], rng.random(70),
                         ["small"] * 10 + ["big"] * 60, known=["big"])
        assert report.auc_cold_start is None
        assert report.warnings["single_class_scenes"] == ["<other pool>", "<cold pool>"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 65])
    def test_non_finite_score_rejected(self, monkeypatch, bad, at):
        """A non-finite score, in a scene of its own AUC or in a
        single-class pool, fails the whole report."""
        scores = np.linspace(0.0, 1.0, 70)
        scores[at] = bad
        with pytest.raises(ValueError, match="scores must be finite"):
            _scored(monkeypatch, [0, 1] * 30 + [0] * 10, scores,
                    ["big"] * 60 + ["small"] * 10)
