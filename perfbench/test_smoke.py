"""Fast smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks the output's names and units against BENCHMARK.json, that a tiny
workload passes every output check in both modes, that op counts repeat
between traced runs, that corrupted scores or edge weights fail the
checks, and that a run whose serving fails still reports its counts.
"""

import copy
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import harness  # noqa: E402
from tracing import LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = replace(
    WORKLOADS["train-accept"], name="tiny",
    gen={"train_scenes": 16, "cold_scenes": 4, "examples_per_scene": 120,
         "users": 60, "items_per_scene": 40},
    setup_reps=2, candidates=10, cold_per_round=4,
    warm_per_round=4, min_requests=8, min_passes=2, trace_rounds=1)


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny_pass():
    return harness.run_pass(TINY, 3, 0.0, TINY.setup_reps)


def _units(entries):
    return {m["name"]: m["unit"] for m in entries}


def test_spec_matches_code(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert _units(spec["end_to_end"]) == harness.END_TO_END_UNITS
    assert _units(spec["per_layer"]) == LAYER_UNITS


def test_untraced_output(tmp_path, spec):
    result = harness.run_untraced(TINY, 3, 0.0, str(tmp_path))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        _units(spec["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    json.dumps(result)


def test_result_printed_when_serving_fails(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken on purpose")

    monkeypatch.setattr(harness, "evaluate", broken)
    monkeypatch.setattr(harness, "predict_scores", broken)
    result = harness.run_untraced(TINY, 3, 0.0, str(tmp_path))
    assert result["correct"] is False
    # Every evaluate() pass and every request failed; set-up and training
    # did not.
    assert result["failed"] == result["attempted"] - TINY.setup_reps - 1 > 0
    assert set(result["metrics"]) == {"setup_s", "train_rows_per_s",
                                      "peak_rss_mb"}
    json.dumps(result)


def test_traced_output_repeats_op_counts(tmp_path, spec):
    first = harness.run_traced(TINY, 3, str(tmp_path))
    second = harness.run_traced(TINY, 3, str(tmp_path))
    assert first["correct"] is True
    assert {k: v["unit"] for k, v in first["metrics"].items()} == \
        _units(spec["per_layer"])
    counts = [k for k, unit in LAYER_UNITS.items() if unit == "count"]
    assert {k: first["metrics"][k]["value"] for k in counts} == \
        {k: second["metrics"][k]["value"] for k in counts}
    assert first["metrics"]["autodiff.ops_per_request"]["value"] > 0
    assert (tmp_path / "trace-tiny-seed3.json").is_file()


def test_corrupted_scores_fail(tiny_pass):
    out = tiny_pass
    scores = harness.predict_scores(out.result.params, out.graph, out.data.test)
    labels = np.array([ex.label for ex in out.data.test])
    assert checks.check_scores("s", scores).ok
    for bad in (np.nan, 1.0, 0.0, -0.5):
        broken = scores.copy()
        broken[0] = bad
        assert not checks.check_scores("s", broken).ok
    program_auc = checks.pair_count_auc(labels, scores)
    broken = scores.copy()
    top = int(np.argmax(np.where(labels == 1, scores, -np.inf)))
    broken[top] = scores.min() / 2  # a positive moved below every negative
    assert not checks.check_auc(labels, broken, program_auc).ok
    assert not checks.check_round_trip(scores, broken).ok


def test_corrupted_edges_fail(tiny_pass):
    graph = tiny_pass.graph
    assert checks.check_edges(graph).ok
    pair, weight = next(iter(graph.edges.items()))
    wrong = copy.deepcopy(graph)
    wrong.edges[pair] = weight + 1
    assert not checks.check_edges(wrong).ok
    missing = copy.deepcopy(graph)
    del missing.edges[pair]
    assert not checks.check_edges(missing).ok


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-accept",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
