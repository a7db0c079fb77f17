"""Pins of the public Python signatures, as test_cli pins the option strings."""

import inspect

from swan.features import Dataset, encode_columns, fit_numeric_boundaries
from swan.gradcheck import max_rel_error
from swan.metrics import evaluate
from swan.model import init_params, predict_scores
from swan.nn import MLP, Linear
from swan.srg import build_srg, profile_new_scene, select_key_features
from swan.training import baseline_dnn, run_sweep, train


def _public(cls):
    return sorted(name for name in vars(cls) if not name.startswith("_"))


def test_signatures_pinned():
    assert {f.__qualname__: list(inspect.signature(f).parameters) for f in (
        train, baseline_dnn, run_sweep, evaluate, predict_scores, init_params,
        MLP.stacked, Dataset, max_rel_error, encode_columns,
        fit_numeric_boundaries, build_srg, select_key_features,
        profile_new_scene)} == {
        "train": ["dataset", "graph", "config", "schema"],
        "baseline_dnn": ["dataset", "config", "schema"],
        "run_sweep": ["param", "values", "train_set", "test_set", "schema",
                      "graph", "config"],
        "evaluate": ["params", "graph", "dataset", "reference"],
        "predict_scores": ["params", "graph", "dataset", "collect_gates"],
        "init_params": ["kind", "schema", "scene_ids", "config", "seed"],
        "MLP.stacked": ["rng", "n", "in_dim", "hidden", "out_dim"],
        "Dataset": ["examples", "schema"],
        "max_rel_error": ["analytic", "numeric"],
        "encode_columns": ["examples", "features"],
        "fit_numeric_boundaries": ["examples", "schema", "buckets"],
        "build_srg": ["examples", "schema", "cc_threshold", "buckets"],
        "select_key_features": ["examples", "schema", "cc_threshold"],
        "profile_new_scene": ["graph", "scene_id", "scene_examples", "schema"]}


def test_one_mlp_builder():
    assert _public(MLP) == ["named_parameters", "shapes", "stacked"]
    assert _public(Linear) == []
