"""End-to-end CLI tests over the documented subcommands."""

import json

import pytest

from conftest import tiny_gen_config, tiny_train_config
from swan.cli import main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """datagen -> srg build -> train artifacts shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    gen = root / "gen.json"
    gen.write_text(json.dumps(tiny_gen_config().to_json()))
    train_cfg = root / "train.json"
    train_cfg.write_text(json.dumps(tiny_train_config(epochs=1).to_json()))

    assert main(["datagen", "--config", str(gen),
                 "--out-train", str(root / "train.jsonl"),
                 "--out-test", str(root / "test.jsonl"),
                 "--out-truth", str(root / "truth.json"),
                 "--out-schema", str(root / "schema.json")]) == 0
    assert main(["srg", "build", "--data", str(root / "train.jsonl"),
                 "--schema", str(root / "schema.json"),
                 "--cc-threshold", "0.05", "--buckets", "4",
                 "--out", str(root / "graph.json")]) == 0
    assert main(["train", "--train", str(root / "train.jsonl"),
                 "--schema", str(root / "schema.json"),
                 "--graph", str(root / "graph.json"),
                 "--config", str(train_cfg),
                 "--out", str(root / "model.bin")]) == 0
    return root


def test_datagen_outputs_exist(workspace):
    for name in ("train.jsonl", "test.jsonl", "truth.json", "schema.json"):
        assert (workspace / name).exists()
    first = json.loads((workspace / "train.jsonl").read_text().splitlines()[0])
    assert set(first) == {"user", "item", "scene_id", "label"}


def test_graph_json_stable_key_order(workspace):
    graph = json.loads((workspace / "graph.json").read_text())
    assert set(graph) == {"aggregates", "boundaries", "buckets", "cc_threshold",
                          "edges", "key_features", "nodes"}
    scene_ids = [n["scene_id"] for n in graph["nodes"]]
    assert scene_ids == sorted(scene_ids)
    assert graph["edges"] == sorted(graph["edges"])


def test_eval_writes_report_with_documented_keys(workspace):
    report_path = workspace / "report.json"
    assert main(["eval", "--model", str(workspace / "model.bin"),
                 "--test", str(workspace / "test.jsonl"),
                 "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    for key in ("auc_all", "auc_cold_start", "per_scene", "gini_improvement"):
        assert key in report
    assert 0.0 <= report["auc_all"] <= 1.0
    assert isinstance(report["per_scene"], dict)


def test_eval_with_reference_computes_gini(workspace):
    base = workspace / "report.json"
    if not base.exists():
        main(["eval", "--model", str(workspace / "model.bin"),
              "--test", str(workspace / "test.jsonl"), "--report", str(base)])
    ref_report = workspace / "with_ref.json"
    assert main(["eval", "--model", str(workspace / "model.bin"),
                 "--test", str(workspace / "test.jsonl"),
                 "--report", str(ref_report),
                 "--reference", str(base)]) == 0
    report = json.loads(ref_report.read_text())
    assert report["gini_improvement"] == 0.0  # self-comparison, flagged
    assert report["gini_defined"] is False


def test_sweep_tau(workspace, tmp_path):
    report = tmp_path / "sweep.json"
    assert main(["sweep", "--param", "tau", "--values", "1,0.01",
                 "--train", str(workspace / "train.jsonl"),
                 "--test", str(workspace / "test.jsonl"),
                 "--schema", str(workspace / "schema.json"),
                 "--graph", str(workspace / "graph.json"),
                 "--config", str(workspace / "train.json"),
                 "--report", str(report)]) == 0
    entries = json.loads(report.read_text())
    assert [e["value"] for e in entries] == [1.0, 0.01]
    assert all("gate_saturation" in e for e in entries)


def test_dnn_train_through_cli(workspace, tmp_path):
    cfg = tmp_path / "dnn.json"
    cfg.write_text(json.dumps(
        tiny_train_config(epochs=1, model_kind="dnn").to_json()))
    model = tmp_path / "dnn.bin"
    assert main(["train", "--train", str(workspace / "train.jsonl"),
                 "--schema", str(workspace / "schema.json"),
                 "--config", str(cfg), "--out", str(model)]) == 0
    report = tmp_path / "dnn_report.json"
    assert main(["eval", "--model", str(model),
                 "--test", str(workspace / "test.jsonl"),
                 "--report", str(report)]) == 0
    assert 0.0 <= json.loads(report.read_text())["auc_all"] <= 1.0


def test_bad_config_is_one_line_error(tmp_path, capsys):
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps({"trian_scenes": 3}))
    assert main(["datagen", "--config", str(gen),
                 "--out-train", str(tmp_path / "train.jsonl"),
                 "--out-test", str(tmp_path / "test.jsonl"),
                 "--out-truth", str(tmp_path / "truth.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("swan: error: ")
    assert len(err.splitlines()) == 1
    assert "trian_scenes" in err
    assert "Traceback" not in err

    # A schema entry without a name, and a wrongly typed training field.
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps([{"kind": "categorical", "group": "item",
                                   "vocab": 3}]))
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({"model": {}, "epochs": "x"}))
    for argv, needle in (
            (["srg", "build", "--data", str(tmp_path / "train.jsonl"),
              "--schema", str(schema), "--out", str(tmp_path / "g.json")],
             "'name'"),
            (["train", "--train", str(tmp_path / "train.jsonl"),
              "--schema", str(schema), "--config", str(train_cfg),
              "--out", str(tmp_path / "m.bin")], "epochs")):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("swan: error: ")
        assert len(err.splitlines()) == 1
        assert needle in err
        assert "Traceback" not in err
