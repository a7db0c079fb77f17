"""End-to-end CLI tests over the documented subcommands."""

import argparse
import hashlib
import itertools
import json
import struct

import pytest

from conftest import tiny_gen_config, tiny_train_config
from swan.cli import build_parser, main


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
    assert set(graph) == {"boundaries", "buckets", "categories", "cc_threshold",
                          "key_features", "layout", "scene_ids"}
    scene_ids = graph["scene_ids"]
    assert scene_ids == sorted(scene_ids)
    assert len(graph["categories"]) == len(scene_ids)
    assert len(graph["boundaries"]) == len(graph["layout"])


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


def test_boundaries_not_covering_layout_is_one_line_error(workspace, tmp_path, capsys):
    """A graph, alone or inside a model, that lacks one slot's bucket
    boundaries is refused at load, not when a cold scene is profiled."""
    graph = json.loads((workspace / "graph.json").read_text())
    graph["boundaries"] = graph["boundaries"][1:]
    bad_graph = tmp_path / "graph.json"
    bad_graph.write_text(json.dumps(graph))

    data = (workspace / "model.bin").read_bytes()
    (length,) = struct.unpack(">Q", data[8:16])
    header = json.loads(data[16:16 + length])
    header["graph"]["boundaries"] = header["graph"]["boundaries"][1:]
    blob = json.dumps(header).encode("utf-8")
    bad_model = tmp_path / "model.bin"
    bad_model.write_bytes(data[:8] + struct.pack(">Q", len(blob)) + blob
                          + data[16 + length:])

    for argv, path in (
            (["train", "--train", str(workspace / "train.jsonl"),
              "--schema", str(workspace / "schema.json"),
              "--graph", str(bad_graph), "--config", str(workspace / "train.json"),
              "--out", str(tmp_path / "m.bin")], bad_graph),
            (["eval", "--model", str(bad_model),
              "--test", str(workspace / "test.jsonl"),
              "--report", str(tmp_path / "report.json")], bad_model)):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"swan: error: {path}: ")
        assert len(err.splitlines()) == 1
        assert "boundaries" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("vocab", [3.5, 3.0, True])
def test_non_integer_vocab_is_one_line_error(workspace, tmp_path, capsys, vocab):
    schema = json.loads((workspace / "schema.json").read_text())
    entry = next(e for e in schema if e["kind"] == "categorical")
    entry["vocab"] = vocab
    bad_schema = tmp_path / "schema.json"
    bad_schema.write_text(json.dumps(schema))
    assert main(["train", "--train", str(workspace / "train.jsonl"),
                 "--schema", str(bad_schema),
                 "--graph", str(workspace / "graph.json"),
                 "--config", str(workspace / "train.json"),
                 "--out", str(tmp_path / "m.bin")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("swan: error: ")
    assert len(err.splitlines()) == 1
    assert f"{entry['name']!r}" in err and "not an integer" in err
    assert "Traceback" not in err
    assert not (tmp_path / "m.bin").exists()


def _assert_one_line_error(capsys, *needles):
    err = capsys.readouterr().err
    assert err.startswith("swan: error: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    for needle in needles:
        assert needle in err
    return err


def test_wrongly_typed_gen_config_is_one_line_error(tmp_path, capsys):
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps({"archetypes": "x"}))
    assert main(["datagen", "--config", str(gen),
                 "--out-train", str(tmp_path / "train.jsonl"),
                 "--out-test", str(tmp_path / "test.jsonl"),
                 "--out-truth", str(tmp_path / "truth.json")]) == 1
    _assert_one_line_error(capsys, "GenConfig archetypes must be an integer")
    assert not (tmp_path / "train.jsonl").exists()


@pytest.mark.parametrize("case", ["null", "non-object entry", "string boundaries",
                                  "unfitted"])
@pytest.mark.parametrize("command", ["srg build", "train", "sweep"])
def test_malformed_schema_is_one_line_error(workspace, tmp_path, capsys, case, command):
    # No subcommand fits bucket boundaries; datagen writes a fitted schema.
    schema = json.loads((workspace / "schema.json").read_text())
    numeric = next(e for e in schema if e["kind"] == "numeric")
    needle = {"null": "a schema must be a list", "non-object entry": "5 is not an object",
              "string boundaries": f"numeric feature {numeric['name']!r}",
              "unfitted": f"numeric feature {numeric['name']!r} has no fitted "
                          "boundaries; swan datagen --out-schema writes a fitted schema"
              }[case]
    if case == "null":
        schema = None
    elif case == "non-object entry":
        schema.append(5)
    elif case == "unfitted":
        del numeric["boundaries"]
    else:
        numeric["boundaries"] = "ab"
    bad_schema = tmp_path / "schema.json"
    bad_schema.write_text(json.dumps(schema))
    data = ["--train", str(workspace / "train.jsonl"), "--schema", str(bad_schema),
            "--config", str(workspace / "train.json")]
    argv = {"srg build": ["srg", "build", "--data", str(workspace / "train.jsonl"),
                          "--schema", str(bad_schema), "--out", str(tmp_path / "g.json")],
            "train": ["train", *data, "--out", str(tmp_path / "m.bin")],
            "sweep": ["sweep", "--param", "tau", "--values", "0.5", *data,
                      "--test", str(workspace / "test.jsonl"),
                      "--report", str(tmp_path / "sweep.json")]}[command]
    assert main(argv) == 1
    _assert_one_line_error(capsys, needle)


@pytest.mark.parametrize("defect", ["truncated", "not UTF-8", "deeply nested"])
@pytest.mark.parametrize("flag", ["datagen --config", "train --config", "--schema",
                                  "train --graph", "eval --reference"])
def test_bad_json_file_is_one_line_error_naming_it(workspace, tmp_path, capsys,
                                                   flag, defect):
    bad = tmp_path / "bad.json"
    bad.write_bytes({"truncated": b'{"a": [1,', "not UTF-8": b"\xff{}",
                     "deeply nested": b"[" * 100_000}[defect])
    if flag == "datagen --config":
        argv = ["datagen", "--config", bad, "--out-train", tmp_path / "train.jsonl",
                "--out-test", tmp_path / "test.jsonl", "--out-truth", tmp_path / "t.json"]
    elif flag == "eval --reference":
        argv = ["eval", "--model", workspace / "model.bin", "--test",
                workspace / "test.jsonl", "--report", tmp_path / "report.json",
                "--reference", bad]
    else:
        opts = {"--train": workspace / "train.jsonl", "--schema": workspace / "schema.json",
                "--config": workspace / "train.json", "--out": tmp_path / "m.bin"}
        opts[flag.split()[-1]] = bad
        argv = ["train", *itertools.chain.from_iterable(opts.items())]
    assert main([str(a) for a in argv]) == 1
    err = _assert_one_line_error(capsys)
    assert err.startswith(f"swan: error: {bad}: ")


@pytest.mark.parametrize("reference", [
    {}, [], {"auc_all": 0.7, "per_scene": 5}, {"auc_all": 0.7, "per_scene": [1]},
    {"auc_all": 0.7, "per_scene": {"s": "x"}}])
def test_malformed_reference_report_is_one_line_error(workspace, tmp_path, capsys,
                                                      reference):
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    assert main(["eval", "--model", str(workspace / "model.bin"),
                 "--test", str(workspace / "test.jsonl"),
                 "--report", str(tmp_path / "report.json"),
                 "--reference", str(path)]) == 1
    _assert_one_line_error(capsys, f"{path}: bad report file")
    assert not (tmp_path / "report.json").exists()


def test_allocation_failure_is_one_line_error(workspace, tmp_path, capsys):
    # An embedding table of 10**15 rows is past any machine's address
    # space, so numpy fails to allocate it without touching memory.
    schema = json.loads((workspace / "schema.json").read_text())
    entry = next(e for e in schema if e["kind"] == "categorical")
    entry["vocab"] = 10 ** 15
    huge = tmp_path / "schema.json"
    huge.write_text(json.dumps(schema))
    assert main(["train", "--train", str(workspace / "train.jsonl"),
                 "--schema", str(huge), "--graph", str(workspace / "graph.json"),
                 "--config", str(workspace / "train.json"),
                 "--out", str(tmp_path / "m.bin")]) == 1
    _assert_one_line_error(capsys, "Unable to allocate")
    assert not (tmp_path / "m.bin").exists()


def _options(parser, command=()):
    """Each subcommand's option strings, keyed by its space-joined path."""
    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out.update(_options(sub, (*command, name)))
        elif action.option_strings and not isinstance(action, argparse._HelpAction):
            out.setdefault(" ".join(command), []).extend(action.option_strings)
    return out


def test_cli_options_pinned():
    assert _options(build_parser()) == {
        "datagen": ["--config", "--out-train", "--out-test", "--out-truth",
                    "--out-schema"],
        "srg build": ["--data", "--schema", "--cc-threshold", "--buckets", "--out"],
        "train": ["--train", "--schema", "--graph", "--config", "--out"],
        "eval": ["--model", "--test", "--report", "--reference"],
        "sweep": ["--param", "--values", "--train", "--test", "--schema", "--graph",
                  "--config", "--report"]}


def test_workspace_bytes_pinned(workspace):
    """Generation, row output, loading, encoding and the graph build, to the
    byte: none of these files depends on BLAS."""
    assert {name: hashlib.sha256((workspace / name).read_bytes()).hexdigest()
            for name in ("train.jsonl", "test.jsonl", "graph.json")} == {
        "train.jsonl":
            "7686e3eddc8ae2a4663d124db3a655c3e51e24e82088676891d47f9441c75546",
        "test.jsonl":
            "7c8b54b0792240216ab6afbe47658b491c382bc0101594b10d020347042e232c",
        "graph.json":
            "4797e5b90e560bfa4df75d77dfc5b4b9d78aafc06617f3df67a1ca6aefe33b40"}
