#!/usr/bin/env python3
"""End-to-end demo: generate data, build the graph, train both models,
and compare cold-start ranking quality.

Writes every artifact (dataset files, schema, graph, models, reports)
into a work directory, exercising the same CLI surface documented in the
README, and prints each artifact's sha256 in `sha256sum`'s format, so
two runs (say of two commits) compare with one diff of their outputs.

Usage: python scripts/run_pipeline.py [workdir]
"""

import hashlib
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from swan.cli import main as swan_cli
from swan.datagen import GenConfig
from swan.features import write_json
from swan.head import LossWeights
from swan.metrics import EvalReport
from swan.model import ModelConfig
from swan.training import TrainConfig

ARTIFACTS = ("gen.json", "train_swan.json", "train_dnn.json", "train.jsonl",
             "test.jsonl", "truth.json", "schema.json", "graph.json", "swan.bin",
             "report_swan.json", "dnn.bin", "report_dnn.json")


def main() -> None:
    work = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "work")
    work.mkdir(parents=True, exist_ok=True)

    gen = GenConfig(train_scenes=30, cold_scenes=10, examples_per_scene=400,
                    seed=0)
    write_json(work / "gen.json", gen.to_json())

    model = ModelConfig(embed_dim=8, expert_dim=8, n_aeg=4, n_seg=2, tau=0.02,
                        san_hidden=(16, 8), expert_hidden=(8,),
                        selector_hidden=(16, 8), final_hidden=(),
                        dnn_hidden=(16,))
    for kind in ("swan", "dnn"):
        cfg = TrainConfig(model=model, model_kind=kind, epochs=4,
                          batch_size=256, seed=0, lr=2e-3,
                          loss=LossWeights(alpha=1.0, beta=1e-3, gamma=1e-3))
        write_json(work / f"train_{kind}.json", cfg.to_json())

    swan_cli(["datagen", "--config", str(work / "gen.json"),
              "--out-train", str(work / "train.jsonl"),
              "--out-test", str(work / "test.jsonl"),
              "--out-truth", str(work / "truth.json"),
              "--out-schema", str(work / "schema.json")])
    swan_cli(["srg", "build", "--data", str(work / "train.jsonl"),
              "--schema", str(work / "schema.json"),
              "--cc-threshold", "0.05", "--buckets", "10",
              "--out", str(work / "graph.json")])

    swan_cli(["train", "--train", str(work / "train.jsonl"),
              "--schema", str(work / "schema.json"),
              "--graph", str(work / "graph.json"),
              "--config", str(work / "train_swan.json"),
              "--out", str(work / "swan.bin")])
    swan_cli(["eval", "--model", str(work / "swan.bin"),
              "--test", str(work / "test.jsonl"),
              "--report", str(work / "report_swan.json")])

    swan_cli(["train", "--train", str(work / "train.jsonl"),
              "--schema", str(work / "schema.json"),
              "--config", str(work / "train_dnn.json"),
              "--out", str(work / "dnn.bin")])
    swan_cli(["eval", "--model", str(work / "dnn.bin"),
              "--test", str(work / "test.jsonl"),
              "--report", str(work / "report_dnn.json"),
              "--reference", str(work / "report_swan.json")])

    swan_cold = EvalReport.load(work / "report_swan.json").auc_cold_start
    dnn_cold = EvalReport.load(work / "report_dnn.json").auc_cold_start
    print(f"\ncold-start AUC: scene-adaptive {swan_cold:.4f} "
          f"vs baseline {dnn_cold:.4f} (lift {swan_cold - dnn_cold:+.4f})")
    print(f"artifacts in {work}/")
    for name in ARTIFACTS:
        print(f"{hashlib.sha256((work / name).read_bytes()).hexdigest()}  {name}")


if __name__ == "__main__":
    main()
