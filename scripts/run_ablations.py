#!/usr/bin/env python3
"""Ablation study: train the full model, every single-component ablation
and the DNN baseline over a set of seeds; print mean cold-start AUC.

Usage: python scripts/run_ablations.py [n_seeds] [epochs]
"""

import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from swan.datagen import GenConfig, generate
from swan.metrics import evaluate
from swan.model import ComponentFlags
from swan.srg import build_srg
from swan.training import baseline_dnn, train
from test_acceptance import ABLATIONS, _train_config

VARIANTS = {"full": ComponentFlags(),
            **{f"w/o {name}": flags for name, flags in ABLATIONS.items()}}


def main() -> None:
    n_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    epochs = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    results = {name: [] for name in list(VARIANTS) + ["dnn baseline"]}
    for seed in range(n_seeds):
        data = generate(GenConfig(seed=seed))
        graph = build_srg(data.train, data.schema, cc_threshold=0.05,
                          buckets=10)
        for name, flags in VARIANTS.items():
            run = train(data.train, graph, _train_config(seed, flags, epochs=epochs))
            report = evaluate(run.params, graph, data.test)
            results[name].append(report.auc_cold_start)
            print(f"seed {seed} {name}: {report.auc_cold_start:.4f}",
                  flush=True)
        run = baseline_dnn(data.train, _train_config(seed, epochs=epochs))
        report = evaluate(run.params, None, data.test)
        results["dnn baseline"].append(report.auc_cold_start)
        print(f"seed {seed} dnn baseline: {report.auc_cold_start:.4f}",
              flush=True)

    print(f"\ncold-start AUC over {n_seeds} seeds")
    full = np.mean(results["full"])
    for name, values in results.items():
        mean = np.mean(values)
        print(f"  {name:<14s} {mean:.4f} ({mean - full:+.4f} vs full)")


if __name__ == "__main__":
    main()
