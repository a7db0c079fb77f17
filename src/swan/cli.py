"""Command-line interface.

Subcommands:
  datagen    generate a synthetic dynamic multi-scene dataset
  srg build  build the scene relation graph from a training file
  train      train the full model or the DNN baseline
  eval       score a test file and write the evaluation report
  sweep      train one model per hyperparameter value and report metrics
"""

from __future__ import annotations

import argparse
import sys

from .datagen import GenConfig, generate
from .features import (ConfigError, FeatureSchema, fit_numeric_boundaries,
                       load_dataset, write_dataset, write_json)
from .metrics import EvalReport, evaluate
from .serialize import load_model, save_model
from .srg import build_srg, load_graph, save_graph
from .training import TrainConfig, run_sweep, train


def _cmd_datagen(args) -> int:
    config = GenConfig.load(args.config)
    result = generate(config)
    write_dataset(result.train, args.out_train)
    write_dataset(result.test, args.out_test)
    result.truth.save(args.out_truth)
    if args.out_schema:
        result.schema.save(args.out_schema)
    print(f"wrote {len(result.train)} train examples "
          f"({len(result.truth.scene_archetypes)} scenes total), "
          f"{len(result.test)} cold-start test examples")
    return 0


def _cmd_srg_build(args) -> int:
    schema = FeatureSchema.load(args.schema)
    examples = load_dataset(args.data, schema)
    needs_fit = any(f.kind == "numeric" and f.boundaries is None for f in schema)
    if needs_fit:
        schema = fit_numeric_boundaries(examples, schema, buckets=args.buckets)
    graph = build_srg(examples, schema, cc_threshold=args.cc_threshold,
                      buckets=args.buckets)
    save_graph(graph, args.out)
    print(f"graph: {len(graph.scene_ids)} scenes, {len(graph.layout)} slots, "
          f"{len(graph.key_features)} key features")
    return 0


def _cmd_train(args) -> int:
    config = TrainConfig.load(args.config)
    schema = FeatureSchema.load(args.schema)
    if any(f.kind == "numeric" and f.boundaries is None for f in schema):
        raise ConfigError("schema has unfitted numeric features; "
                          "run srg build or datagen first")
    dataset = load_dataset(args.train, schema)
    graph = load_graph(args.graph) if args.graph else None
    result = train(dataset, graph, config)
    save_model(result.params, args.out, graph=graph)
    losses = ", ".join(f"{v:.5f}" for v in result.epoch_losses)
    print(f"trained {config.model_kind} for {config.epochs} epochs; "
          f"epoch losses: {losses}")
    return 0


def _cmd_eval(args) -> int:
    params, graph = load_model(args.model)
    dataset = load_dataset(args.test, params.schema)
    reference = EvalReport.load(args.reference) if args.reference else None
    report = evaluate(params, graph, dataset, reference=reference)
    report.save(args.report)
    cold = "n/a" if report.auc_cold_start is None else f"{report.auc_cold_start:.4f}"
    print(f"auc_all={report.auc_all:.4f} auc_cold_start={cold}")
    return 0


def _cmd_sweep(args) -> int:
    config = TrainConfig.load(args.config)
    schema = FeatureSchema.load(args.schema)
    train_set = load_dataset(args.train, schema)
    test_set = load_dataset(args.test, schema)
    graph = load_graph(args.graph) if args.graph else None
    values = [float(v) for v in args.values.split(",")]
    results = run_sweep(args.param, values, train_set, test_set, schema,
                        graph, config)
    write_json(args.report, results)
    for entry in results:
        cold = entry["auc_cold_start"]
        cold = "n/a" if cold is None else f"{cold:.4f}"
        print(f"{args.param}={entry['value']}: auc_all={entry['auc_all']:.4f} "
              f"auc_cold_start={cold}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="swan",
                                     description="Scene-wise adaptive network "
                                                 "for cold-start multi-scene CTR")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datagen", help="generate a synthetic dataset")
    p.add_argument("--config", required=True, help="generator config JSON")
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-test", required=True)
    p.add_argument("--out-truth", required=True)
    p.add_argument("--out-schema", default=None,
                   help="also write the feature schema JSON")
    p.set_defaults(func=_cmd_datagen)

    p_srg = sub.add_parser("srg", help="scene relation graph commands")
    srg_sub = p_srg.add_subparsers(dest="srg_command", required=True)
    p = srg_sub.add_parser("build", help="build the graph from training data")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--cc-threshold", type=float, default=0.05)
    p.add_argument("--buckets", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_srg_build)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--train", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--graph", default=None)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--reference", default=None,
                   help="reference report for improvement Gini")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="hyperparameter sweep")
    p.add_argument("--param", required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--graph", default=None)
    p.add_argument("--config", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    """Run one subcommand. Bad input (ValueError, which covers ParseError,
    SchemaError and ConfigError), file errors and a failed allocation
    print one line to stderr and return 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"swan: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
