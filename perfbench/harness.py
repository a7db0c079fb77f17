"""One workload run: set-up, training, serving, then the output checks.

The run drives swan only through its public functions: `datagen.generate`,
`srg.build_srg`, `training.train`, `metrics.evaluate`,
`model.predict_scores` and `serialize.save_model`/`load_model`. The
checks additionally read the neighbours the model retrieves
(`srg.profile_new_scene`, `model.resolve_neighbors`).
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import checks
from calibrate import Calibration
from swan.datagen import generate
from swan.metrics import evaluate
from swan.model import predict_scores, resolve_neighbors
from swan.serialize import load_model, save_model
from swan.srg import build_srg, profile_new_scene
from swan.training import train
from tracing import LAYER_UNITS, Tracer, layer_metrics
from workloads import Workload, request_round

# Reference-kernel samples: a burst before and after each set-up
# repetition and training, a few right before and right after each
# evaluate() pass, one every SAMPLE_EVERY_S inside each of these, and one
# after every request, that one timed by thread CPU time like the request
# itself.
BRACKET = 5
PASS_SAMPLES = 3
SAMPLE_EVERY_S = 0.05

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_rows_per_s": "rows/s",
    "score_rows_per_s": "rows/s",
    "request_ms_p50": "ms",
    "auc_cold_start": "unitless",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    """What one pass over a workload measured and produced."""

    phases: dict = field(default_factory=dict)      # name -> (wall s, cpu s)
    # Timings are lists of (seconds, calibration mark) stretches; see
    # calibrate.py.
    setup_s: list = field(default_factory=list)     # one list a repetition
    train_s: list = field(default_factory=list)
    train_rows: int = 0
    pass_s: list = field(default_factory=list)      # one list a pass
    pass_aucs: list = field(default_factory=list)
    latency_s: list = field(default_factory=list)   # thread CPU time
    latency_wall_s: list = field(default_factory=list)
    invalid_requests: int = 0
    calibration: Calibration | None = None
    first_round: list = field(default_factory=list)  # (request, scores)
    attempted: int = 0
    failed: int = 0
    data: object = None
    graph: object = None
    result: object = None


class _Phase:
    """Wall and CPU time of one phase, with garbage collected first."""

    def __init__(self, outcome: Outcome, name: str):
        self.outcome, self.name = outcome, name

    def __enter__(self):
        gc.collect()
        self.wall, self.cpu = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc):
        self.outcome.phases[self.name] = (time.perf_counter() - self.wall,
                                          time.process_time() - self.cpu)


def _failure(what: str, outcome: Outcome) -> None:
    outcome.failed += 1
    if outcome.failed == 1:
        print(f"first failure in {what}:", file=sys.stderr)
        traceback.print_exc()


def run_pass(workload: Workload, seed: int, seconds: float | None,
             setup_reps: int, tracer: Tracer | None = None,
             rounds: int | None = None,
             calibration: Calibration | None = None) -> Outcome:
    """Set up `setup_reps` times, train once, then serve.

    Serving repeats whole rounds, each one `evaluate()` pass over the
    cold-scene test split followed by fresh requests, until `seconds` have
    passed and at least `workload.min_rounds()` are done; with `rounds`
    given, exactly that many. With a `calibration`, reference
    kernel samples fall all through each timed phase (see calibrate.py).
    """
    span = tracer.span if tracer else (lambda *a, **k: nullcontext())
    out = Outcome()
    gen = workload.gen_config(seed)
    model = workload.model
    cal = out.calibration = calibration

    def calibrate(phase, calls=1):
        if cal is not None:
            cal.sample(phase, calls)

    def mark(phase):
        return cal.mark(phase) if cal is not None else 0

    def in_stretches(call, name, phase):
        """`call()` and its time as (seconds, mark) stretches: split by a
        kernel sample every SAMPLE_EVERY_S with a calibration, one stretch
        in span `name` without."""
        stretches = []
        if cal is not None:
            with cal.every(SAMPLE_EVERY_S, phase, stretches):
                result = call()
        else:
            start = time.perf_counter()
            with span(name):
                result = call()
            stretches.append((time.perf_counter() - start, 0))
        return result, stretches

    def set_up():
        with span("datagen.generate"):
            data = generate(gen)
        with span("srg.build_srg"):
            graph = build_srg(data.train, data.schema,
                              cc_threshold=model.cc_threshold,
                              buckets=model.buckets)
        return data, graph

    with _Phase(out, "setup"):
        for _ in range(setup_reps):
            out.data = out.graph = None
            calibrate("setup", BRACKET)
            gc.collect()
            (out.data, out.graph), stretches = in_stretches(set_up, "setup",
                                                            "setup")
            out.setup_s.append(stretches)
            out.attempted += 1
        calibrate("setup", BRACKET)
    data, graph = out.data, out.graph

    config = workload.train_config(seed)
    with _Phase(out, "train"):
        calibrate("train", BRACKET)
        gc.collect()
        out.result, out.train_s = in_stretches(
            lambda: train(data.train, graph, config), "training.train",
            "train")
        out.train_rows = len(data.train) * config.epochs
        out.attempted += 1
        calibrate("train", BRACKET)
    params = out.result.params

    wanted = rounds if rounds is not None else workload.min_rounds()
    with _Phase(out, "serve"):
        deadline = time.perf_counter() + (seconds or 0.0)
        done = 0
        while done < wanted or (rounds is None
                                and time.perf_counter() < deadline):
            round_ = request_round(workload, data, seed, done)
            gc.collect()
            out.attempted += 1
            calibrate("serve", PASS_SAMPLES)
            try:
                report, stretches = in_stretches(
                    lambda: evaluate(params, graph, data.test),
                    "metrics.evaluate", "serve")
                out.pass_s.append(stretches)
                out.pass_aucs.append(report.auc_cold_start)
            except Exception:  # counted, reported, and serving goes on
                _failure("evaluate()", out)
            calibrate("serve", PASS_SAMPLES)
            for req in round_:
                out.attempted += 1
                try:
                    start = time.perf_counter()
                    start_cpu = time.thread_time()
                    with span("request", tag=req.kind):
                        scores = predict_scores(params, graph, req.examples)
                    out.latency_s.append((time.thread_time() - start_cpu,
                                          mark("request")))
                    out.latency_wall_s.append(time.perf_counter() - start)
                except Exception:  # counted, reported, and serving goes on
                    _failure(f"a {req.kind} request", out)
                    continue
                if not checks.scores_valid(scores):
                    out.invalid_requests += 1
                if done == 0:
                    out.first_round.append((req, scores))
                calibrate("request")
            done += 1
    return out


def _at_reference(out: Outcome, phase: str, timings: list,
                  scaled: bool = True) -> np.ndarray:
    """Timings of `phase`, each scaled by the machine's speed around it
    unless not `scaled`."""
    if not scaled:
        return np.array([t for t, _ in timings])
    return np.array([t * out.calibration.factor(phase, at) for t, at in timings])


def served(out: Outcome) -> bool:
    """Whether at least one evaluate() pass and one request completed,
    which every serving metric and output check needs."""
    return bool(out.pass_s) and bool(out.latency_s)


def end_to_end(out: Outcome, scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics; unless not `scaled`, each request and each
    stretch of set-up, training and a pass is scaled by the machine's
    speed around it. A serving metric with no completed operation behind
    it is left out."""
    def at_reference(phase, timings):
        return _at_reference(out, phase, timings, scaled)

    def total(phase, stretches):
        return float(at_reference(phase, stretches).sum())

    metrics = {
        "setup_s": float(np.median([total("setup", st)
                                    for st in out.setup_s])),
        "train_rows_per_s": out.train_rows / total("train", out.train_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if out.pass_s:
        metrics["score_rows_per_s"] = len(out.data.test) / float(
            np.median([total("serve", st) for st in out.pass_s]))
        metrics["auc_cold_start"] = out.pass_aucs[0]
    if out.latency_s:
        metrics["request_ms_p50"] = float(np.median(
            at_reference("request", out.latency_s) * 1e3))
    return {k: metrics[k] for k in END_TO_END_UNITS if k in metrics}


def cold_targets(out: Outcome) -> dict:
    """Each cold scene's profile and the neighbours the model retrieves for it,
    built from the scene's whole test split as `evaluate()` builds them."""
    params, graph, test = out.result.params, out.graph, out.data.test
    by_scene: dict[str, list] = {}
    for ex in test:
        by_scene.setdefault(ex.scene_id, []).append(ex)
    targets = {}
    for sid, examples in sorted(by_scene.items()):
        profile = profile_new_scene(graph, sid, examples, params.schema)
        targets[sid] = (profile, resolve_neighbors(graph, sid, profile, params))
    return targets


def run_checks(workload: Workload, out: Outcome, out_dir: str,
               targets: dict) -> list[checks.Check]:
    data, graph, params = out.data, out.graph, out.result.params
    found = [checks.check_losses(out.result.epoch_losses)]

    scores = predict_scores(params, graph, data.test)
    found.append(checks.check_scores("test_scores", scores))
    known = {ex.scene_id for ex in data.train}
    cold = np.array([ex.scene_id not in known for ex in data.test])
    labels = np.array([ex.label for ex in data.test])
    found.append(checks.check_auc(labels[cold], scores[cold], out.pass_aucs[0]))
    found.append(checks.Check(
        "evaluate_repeatable", len(set(out.pass_aucs)) == 1,
        f"{len(out.pass_aucs)} passes, {len(set(out.pass_aucs))} distinct AUCs"))
    found.append(checks.Check(
        "request_scores", out.invalid_requests == 0,
        f"{out.invalid_requests} of {len(out.latency_s)} requests returned a "
        "score outside (0, 1) or a non-finite one"))

    found.append(checks.check_edges(graph))
    model = workload.model
    found.append(checks.check_neighbours(graph, targets, model.k_neighbors,
                                         model.min_weight))
    share, _ = checks.archetype_match(targets, data.truth)
    found.append(checks.check_archetype_match(share, workload.archetypes))

    warm = [(req, s) for req, s in out.first_round if req.kind == "warm"]
    rows = sorted({int(i) for req, _ in warm for i in req.rows})
    batch = predict_scores(params, graph, [data.train[i] for i in rows])
    at = {row: batch[n] for n, row in enumerate(rows)}
    found.append(checks.check_warm(
        [(s, [at[int(i)] for i in req.rows]) for req, s in warm]))

    path = os.path.join(out_dir, f"model-{workload.name}-{os.getpid()}.bin")
    try:
        save_model(params, path, graph)
        loaded, loaded_graph = load_model(path)
    finally:
        if os.path.exists(path):
            os.remove(path)
    found.append(checks.check_round_trip(
        scores, predict_scores(loaded, loaded_graph, data.test)))
    return found


def report_phases(label: str, out: Outcome) -> None:
    for name, (wall, cpu) in out.phases.items():
        print(f"{label}phase {name}: wall {wall:.3f} s, cpu {cpu:.3f} s")


def report_checks(found: list[checks.Check]) -> bool:
    if not found:
        print("checks skipped: no evaluate() pass or no request completed")
        return False
    for c in found:
        print(f"check {c.name}: {'PASS' if c.ok else 'FAIL'} - {c.detail}")
    return all(c.ok for c in found)


def run_untraced(workload: Workload, seed: int, seconds: float,
                 out_dir: str) -> dict:
    out = run_pass(workload, seed, seconds, workload.setup_reps,
                   calibration=Calibration())
    report_phases("", out)
    print(f"served {len(out.pass_s)} evaluate() passes and "
          f"{len(out.latency_s)} requests")
    for phase, samples in out.calibration.samples.items():
        print(f"reference kernel in {phase}: median "
              f"{1e3 * statistics.median(samples):.3f} ms over {len(samples)} "
              f"runs, time factor {out.calibration.factor(phase):.4f}")
    print("as measured: " + ", ".join(
        f"{k} {v:.6g}" for k, v in end_to_end(out, scaled=False).items()))
    if out.latency_s:
        # The p99 is printed, not reported as a metric: it moved by a third
        # with the machine's state (see README.md).
        lat_ms = _at_reference(out, "request", out.latency_s) * 1e3
        wall_ms = np.asarray(out.latency_wall_s) * 1e3
        print(f"request p99: {np.percentile(lat_ms, 99):.4f} ms at the "
              f"reference speed; wall time p50 {np.median(wall_ms):.4f} ms, "
              f"p99 {np.percentile(wall_ms, 99):.4f} ms")
    metrics = end_to_end(out)
    correct = report_checks(run_checks(workload, out, out_dir, cold_targets(out))
                            if served(out) else [])
    return {"correct": correct, "attempted": out.attempted,
            "failed": out.failed,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                        for k, v in metrics.items()}}


def run_traced(workload: Workload, seed: int, out_dir: str) -> dict:
    """The same fixed work three times: untraced, traced, untraced. The
    per-layer metrics come from the traced pass; its wall time against the
    mean of the two untraced passes around it is the tracing overhead."""
    def untraced():
        base = run_pass(workload, seed, None, 1, rounds=workload.trace_rounds)
        report_phases("untraced ", base)
        return base.phases

    before = untraced()
    tracer = Tracer()
    tracer.install()
    try:
        out = run_pass(workload, seed, None, 1, tracer=tracer,
                       rounds=workload.trace_rounds)
    finally:
        tracer.uninstall()
    report_phases("traced ", out)
    after = untraced()

    def overhead_of(names):
        def wall(phases):
            return sum(phases[name][0] for name in names)
        return wall(out.phases) / ((wall(before) + wall(after)) / 2.0) - 1.0

    overhead = {name: overhead_of([name]) for name in out.phases}
    overhead["all"] = overhead_of(list(out.phases))
    print("tracing overhead: " + ", ".join(
        f"{name} {100 * v:+.1f}%" for name, v in overhead.items()))

    targets = cold_targets(out)
    metrics = layer_metrics(tracer)
    share, empty = checks.archetype_match(targets, out.data.truth)
    metrics["srg.neighbour_archetype_match"] = share
    metrics["srg.empty_neighbourhoods"] = empty
    correct = report_checks(run_checks(workload, out, out_dir, targets)
                            if served(out) else [])

    path = os.path.join(out_dir, f"trace-{workload.name}-seed{seed}.json")
    tracer.write(path, {"workload": workload.name, "seed": seed,
                        "tracing_overhead": overhead,
                        "metrics": metrics})
    print(f"spans written to {path}")
    return {"correct": correct, "attempted": out.attempted,
            "failed": out.failed,
            "metrics": {k: {"value": metrics[k], "unit": unit}
                        for k, unit in LAYER_UNITS.items()}}
