"""Two-set steadiness check for the benchmark.

Run a set of runs, one fresh process per (workload, seed), and print each
end-to-end metric's median, quartiles and quartile spread as a share of
the median; then compare two sets' medians against the bounds in
BENCHMARK.json:

    python3 perfbench/steady.py run --label a --seeds 1-10
    python3 perfbench/steady.py run --label b --seeds 11-20
    python3 perfbench/steady.py compare a b

Sets are saved as perfbench_out/steady-<label>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, "perfbench_out")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _path(label: str) -> str:
    return os.path.join(OUT_DIR, f"steady-{label}.json")


def run_set(label: str, seeds: list[int], workloads: list[str],
            seconds: int) -> dict:
    """Seeds outermost, so slow drift of the machine touches every workload."""
    runs: dict[str, list] = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            runs[workload].append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(_path(label), "w", encoding="utf-8") as fh:
        json.dump(runs, fh, indent=1)
    return runs


def summarize(runs: dict) -> dict:
    """Per workload and metric: median, first and third quartile, spread."""
    out = {}
    for workload, results in runs.items():
        out[workload] = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            out[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                   "spread": (q3 - q1) / med}
        out[workload]["failed_share"] = sum(r["failed"] for r in results) / sum(
            r["attempted"] for r in results)
        out[workload]["all_correct"] = all(r["correct"] for r in results)
    return out


def print_summary(label: str, summary: dict, bounds: dict) -> None:
    for workload, metrics in summary.items():
        print(f"[{label}] {workload}: failed share {metrics['failed_share']}, "
              f"all correct {metrics['all_correct']}")
        for name, s in metrics.items():
            if name not in bounds:  # not a metric, or no longer one
                continue
            bound = bounds[name]
            flag = "" if s["spread"] < bound / 3 else \
                ("  <- above a third of the bound" if s["spread"] <= bound
                 else "  <- ABOVE THE BOUND")
            print(f"  {name:18s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {100 * s['spread']:.2f}% "
                  f"(bound {100 * bound:.0f}%){flag}")


def compare(first: dict, second: dict, spec: dict) -> bool:
    ok = True
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in first:
        if first[workload]["failed_share"] != second[workload]["failed_share"]:
            print(f"{workload}: failed shares differ")
            ok = False
        for name, bound in bounds.items():
            a = first[workload][name]["median"]
            b = second[workload][name]["median"]
            worse = (b - a) / a if better[name] == "lower" else (a - b) / a
            verdict = "ok" if worse <= bound else "WORSE THAN THE BOUND"
            ok &= worse <= bound
            print(f"{workload:13s} {name:18s} {a:.6g} -> {b:.6g}  "
                  f"worse by {100 * worse:+.2f}% (bound {100 * bound:.0f}%) "
                  f"{verdict}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("--label", required=True)
    run.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("first")
    cmp_.add_argument("second")
    args = parser.parse_args(argv)

    spec = _spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if args.cmd == "run":
        runs = run_set(args.label, _seeds(args.seeds),
                       [w["name"] for w in spec["workloads"]],
                       spec["run_seconds"])
        print_summary(args.label, summarize(runs), bounds)
        return 0
    sets = []
    for label in (args.first, args.second):
        with open(_path(label), encoding="utf-8") as fh:
            sets.append(summarize(json.load(fh)))
        print_summary(label, sets[-1], bounds)
    return 0 if compare(sets[0], sets[1], spec) else 1


if __name__ == "__main__":
    sys.exit(main())
