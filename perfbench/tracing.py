"""In-memory spans around the calls into swan's modules, and the per-layer
metrics derived from them.

Wrappers are installed on the name each caller looks up (for example
`swan.model.san_forward`, which `swan_forward` calls, and
`swan.training.swan_forward`, which the training loop calls), so nothing
under `src/` changes. Autodiff op counts come from a wrapper on
`swan.autodiff._record` and go to the innermost open span.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name); the same function can be reached under
# two names, and each name gets its own span name.
WRAPPED = (
    ("swan.model", "encode_batch", "features.encode_batch"),
    ("swan.training", "encode_batch", "features.encode_batch"),
    ("swan.model", "similar_scenes", "srg.similar_scenes"),
    ("swan.model", "profile_new_scene", "srg.profile_new_scene"),
    ("swan.model", "swan_forward", "model.predict_forward"),
    ("swan.training", "swan_forward", "model.train_forward"),
    ("swan.model", "san_forward", "san.forward"),
    ("swan.model", "cfr_forward", "cfr.forward"),
    ("swan.model", "expert_selector", "aem.selector"),
    ("swan.model", "aeg_forward", "aem.aeg"),
    ("swan.model", "seg_forward", "aem.seg"),
    ("swan.model", "decide", "head.decide"),
    ("swan.training", "total_loss", "head.loss"),
    ("swan.training", "backward", "autodiff.backward"),
    ("swan.metrics", "auc", "metrics.auc"),
)

NAME, PARENT, START, END, OPS, ROWS, TAG = range(7)

LAYER_UNITS = {
    "datagen.generate_s": "s",
    "srg.build_s": "s",
    "srg.similar_scenes_ms": "ms",
    "srg.profile_new_scene_ms": "ms",
    "srg.neighbour_archetype_match": "ratio",
    "srg.empty_neighbourhoods": "count",
    "features.encode_rows_per_s": "rows/s",
    "autodiff.ops_per_train_step": "count",
    "autodiff.backward_ms_per_step": "ms",
    "autodiff.ops_per_request": "count",
    "model.forward_ms_per_step": "ms",
    "san.forward_ms": "ms",
    "san.ops": "count",
    "cfr.forward_ms": "ms",
    "cfr.ops": "count",
    "aem.selector_ms": "ms",
    "aem.selector_ops": "count",
    "aem.experts_ms": "ms",
    "aem.experts_ops": "count",
    "head.decide_ms": "ms",
    "head.decide_ops": "count",
    "head.loss_ms": "ms",
    "head.loss_ops": "count",
    "model.request_cold_ms_p50": "ms",
    "model.request_warm_ms_p50": "ms",
    "training.adam_step_ms": "ms",
    "training.adam_nonzero_grad_share": "ratio",
    "metrics.auc_ms": "ms",
}


class Tracer:
    """Spans as lists [name, parent, start_ns, end_ns, ops, rows, tag]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.adam_tensors = 0
        self.adam_nonzero = 0
        self._saved: list[tuple] = []

    def open(self, name: str, rows: int = 0, tag=None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, time.perf_counter_ns(), 0, 0, rows, tag])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter_ns()
        self.stack.pop()

    @contextmanager
    def span(self, name: str, rows: int = 0, tag=None):
        idx = self.open(name, rows, tag)
        try:
            yield
        finally:
            self.close(idx)

    # -- installation -----------------------------------------------------

    def _wrap(self, fn, name: str, rows_arg: bool):
        tracer = self

        def wrapped(*args, **kwargs):
            idx = tracer.open(name, len(args[0]) if rows_arg else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
        return wrapped

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self._wrap(
                getattr(module, attr), name, name == "features.encode_batch"))

        autodiff = importlib.import_module("swan.autodiff")
        record = autodiff._record
        tracer = self

        def counted(*args, **kwargs):
            if tracer.stack:
                tracer.spans[tracer.stack[-1]][OPS] += 1
            return record(*args, **kwargs)
        self._patch(autodiff, "_record", counted)

        adam = importlib.import_module("swan.training").Adam
        step = adam.step

        def traced_step(opt):
            idx = tracer.open("training.adam_step")
            try:
                step(opt)
            finally:
                tracer.close(idx)
            # Counted after the span closes, so the count costs it nothing;
            # the gradients stay in place until the loop's zero_grad().
            tracer.adam_tensors += len(opt.params)
            tracer.adam_nonzero += sum(1 for p in opt.params if np.any(p.grad))
        self._patch(adam, "step", traced_step)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- summaries --------------------------------------------------------

    def totals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per span: duration (ns), self time (ns) and inclusive op count."""
        n = len(self.spans)
        dur = np.array([s[END] - s[START] for s in self.spans], dtype=np.int64)
        child = np.zeros(n, dtype=np.int64)
        ops = np.array([s[OPS] for s in self.spans], dtype=np.int64)
        # Children come after their parent, so one backward sweep folds
        # every child into its parent before the parent is read.
        for i in range(n - 1, -1, -1):
            parent = self.spans[i][PARENT]
            if parent >= 0:
                child[parent] += dur[i]
                ops[parent] += ops[i]
        return dur, dur - child, ops

    def by_name(self) -> dict[str, dict]:
        dur, self_ns, ops = self.totals()
        out: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            entry = out.setdefault(s[NAME], {"calls": 0, "ms": [], "self_ms": 0.0,
                                             "ops": 0, "rows": 0})
            entry["calls"] += 1
            entry["ms"].append(dur[i] / 1e6)
            entry["self_ms"] += self_ns[i] / 1e6
            entry["ops"] += int(ops[i])
            entry["rows"] += s[ROWS]
        return out

    def write(self, path: str, extra: dict) -> None:
        dur, self_ns, ops = self.totals()
        spans = [{"id": i, "parent": s[PARENT], "trace": _root(self.spans, i),
                  "name": s[NAME], "start_ns": s[START], "end_ns": s[END],
                  "self_ns": int(self_ns[i]), "ops": int(ops[i]),
                  "rows": s[ROWS], "tag": s[TAG]}
                 for i, s in enumerate(self.spans)]
        summary = {name: {"calls": e["calls"], "total_ms": sum(e["ms"]),
                          "self_ms": e["self_ms"], "ops": e["ops"]}
                   for name, e in sorted(self.by_name().items())}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "by_name": summary, "spans": spans}, fh)


def _root(spans, i: int) -> int:
    while spans[i][PARENT] >= 0:
        i = spans[i][PARENT]
    return i


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of a traced run (match and fallback counts aside).

    Times are means per call over the whole traced run, training and
    serving alike; op counts are inclusive of nested spans. Request spans
    carry their kind ("cold" or "warm") as the tag.
    """
    names = tracer.by_name()

    def calls(name):
        return names.get(name, {"calls": 0, "ms": [], "ops": 0, "rows": 0})

    def mean_ms(*keys):
        entries = [calls(k) for k in keys]
        n = entries[0]["calls"]
        return sum(sum(e["ms"]) for e in entries) / n if n else 0.0

    def ops_per_call(*keys):
        entries = [calls(k) for k in keys]
        n = entries[0]["calls"]
        return sum(e["ops"] for e in entries) / n if n else 0.0

    encode = calls("features.encode_batch")
    by_kind = {"cold": [], "warm": []}
    for s in tracer.spans:
        if s[NAME] == "request":
            by_kind[s[TAG]].append((s[END] - s[START]) / 1e6)

    def p50(values):
        return float(np.median(values)) if values else 0.0

    return {
        "datagen.generate_s": mean_ms("datagen.generate") / 1e3,
        "srg.build_s": mean_ms("srg.build_srg") / 1e3,
        "srg.similar_scenes_ms": mean_ms("srg.similar_scenes"),
        "srg.profile_new_scene_ms": mean_ms("srg.profile_new_scene"),
        "features.encode_rows_per_s": (encode["rows"] / (sum(encode["ms"]) / 1e3)
                                       if encode["ms"] else 0.0),
        "autodiff.ops_per_train_step": ops_per_call("model.train_forward",
                                                    "head.loss"),
        "autodiff.backward_ms_per_step": mean_ms("autodiff.backward"),
        "autodiff.ops_per_request": ops_per_call("request"),
        "model.forward_ms_per_step": mean_ms("model.train_forward"),
        "san.forward_ms": mean_ms("san.forward"),
        "san.ops": ops_per_call("san.forward"),
        "cfr.forward_ms": mean_ms("cfr.forward"),
        "cfr.ops": ops_per_call("cfr.forward"),
        "aem.selector_ms": mean_ms("aem.selector"),
        "aem.selector_ops": ops_per_call("aem.selector"),
        "aem.experts_ms": mean_ms("aem.aeg", "aem.seg"),
        "aem.experts_ops": ops_per_call("aem.aeg", "aem.seg"),
        "head.decide_ms": mean_ms("head.decide"),
        "head.decide_ops": ops_per_call("head.decide"),
        "head.loss_ms": mean_ms("head.loss"),
        "head.loss_ops": ops_per_call("head.loss"),
        "model.request_cold_ms_p50": p50(by_kind["cold"]),
        "model.request_warm_ms_p50": p50(by_kind["warm"]),
        "training.adam_step_ms": mean_ms("training.adam_step"),
        "training.adam_nonzero_grad_share": (
            tracer.adam_nonzero / tracer.adam_tensors
            if tracer.adam_tensors else 0.0),
        "metrics.auc_ms": mean_ms("metrics.auc"),
    }
