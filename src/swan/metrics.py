"""Ranking metrics and the evaluation report.

AUC uses the rank-sum (Mann-Whitney) form with ties half-credited. One
rank pass gives the AUC of every group of a partition of the rows: a sort
of the scores, then a stable sort by group code, puts each group's rows
together in score order, and each group's positive rank sum is one
`bincount`. `auc` is its one-group case, and `evaluate` takes every
scene's AUC, the pooled "other" AUC and the cold-pool AUC from it. The
Gini coefficient is the normalized mean absolute pairwise difference,
used here to measure how evenly a model's improvement spreads across
scenes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .features import as_dataset, click_labels, read_json, write_json


class UndefinedMetricError(ValueError):
    """The metric is undefined for this input (e.g. single-class labels)."""


def auc(labels: Sequence[int], scores: Sequence[float]) -> float:
    """Probability a random positive outranks a random negative.

    Computed from tie-averaged ranks, which equals
    (#concordant + 0.5 * #tied) / (#pos * #neg) exactly.
    """
    y = np.asarray(labels, dtype=np.float64).ravel()
    s = np.asarray(scores, dtype=np.float64).ravel()
    if y.shape != s.shape:
        raise ValueError("labels and scores must align")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos + n_neg != y.size:
        raise ValueError("labels must be binary")
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs at least one positive and one negative")
    return _group_aucs(y, s, np.argsort(s), np.zeros(y.size, dtype=np.uint8), 1)[0]


def _group_aucs(labels: np.ndarray, scores: np.ndarray, order: np.ndarray,
                groups: np.ndarray, n_groups: int) -> list[float]:
    """The AUC of each group of rows, NaN for a group without both classes.

    `labels` are 0.0 or 1.0, `scores` finite, `order` an ascending order
    of `scores` and `groups[i]` row i's group in range(n_groups). The
    order need not be stable: a tie run's rows all take the mean of its
    rank range, whatever their order within it. A stable sort by group
    code (a radix sort, on the smallest unsigned type) keeps each group's
    rows in score order. Ranks are half-integers, so each rank sum is
    exact below 2**53 whatever the order of its additions, and each AUC
    is computed with the same operations as for the group alone.
    """
    by_group = groups[order].astype(np.min_scalar_type(n_groups - 1))
    at = np.argsort(by_group, kind="stable")
    rows, group = order[at], by_group[at]
    s = scores[rows]
    # Tie runs (equal scores within one group), by their first position.
    is_first = np.empty(rows.size, dtype=bool)
    is_first[0] = True
    np.not_equal(s[1:], s[:-1], out=is_first[1:])
    is_first[1:] |= group[1:] != group[:-1]
    first = np.flatnonzero(is_first)
    run_group = group[first]
    size = np.bincount(group, minlength=n_groups)
    start = np.cumsum(size) - size
    # A run's rows all take the mean of its 1-based rank range in the group.
    rank = (first + np.append(first[1:], rows.size) + 1 - 2 * start[run_group]) / 2.0
    run_pos = np.add.reduceat(labels[rows], first)
    n_pos = np.bincount(run_group, weights=run_pos, minlength=n_groups).astype(np.int64)
    rank_sum = np.bincount(run_group, weights=rank * run_pos, minlength=n_groups)
    n_neg = size - n_pos
    out = np.full(n_groups, np.nan)
    np.divide(rank_sum - n_pos * (n_pos + 1) / 2.0, n_pos * n_neg, out=out,
              where=(n_pos > 0) & (n_neg > 0))
    return out.tolist()


def gini(values: Sequence[float]) -> float:
    """Normalized mean absolute difference of non-negative values in [0, 1]."""
    x = np.asarray(values, dtype=np.float64).ravel()
    if x.size == 0:
        raise UndefinedMetricError("gini needs at least one value")
    if (x < 0).any():
        raise ValueError("gini needs non-negative values")
    mean = x.mean()
    if mean <= 0.0:
        raise UndefinedMetricError("gini needs a positive mean")
    # Sorted form of sum_ij |x_i - x_j| / (2 n^2 mean).
    xs = np.sort(x)
    n = x.size
    weighted = ((2.0 * np.arange(1, n + 1) - n - 1) * xs).sum()
    return float(weighted / (n * n * mean))


@dataclass
class EvalReport:
    """Overall, per-scene and cold-start AUC, plus improvement uniformity."""

    auc_all: float
    auc_cold_start: float | None
    per_scene: dict[str, float]
    gini_improvement: float | None = None
    gini_defined: bool = False
    warnings: dict[str, list[str]] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "auc_all": self.auc_all,
            "auc_cold_start": self.auc_cold_start,
            "per_scene": dict(self.per_scene),
            "gini_improvement": self.gini_improvement,
            "gini_defined": self.gini_defined,
            "warnings": {k: sorted(v) for k, v in self.warnings.items()},
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "EvalReport":
        return cls(auc_all=obj["auc_all"], auc_cold_start=obj.get("auc_cold_start"),
                   per_scene={k: float(v) for k, v in obj["per_scene"].items()},
                   gini_improvement=obj.get("gini_improvement"),
                   gini_defined=bool(obj.get("gini_defined", False)),
                   warnings={k: list(v) for k, v in obj.get("warnings", {}).items()})

    def save(self, path: str) -> None:
        write_json(path, self.to_json())

    @classmethod
    def load(cls, path: str) -> "EvalReport":
        """The report in a report file; ValueError naming the file when the
        file is not one."""
        return read_json(path, cls.from_json, "report")


def improvement_ratios(report: "EvalReport", reference: "EvalReport",
                       ) -> tuple[dict[str, float], list[str]]:
    """Per-scene relative gain over a reference report.

    Gain is (auc - 0.5) / (auc_ref - 0.5) - 1, floored at 0 for the Gini
    computation; scenes whose reference AUC is not above 0.5 are skipped.
    """
    gains: dict[str, float] = {}
    skipped: list[str] = []
    for sid, value in report.per_scene.items():
        ref = reference.per_scene.get(sid)
        if ref is None:
            continue
        if ref <= 0.5:
            skipped.append(sid)
            continue
        gains[sid] = max(0.0, (value - 0.5) / (ref - 0.5) - 1.0)
    return gains, skipped


MIN_SCENE_EXAMPLES = 30


def evaluate(params, graph, dataset,
             reference: EvalReport | None = None) -> EvalReport:
    """Score a labeled test set and summarize ranking quality.

    Overall and cold-start AUC pool examples (they are not per-scene
    averages). Scenes smaller than MIN_SCENE_EXAMPLES pool into an
    "other" bucket; single-class scenes are excluded from the per-scene
    table and recorded in the warnings, a single-class "other" bucket as
    "<other pool>" and a single-class cold pool as "<cold pool>". The
    list must not be empty and every label must be 0 or 1 (not a
    boolean); `features.click_labels` names the first row that is not.
    """
    return _evaluate(params, graph, dataset, reference)[0]


def _evaluate(params, graph, dataset, reference: EvalReport | None = None,
              collect_gates: bool = False) -> tuple[EvalReport, np.ndarray | None]:
    """`evaluate`'s report, and the selector gates of the same scoring
    pass when `collect_gates` (None otherwise)."""
    from .model import score_rows

    dataset = as_dataset(dataset, params.schema)
    labels = click_labels(dataset)
    scores, gates, scene_ids, codes = score_rows(params, graph, dataset, collect_gates)
    # A call by module name: the benchmark's tracer times `metrics.auc`.
    auc_all = auc(labels, scores)
    order = np.argsort(scores)

    n = len(scene_ids)
    small = (np.bincount(codes, minlength=n) < MIN_SCENE_EXAMPLES).tolist()
    # Each scene of at least MIN_SCENE_EXAMPLES rows is its own group; the
    # smaller ones pool into group n, "other".
    aucs = _group_aucs(labels, scores, order, np.where(small, n, np.arange(n))[codes],
                       n + 1)
    per_scene: dict[str, float] = {}
    warnings: dict[str, list[str]] = {}
    pooled: list[str] = []
    for sid, value, is_small in zip(scene_ids, aucs, small):
        if is_small:
            pooled.append(sid)
        elif math.isnan(value):
            warnings.setdefault("single_class_scenes", []).append(sid)
        else:
            per_scene[sid] = value
    if pooled:
        warnings["pooled_small_scenes"] = pooled
        if math.isnan(aucs[n]):
            warnings.setdefault("single_class_scenes", []).append("<other pool>")
        else:
            per_scene["other"] = aucs[n]

    known = params.embeddings.scene_vocab
    cold = np.array([sid not in known for sid in scene_ids])
    auc_cold = None
    if cold.all():
        auc_cold = auc_all
    elif cold.any():
        # Group 1 is the cold pool, in the same score order.
        auc_cold = _group_aucs(labels, scores, order, cold[codes], 2)[1]
        if math.isnan(auc_cold):
            auc_cold = None
            warnings.setdefault("single_class_scenes", []).append("<cold pool>")

    report = EvalReport(auc_all=auc_all, auc_cold_start=auc_cold,
                        per_scene=per_scene, warnings=warnings)
    if reference is not None:
        gains, skipped = improvement_ratios(report, reference)
        if skipped:
            warnings["reference_auc_at_or_below_half"] = skipped
        if gains and max(gains.values()) > 0.0:
            report.gini_improvement = gini(list(gains.values()))
            report.gini_defined = True
        else:
            # All-zero (or empty) gains: Gini is undefined; report 0 and flag it.
            report.gini_improvement = 0.0
            report.gini_defined = False
    return report, gates
