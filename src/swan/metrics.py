"""Ranking metrics and the evaluation report.

AUC uses the rank-sum (Mann-Whitney) form with ties half-credited; the
Gini coefficient is the normalized mean absolute pairwise difference,
used here to measure how evenly a model's improvement spreads across
scenes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .features import click_labels, group_rows, read_json, scene_codes, write_json


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
    order = np.argsort(s, kind="stable")
    sorted_scores = s[order]
    # Tie groups of the sorted scores, by their first and last positions.
    is_first = np.r_[True, sorted_scores[1:] != sorted_scores[:-1]]
    first = np.flatnonzero(is_first)
    last = np.r_[first[1:], y.size] - 1
    # 1-based ranks; a tie group takes the average of its rank range
    ranks = np.empty(y.size, dtype=np.float64)
    ranks[order] = ((first + last + 2) / 2.0)[np.cumsum(is_first) - 1]
    rank_sum_pos = ranks[y == 1].sum()
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


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
    table and recorded in the warnings. The list must not be empty and
    every label must be 0 or 1 (not a boolean); `features.click_labels`
    names the first row that is not.
    """
    from .model import predict_scores

    labels = click_labels(dataset)
    scores = predict_scores(params, graph, dataset)

    scene_ids, codes = scene_codes(dataset)

    per_scene: dict[str, float] = {}
    warnings: dict[str, list[str]] = {}
    pooled_small: dict[str, np.ndarray] = {}
    for sid, rows in zip(scene_ids, group_rows(codes, len(scene_ids))):
        y = labels[rows]
        if len(rows) < MIN_SCENE_EXAMPLES:
            pooled_small[sid] = rows
            continue
        if y.min() == y.max():
            warnings.setdefault("single_class_scenes", []).append(sid)
            continue
        per_scene[sid] = auc(y, scores[rows])
    if pooled_small:
        rows = np.concatenate(list(pooled_small.values()))
        warnings["pooled_small_scenes"] = list(pooled_small)
        y = labels[rows]
        if len(rows) and y.min() != y.max():
            per_scene["other"] = auc(y, scores[rows])

    known = params.embeddings.scene_vocab
    cold = [g for g, sid in enumerate(scene_ids) if sid not in known]
    cold_rows = np.flatnonzero(np.isin(codes, cold))
    auc_cold = None
    if cold_rows.size:
        y = labels[cold_rows]
        if y.min() != y.max():
            auc_cold = auc(y, scores[cold_rows])
        else:
            warnings.setdefault("single_class_scenes", []).append("<cold pool>")

    report = EvalReport(auc_all=auc(labels, scores), auc_cold_start=auc_cold,
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
    return report
