"""Output checks, each computed apart from the program.

Every check returns a `Check` whose `ok` says whether the program's
output agrees with a computation made here from plain numpy, or with a
property the method must have.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# auc_cold_start must reach 0.5 + AUC_MARGIN: the planted archetypes make
# cold scenes predictable, and a model that lost them ranks near chance.
AUC_MARGIN = 0.15
# Retrieved neighbours must share the target's planted archetype at least
# MATCH_MARGIN of the way from chance (1 / archetypes) to always.
MATCH_MARGIN = 0.5
AUC_TOLERANCE = 1e-12
WARM_TOLERANCE = 1e-9


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def pair_count_auc(labels, scores) -> float:
    """Share of (positive, negative) pairs the positive wins; ties count 1/2."""
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=np.float64)
    pos = s[y == 1]
    neg = np.sort(s[y == 0])
    below = np.searchsorted(neg, pos, side="left")
    at_or_below = np.searchsorted(neg, pos, side="right")
    wins = 2 * int(below.sum()) + int((at_or_below - below).sum())
    return wins / (2.0 * len(pos) * len(neg))


def check_auc(labels, scores, program_auc: float) -> Check:
    ours = pair_count_auc(labels, scores)
    ok = (program_auc is not None and abs(ours - program_auc) <= AUC_TOLERANCE
          and ours >= 0.5 + AUC_MARGIN)
    return Check("auc_cold_start", ok,
                 f"pair count {ours:.15f}, program {program_auc}, "
                 f"floor {0.5 + AUC_MARGIN}")


def category_matrix(graph) -> tuple[list[str], list, np.ndarray]:
    """Scene ids, the shared slot layout and the [scenes, slots] categories."""
    ids = sorted(graph.profiles)
    layout = [(name, agg) for name, agg, _ in graph.profiles[ids[0]].slots]
    rows = []
    for sid in ids:
        slots = graph.profiles[sid].slots
        if [(name, agg) for name, agg, _ in slots] != layout:
            raise ValueError(f"profile {sid!r} has another slot layout")
        rows.append([cat for _, _, cat in slots])
    return ids, layout, np.array(rows, dtype=np.int64)


def check_edges(graph) -> Check:
    """Every stored weight is the count of equal slots; no sharing pair is missing."""
    ids, _, cats = category_matrix(graph)
    expected = {}
    for i in range(len(ids) - 1):
        counts = (cats[i + 1:] == cats[i]).sum(axis=1)
        for j in np.nonzero(counts)[0]:
            expected[(ids[i], ids[i + 1 + j])] = int(counts[j])
    missing = sum(1 for pair in expected if pair not in graph.edges)
    extra = sum(1 for pair in graph.edges if pair not in expected)
    wrong = sum(1 for pair, w in graph.edges.items()
                if pair in expected and expected[pair] != w)
    ok = missing == extra == wrong == 0
    return Check("srg_edges", ok,
                 f"{len(expected)} sharing pairs: {missing} missing, "
                 f"{extra} extra, {wrong} wrong weights")


def top_k(matrix, profile, k: int, min_weight: int) -> list[str]:
    """Known scenes by equal-slot count, weight descending then id ascending.

    `matrix` is what `category_matrix` returns for the graph."""
    ids, layout, cats = matrix
    if [(name, agg) for name, agg, _ in profile.slots] != layout:
        raise ValueError(f"target {profile.scene_id!r} has another slot layout")
    target = np.array([cat for _, _, cat in profile.slots], dtype=np.int64)
    weights = (cats == target).sum(axis=1)
    order = np.argsort(-weights, kind="stable")  # ids are sorted: ties by id
    return [ids[i] for i in order if weights[i] >= min_weight][:k]


def check_neighbours(graph, targets: dict, k: int, min_weight: int) -> Check:
    """`targets` maps a cold scene id to (its profile, the program's neighbours)."""
    matrix = category_matrix(graph)
    bad = [sid for sid, (profile, got) in sorted(targets.items())
           if top_k(matrix, profile, k, min_weight) != list(got)]
    return Check("cold_neighbours", not bad,
                 f"{len(targets) - len(bad)}/{len(targets)} cold scenes match "
                 f"an independent top-{k}" + (f"; first mismatch {bad[0]}"
                                              if bad else ""))


def archetype_match(targets: dict, truth) -> tuple[float, int]:
    """Share of retrieved neighbours with the target's planted archetype,
    and the number of targets that retrieved none."""
    arch = truth.scene_archetypes
    hits = total = empty = 0
    for sid, (_, got) in targets.items():
        if not got:
            empty += 1
        hits += sum(1 for n in got if arch[n] == arch[sid])
        total += len(got)
    return (hits / total if total else 0.0), empty


def check_archetype_match(share: float, archetypes: int) -> Check:
    chance = 1.0 / archetypes
    floor = chance + MATCH_MARGIN * (1.0 - chance)
    return Check("neighbour_archetype_match", share >= floor,
                 f"{share:.4f} against a floor of {floor:.4f} "
                 f"(chance {chance:.4f})")


def check_losses(losses) -> Check:
    values = np.asarray(losses, dtype=np.float64)
    ok = bool(np.isfinite(values).all()) and len(values) >= 2 \
        and values[-1] < values[0]
    return Check("epoch_losses", ok, "epoch losses " + ", ".join(
        f"{v:.6f}" for v in values))


def scores_valid(scores) -> bool:
    s = np.asarray(scores, dtype=np.float64)
    return bool(np.isfinite(s).all() and (s > 0.0).all() and (s < 1.0).all())


def check_scores(name: str, scores) -> Check:
    s = np.asarray(scores, dtype=np.float64)
    ok = scores_valid(s)
    span = f"[{s.min():.6g}, {s.max():.6g}]" if np.isfinite(s).all() \
        else "non-finite values"
    return Check(name, ok, f"{s.size} scores in {span}")


def check_warm(pairs) -> Check:
    """`pairs` holds (request scores, the same rows' batch scores)."""
    worst = max((float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
                 for a, b in pairs), default=0.0)
    return Check("warm_request_vs_batch", bool(pairs) and worst <= WARM_TOLERANCE,
                 f"{len(pairs)} warm requests, max |diff| {worst:.3g}")


def check_round_trip(before, after) -> Check:
    same = np.array_equal(np.asarray(before), np.asarray(after))
    return Check("model_round_trip", same,
                 "bit-identical test scores after save/load" if same
                 else "test scores changed after save/load")
