"""Model assembly: configuration, the parameter container, forward passes.

Two models share the embedding machinery and the autodiff core: the full
scene-adaptive network and a plain DNN baseline that consumes the scene
id and attributes as ordinary features. Batches are row matrices, and
every row carries its own similar scenes; `scene_batches`, which
training and scoring share, cuts one scene per batch for training and
rows of many scenes per batch for scoring.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .aem import aeg_forward, expert_selector, seg_forward
from .autodiff import Tensor
from .cfr import assemble_input, cfr_forward
from .features import (Config, EmbeddingSet, Example, FeatureSchema,
                       SchemaError, embed_indices, encode_columns, group_rows,
                       scene_codes)
from .head import decide
from .nn import MLP
from .san import san_forward
# profile_new_scene is not called here; it stays a name of this module
# because the benchmark's tracer patches it by that name.
from .srg import (SceneRelationGraph, profile_new_scene,  # noqa: F401
                  scene_categories, similar_scenes)


@dataclass(frozen=True)
class ComponentFlags(Config):
    """Ablation switches; False disables a component."""

    srg: bool = True
    aem: bool = True
    cfr: bool = True
    loss_var: bool = True
    loss_cos: bool = True


@dataclass(frozen=True)
class ModelConfig(Config):
    """All model hyperparameters."""

    embed_dim: int = 16
    expert_dim: int = 16
    n_aeg: int = 10
    n_seg: int = 10
    tau: float = 1e-3
    k_neighbors: int = 5
    min_weight: int = 1
    cc_threshold: float = 0.05
    buckets: int = 10
    san_hidden: tuple[int, ...] = (32, 16)
    expert_hidden: tuple[int, ...] = (32, 16)
    selector_hidden: tuple[int, ...] = (32, 16)
    final_hidden: tuple[int, ...] = (16,)
    dnn_hidden: tuple[int, ...] = (64, 32)
    flags: ComponentFlags = field(default_factory=ComponentFlags)

    def _rules(self) -> tuple:
        sizes = ("embed_dim", "expert_dim", "n_aeg", "n_seg", "k_neighbors",
                 "buckets")
        hidden = ("san_hidden", "expert_hidden", "selector_hidden",
                  "final_hidden", "dnn_hidden")
        return (*((name, getattr(self, name) >= 1, "at least 1") for name in sizes),
                *((name, all(h >= 1 for h in getattr(self, name)),
                   "a tuple of sizes of at least 1") for name in hidden),
                ("min_weight", self.min_weight >= 0, "at least 0"),
                ("tau", 0.0 < self.tau < math.inf, "finite and positive"),
                ("cc_threshold", 0.0 <= self.cc_threshold <= 1.0, "in [0, 1]"))


class ModelParams:
    """Every learnable table and weight of a model of `kind`: "swan", the
    full model, or "dnn", the baseline.

    `mlps` holds one MLP per `_mlp_specs` prefix, in its order (the draw
    order), and the forward passes take them from it in that order.
    """

    def __init__(self, kind: str, config: ModelConfig, schema: FeatureSchema,
                 embeddings: EmbeddingSet, mlps: dict[str, MLP], seed: int):
        self.kind = kind
        self.config = config
        self.schema = schema
        self.embeddings = embeddings
        self.mlps = mlps
        self.seed = seed

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        """`emb`, then `cfr` if the model has one, then each MLP's
        parameters under its prefix."""
        out = [("emb", self.embeddings.table)]
        if self.embeddings.cfr is not None:
            out.append(("cfr", self.embeddings.cfr))
        for prefix, mlp in self.mlps.items():
            out.extend(mlp.named_parameters(prefix))
        return out

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]


def _mlp_specs(kind: str, schema: FeatureSchema,
               config: ModelConfig) -> dict[str, tuple]:
    """Each MLP of a model of `kind` as `MLP.stacked`'s (n, in_dim, hidden,
    out_dim), keyed by its parameter-name prefix, in draw order. An
    unknown kind is a ValueError."""
    d = config.embed_dim
    d_user = len(schema.user_features) * d
    if kind == "dnn":
        d_in = (len(schema.other_features) + len(schema.user_features) + 1
                + len(schema.scene_features)) * d
        return {"tower": (1, d_in, config.dnn_hidden, 1)}
    if kind != "swan":
        raise ValueError(f"unknown model kind {kind!r}")
    d_in = len(schema.other_features) * d + d_user + 2 * d
    return {
        "san": (1, d_user + 3 * d, config.san_hidden, 1),
        "selector.prob": (1, d_user + d, config.selector_hidden, config.n_aeg),
        "selector.thre": (1, d, config.selector_hidden, 1),
        "aeg": (config.n_aeg, d_in, config.expert_hidden, config.expert_dim),
        "seg": (config.n_seg, d_in, config.expert_hidden, config.expert_dim),
        "gate": (1, d_in, (), config.n_seg + config.n_aeg),
        "final": (1, config.expert_dim, config.final_hidden, 1),
    }


def param_shapes(kind: str, schema: FeatureSchema, scene_ids: Sequence[str],
                 config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """The names and shapes of the parameters `init_params` would make, in
    `named_parameters` order, without allocating them."""
    table, cfr = EmbeddingSet.shapes(schema, len(set(scene_ids)), config.embed_dim)
    out = [("emb", table)] + ([("cfr", cfr)] if kind == "swan" else [])
    for prefix, spec in _mlp_specs(kind, schema, config).items():
        out.extend(MLP.shapes(prefix, *spec))
    return out


def init_params(kind: str, schema: FeatureSchema, scene_ids: Sequence[str],
                config: ModelConfig, seed: int = 0) -> ModelParams:
    """Seeded initialization of all tables and MLPs of a model of `kind`.

    The full model's cross-scene rows are created for every known scene
    up front, which bounds memory to the observed scenes and keeps
    initialization deterministic.
    """
    specs = _mlp_specs(kind, schema, config)
    rng = np.random.default_rng(seed)
    embeddings = EmbeddingSet.create(rng, schema, scene_ids, config.embed_dim,
                                     cfr=kind == "swan")
    mlps = {prefix: MLP.stacked(rng, *spec) for prefix, spec in specs.items()}
    return ModelParams(kind, config, schema, embeddings, mlps, seed)


# ---------------------------------------------------------------------------
# batches and forwards


@dataclass
class PreparedBatch:
    """Encoded rows, each with its similar scenes.

    `neighbors` is [B, I]: row b's similar scenes as scene vocabulary
    indices, in retrieval order. Every row of a batch has the same number
    I of them, 0 for the DNN and for an empty neighbourhood.
    """

    feature_idx: dict[str, np.ndarray]
    scene_idx: np.ndarray
    labels: np.ndarray | None
    neighbors: np.ndarray


@dataclass
class SwanForward:
    yhat: Tensor                    # [B, 1]
    w: Tensor                       # [B, N_a] selector gates, ones when ablated
    aeg_outputs: Tensor             # [B, N_a * d_expert], expert i in block i


def encode_batch(examples: Sequence[Example], schema: FeatureSchema,
                 ) -> tuple[dict[str, np.ndarray], list[str], np.ndarray]:
    """Every schema feature's codes, then `features.scene_codes`."""
    return (encode_columns(examples, schema), *scene_codes(examples))


def stable_scene_rng(seed: int, scene_id: str) -> np.random.Generator:
    return np.random.default_rng((seed, zlib.crc32(scene_id.encode("utf-8"))))


def check_graph_scenes(graph: SceneRelationGraph | None,
                       scene_ids: Sequence[str], source: str) -> None:
    """ValueError unless there is a graph and it holds exactly `scene_ids`,
    the model's scene ids in sorted order, so that graph row i is scene
    vocabulary index i; the message names the scenes only one side has.

    A retrieved neighbour is a graph row, and the model reads its scene
    embedding and cross-scene rows at that index. `source` starts the
    message (the file or the call being checked).
    """
    if graph is None:
        raise ValueError("the full model needs a scene relation graph")
    if graph.scene_ids == scene_ids:
        return
    faults = []
    for ids, fault in (
            (set(graph.scene_ids) - set(scene_ids),
             "the graph has {} scene(s) the model does not know"),
            (set(scene_ids) - set(graph.scene_ids),
             "{} scene(s) of the model missing from the graph")):
        if ids:
            shown = ", ".join(map(repr, sorted(ids)[:5]))
            more = f" and {len(ids) - 5} more" if len(ids) > 5 else ""
            faults.append(f"{fault.format(len(ids))}: {shown}{more}")
    raise ValueError(f"{source}: {'; '.join(faults)}; build the graph from "
                     "the model's training data")


def resolve_neighbors(graph: SceneRelationGraph, scene_id: str,
                      profile, params) -> list[str]:
    """Similar-scene ids for a target profile: `_neighbor_rows` of its row."""
    if tuple((name, agg) for name, agg, _ in profile.slots) != graph.layout:
        raise SchemaError("target profile's slot layout differs from the graph's")
    target = np.array([[cat for _, _, cat in profile.slots]], dtype=np.int64)
    rows = _neighbor_rows(graph, [scene_id], target, params)[0]
    return [graph.scene_ids[i] for i in rows.tolist()]


def _neighbor_rows(graph: SceneRelationGraph, scene_ids: Sequence[str],
                  targets: np.ndarray, params) -> list[np.ndarray]:
    """Graph rows of each scene's similar scenes, by one `similar_scenes`
    call over their [T, slots] target categories. With the SRG component
    disabled, each neighborhood is replaced by as many uniformly random
    graph rows, seeded by the model seed and scene id."""
    cfg = params.config
    found = similar_scenes(graph, targets, k=cfg.k_neighbors,
                           min_weight=cfg.min_weight)
    if cfg.flags.srg:
        return found
    return [stable_scene_rng(params.seed, sid).choice(
                len(graph.scene_ids), size=len(rows), replace=False)
            for sid, rows in zip(scene_ids, found)]


def swan_forward(params: ModelParams, batch: PreparedBatch) -> SwanForward:
    """Full pipeline for a row batch, rows of one scene or of many.

    With an empty neighborhood (a cold scene below the weight threshold)
    the attention mix and the cross-scene embedding fall back to zeros, so
    the model degrades to scene-attribute-only inputs.
    """
    cfg = params.config
    d = cfg.embed_dim
    n_rows = len(batch.scene_idx)
    emb = params.embeddings
    san, prob, thre, aeg, seg, gate, final = params.mlps.values()
    bundle = embed_indices(batch.feature_idx, batch.scene_idx, emb, params.schema)
    has_neighbors = batch.neighbors.shape[1] > 0

    san_out = None
    if has_neighbors:
        e_similar = ad.rows(emb.table, emb.scene_rows(batch.neighbors))
        san_out = san_forward(bundle.e_user, bundle.e_target, e_similar, san)
        vec_san = san_out.vec
    else:
        vec_san = Tensor(np.zeros((n_rows, d)))

    if cfg.flags.cfr and has_neighbors:
        e_cfr = cfr_forward(san_out.weights, batch.feature_idx, emb,
                            batch.neighbors)
    else:
        e_cfr = Tensor(np.zeros((n_rows, d)))

    e_in = assemble_input(bundle.e_other, bundle.e_user, vec_san, bundle.e_target,
                          e_cfr)

    if cfg.flags.aem:
        w = expert_selector(bundle.e_user, vec_san, prob, thre, cfg.tau)
    else:
        w = Tensor(np.ones((n_rows, cfg.n_aeg)))

    aeg_outputs = aeg_forward(e_in, w, aeg)
    seg_outputs = seg_forward(e_in, seg)
    yhat = decide(e_in, seg_outputs, aeg_outputs, w, gate, final)
    return SwanForward(yhat=yhat, w=w, aeg_outputs=aeg_outputs)


def dnn_forward(params: ModelParams, batch: PreparedBatch) -> Tensor:
    """Baseline forward: every embedding side by side, one gather, into
    one tower."""
    schema = params.schema
    emb = params.embeddings
    cols = [*schema.other_features, *schema.user_features, None,
            *schema.scene_features]
    x = ad.rows(emb.table, emb.rows(batch.feature_idx, batch.scene_idx, cols))
    (tower,) = params.mlps.values()
    return ad.sigmoid(tower(x))


# ---------------------------------------------------------------------------
# prediction


def predict(params, graph: SceneRelationGraph | None, example: Example) -> float:
    """Click probability for one example, also from a never-seen scene.

    It is `predict_scores` over a one-example dataset.
    """
    if not isinstance(example, Example):
        raise SchemaError("predict needs an Example")
    return float(predict_scores(params, graph, [example])[0])


def scene_neighbors(params, graph: SceneRelationGraph | None,
                    idx: dict[str, np.ndarray], scene_ids: Sequence[str],
                    groups: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Each scene's similar scenes, as graph rows, which are scene
    vocabulary indices: the graph must hold exactly the model's scenes
    (`check_graph_scenes`).

    `groups[g]` holds the rows of `scene_ids[g]` in the code columns
    `idx`. For the full model with a graph, a known scene's categories are
    its matrix row and the cold scenes' are computed in one pass from
    their rows' codes; one `_neighbor_rows` call ranks them all. The DNN
    baseline's scenes have none, and the full model without a graph is a
    ValueError.
    """
    if params.kind != "swan":
        return [np.zeros(0, dtype=np.int64)] * len(scene_ids)
    emb = params.embeddings
    check_graph_scenes(graph, list(emb.scene_vocab), "neighbor retrieval")
    n_known = len(emb.scene_vocab)
    at = [emb.scene_index(sid) for sid in scene_ids]  # n_known when cold
    cold = [g for g, i in enumerate(at) if i == n_known]
    targets = graph.categories[[min(i, n_known - 1) for i in at]]
    if cold:
        targets[cold] = scene_categories(graph, idx, [groups[g] for g in cold])
    return _neighbor_rows(graph, scene_ids, targets, params)


def scene_batches(params, graph: SceneRelationGraph | None,
                  idx: dict[str, np.ndarray], scene_ids: Sequence[str],
                  codes: np.ndarray, labels: np.ndarray | None,
                  batch_size: int, by_scene: bool = True,
                  order: np.ndarray | None = None):
    """Batches of encoded rows, as (row indices, PreparedBatch).

    `idx`, `codes` (indices into the sorted `scene_ids`) and `labels` (or
    None) are aligned, and each row carries its scene's neighbours
    (`scene_neighbors`). Scenes come in sorted order and each scene's rows
    in `order` (row order by default). With `by_scene`, each scene's rows
    are cut into chunks of at most `batch_size` rows. Otherwise the scenes
    with the same number of neighbours, fewest first, have their rows put
    back to back and cut together, so one batch crosses scenes.
    """
    groups = group_rows(codes, len(scene_ids), order)
    neighbors = scene_neighbors(params, graph, idx, scene_ids, groups)
    scene_idx = np.array([params.embeddings.scene_index(sid) for sid in scene_ids],
                         dtype=np.int64)[codes]
    runs: dict = {}
    for g, nbrs in enumerate(neighbors):
        runs.setdefault(g if by_scene else len(nbrs), []).append(g)
    for key in sorted(runs):
        run = runs[key]
        rows = np.concatenate([groups[g] for g in run])
        # Each row takes its scene's row of the run's [scenes, I] matrix.
        nbrs = np.repeat(np.array([neighbors[g] for g in run]),
                         [len(groups[g]) for g in run], axis=0)
        for lo in range(0, len(rows), batch_size):
            at = rows[lo:lo + batch_size]
            yield at, PreparedBatch(
                feature_idx={k: v[at] for k, v in idx.items()},
                scene_idx=scene_idx[at],
                labels=None if labels is None else labels[at],
                neighbors=nbrs[lo:lo + batch_size])


PREDICT_BATCH = 512


def predict_scores(params, graph: SceneRelationGraph | None,
                   dataset: Sequence[Example], collect_gates: bool = False):
    """Scores aligned with the dataset order.

    The dataset is encoded once. Unknown scenes are profiled from their
    own rows' codes against the graph's stored bucket boundaries before
    neighbor retrieval, and rows are scored in chunks of at most
    PREDICT_BATCH that cross scenes. With `collect_gates` the selector
    gate matrix (rows aligned with the dataset) is returned as well.
    """
    scores, gates, _, _ = score_rows(params, graph, dataset, collect_gates)
    if collect_gates:
        return scores, gates
    return scores


def score_rows(params, graph: SceneRelationGraph | None,
               dataset: Sequence[Example], collect_gates: bool = False,
               ) -> tuple[np.ndarray, np.ndarray | None, list[str], np.ndarray]:
    """`predict_scores`' scores and gates (None unless `collect_gates`),
    then the sorted scene ids and each row's code into them, as its one
    `encode_batch` call read them."""
    scores = np.empty(len(dataset))
    gates = None
    idx, scene_ids, codes = encode_batch(dataset, params.schema)
    with ad.no_grad():
        for at, batch in scene_batches(params, graph, idx, scene_ids, codes,
                                       None, PREDICT_BATCH, by_scene=False):
            if params.kind == "swan":
                out = swan_forward(params, batch)
                scores[at] = out.yhat.data[:, 0]
                if collect_gates:
                    if gates is None:
                        gates = np.empty((len(dataset), out.w.shape[1]))
                    gates[at] = out.w.data
            else:
                scores[at] = dnn_forward(params, batch).data[:, 0]
    return scores, gates, scene_ids, codes
