"""Model assembly: configuration, parameter containers, forward passes.

Two models share the embedding machinery and the autodiff core: the full
scene-adaptive network and a plain DNN baseline that consumes the scene
id and attributes as ordinary features. Batches are row matrices, and
every row carries its own similar scenes; `scene_batches`, which
training and scoring share, cuts one scene per batch for training and
rows of many scenes per batch for scoring.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .aem import AemParams, aeg_forward, expert_selector, seg_forward
from .autodiff import Tensor
from .cfr import assemble_input, cfr_forward
from .features import (EmbeddingSet, Example, FeatureSchema, SchemaError,
                       _known_keys, embed_indices, encode_columns, group_by_scene)
from .head import HeadParams, decide
from .nn import MLP
from .san import san_forward
# profile_new_scene is not called here; it stays a name of this module
# because the benchmark's tracer patches it by that name.
from .srg import (SceneRelationGraph, profile_new_scene, profile_scenes,  # noqa: F401
                  similar_scenes)


@dataclass(frozen=True)
class ComponentFlags:
    """Ablation switches; False disables a component."""

    srg: bool = True
    aem: bool = True
    cfr: bool = True
    loss_var: bool = True
    loss_cos: bool = True

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json(cls, obj: dict) -> "ComponentFlags":
        return cls(**_known_keys(cls, obj))


@dataclass(frozen=True)
class ModelConfig:
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

    def __post_init__(self):
        if self.n_aeg < 1 or self.n_seg < 1:
            raise ValueError("both expert groups need at least one expert")
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")

    def to_json(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "flags":
                value = value.to_json()
            elif isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "ModelConfig":
        kwargs = _known_keys(cls, obj)
        if "flags" in kwargs:
            kwargs["flags"] = ComponentFlags.from_json(kwargs["flags"])
        for key in ("san_hidden", "expert_hidden", "selector_hidden",
                    "final_hidden", "dnn_hidden"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


class SwanParams:
    """Every learnable table and weight of the full model."""

    kind = "swan"

    def __init__(self, config: ModelConfig, schema: FeatureSchema,
                 embeddings: EmbeddingSet, san_mlp: MLP, aem: AemParams,
                 head: HeadParams, seed: int):
        self.config = config
        self.schema = schema
        self.embeddings = embeddings
        self.san_mlp = san_mlp
        self.aem = aem
        self.head = head
        self.seed = seed

    @property
    def known_scenes(self) -> set[str]:
        return set(self.embeddings.scene_vocab)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = [("emb", self.embeddings.table), ("cfr", self.embeddings.cfr)]
        out.extend(self.san_mlp.named_parameters("san"))
        out.extend(self.aem.prob_mlp.named_parameters("selector.prob"))
        out.extend(self.aem.thre_mlp.named_parameters("selector.thre"))
        out.extend(self.aem.aeg.named_parameters("aeg"))
        out.extend(self.aem.seg.named_parameters("seg"))
        out.extend(self.head.gate_mlp.named_parameters("gate"))
        out.extend(self.head.final_mlp.named_parameters("final"))
        return out

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]


def init_swan_params(schema: FeatureSchema, scene_ids: Sequence[str],
                     config: ModelConfig, seed: int = 0) -> SwanParams:
    """Seeded initialization of all tables and MLPs.

    Cross-scene rows are created for every known scene up front, which
    bounds memory to the observed scenes and keeps initialization
    deterministic.
    """
    rng = np.random.default_rng(seed)
    d = config.embed_dim
    embeddings = EmbeddingSet.create(rng, schema, scene_ids, d, cfr=True)
    d_user = len(schema.user_features) * d
    d_other = len(schema.other_features) * d
    d_in = d_other + d_user + 2 * d
    san_mlp = MLP.create(rng, d_user + 3 * d, config.san_hidden, 1)
    aem = AemParams(
        prob_mlp=MLP.create(rng, d_user + d, config.selector_hidden, config.n_aeg),
        thre_mlp=MLP.create(rng, d, config.selector_hidden, 1),
        aeg=MLP.stacked(rng, config.n_aeg, d_in, config.expert_hidden,
                        config.expert_dim),
        seg=MLP.stacked(rng, config.n_seg, d_in, config.expert_hidden,
                        config.expert_dim),
        tau=config.tau,
    )
    head = HeadParams(
        gate_mlp=MLP.create(rng, d_in, (), config.n_seg + config.n_aeg),
        final_mlp=MLP.create(rng, config.expert_dim, config.final_hidden, 1),
    )
    return SwanParams(config, schema, embeddings, san_mlp, aem, head, seed)


class DnnParams:
    """Baseline: shared embeddings plus a single MLP tower."""

    kind = "dnn"

    def __init__(self, config: ModelConfig, schema: FeatureSchema,
                 embeddings: EmbeddingSet, tower: MLP, seed: int):
        self.config = config
        self.schema = schema
        self.embeddings = embeddings
        self.tower = tower
        self.seed = seed

    @property
    def known_scenes(self) -> set[str]:
        return set(self.embeddings.scene_vocab)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = [("emb", self.embeddings.table)]
        out.extend(self.tower.named_parameters("tower"))
        return out

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]


def init_dnn_params(schema: FeatureSchema, scene_ids: Sequence[str],
                    config: ModelConfig, seed: int = 0) -> DnnParams:
    rng = np.random.default_rng(seed)
    d = config.embed_dim
    embeddings = EmbeddingSet.create(rng, schema, scene_ids, d)
    d_in = (len(schema.other_features) + len(schema.user_features) + 1
            + len(schema.scene_features)) * d
    tower = MLP.create(rng, d_in, config.dnn_hidden, 1)
    return DnnParams(config, schema, embeddings, tower, seed)


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
    e_in: Tensor


def encode_batch(examples: Sequence[Example], schema: FeatureSchema,
                 embeddings: EmbeddingSet) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Every schema feature's codes, and each row's scene index."""
    scene_idx = np.fromiter((embeddings.scene_index(ex.scene_id) for ex in examples),
                            dtype=np.int64, count=len(examples))
    return encode_columns(examples, schema), scene_idx


def stable_scene_rng(seed: int, scene_id: str) -> np.random.Generator:
    return np.random.default_rng((seed, zlib.crc32(scene_id.encode("utf-8"))))


def check_graph_scenes(graph: SceneRelationGraph, known_scenes,
                       source: str) -> None:
    """ValueError naming the graph's scenes that are not in `known_scenes`.

    Every graph scene can be retrieved as a neighbour, and a neighbour
    needs the model's scene embedding and cross-scene tables. `source`
    starts the message (the file or the call being checked).
    """
    unknown = sorted(set(graph.profiles) - set(known_scenes))
    if unknown:
        shown = ", ".join(repr(s) for s in unknown[:5])
        if len(unknown) > 5:
            shown += f" and {len(unknown) - 5} more"
        raise ValueError(f"{source}: the graph has {len(unknown)} scene(s) "
                         f"the model does not know: {shown}")


def resolve_neighbors(graph: SceneRelationGraph, scene_id: str,
                      profile, params) -> list[str]:
    """Similar-scene ids for a target profile, honoring the SRG ablation.

    With the SRG component disabled, the retrieved neighborhood is
    replaced by uniformly random known scenes of the same cardinality
    (seeded by the model seed and scene id, so runs stay reproducible).
    """
    cfg = params.config
    ranked = similar_scenes(graph, profile, k=cfg.k_neighbors,
                            min_weight=cfg.min_weight)
    ids = [sid for sid, _ in ranked]
    if not cfg.flags.srg and ids:
        rng = stable_scene_rng(params.seed, scene_id)
        pool = graph.scene_ids
        ids = [str(s) for s in rng.choice(pool, size=min(len(ids), len(pool)),
                                          replace=False)]
    return ids


def swan_forward(params: SwanParams, batch: PreparedBatch) -> SwanForward:
    """Full pipeline for a row batch, rows of one scene or of many.

    With an empty neighborhood (a cold scene below the weight threshold)
    the attention mix and the cross-scene embedding fall back to zeros, so
    the model degrades to scene-attribute-only inputs.
    """
    cfg = params.config
    d = cfg.embed_dim
    n_rows = len(batch.scene_idx)
    emb = params.embeddings
    bundle = embed_indices(batch.feature_idx, batch.scene_idx, emb, params.schema)
    has_neighbors = batch.neighbors.shape[1] > 0

    san_out = None
    if has_neighbors:
        e_similar = ad.rows(emb.table, emb.scene_rows(batch.neighbors))
        san_out = san_forward(bundle.e_user, bundle.e_target, e_similar,
                              params.san_mlp)
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
        w = expert_selector(bundle.e_user, vec_san, params.aem).w
    else:
        w = Tensor(np.ones((n_rows, cfg.n_aeg)))

    aeg_outputs = aeg_forward(e_in, w, params.aem.aeg)
    seg_outputs = seg_forward(e_in, params.aem.seg)
    yhat = decide(e_in, seg_outputs, aeg_outputs, w, params.head)
    return SwanForward(yhat=yhat, w=w, aeg_outputs=aeg_outputs, e_in=e_in)


def dnn_forward(params: DnnParams, batch: PreparedBatch) -> Tensor:
    """Baseline forward: every embedding side by side, one gather, into
    one tower."""
    schema = params.schema
    emb = params.embeddings
    cols = [*schema.other_features, *schema.user_features, None,
            *schema.scene_features]
    x = ad.rows(emb.table, emb.rows(batch.feature_idx, batch.scene_idx, cols))
    return ad.sigmoid(params.tower(x))


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
                    idx: dict[str, np.ndarray],
                    groups: dict[str, list[int]]) -> dict[str, np.ndarray]:
    """Each scene's similar scenes, as scene vocabulary indices.

    `groups` holds each scene's rows of the code columns `idx`. The full
    model with a graph retrieves a scene's neighbours with its stored
    profile or, for the scenes the graph does not hold, with profiles
    built in one pass from their rows' codes against the graph's stored
    bucket boundaries. Otherwise no scene has any.
    """
    if params.kind != "swan" or graph is None:
        return {sid: np.zeros(0, dtype=np.int64) for sid in groups}
    cold = [sid for sid in groups if sid not in graph.profiles]
    profiles = dict(graph.profiles)
    if cold:
        profiles.update(zip(cold, profile_scenes(graph, cold, idx,
                                                 [groups[sid] for sid in cold])))
    return {sid: params.embeddings.scene_indices(
                resolve_neighbors(graph, sid, profiles[sid], params))
            for sid in groups}


def scene_batches(params, graph: SceneRelationGraph | None,
                  examples: Sequence[Example], idx: dict[str, np.ndarray],
                  scene_idx: np.ndarray, labels: np.ndarray | None,
                  batch_size: int, by_scene: bool = True):
    """Batches of encoded rows, as (row indices, PreparedBatch).

    `idx`, `scene_idx` and `labels` (or None) are aligned with `examples`,
    and each row carries its scene's neighbours (`scene_neighbors`).
    Scenes come in sorted order and each scene's rows in example order.
    With `by_scene`, each scene's rows are cut into chunks of at most
    `batch_size` rows. Otherwise the scenes with the same number of
    neighbours, fewest first, have their rows put back to back and cut
    together, so one batch crosses scenes and needs no mask.
    """
    groups = group_by_scene(examples)
    neighbors = scene_neighbors(params, graph, idx, groups)
    runs: dict = {}
    for sid in sorted(groups):
        runs.setdefault(sid if by_scene else len(neighbors[sid]), []).append(sid)
    for key in sorted(runs):
        sids = runs[key]
        rows = np.concatenate([groups[sid] for sid in sids])
        nbrs = np.concatenate([np.tile(neighbors[sid], (len(groups[sid]), 1))
                               for sid in sids])
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
    scores = np.empty(len(dataset))
    gates = None
    idx, scene_idx = encode_batch(dataset, params.schema, params.embeddings)
    with ad.no_grad():
        for at, batch in scene_batches(params, graph, dataset, idx, scene_idx,
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
    if collect_gates:
        return scores, gates
    return scores
