"""Model assembly: configuration, parameter containers, forward passes.

Two models share the embedding machinery and the autodiff core: the full
scene-adaptive network and a plain DNN baseline that consumes the scene
id and attributes as ordinary features. Batches are row matrices; the
training loop groups examples by scene so one batch shares a single
similar-scene neighborhood.
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
from .features import (ConfigError, EmbeddingSet, EmbeddingTable, Example,
                       FeatureSchema, SchemaError, embed_indices,
                       encode_example)
from .head import HeadParams, decide
from .nn import MLP
from .san import SanOutput, san_forward
from .srg import SceneRelationGraph, profile_new_scene, similar_scenes


def _known_keys(cls, obj: dict) -> dict:
    """A copy of `obj`; unknown keys raise ConfigError naming them."""
    unknown = set(obj) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys {sorted(unknown)}")
    return dict(obj)


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
                 embeddings: EmbeddingSet,
                 cfr_tables: dict[str, dict[str, EmbeddingTable]],
                 san_mlp: MLP, aem: AemParams, head: HeadParams, seed: int):
        self.config = config
        self.schema = schema
        self.embeddings = embeddings
        self.cfr_tables = cfr_tables
        self.san_mlp = san_mlp
        self.aem = aem
        self.head = head
        self.seed = seed

    @property
    def known_scenes(self) -> set[str]:
        return set(self.embeddings.scene_vocab)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = list(self.embeddings.named_parameters())
        for sid in sorted(self.cfr_tables):
            for name in sorted(self.cfr_tables[sid]):
                out.append((f"cfr.{sid}.{name}", self.cfr_tables[sid][name].weights))
        out.extend(self.san_mlp.named_parameters("san"))
        out.extend(self.aem.prob_mlp.named_parameters("selector.prob"))
        out.extend(self.aem.thre_mlp.named_parameters("selector.thre"))
        for i, expert in enumerate(self.aem.aeg):
            out.extend(expert.named_parameters(f"aeg.{i}"))
        for i, expert in enumerate(self.aem.seg):
            out.extend(expert.named_parameters(f"seg.{i}"))
        out.extend(self.head.gate_mlp.named_parameters("gate"))
        out.extend(self.head.final_mlp.named_parameters("final"))
        return out

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]


def init_swan_params(schema: FeatureSchema, scene_ids: Sequence[str],
                     config: ModelConfig, seed: int = 0) -> SwanParams:
    """Seeded initialization of all tables and MLPs.

    Cross-scene table sets are created for every known scene up front,
    which bounds memory to the observed scenes and keeps initialization
    deterministic.
    """
    rng = np.random.default_rng(seed)
    d = config.embed_dim
    embeddings = EmbeddingSet.create(rng, schema, scene_ids, d)
    cfr_tables = {
        sid: {f.name: EmbeddingTable.create(rng, f.num_indices, d)
              for f in schema.scene_features}
        for sid in sorted(scene_ids)
    }
    d_user = len(schema.user_features) * d
    d_other = len(schema.other_features) * d
    d_in = d_other + d_user + 2 * d
    san_mlp = MLP.create(rng, d_user + 3 * d, config.san_hidden, 1)
    aem = AemParams(
        prob_mlp=MLP.create(rng, d_user + d, config.selector_hidden, config.n_aeg),
        thre_mlp=MLP.create(rng, d, config.selector_hidden, 1),
        aeg=[MLP.create(rng, d_in, config.expert_hidden, config.expert_dim)
             for _ in range(config.n_aeg)],
        seg=[MLP.create(rng, d_in, config.expert_hidden, config.expert_dim)
             for _ in range(config.n_seg)],
        tau=config.tau,
    )
    head = HeadParams(
        gate_mlp=MLP.create(rng, d_in, (), config.n_seg + config.n_aeg),
        final_mlp=MLP.create(rng, config.expert_dim, config.final_hidden, 1),
    )
    return SwanParams(config, schema, embeddings, cfr_tables, san_mlp, aem,
                      head, seed)


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
        out = list(self.embeddings.named_parameters())
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
    """Encoded rows for one scene: index arrays plus the neighbor set."""

    scene_id: str
    feature_idx: dict[str, np.ndarray]
    scene_idx: np.ndarray
    labels: np.ndarray | None
    neighbor_ids: list[str]


@dataclass
class SwanForward:
    yhat: Tensor                    # [B, 1]
    w: Tensor | None                # [B, N_a] selector gates, None when ablated
    aeg_outputs: list[Tensor]
    san: SanOutput | None           # None on the empty-neighborhood fallback
    e_in: Tensor


def encode_batch(examples: Sequence[Example], schema: FeatureSchema,
                 embeddings: EmbeddingSet) -> tuple[dict[str, np.ndarray], np.ndarray]:
    idx = {f.name: np.empty(len(examples), dtype=np.int64) for f in schema}
    scene_idx = np.empty(len(examples), dtype=np.int64)
    for i, ex in enumerate(examples):
        enc = encode_example(ex, schema)
        for name, code in enc.items():
            idx[name][i] = code
        scene_idx[i] = embeddings.scene_index(ex.scene_id)
    return idx, scene_idx


def stable_scene_rng(seed: int, scene_id: str) -> np.random.Generator:
    return np.random.default_rng((seed, zlib.crc32(scene_id.encode("utf-8"))))


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
        pool = sorted(graph.profiles)
        ids = [str(s) for s in rng.choice(pool, size=min(len(ids), len(pool)),
                                          replace=False)]
    return ids


def swan_forward(params: SwanParams, batch: PreparedBatch) -> SwanForward:
    """Full pipeline for a single-scene row batch.

    With an empty neighborhood (a cold scene below the weight threshold)
    the attention mix and the cross-scene embedding fall back to zeros, so
    the model degrades to scene-attribute-only inputs.
    """
    cfg = params.config
    schema = params.schema
    d = cfg.embed_dim
    n_rows = len(batch.scene_idx)
    bundle = embed_indices(batch.feature_idx, batch.scene_idx,
                           params.embeddings, schema)
    e_target = ad.add(bundle.e_scene_id, bundle.e_scene_attr)

    san_out = None
    if batch.neighbor_ids:
        sims = []
        for sid in batch.neighbor_ids:
            row = params.embeddings.scene_table.lookup(
                np.array([params.embeddings.scene_vocab[sid]]))
            sims.append(ad.repeat_rows(row, n_rows))
        san_out = san_forward(bundle.e_user, e_target, sims, params.san_mlp)
        vec_san = san_out.vec
    else:
        vec_san = Tensor(np.zeros((n_rows, d)))

    if cfg.flags.cfr and batch.neighbor_ids:
        scene_feature_idx = {f.name: batch.feature_idx[f.name]
                             for f in schema.scene_features}
        e_cfr = cfr_forward(san_out.weights, scene_feature_idx,
                            params.cfr_tables, batch.neighbor_ids)
    else:
        e_cfr = Tensor(np.zeros((n_rows, d)))

    e_in = assemble_input(bundle.e_other, bundle.e_user, vec_san, e_target, e_cfr)

    if cfg.flags.aem:
        w = expert_selector(bundle.e_user, vec_san, params.aem).w
    else:
        w = Tensor(np.ones((n_rows, cfg.n_aeg)))

    aeg_outputs = aeg_forward(e_in, w, params.aem.aeg)
    seg_outputs = seg_forward(e_in, params.aem.seg)
    yhat = decide(e_in, seg_outputs, aeg_outputs, w, params.head)
    return SwanForward(yhat=yhat, w=w, aeg_outputs=aeg_outputs, san=san_out,
                       e_in=e_in)


def dnn_forward(params: DnnParams, batch: PreparedBatch) -> Tensor:
    """Baseline forward: all embeddings concatenated into one tower."""
    schema = params.schema
    bundle = embed_indices(batch.feature_idx, batch.scene_idx,
                           params.embeddings, schema)
    parts = [bundle.e_other, bundle.e_user, bundle.e_scene_id]
    scene_feats = schema.scene_features
    if scene_feats:
        attr = ad.concat([params.embeddings.table(f.name).lookup(
            batch.feature_idx[f.name]) for f in scene_feats])
        parts.append(attr)
    return ad.sigmoid(params.tower(ad.concat(parts)))


# ---------------------------------------------------------------------------
# prediction


def predict(params, graph: SceneRelationGraph | None, example: Example) -> float:
    """Click probability for one example, also from a never-seen scene.

    It is `predict_scores` over a one-example dataset.
    """
    if not isinstance(example, Example):
        raise SchemaError("predict needs an Example")
    return float(predict_scores(params, graph, [example])[0])


def _group_by_scene(dataset: Sequence[Example]) -> dict[str, list[int]]:
    groups: dict[str, list[int]] = {}
    for i, ex in enumerate(dataset):
        groups.setdefault(ex.scene_id, []).append(i)
    return groups


def scene_profile_for(params, graph: SceneRelationGraph, scene_id: str,
                      examples: Sequence[Example]):
    if scene_id in graph.profiles:
        return graph.profiles[scene_id]
    return profile_new_scene(graph, scene_id, examples, params.schema)


def predict_scores(params, graph: SceneRelationGraph | None,
                   dataset: Sequence[Example], batch_size: int = 512,
                   collect_gates: bool = False):
    """Scores aligned with the dataset order, computed scene by scene.

    Unknown scenes are profiled from their own examples against the
    graph's stored bucket boundaries before neighbor retrieval. With
    `collect_gates` the selector gate matrix (rows aligned with the
    dataset) is returned as well.
    """
    scores = np.empty(len(dataset))
    gates = None
    groups = _group_by_scene(dataset)
    with ad.no_grad():
        for sid in sorted(groups):
            rows = groups[sid]
            examples = [dataset[i] for i in rows]
            neighbors: list[str] = []
            if params.kind == "swan" and graph is not None:
                profile = scene_profile_for(params, graph, sid, examples)
                neighbors = resolve_neighbors(graph, sid, profile, params)
            for lo in range(0, len(rows), batch_size):
                chunk = examples[lo:lo + batch_size]
                idx, scene_idx = encode_batch(chunk, params.schema,
                                              params.embeddings)
                batch = PreparedBatch(scene_id=sid, feature_idx=idx,
                                      scene_idx=scene_idx, labels=None,
                                      neighbor_ids=neighbors)
                at = rows[lo:lo + batch_size]
                if params.kind == "swan":
                    out = swan_forward(params, batch)
                    scores[at] = out.yhat.data[:, 0]
                    if collect_gates and out.w is not None:
                        if gates is None:
                            gates = np.empty((len(dataset), out.w.shape[1]))
                        gates[at] = out.w.data
                else:
                    scores[at] = dnn_forward(params, batch).data[:, 0]
    if collect_gates:
        return scores, gates
    return scores
