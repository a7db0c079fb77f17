"""Training loop, Adam optimizer, DNN baseline and sweep machinery.

Mini-batches are drawn per scene so every batch shares one similar-scene
neighborhood; batch order is shuffled across scenes each epoch. Runs are
deterministic given the seed: fixed shuffles, fixed parameter order,
fixed reduction order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .autodiff import Tensor, backward
from .features import Config, Example, FeatureSchema, click_labels, field_types
from .head import LossWeights, ce_loss, total_loss
from .metrics import evaluate
from .model import (ModelConfig, ModelParams, PreparedBatch, check_graph_scenes,
                    dnn_forward, encode_batch, init_params, predict_scores,
                    scene_batches, swan_forward)
from .srg import SceneRelationGraph, build_srg


@dataclass(frozen=True)
class TrainConfig(Config):
    """Optimizer settings, loss weights and the model hyperparameters."""

    model: ModelConfig = field(default_factory=ModelConfig)
    model_kind: str = "swan"
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 256
    epochs: int = 2
    seed: int = 0
    loss: LossWeights = field(default_factory=LossWeights)

    def _rules(self) -> tuple:
        return (("lr", 0.0 <= self.lr < math.inf, "finite and non-negative"),
                ("beta1", 0.0 <= self.beta1 < 1.0, "in [0, 1)"),
                ("beta2", 0.0 <= self.beta2 < 1.0, "in [0, 1)"),
                ("adam_eps", 0.0 < self.adam_eps < math.inf, "finite and positive"),
                ("batch_size", self.batch_size >= 1, "positive"),
                ("epochs", self.epochs >= 1, "positive"))


class Adam:
    """Standard dense Adam over one flat buffer holding every parameter.

    On construction the parameters are copied, in list order, into one
    contiguous float64 buffer, and each `p.data` becomes a view of its
    slice, reshaped to the tensor's shape. From then on the optimizer owns
    that memory and updates it in place; rebinding `p.data` afterwards
    detaches the tensor, and `step` raises instead of skipping it. The
    moments, the gathered gradient and one scratch vector are flat buffers
    of the same length, so a step is one gradient gather and a few vector
    ops, whatever the number of tensors.

    Every step decays the moments of every tensor and applies its update,
    also when the tensor's gradient is all zeros: such a tensor still moves
    by what its first moment carries from earlier steps.
    """

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.flat = np.concatenate(
            [p.data.ravel() for p in self.params] or [np.zeros(0)])
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self._g = np.zeros_like(self.flat)
        self._scratch = np.zeros_like(self.flat)
        self._grad_views = []
        lo = 0
        for p in self.params:
            hi = lo + p.data.size
            p.data = self.flat[lo:hi].reshape(p.data.shape)
            self._grad_views.append(self._g[lo:hi].reshape(p.data.shape))
            lo = hi

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        g, m, v, s = self._g, self.m, self.v, self._scratch
        g.fill(0.0)
        for i, (p, view) in enumerate(zip(self.params, self._grad_views)):
            if p.data.base is not self.flat:
                raise RuntimeError(
                    f"parameter {i} (shape {p.data.shape}) no longer views the "
                    "optimizer's buffer; its data was rebound after Adam was built")
            if p._grad is not None:
                view[...] = p._grad
        # The operations, operand order and rounding of the per-tensor form
        # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
        # p = p - lr * (m/bc1) / (sqrt(v/bc2) + eps), done in place; once v
        # is updated, the gradient buffer is reused for the update.
        np.multiply(m, self.beta1, out=m)
        np.multiply(g, 1.0 - self.beta1, out=s)
        np.add(m, s, out=m)
        np.multiply(v, self.beta2, out=v)
        np.multiply(g, 1.0 - self.beta2, out=s)
        np.multiply(s, g, out=s)
        np.add(v, s, out=v)
        np.divide(v, bc2, out=s)
        np.sqrt(s, out=s)
        np.add(s, self.eps, out=s)
        np.divide(m, bc1, out=g)
        np.divide(g, s, out=g)
        np.multiply(g, self.lr, out=g)
        np.subtract(self.flat, g, out=self.flat)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


@dataclass
class TrainResult:
    params: ModelParams
    epoch_losses: list[float]


def _batch_loss(params, batch: PreparedBatch, weights: LossWeights) -> Tensor:
    if params.kind == "swan":
        out = swan_forward(params, batch)
        return total_loss(batch.labels, out.yhat, out.aeg_outputs, out.w, weights)
    return ce_loss(batch.labels, dnn_forward(params, batch))


def train(dataset: Sequence[Example], graph: SceneRelationGraph | None,
          config: TrainConfig,
          schema: FeatureSchema | None = None) -> TrainResult:
    """Mini-batch Adam on the combined loss; returns params and the loss curve.

    The per-epoch loss is the example-weighted mean of batch losses.
    Aborts with the offending batch index if the loss ever goes
    non-finite. The feature schema normally travels with the dataset
    (load_dataset and the generator attach it); pass it explicitly for
    hand-built example lists. The list must not be empty, every label
    must be 0 or 1 (not a boolean), every feature value must encode, and
    the full model needs a graph that holds exactly the dataset's scenes
    (`check_graph_scenes`); each check raises a ValueError naming the
    first bad row or the scenes at fault before any parameter is
    initialised.
    """
    labels = click_labels(dataset)
    schema = schema or getattr(dataset, "schema", None)
    if schema is None:
        raise ValueError("no feature schema: pass schema= or use a dataset "
                         "that carries one")
    idx, scene_ids, codes = encode_batch(dataset, schema)
    if config.model_kind == "swan":
        check_graph_scenes(graph, scene_ids, "train")
    params = init_params(config.model_kind, schema, scene_ids, config.model,
                         config.seed)

    # The permutation only orders the rows within each scene's batches.
    rng = np.random.default_rng(config.seed)
    batches = [batch for _, batch in scene_batches(
        params, graph, idx, scene_ids, codes, labels, config.batch_size,
        order=rng.permutation(len(dataset)))]
    del idx, codes  # each batch holds a copy of its rows' codes
    opt = Adam(params.parameters(), lr=config.lr, beta1=config.beta1,
               beta2=config.beta2, eps=config.adam_eps)
    flags = config.model.flags
    weights = replace(config.loss, beta=config.loss.beta if flags.loss_cos else 0.0,
                      gamma=config.loss.gamma if flags.loss_var and flags.aem else 0.0)

    epoch_losses: list[float] = []
    order = np.arange(len(batches))
    for epoch in range(config.epochs):
        rng.shuffle(order)
        total = 0.0
        for step, b_idx in enumerate(order):
            batch = batches[b_idx]
            loss = _batch_loss(params, batch, weights)
            value = loss.item()
            if not np.isfinite(value):
                # A training batch holds one scene, and scene vocabulary
                # indices follow the sorted scene ids.
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch} batch {step} "
                    f"(scene {scene_ids[batch.scene_idx[0]]!r})")
            total += value * len(batch.scene_idx)
            if config.lr > 0.0:
                backward(loss)
                opt.step()
            opt.zero_grad()
            del loss  # free this batch's graph before the next one is built
        epoch_losses.append(total / len(dataset))
    return TrainResult(params=params, epoch_losses=epoch_losses)


def baseline_dnn(dataset: Sequence[Example], config: TrainConfig,
                 schema: FeatureSchema | None = None) -> TrainResult:
    """Single-tower baseline on the same embeddings, cross-entropy only."""
    return train(dataset, None, replace(config, model_kind="dnn"), schema=schema)


# ---------------------------------------------------------------------------
# hyperparameter sweeps


SWEEPABLE = ("tau", "cc_threshold", "n_aeg", "n_seg", "alpha", "beta", "gamma",
             "lr", "epochs", "batch_size", "k_neighbors", "min_weight")


def _config_with(config: TrainConfig, param: str, value: float) -> TrainConfig:
    """`config` with `param` set to `value`; an integral float given for an
    integer field becomes an int, any other value is checked as it is."""
    obj = config.to_json()
    section, cls = ((obj["loss"], LossWeights) if param in obj["loss"] else
                    (obj["model"], ModelConfig) if param in obj["model"] else
                    (obj, TrainConfig))
    if isinstance(value, float) and value.is_integer() and field_types(cls)[param] is int:
        value = int(value)
    section[param] = value
    return TrainConfig.from_json(obj)


SATURATION_MARGIN = 0.05


def gate_saturation(gates: np.ndarray) -> float:
    """Fraction of selector gates within SATURATION_MARGIN of 0 or 1."""
    near = (gates <= SATURATION_MARGIN) | (gates >= 1.0 - SATURATION_MARGIN)
    return float(near.mean())


def run_sweep(param: str, values: Sequence[float], train_set: Sequence[Example],
              test_set: Sequence[Example], schema: FeatureSchema,
              graph: SceneRelationGraph | None, config: TrainConfig,
              ) -> list[dict]:
    """Train one model per value and report its evaluation metrics.

    Sweeping `cc_threshold` rebuilds the scene relation graph per value;
    every other parameter reuses the supplied graph. Each entry carries
    the AUC summary plus, for the full model, the selector gate
    saturation fraction on the test set.
    """
    if param not in SWEEPABLE:
        raise ValueError(f"unknown sweep parameter {param!r}; one of {SWEEPABLE}")
    results = []
    for value in values:
        cfg = _config_with(config, param, value)
        g = graph
        n_key = len(graph.key_features) if graph is not None else None
        if param == "cc_threshold":
            g = build_srg(train_set, schema, cc_threshold=float(value),
                          buckets=cfg.model.buckets)
            n_key = len(g.key_features)
        result = train(train_set, g, cfg, schema=schema)
        report = evaluate(result.params, g, test_set)
        entry = {"param": param, "value": value,
                 "auc_all": report.auc_all,
                 "auc_cold_start": report.auc_cold_start,
                 "final_loss": result.epoch_losses[-1],
                 "n_key_features": n_key}
        if cfg.model_kind == "swan":
            _, gates = predict_scores(result.params, g, test_set,
                                      collect_gates=True)
            entry["gate_saturation"] = gate_saturation(gates)
        results.append(entry)
    return results
