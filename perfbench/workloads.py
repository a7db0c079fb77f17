"""The benchmark's workloads and the request rounds they serve.

A workload fixes the generator shape, the model, how often set-up is
repeated, and the make-up of one request round. Every workload trains for
EPOCHS epochs at learning rate LR. Everything random is drawn from the run's seed, so one seed gives
one set of inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from swan.datagen import GenConfig
from swan.head import LossWeights
from swan.model import ModelConfig
from swan.training import TrainConfig

# The acceptance model of tests/test_acceptance.py.
ACCEPT_MODEL = ModelConfig(
    embed_dim=8, expert_dim=8, n_aeg=4, n_seg=2, tau=0.02, k_neighbors=5,
    san_hidden=(16, 8), expert_hidden=(8,), selector_hidden=(16, 8),
    final_hidden=(), dnn_hidden=(16,))
# Two epochs, so that the loss check (last epoch below the first) applies.
EPOCHS = 2
LR = 2e-3


@dataclass(frozen=True)
class Workload:
    name: str
    gen: dict                    # GenConfig fields besides the seed
    model: ModelConfig
    setup_reps: int              # set-up is timed this often; the median is kept
    candidates: int              # rows per request
    cold_per_round: int          # requests from cold (unseen) scenes per round
    warm_per_round: int          # requests from known scenes per round
    min_requests: int = 1100     # over ten samples beyond the printed p99
    min_passes: int = 5          # evaluate() passes behind the median
    trace_rounds: int = 3        # fixed serving work of a traced run

    def gen_config(self, seed: int) -> GenConfig:
        return GenConfig(seed=seed, **self.gen)

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(model=self.model, epochs=EPOCHS,
                           batch_size=256, seed=seed, lr=LR,
                           loss=LossWeights(alpha=1.0, beta=1e-3, gamma=1e-3))

    @property
    def archetypes(self) -> int:
        return self.gen.get("archetypes", GenConfig.archetypes)

    @property
    def round_size(self) -> int:
        return self.cold_per_round + self.warm_per_round

    def min_rounds(self) -> int:
        return max(self.min_passes, -(-self.min_requests // self.round_size))


WORKLOADS = {w.name: w for w in (
    # 60 known scenes x 800 rows plus 20 cold scenes: the acceptance set.
    Workload(name="train-accept", gen={}, model=ACCEPT_MODEL, setup_reps=5,
             candidates=50, cold_per_round=160, warm_per_round=40),
    # The default (CLI) model with 10 + 10 experts on a smaller set, serving
    # small requests split evenly between known and cold scenes.
    Workload(name="serve-wide", gen={"examples_per_scene": 200},
             model=ModelConfig(), setup_reps=7, candidates=10,
             cold_per_round=100, warm_per_round=100),
    # Many short-lived scenes: 300 known x 60 rows plus 150 cold scenes.
    Workload(name="scenes-many",
             gen={"train_scenes": 300, "cold_scenes": 150,
                  "examples_per_scene": 60},
             model=ACCEPT_MODEL, setup_reps=5, candidates=50,
             cold_per_round=160, warm_per_round=40),
)}


@dataclass
class Request:
    kind: str                    # "cold" or "warm"
    rows: np.ndarray             # indices into the split the rows come from
    examples: list = field(repr=False)


def _rows_by_scene(dataset) -> dict[str, np.ndarray]:
    groups: dict[str, list[int]] = {}
    for i, ex in enumerate(dataset):
        groups.setdefault(ex.scene_id, []).append(i)
    return {sid: np.array(rows) for sid, rows in sorted(groups.items())}


def request_round(workload: Workload, data, seed: int,
                  index: int) -> list[Request]:
    """Round `index` of a run, drawn from the seed and the index: cold
    scenes from the test split, known scenes from the training split, each
    request a candidate list of one scene drawn without replacement.
    Scenes are visited in turn so every scene is served about equally
    often."""
    rng = np.random.default_rng((seed, 7, index))
    out = []
    for kind, split, count in (("cold", data.test, workload.cold_per_round),
                               ("warm", data.train, workload.warm_per_round)):
        groups = _rows_by_scene(split)
        ids = list(groups)
        rng.shuffle(ids)
        for n in range(count):
            sid = ids[n % len(ids)]
            pool = groups[sid]
            rows = np.sort(rng.choice(pool, size=min(workload.candidates,
                                                     len(pool)),
                                      replace=False))
            out.append(Request(kind, rows, [split[i] for i in rows]))
    order = rng.permutation(len(out))
    return [out[i] for i in order]
