"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with `pytest -s` to see
them live). The training-based criteria share one matrix of runs: five
seeded datasets, the full model, every single-component ablation and the
DNN baseline, all trained with the same configuration per seed.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import encoded, vocab_indices
from swan import autodiff as ad
from swan.autodiff import Tensor, backward
from swan.aem import dics
from swan.cli import main as cli_main
from swan.datagen import GenConfig, choose_k, generate, silhouette
from swan.gradcheck import finite_difference, max_rel_error
from swan.head import LossWeights, cos_loss, total_loss, var_loss
from swan.metrics import auc, gini
from swan.model import (ComponentFlags, ModelConfig, PreparedBatch,
                        init_params, predict_scores,
                        resolve_neighbors, swan_forward)
from swan.srg import build_srg, select_key_features
from swan.training import TrainConfig, baseline_dnn, gate_saturation, train

SEEDS = (0, 1, 2, 3, 4)

# Desk-scale run configuration: capacity is deliberately tight (one hidden
# layer per expert, linear read-out) so that routing, cross-scene transfer
# and the auxiliary losses carry measurable weight.
ACCEPT_MODEL = ModelConfig(
    embed_dim=8, expert_dim=8, n_aeg=4, n_seg=2, tau=0.02, k_neighbors=5,
    san_hidden=(16, 8), expert_hidden=(8,), selector_hidden=(16, 8),
    final_hidden=(), dnn_hidden=(16,))

ABLATIONS = {
    "srg": ComponentFlags(srg=False),
    "aem": ComponentFlags(aem=False),
    "cfr": ComponentFlags(cfr=False),
    "loss_var": ComponentFlags(loss_var=False),
    "loss_cos": ComponentFlags(loss_cos=False),
}


def _train_config(seed, flags=ComponentFlags(), tau=None, epochs=4):
    model = replace(ACCEPT_MODEL, flags=flags)
    if tau is not None:
        model = replace(model, tau=tau)
    return TrainConfig(model=model, epochs=epochs, batch_size=256, seed=seed,
                       lr=2e-3, loss=LossWeights(alpha=1.0, beta=1e-3,
                                                 gamma=1e-3))


def test_train_config_json_pinned():
    """The acceptance runs' configuration, as a config file spells it."""
    assert _train_config(SEEDS[0]).to_json() == {
        "model": {"embed_dim": 8, "expert_dim": 8, "n_aeg": 4, "n_seg": 2,
                  "tau": 0.02, "k_neighbors": 5, "min_weight": 1,
                  "cc_threshold": 0.05, "buckets": 10, "san_hidden": [16, 8],
                  "expert_hidden": [8], "selector_hidden": [16, 8],
                  "final_hidden": [], "dnn_hidden": [16],
                  "flags": {"srg": True, "aem": True, "cfr": True,
                            "loss_var": True, "loss_cos": True}},
        "model_kind": "swan", "lr": 0.002, "beta1": 0.9, "beta2": 0.999,
        "adam_eps": 1e-08, "batch_size": 256, "epochs": 4, "seed": 0,
        "loss": {"alpha": 1.0, "beta": 0.001, "gamma": 0.001}}


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def datasets():
    """The five seeded acceptance datasets with their relation graphs."""
    out = []
    for seed in SEEDS:
        data = generate(GenConfig(seed=seed))
        graph = build_srg(data.train, data.schema, cc_threshold=0.05,
                          buckets=10)
        out.append((data, graph))
    return out


@pytest.fixture(scope="session")
def training_matrix(datasets):
    """Cold-start AUC of the full model, every ablation and the baseline.

    Also records wall-clock time and, for the seed-0 dataset, the gate
    saturation after training at each sweep temperature.
    """
    results = {"full": [], "dnn": []}
    results.update({name: [] for name in ABLATIONS})
    started = time.monotonic()
    for (data, graph), seed in zip(datasets, SEEDS):
        full = train(data.train, graph, _train_config(seed))
        results["full"].append(
            _cold_auc(full.params, graph, data))
        for name, flags in ABLATIONS.items():
            run = train(data.train, graph, _train_config(seed, flags=flags))
            results[name].append(_cold_auc(run.params, graph, data))
        dnn = baseline_dnn(data.train, _train_config(seed))
        results["dnn"].append(_cold_auc(dnn.params, None, data))
    elapsed = time.monotonic() - started

    # Short sweep for the temperature mechanism: fewer steps keep the
    # trained probability/threshold spread comparable across temperatures,
    # so the 1/tau sharpening dominates the saturation statistic.
    saturations = []
    data, graph = datasets[0]
    for tau in (1.0, 0.1, 0.01, 0.001):
        run = train(data.train, graph, _train_config(SEEDS[0], tau=tau,
                                                     epochs=2))
        _, gates = predict_scores(run.params, graph, data.test,
                                  collect_gates=True)
        saturations.append(gate_saturation(gates))
    return {"auc": results, "elapsed": elapsed, "saturations": saturations}


def _cold_auc(params, graph, data):
    labels = [ex.label for ex in data.test]
    return auc(labels, predict_scores(params, graph, data.test))


class TestCriterion1:
    def test_gradient_integrity(self):
        """Full forward on a 4-example batch: every parameter gradient
        matches central finite differences (rel err < 1e-3) in < 30 s."""
        started = time.monotonic()
        gen = GenConfig(archetypes=2, train_scenes=3, cold_scenes=1, users=12,
                        items_per_scene=6, examples_per_scene=24,
                        user_features=2, item_features=2,
                        scene_attr_features=1, label_noise=0.1,
                        seed=3, user_vocab=3)
        data = generate(gen)
        graph = build_srg(data.train, data.schema, cc_threshold=0.01, buckets=4)
        config = ModelConfig(embed_dim=8, expert_dim=8, n_aeg=3, n_seg=3,
                             tau=0.5, k_neighbors=3, san_hidden=(8,),
                             expert_hidden=(8,), selector_hidden=(8,),
                             final_hidden=(8,))
        params = init_params("swan", data.schema, graph.scene_ids, config, seed=0)
        sid = data.train[0].scene_id
        examples = [ex for ex in data.train if ex.scene_id == sid][:4]
        idx, scene_idx = encoded(examples, data.schema, params.embeddings)
        labels = np.array([float(ex.label) for ex in examples])
        ids = resolve_neighbors(graph, sid, graph.profiles[sid], params)
        batch = PreparedBatch(
            feature_idx=idx, scene_idx=scene_idx, labels=labels,
            neighbors=np.tile(vocab_indices(params.embeddings, ids),
                              (len(examples), 1)))
        weights = LossWeights(alpha=1.0, beta=1e-3, gamma=1e-3)

        def build():
            out = swan_forward(params, batch)
            return total_loss(labels, out.yhat, out.aeg_outputs, out.w, weights)

        backward(build())
        worst, worst_name = 0.0, "<none>"
        for name, tensor in params.named_parameters():
            numeric = finite_difference(lambda: build().item(), tensor)
            err = max_rel_error(tensor.grad, numeric)
            if err > worst:
                worst, worst_name = err, name
        elapsed = time.monotonic() - started
        _report(1, worst < 1e-3 and elapsed < 30.0,
                f"max rel err {worst:.2e} ({worst_name}), {elapsed:.1f}s")


class TestCriterion2:
    def test_cold_start_lift(self, training_matrix):
        """Mean cold-start AUC: full model >= baseline + 0.005, both > 0.55,
        comparative runs < 15 min."""
        full = float(np.mean(training_matrix["auc"]["full"]))
        dnn = float(np.mean(training_matrix["auc"]["dnn"]))
        elapsed = training_matrix["elapsed"]
        ok = (full - dnn >= 0.005 and full > 0.55 and dnn > 0.55
              and elapsed < 900.0)
        _report(2, ok, f"full={full:.4f} dnn={dnn:.4f} lift={full-dnn:+.4f} "
                       f"matrix={elapsed:.0f}s")


class TestCriterion3:
    def test_ablation_directions(self, training_matrix):
        """Every single ablation's mean cold-start AUC <= full; the graph
        and expert-module ablations strictly lower."""
        aucs = training_matrix["auc"]
        full = float(np.mean(aucs["full"]))
        details = []
        ok = True
        for name in ABLATIONS:
            mean = float(np.mean(aucs[name]))
            details.append(f"{name}={mean:.4f}")
            if name in ("srg", "aem"):
                ok &= mean < full
            else:
                ok &= mean <= full
        _report(3, ok, f"full={full:.4f} " + " ".join(details))


class TestCriterion4:
    def test_temperature_trend(self, training_matrix):
        """Fraction of selector gates within 0.05 of {0,1} is non-decreasing
        as the temperature decreases through 1, 0.1, 0.01, 0.001."""
        fracs = training_matrix["saturations"]
        ok = all(a <= b for a, b in zip(fracs, fracs[1:]))
        _report(4, ok, "saturation " + " -> ".join(f"{f:.3f}" for f in fracs))


class TestCriterion5:
    def test_cc_threshold_trend(self, datasets):
        """Key-feature count non-increasing in the threshold everywhere;
        strictly decreasing on the 0.01/0.05/0.1 grid for every dataset."""
        ok = True
        details = []
        for (data, _), seed in zip(datasets, SEEDS):
            grid = [len(select_key_features(data.train, data.schema, t))
                    for t in (0.01, 0.05, 0.1)]
            dense = [len(select_key_features(data.train, data.schema, t))
                     for t in (0.0, 0.005, 0.02, 0.05, 0.08, 0.15, 0.5, 1.0)]
            ok &= grid[0] > grid[1] > grid[2]
            ok &= all(a >= b for a, b in zip(dense, dense[1:]))
            details.append(f"s{seed}:{grid}")
        _report(5, ok, " ".join(details))


class TestCriterion6:
    def test_metric_oracles(self):
        """auc == brute force on 1000 instances; gini and silhouette match
        their definitional oracles."""
        rng = np.random.default_rng(2024)
        auc_ok = True
        for _ in range(1000):
            n = int(rng.integers(2, 201))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = np.round(rng.uniform(0, 1, size=n), 2)
            pos = scores[labels == 1][:, None]
            neg = scores[labels == 0][None, :]
            brute = ((pos > neg).sum() + 0.5 * (pos == neg).sum()) \
                / (pos.size * neg.size)
            if auc(labels, scores) != brute:
                auc_ok = False
                break

        gini_ok = True
        for _ in range(200):
            x = rng.uniform(0, 3, size=int(rng.integers(1, 60)))
            if x.sum() == 0:
                x[0] = 1.0
            n = len(x)
            pairwise = sum(abs(a - b) for a in x for b in x) / (2 * n * n * x.mean())
            if abs(gini(x) - pairwise) > 1e-12:
                gini_ok = False
                break

        pts = rng.normal(size=(500, 3))
        assign = rng.integers(0, 4, size=500)
        sil = silhouette(pts, assign)
        dist = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
        total = 0.0
        for i in range(500):
            own = assign[i]
            same = (assign == own) & (np.arange(500) != i)
            if not same.any():
                continue
            a = dist[i][same].mean()
            b = min(dist[i][assign == lab].mean()
                    for lab in set(assign) if lab != own)
            total += (b - a) / max(a, b)
        sil_ok = abs(sil - total / 500) <= 1e-9
        _report(6, auc_ok and gini_ok and sil_ok,
                f"auc_exact={auc_ok} gini_1e-12={gini_ok} sil_1e-9={sil_ok}")


class TestCriterion7:
    def test_mechanism_identities(self):
        """dics at p==t is 0.5; orthogonal cosine loss is 0; uniform gate
        variance is exactly 0; softmax rows sum to 1 over 1e5 rows."""
        dics_ok = all(abs(dics(p, p, tau) - 0.5) <= 1e-12
                      for p in (0.1, 0.37, 0.9) for tau in (1.0, 1e-3))
        cos_ok = abs(cos_loss(Tensor([[1.0, 0.0, 0.0,
                                       0.0, 2.0, 0.0,
                                       0.0, 0.0, -3.0]]), 3).item()) <= 1e-12
        var_ok = all(var_loss(Tensor([[c] * n])).item() == 0.0
                     for c in (0.1, 0.5, 0.77) for n in (2, 3, 10))
        rng = np.random.default_rng(7)
        rows = ad.softmax(Tensor(rng.uniform(-30, 30, size=(100_000, 7))))
        sums = rows.data.sum(axis=1)
        softmax_ok = bool(np.abs(sums - 1.0).max() <= 1e-9)
        _report(7, dics_ok and cos_ok and var_ok and softmax_ok,
                f"dics={dics_ok} cos={cos_ok} var={var_ok} softmax={softmax_ok}")


class TestCriterion8:
    def test_k_selection_mechanism(self):
        """Silhouette sweep over k in {2,3,4,6,9} picks k=3 on planted
        3-blob data in at least 95 of 100 seeded trials."""
        hits = 0
        for trial in range(100):
            rng = np.random.default_rng(trial)
            centers = rng.uniform(-8, 8, size=(3, 3))
            while True:
                d = np.linalg.norm(centers[:, None] - centers[None, :], axis=-1)
                if d[np.triu_indices(3, 1)].min() > 7.0:
                    break
                centers = rng.uniform(-8, 8, size=(3, 3))
            points = np.concatenate(
                [c + rng.normal(0, 1.0, size=(40, 3)) for c in centers])
            best, _ = choose_k(points, [2, 3, 4, 6, 9], seed=trial)
            hits += best == 3
        _report(8, hits >= 95, f"k=3 selected in {hits}/100 trials")


class TestCriterion9:
    def test_determinism_of_artifacts(self, tmp_path):
        """Two CLI runs with identical seeds produce byte-identical
        graph.json, model.bin and report.json."""
        gen = GenConfig(train_scenes=8, cold_scenes=2, users=60,
                        items_per_scene=40, examples_per_scene=100, seed=7)
        config = TrainConfig(model=replace(ACCEPT_MODEL, k_neighbors=3),
                             epochs=1, batch_size=64, seed=7, lr=1e-3)

        def run(tag):
            root = tmp_path / tag
            root.mkdir()
            (root / "gen.json").write_text(json.dumps(gen.to_json()))
            (root / "train_cfg.json").write_text(json.dumps(config.to_json()))
            cli_main(["datagen", "--config", str(root / "gen.json"),
                      "--out-train", str(root / "train.jsonl"),
                      "--out-test", str(root / "test.jsonl"),
                      "--out-truth", str(root / "truth.json"),
                      "--out-schema", str(root / "schema.json")])
            cli_main(["srg", "build", "--data", str(root / "train.jsonl"),
                      "--schema", str(root / "schema.json"),
                      "--cc-threshold", "0.05", "--buckets", "10",
                      "--out", str(root / "graph.json")])
            cli_main(["train", "--train", str(root / "train.jsonl"),
                      "--schema", str(root / "schema.json"),
                      "--graph", str(root / "graph.json"),
                      "--config", str(root / "train_cfg.json"),
                      "--out", str(root / "model.bin")])
            cli_main(["eval", "--model", str(root / "model.bin"),
                      "--test", str(root / "test.jsonl"),
                      "--report", str(root / "report.json")])
            return root

        a = run("first")
        b = run("second")
        same = {name: (a / name).read_bytes() == (b / name).read_bytes()
                for name in ("graph.json", "model.bin", "report.json")}
        _report(9, all(same.values()),
                " ".join(f"{k}={'identical' if v else 'DIFFERS'}"
                         for k, v in same.items()))
