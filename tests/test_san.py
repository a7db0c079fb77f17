"""Tests for the similarity attention network."""

import itertools

import numpy as np
import pytest

from swan import autodiff as ad
from swan.autodiff import Tensor, backward
from swan.gradcheck import finite_difference, max_rel_error
from swan.nn import MLP, Linear
from swan.san import san_forward


def _mlp_from_arrays(*layers):
    return MLP([Linear(Tensor(w, requires_grad=True), Tensor(b, requires_grad=True))
                for w, b in layers])


def _random_mlp(rng, in_dim, hidden, out_dim=1):
    return MLP.stacked(rng, 1, in_dim, hidden, out_dim)


def _per_row(sims, rows):
    """An [I, d] similar-scene matrix shared by `rows` rows, in the per-row
    [B, I*d] form san_forward takes."""
    return np.tile(np.asarray(sims).reshape(1, -1), (rows, 1))


class TestSanForward:
    def test_single_scene_softmax_is_one(self):
        rng = np.random.default_rng(0)
        e_u = Tensor(rng.normal(size=(1, 4)))
        e_t = Tensor(rng.normal(size=(1, 3)))
        e_s = Tensor(rng.normal(size=(1, 3)))
        mlp = _random_mlp(rng, 4 + 9, (8,))
        out = san_forward(e_u, e_t, Tensor(_per_row(e_s.data, 1)), mlp)
        np.testing.assert_allclose(out.weights.data, [[1.0]], atol=1e-15)
        np.testing.assert_allclose(out.vec.data, e_s.data, atol=1e-15)

    def test_identical_scenes_split_evenly(self):
        rng = np.random.default_rng(1)
        e_u = Tensor(rng.normal(size=(1, 4)))
        e_t = Tensor(rng.normal(size=(1, 3)))
        e_s = Tensor(rng.normal(size=(1, 3)))
        twins = Tensor(_per_row(np.concatenate([e_s.data, e_s.data]), 1))
        mlp = _random_mlp(rng, 4 + 9, (8,))
        out = san_forward(e_u, e_t, twins, mlp)
        np.testing.assert_allclose(out.weights.data, [[0.5, 0.5]], atol=1e-12)
        np.testing.assert_allclose(out.vec.data, e_s.data, atol=1e-12)

    def test_empty_similar_list_rejected(self):
        with pytest.raises(ValueError):
            san_forward(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2))),
                        Tensor(np.zeros((1, 0))),
                        _random_mlp(np.random.default_rng(2), 8, ()))

    def test_hand_computed_oracle_one_hidden_unit(self):
        # d=2, |e_u|=2, score MLP = 1 ReLU unit then a linear read-out.
        e_u = np.array([[1.0, 2.0]])
        e_t = np.array([[0.5, -1.0]])
        sims = [np.array([[1.0, 0.0]]), np.array([[-0.5, 2.0]])]
        w1 = (0.1 * (np.arange(8) - 3.0)).reshape(8, 1)
        b1 = np.array([0.05])
        w2 = np.array([[2.0]])
        b2 = np.array([-0.3])
        mlp = _mlp_from_arrays((w1, b1), (w2, b2))

        scores = []
        for e_s in sims:
            x = np.concatenate([e_u, e_t, e_t - e_s, e_t * e_s], axis=1)
            h = np.maximum(x @ w1 + b1, 0.0)
            scores.append((h @ w2 + b2).item())
        exp = np.exp(np.array(scores) - max(scores))
        s_manual = exp / exp.sum()
        vec_manual = s_manual[0] * sims[0] + s_manual[1] * sims[1]

        out = san_forward(Tensor(e_u), Tensor(e_t),
                          Tensor(_per_row(np.concatenate(sims), 1)), mlp)
        np.testing.assert_allclose(out.weights.data[0], s_manual, atol=1e-12)
        np.testing.assert_allclose(out.vec.data, vec_manual, atol=1e-12)

    def test_weights_sum_to_one_batched(self):
        rng = np.random.default_rng(3)
        e_u = Tensor(rng.normal(size=(7, 4)))
        e_t = Tensor(rng.normal(size=(7, 3)))
        sims = Tensor(_per_row(rng.normal(size=(4, 3)), 7))
        out = san_forward(e_u, e_t, sims, _random_mlp(rng, 4 + 9, (8, 4)))
        np.testing.assert_allclose(out.weights.data.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(out.weights.data > 0) and np.all(out.weights.data < 1)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        e_u = Tensor(rng.normal(size=(2, 4)))
        e_t = Tensor(rng.normal(size=(2, 3)))
        sims = rng.normal(size=(3, 3))
        mlp = _random_mlp(rng, 4 + 9, (8,))
        base = san_forward(e_u, e_t, Tensor(_per_row(sims, 2)), mlp)
        for perm in itertools.permutations(range(3)):
            out = san_forward(e_u, e_t, Tensor(_per_row(sims[list(perm)], 2)), mlp)
            np.testing.assert_allclose(out.weights.data,
                                       base.weights.data[:, list(perm)],
                                       atol=1e-12)
            np.testing.assert_allclose(out.vec.data, base.vec.data, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        e_u = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
        e_t = Tensor(rng.uniform(-1, 1, (2, 2)), requires_grad=True)
        sims = Tensor(rng.uniform(-1, 1, (2, 3 * 2)), requires_grad=True)
        mlp = _random_mlp(rng, 3 + 6, (6,))
        w = rng.normal(size=(2, 2))

        def build():
            out = san_forward(e_u, e_t, sims, mlp)
            return ad.sum_all(ad.mul(out.vec, Tensor(w)))

        backward(build())
        checks = [("e_u", e_u), ("e_t", e_t), ("sims", sims)]
        checks += mlp.named_parameters("mlp")
        for name, t in checks:
            numeric = finite_difference(lambda: build().item(), t)
            assert max_rel_error(t.grad, numeric) < 1e-4, name

    def test_rows_attend_over_their_own_scenes(self):
        # Each row of a batch has its own similar scenes; its output is
        # the one it gets in a batch of its own.
        rng = np.random.default_rng(6)
        e_u = Tensor(rng.normal(size=(3, 4)))
        e_t = Tensor(rng.normal(size=(3, 3)))
        sims = rng.normal(size=(3, 2 * 3))
        mlp = _random_mlp(rng, 4 + 9, (8,))
        out = san_forward(e_u, e_t, Tensor(sims), mlp)
        for b in range(3):
            alone = san_forward(Tensor(e_u.data[b:b + 1]), Tensor(e_t.data[b:b + 1]),
                                Tensor(sims[b:b + 1]), mlp)
            np.testing.assert_allclose(out.weights.data[b:b + 1], alone.weights.data,
                                       rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(out.vec.data[b:b + 1], alone.vec.data,
                                       rtol=1e-12, atol=0.0)
