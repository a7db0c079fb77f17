"""Tests for the decision layer and the loss functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swan import autodiff as ad
from swan.autodiff import DimensionError, Tensor, backward
from swan.gradcheck import finite_difference, max_rel_error
from swan.head import LossWeights, ce_loss, cos_loss, decide, total_loss, var_loss
from swan.nn import MLP, Linear


def _stack(parts, requires_grad=False):
    """Expert outputs side by side: the [B, n*d] layout decide and cos_loss take."""
    return Tensor(np.concatenate([np.asarray(p, dtype=float) for p in parts], axis=1),
                  requires_grad=requires_grad)


def _head(rng, d_in, n_seg, n_aeg, d_expert):
    """`decide`'s gate and read-out MLPs."""
    return (MLP.stacked(rng, 1, d_in, (), n_seg + n_aeg),
            MLP.stacked(rng, 1, d_expert, (4,), 1))


class TestDecide:
    def test_zero_selector_gates_silence_adaptive_experts(self):
        rng = np.random.default_rng(1)
        head = _head(rng, 5, n_seg=2, n_aeg=2, d_expert=3)
        e_in = Tensor(rng.normal(size=(4, 5)))
        seg = _stack([rng.normal(size=(4, 3)) for _ in range(2)])
        aeg = _stack([rng.normal(size=(4, 3)) for _ in range(2)])
        zero_w = Tensor(np.zeros((4, 2)))
        out = decide(e_in, seg, aeg, zero_w, *head)
        other_aeg = _stack([rng.normal(size=(4, 3)) for _ in range(2)])
        out2 = decide(e_in, seg, other_aeg, zero_w, *head)
        np.testing.assert_allclose(out.data, out2.data, atol=1e-15)

    def test_hand_set_two_plus_two_oracle(self):
        d_in, d = 3, 2
        gate_w = np.array([[0.1, -0.2, 0.3, 0.0],
                           [0.2, 0.1, -0.1, 0.4],
                           [-0.3, 0.2, 0.1, -0.2]])
        gate_b = np.array([0.01, -0.02, 0.03, 0.0])
        fin_w = np.array([[1.5], [-0.7]])
        fin_b = np.array([0.1])
        head = (MLP([Linear(Tensor(gate_w, requires_grad=True),
                            Tensor(gate_b, requires_grad=True))]),
                MLP([Linear(Tensor(fin_w, requires_grad=True),
                            Tensor(fin_b, requires_grad=True))]))
        e_in = np.array([[0.5, -1.0, 2.0]])
        seg = [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])]
        aeg = [np.array([[0.5, 0.5]]), np.array([[-1.0, 2.0]])]
        w = np.array([[0.9, 0.1]])

        logits = e_in @ gate_w + gate_b
        e = np.exp(logits - logits.max())
        g = e / e.sum()
        mixed = (g[0, 0] * seg[0] + g[0, 1] * seg[1]
                 + g[0, 2] * w[0, 0] * aeg[0] + g[0, 3] * w[0, 1] * aeg[1])
        manual = 1 / (1 + np.exp(-(mixed @ fin_w + fin_b)))

        out = decide(Tensor(e_in), _stack(seg), _stack(aeg), Tensor(w), *head)
        np.testing.assert_allclose(out.data, manual, atol=1e-12)

    def test_gate_width_mismatch_rejected(self):
        # One shared and two adaptive experts against four gate logits.
        rng = np.random.default_rng(2)
        head = _head(rng, 5, n_seg=2, n_aeg=2, d_expert=3)
        e_in = Tensor(rng.normal(size=(1, 5)))
        seg = Tensor(rng.normal(size=(1, 3)))
        aeg = _stack([rng.normal(size=(1, 3)) for _ in range(2)])
        w = Tensor(rng.uniform(0.1, 0.9, (1, 2)))
        with pytest.raises(DimensionError, match="gate output width 4 != expert count 3"):
            decide(e_in, seg, aeg, w, *head)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        head = _head(rng, 4, n_seg=2, n_aeg=2, d_expert=3)
        e_in = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        seg = _stack([rng.uniform(-1, 1, (3, 3)) for _ in range(2)],
                     requires_grad=True)
        aeg = _stack([rng.uniform(-1, 1, (3, 3)) for _ in range(2)],
                     requires_grad=True)
        w = Tensor(rng.uniform(0.05, 0.95, (3, 2)), requires_grad=True)
        proj = rng.normal(size=(3, 1))

        def build():
            return ad.sum_all(ad.mul(decide(e_in, seg, aeg, w, *head),
                                     Tensor(proj)))

        backward(build())
        checks = ([("e_in", e_in), ("w", w), ("seg", seg), ("aeg", aeg)]
                  + head[0].named_parameters("gate")
                  + head[1].named_parameters("final"))
        for name, t in checks:
            numeric = finite_difference(lambda: build().item(), t)
            assert max_rel_error(t.grad, numeric) < 1e-4, name


class TestCeLoss:
    def test_perfect_prediction_clamps_to_tiny(self):
        loss = ce_loss([1.0], Tensor([[1.0]]))
        assert 0.0 < loss.item() < 1e-11

    def test_half_prediction_is_ln_two(self):
        assert ce_loss([1.0], Tensor([[0.5]])).item() == pytest.approx(math.log(2))

    def test_two_example_batch(self):
        loss = ce_loss([1.0, 0.0], Tensor([[0.9], [0.2]]))
        expected = (-math.log(0.9) - math.log(0.8)) / 2
        assert loss.item() == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.164252, abs=1e-6)

    def test_non_negative(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            y = rng.integers(0, 2, size=8).astype(float)
            p = rng.uniform(0, 1, size=(8, 1))
            assert ce_loss(y, Tensor(p)).item() >= 0.0


class TestCosLoss:
    def test_orthogonal_pair_is_zero(self):
        loss = cos_loss(_stack([[[1.0, 0.0]], [[0.0, 1.0]]]), 2)
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_identical_pair_counts_both_orders(self):
        v = [[0.3, -0.7]]
        loss = cos_loss(_stack([v, v]), 2)
        assert loss.item() == pytest.approx(2.0, abs=1e-12)

    def test_45_degree_pair(self):
        loss = cos_loss(_stack([[[1.0, 0.0]], [[1.0, 1.0]]]), 2)
        assert loss.item() == pytest.approx(2 / math.sqrt(2), abs=1e-12)
        assert loss.item() == pytest.approx(1.414214, abs=1e-6)

    def test_zero_norm_pair_contributes_zero(self):
        loss = cos_loss(_stack([[[0.0, 0.0]], [[1.0, 1.0]]]), 2)
        assert loss.item() == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        vs = [Tensor(rng.normal(size=(1, 4))) for _ in range(3)]
        base = cos_loss(ad.concat(vs), 3).item()
        scaled = cos_loss(ad.concat([ad.scale(vs[0], 17.0), vs[1],
                                     ad.scale(vs[2], 0.003)]), 3).item()
        assert scaled == pytest.approx(base, abs=1e-9)

    def test_upper_bound_pairs(self):
        rng = np.random.default_rng(6)
        for n in (2, 3, 5):
            vs = [rng.normal(size=(1, 4)) for _ in range(n)]
            assert cos_loss(_stack(vs), n).item() <= n * (n - 1) + 1e-12
        # Equality iff all outputs are pairwise parallel.
        v = rng.normal(size=(1, 4))
        parallel = [v * c for c in (1.0, -2.0, 0.5)]
        assert cos_loss(_stack(parallel), 3).item() == pytest.approx(3 * 2, abs=1e-9)

    def test_batch_mean(self):
        a = [[1.0, 0.0], [1.0, 0.0]]
        b = [[0.0, 1.0], [1.0, 0.0]]
        # Row 0 orthogonal (0), row 1 parallel (2): mean = 1.
        assert cos_loss(_stack([a, b]), 2).item() == pytest.approx(1.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        vs = _stack([rng.uniform(0.2, 1.0, (2, 3)) for _ in range(3)],
                    requires_grad=True)
        backward(cos_loss(vs, 3))
        numeric = finite_difference(lambda: cos_loss(vs, 3).item(), vs)
        assert max_rel_error(vs.grad, numeric) < 1e-4


class TestVarLoss:
    def test_uniform_gates_exactly_zero(self):
        for values in ([0.3, 0.3], [0.1, 0.1, 0.1], [0.77] * 7):
            assert var_loss(Tensor([values])).item() == 0.0

    def test_zero_one_pair(self):
        assert var_loss(Tensor([[0.0, 1.0]])).item() == pytest.approx(-0.25, abs=1e-15)

    def test_three_gates(self):
        loss = var_loss(Tensor([[0.1, 0.5, 0.9]]))
        assert loss.item() == pytest.approx(-0.32 / 3, abs=1e-12)

    def test_batch_mean(self):
        loss = var_loss(Tensor([[0.0, 1.0], [0.5, 0.5]]))
        assert loss.item() == pytest.approx(-0.125, abs=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        w = Tensor(rng.uniform(0.1, 0.9, (3, 4)), requires_grad=True)
        backward(var_loss(w))
        numeric = finite_difference(lambda: var_loss(w).item(), w)
        assert max_rel_error(w.grad, numeric) < 1e-4


class TestTotalLoss:
    def test_reduces_to_ce_without_auxiliaries(self):
        rng = np.random.default_rng(9)
        y = rng.integers(0, 2, size=4).astype(float)
        p = Tensor(rng.uniform(0.1, 0.9, (4, 1)))
        aeg = _stack([rng.normal(size=(4, 3)) for _ in range(2)])
        w = Tensor(rng.uniform(0, 1, (4, 2)))
        weights = LossWeights(alpha=1.0, beta=0.0, gamma=0.0)
        assert (total_loss(y, p, aeg, w, weights).item()
                == ce_loss(y, p).item())

    def test_component_mixture_value(self):
        # Components (0.5, 2.0, -0.2) at alpha=1, beta=gamma=1e-3 -> 0.5018.
        assert (1.0 * 0.5 + 1e-3 * 2.0 + 1e-3 * (-0.2)) == pytest.approx(0.5018)

    def test_weighted_sum_matches_parts(self):
        rng = np.random.default_rng(10)
        y = rng.integers(0, 2, size=5).astype(float)
        p = Tensor(rng.uniform(0.1, 0.9, (5, 1)))
        aeg = _stack([rng.normal(size=(5, 3)) for _ in range(3)])
        w = Tensor(rng.uniform(0.1, 0.9, (5, 3)))
        weights = LossWeights(alpha=1.3, beta=0.01, gamma=0.02)
        expected = (1.3 * ce_loss(y, p).item() + 0.01 * cos_loss(aeg, 3).item()
                    + 0.02 * var_loss(w).item())
        assert total_loss(y, p, aeg, w, weights).item() == pytest.approx(
            expected, abs=1e-12)

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            LossWeights(alpha=0.0)
        with pytest.raises(ValueError):
            LossWeights(alpha=1.0, beta=-0.1)


@given(st.lists(st.floats(0.01, 0.99), min_size=2, max_size=6),
       st.floats(0.1, 5.0))
@settings(max_examples=100, deadline=None)
def test_cos_loss_positive_rescaling_invariance(values, c):
    n = len(values)
    base = _stack([[[v, 1.0 - v]] for v in values])
    scaled = ad.scale(base, c)
    assert cos_loss(scaled, n).item() == pytest.approx(cos_loss(base, n).item(),
                                                       abs=1e-9)
