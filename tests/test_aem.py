"""Tests for the adaptive ensemble-experts module."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from swan import autodiff as ad
from swan.aem import aeg_forward, dics, expert_selector, seg_forward
from swan.autodiff import Tensor, backward
from swan.gradcheck import finite_difference, max_rel_error
from swan.nn import MLP, Linear, glorot_uniform


def _zero_mlp(in_dim, out_dim):
    return MLP([Linear(Tensor(np.zeros((in_dim, out_dim)), requires_grad=True),
                       Tensor(np.zeros(out_dim), requires_grad=True))])


def _create(rng, in_dim, hidden, out_dim):
    """One MLP as the per-MLP builder that `MLP.stacked` replaced drew it:
    a glorot weight per layer, in layer order, and zero biases."""
    dims = [in_dim, *hidden, out_dim]
    return MLP([Linear(Tensor(glorot_uniform(rng, a, b), requires_grad=True),
                       Tensor(np.zeros(b), requires_grad=True))
                for a, b in zip(dims[:-1], dims[1:])])


def _linear_mlp(w, b):
    return MLP([Linear(Tensor(np.asarray(w, dtype=float), requires_grad=True),
                       Tensor(np.asarray(b, dtype=float), requires_grad=True))])


class TestDics:
    def test_equal_probability_and_threshold(self):
        for tau in (1.0, 0.1, 1e-3):
            assert dics(0.37, 0.37, tau) == pytest.approx(0.5, abs=1e-12)

    def test_logistic_at_one_unit(self):
        assert dics(0.6, 0.5, 0.1) == pytest.approx(0.7310585786300049, abs=1e-12)

    def test_logistic_at_ten_units(self):
        assert dics(0.8, 0.7, 0.01) == pytest.approx(0.9999546021312976, abs=1e-12)

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            dics(0.5, 0.5, 0.0)
        with pytest.raises(ValueError):
            dics(0.5, 0.5, -1.0)

    @given(st.floats(0.001, 0.999), st.floats(0.001, 0.999),
           st.floats(0.001, 0.999), st.floats(1e-4, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_p(self, p1, p2, t, tau):
        # Strict monotonicity is only observable where float64 has not
        # saturated the logistic.
        lo, hi = sorted((p1, p2))
        z_lo, z_hi = (lo - t) / tau, (hi - t) / tau
        assume(abs(z_lo) <= 15 and abs(z_hi) <= 15 and z_hi - z_lo >= 1e-6)
        assert dics(lo, t, tau) < dics(hi, t, tau)

    @given(st.floats(0.001, 0.999), st.floats(0.001, 0.999),
           st.floats(0.001, 0.999), st.floats(1e-4, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_antitone_in_t(self, p, t1, t2, tau):
        lo, hi = sorted((t1, t2))
        z_lo, z_hi = (p - hi) / tau, (p - lo) / tau
        assume(abs(z_lo) <= 15 and abs(z_hi) <= 15 and z_hi - z_lo >= 1e-6)
        assert dics(p, lo, tau) > dics(p, hi, tau)

    def test_temperature_sharpening(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0.0, 1.0, size=64)
        t = 0.5
        p = p[np.abs(p - t) >= 0.01][:40]
        counts = []
        for tau in (1.0, 0.1, 0.01, 0.001):
            w = np.array([dics(pi, t, tau) for pi in p])
            counts.append(int(((w <= 0.05) | (w >= 0.95)).sum()))
        assert counts == sorted(counts)


class TestExpertSelector:
    def test_zero_weights_give_half_everywhere(self):
        e_u = Tensor(np.random.default_rng(1).normal(size=(5, 4)))
        vec = Tensor(np.random.default_rng(2).normal(size=(5, 3)))
        w = expert_selector(e_u, vec, _zero_mlp(7, 2), _zero_mlp(3, 1), 0.7)
        assert isinstance(w, Tensor) and w.shape == (5, 2)
        np.testing.assert_allclose(w.data, 0.5, atol=1e-15)

    def test_outputs_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(3)
        prob, thre = MLP.stacked(rng, 1, 7, (6,), 2), MLP.stacked(rng, 1, 3, (6,), 1)
        w = expert_selector(Tensor(rng.normal(size=(9, 4))),
                            Tensor(rng.normal(size=(9, 3))), prob, thre, 1.0)
        assert np.all(w.data > 0.0) and np.all(w.data < 1.0)

    def test_hand_set_single_layer_oracle(self):
        w_p = np.array([[0.2, -0.1], [0.0, 0.3], [0.5, 0.5], [-0.4, 0.1],
                        [0.1, 0.0]])
        b_p = np.array([0.05, -0.2])
        w_t = np.array([[0.3], [-0.2], [0.1]])
        b_t = np.array([0.02])
        tau = 0.25
        e_u = np.array([[0.5, -1.0]])
        vec = np.array([[1.0, 0.2, -0.3]])

        x = np.concatenate([e_u, vec], axis=1)
        p_manual = 1.0 / (1.0 + np.exp(-(x @ w_p + b_p)))
        t_manual = 1.0 / (1.0 + np.exp(-(vec @ w_t + b_t)))
        w_manual = 1.0 / (1.0 + np.exp(-(p_manual - t_manual) / tau))

        w = expert_selector(Tensor(e_u), Tensor(vec), _linear_mlp(w_p, b_p),
                            _linear_mlp(w_t, b_t), tau)
        np.testing.assert_allclose(w.data, w_manual, atol=1e-12)

    def test_gradients_through_both_mlps(self):
        # The smooth gate must pass gradient into the probability MLP and
        # the threshold MLP alike.
        rng = np.random.default_rng(4)
        prob, thre = MLP.stacked(rng, 1, 7, (5,), 2), MLP.stacked(rng, 1, 3, (5,), 1)
        e_u = Tensor(rng.uniform(-1, 1, (3, 4)))
        vec = Tensor(rng.uniform(-1, 1, (3, 3)))
        w = rng.normal(size=(3, 2))

        def build():
            gates = expert_selector(e_u, vec, prob, thre, 0.5)
            return ad.sum_all(ad.mul(gates, Tensor(w)))

        backward(build())
        named = prob.named_parameters("prob") + thre.named_parameters("thre")
        for name, t in named:
            numeric = finite_difference(lambda: build().item(), t)
            assert max_rel_error(t.grad, numeric) < 1e-4, name
            assert np.abs(t.grad).sum() > 0.0, f"{name} got no gradient"


class TestExpertGroups:
    def test_single_expert_shape(self):
        rng = np.random.default_rng(5)
        expert = MLP.stacked(rng, 1, 6, (4,), 3)
        e_in = Tensor(rng.normal(size=(2, 6)))
        out = aeg_forward(e_in, Tensor(np.ones((2, 1))), expert)
        assert out.shape == (2, 3)

    def test_identical_experts_identical_outputs(self):
        rng = np.random.default_rng(6)
        e1 = MLP.stacked(rng, 1, 6, (4,), 3)
        w0, w1 = e1.layers[0].w.data, e1.layers[1].w.data
        b0, b1 = e1.layers[0].b.data, e1.layers[1].b.data
        twins = MLP([Linear(Tensor(np.concatenate([w0, w0], axis=1)),
                            Tensor(np.concatenate([b0, b0]))),
                     Linear(Tensor(np.concatenate([w1, w1], axis=0)),
                            Tensor(np.concatenate([b1, b1])))], n=2)
        e_in = Tensor(rng.normal(size=(3, 6)))
        out = aeg_forward(e_in, Tensor(np.ones((3, 2))), twins)
        np.testing.assert_array_equal(out.data[:, :3], out.data[:, 3:])

    def test_gate_count_mismatch(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ad.DimensionError):
            aeg_forward(Tensor(rng.normal(size=(1, 6))), Tensor(np.ones((1, 3))),
                        MLP.stacked(rng, 1, 6, (), 3))

    def test_seg_purity(self):
        rng = np.random.default_rng(8)
        experts = MLP.stacked(rng, 2, 6, (4,), 3)
        e_in = Tensor(rng.normal(size=(2, 6)))
        a = seg_forward(e_in, experts)
        b = seg_forward(e_in, experts)
        assert np.array_equal(a.data, b.data)

    def test_tiny_expert_manual_forward(self):
        w1 = np.array([[1.0, 0.0], [0.0, -1.0]])
        b1 = np.array([0.1, 0.2])
        w2 = np.array([[0.5], [2.0]])
        b2 = np.array([-0.05])
        expert = MLP([Linear(Tensor(w1, requires_grad=True),
                             Tensor(b1, requires_grad=True)),
                      Linear(Tensor(w2, requires_grad=True),
                             Tensor(b2, requires_grad=True))])
        x = np.array([[2.0, 3.0], [-1.0, 0.5]])
        hidden = np.maximum(x @ w1 + b1, 0.0)
        manual = hidden @ w2 + b2
        out = seg_forward(Tensor(x), expert)
        np.testing.assert_allclose(out.data, manual, atol=1e-12)

    @pytest.mark.parametrize("in_dim, hidden, out_dim",
                             [(6, (), 3), (7, (6,), 2), (3, (5, 4), 1), (1, (1, 1), 1)])
    def test_stack_of_one_draws_what_one_mlp_drew(self, in_dim, hidden, out_dim):
        # Bit for bit: every weight, every bias, and the generator's state after.
        rng_ref, rng = np.random.default_rng(12), np.random.default_rng(12)
        ref = _create(rng_ref, in_dim, hidden, out_dim)
        got = MLP.stacked(rng, 1, in_dim, hidden, out_dim)
        assert got.n == 1 and len(got.layers) == len(ref.layers)
        for mine, theirs in zip(got.layers, ref.layers):
            for a, b in ((mine.w, theirs.w), (mine.b, theirs.b)):
                assert a.requires_grad
                assert (a.data.dtype, a.data.shape) == (b.data.dtype, b.data.shape)
                assert a.data.tobytes() == b.data.tobytes()
        assert rng.random() == rng_ref.random()

    @pytest.mark.parametrize("hidden", [(), (5,), (5, 4)])
    def test_stack_equals_experts_drawn_in_turn(self, hidden):
        # The stack holds the same initial values as n MLPs drawn one after
        # another from the same generator, and computes the same outputs.
        rng = np.random.default_rng(9)
        experts = [_create(rng, 6, hidden, 3) for _ in range(4)]
        stack = MLP.stacked(np.random.default_rng(9), 4, 6, hidden, 3)
        x = Tensor(np.random.default_rng(10).normal(size=(5, 6)))
        expected = np.concatenate([e(x).data for e in experts], axis=1)
        np.testing.assert_allclose(stack(x).data, expected, rtol=1e-13, atol=1e-15)
        for i, layer in enumerate(stack.layers):
            axis = 1 if i == 0 else 0
            np.testing.assert_array_equal(
                layer.w.data,
                np.concatenate([e.layers[i].w.data for e in experts], axis=axis))

    def test_stack_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        stack = MLP.stacked(rng, 3, 4, (5, 2), 3)
        x = Tensor(rng.uniform(-1, 1, (2, 4)), requires_grad=True)
        proj = rng.normal(size=(2, 9))

        def build():
            return ad.sum_all(ad.mul(stack(x), Tensor(proj)))

        backward(build())
        for name, t in [("x", x)] + stack.named_parameters("stack"):
            numeric = finite_difference(lambda: build().item(), t)
            assert max_rel_error(t.grad, numeric) < 1e-4, name
