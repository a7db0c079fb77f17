"""Tests for the reverse-mode autodiff core."""

import numpy as np
import pytest

from swan import autodiff as ad
from swan.autodiff import DimensionError, Tensor, backward
from swan.gradcheck import finite_difference, max_rel_error


def _scalar_loss(out: Tensor, weights: np.ndarray) -> Tensor:
    # Random projection catches permutation/transposition mistakes that a
    # plain sum would miss.
    return ad.sum_all(ad.mul(out, Tensor(weights)))


class TestForwardValues:
    def test_matmul_direct(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).data, [[3.0], [7.0]])

    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 3)))
        np.testing.assert_array_equal(ad.matmul(a, Tensor(np.eye(3))).data, a.data)

    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_mul_direct(self):
        out = ad.mul(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [3.0, 8.0])

    def test_sub_annihilation(self):
        x = Tensor([1.5, -2.0, 7.0])
        np.testing.assert_array_equal(ad.sub(x, x).data, np.zeros(3))

    def test_elementwise_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ad.add(Tensor([1.0]), Tensor([1.0, 2.0]))

    def test_no_implicit_broadcasting(self):
        with pytest.raises(DimensionError):
            ad.mul(Tensor(np.ones((2, 3))), Tensor(np.ones(3)))

    def test_concat_direct(self):
        out = ad.concat([Tensor([1.0, 2.0]), Tensor([3.0])])
        np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])

    def test_concat_single_part_identity(self):
        x = Tensor([4.0, 5.0])
        np.testing.assert_array_equal(ad.concat([x]).data, x.data)

    def test_concat_empty_error(self):
        with pytest.raises(ValueError):
            ad.concat([])

    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(Tensor(np.array(0.0))).item() == 0.5

    def test_sigmoid_at_one(self):
        assert ad.sigmoid(Tensor(np.array(1.0))).item() == pytest.approx(
            0.7310585786300049, abs=1e-12)

    def test_sigmoid_saturation_is_legal(self):
        out = ad.sigmoid(Tensor([-1e4, 1e4]))
        assert np.all(np.isfinite(out.data))

    def test_softmax_constant_row(self):
        for c in (-3.0, 0.0, 100.0):
            out = ad.softmax(Tensor([c, c, c]))
            np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_softmax_shift_invariance_and_row_sums(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-5, 5, size=(40, 6))
        s1 = ad.softmax(Tensor(x)).data
        s2 = ad.softmax(Tensor(x + 123.456)).data
        np.testing.assert_allclose(s1, s2, atol=1e-9)
        np.testing.assert_allclose(s1.sum(axis=-1), 1.0, atol=1e-9)

    def test_repeat_and_slice(self):
        v = Tensor([1.0, 2.0, 3.0])
        m = ad.repeat_rows(v, 4)
        assert m.shape == (4, 3)
        col = ad.slice_cols(m, 1, 2)
        np.testing.assert_array_equal(col.data, np.full((4, 1), 2.0))
        wide = ad.repeat_cols(col, 5)
        assert wide.shape == (4, 5)

    def test_reshape_size_check(self):
        with pytest.raises(DimensionError):
            ad.reshape(Tensor(np.ones((2, 3))), (4, 2))

    def test_rows_gather_and_bounds(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = ad.rows(table, [2, 0])
        np.testing.assert_array_equal(out.data, [[6.0, 7.0, 8.0], [0.0, 1.0, 2.0]])
        with pytest.raises(ValueError):
            ad.rows(table, [4])


class TestBackward:
    def test_square_gradient(self):
        x = Tensor(np.array(3.0), requires_grad=True)
        loss = ad.mul(x, x)
        backward(loss)
        assert x.grad == pytest.approx(6.0)

    def test_disconnected_leaf_grad_zero(self):
        x = Tensor(np.array(2.0), requires_grad=True)
        y = Tensor(np.array(5.0), requires_grad=True)
        backward(ad.mul(y, y))
        np.testing.assert_array_equal(x.grad, 0.0)

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            backward(ad.mul(x, x))

    def test_repeated_backward_rejected(self):
        x = Tensor(np.array(2.0), requires_grad=True)
        loss = ad.mul(x, x)
        backward(loss)
        with pytest.raises(RuntimeError):
            backward(loss)

    def test_gradient_accumulates_across_losses(self):
        x = Tensor(np.array(2.0), requires_grad=True)
        backward(ad.mul(x, x))
        backward(ad.scale(x, 3.0))
        assert x.grad == pytest.approx(4.0 + 3.0)

    def test_gradient_map_contains_leaves(self):
        x = Tensor(np.array(2.0), requires_grad=True)
        grads = backward(ad.mul(x, x))
        assert grads[x] == pytest.approx(4.0)

    def test_backward_deterministic(self):
        def run():
            rng = np.random.default_rng(11)
            a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
            b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
            loss = ad.sum_all(ad.sigmoid(ad.matmul(a, b)))
            backward(loss)
            return a.grad.copy(), b.grad.copy()

        ga1, gb1 = run()
        ga2, gb2 = run()
        assert np.array_equal(ga1, ga2) and np.array_equal(gb1, gb2)

    def test_mul_gradient_is_other_operand(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=5), requires_grad=True)
        b = Tensor(rng.normal(size=5))
        backward(ad.sum_all(ad.mul(a, b)))
        np.testing.assert_allclose(a.grad, b.data, atol=1e-12)

    def test_concat_backward_ones(self):
        a = Tensor(np.zeros(3), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        backward(ad.sum_all(ad.concat([a, b])))
        np.testing.assert_array_equal(a.grad, np.ones(3))
        np.testing.assert_array_equal(b.grad, np.ones(2))

    def test_rows_gradient_hits_only_looked_up_rows(self):
        table = Tensor(np.ones((5, 2)), requires_grad=True)
        backward(ad.sum_all(ad.rows(table, [1, 1, 3])))
        expected = np.zeros((5, 2))
        expected[1] = 2.0
        expected[3] = 1.0
        np.testing.assert_array_equal(table.grad, expected)

    def test_no_grad_blocks_recording(self):
        x = Tensor(np.array(2.0), requires_grad=True)
        with ad.no_grad():
            out = ad.mul(x, x)
        assert not out.requires_grad and out._parents == ()


def _fd_check(build, tensors, seed, tol=1e-4, step=1e-5):
    """Build the loss, backprop, and compare every input against central FD."""
    loss = build()
    backward(loss)
    for t in tensors:
        numeric = finite_difference(lambda: build().item(), t, step=step)
        assert max_rel_error(t.grad, numeric) < tol, f"seed {seed}"


class TestFiniteDifferences:
    """Every primitive op against a central finite-difference oracle."""

    def test_matmul_3x4_by_4x2(self):
        rng = np.random.default_rng(42)
        a = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(-2, 2, (4, 2)), requires_grad=True)
        w = rng.normal(size=(3, 2))
        _fd_check(lambda: _scalar_loss(ad.matmul(a, b), w), [a, b], 42, tol=1e-6)

    @pytest.mark.parametrize("seed", range(100))
    def test_primitives_random_trials(self, seed):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(1, 4)), int(rng.integers(1, 5)))
        a = Tensor(rng.uniform(-2, 2, shape), requires_grad=True)
        b = Tensor(rng.uniform(-2, 2, shape), requires_grad=True)
        c = Tensor(rng.uniform(-2, 2, (shape[1], shape[1])), requires_grad=True)
        w = rng.normal(size=shape)
        cases = [
            (lambda: _scalar_loss(ad.add(a, b), w), [a, b]),
            (lambda: _scalar_loss(ad.sub(a, b), w), [a, b]),
            (lambda: _scalar_loss(ad.mul(a, b), w), [a, b]),
            (lambda: _scalar_loss(ad.matmul(a, c), w), [a, c]),
            (lambda: _scalar_loss(ad.sigmoid(a), w), [a]),
            (lambda: _scalar_loss(ad.relu(a), w), [a]),
            (lambda: _scalar_loss(ad.softmax(a), w), [a]),
            (lambda: _scalar_loss(ad.concat([a, b]),
                                  np.concatenate([w, w], -1)), [a, b]),
        ]
        for build, tensors in cases:
            for t in tensors:
                t.zero_grad()
            _fd_check(build, tensors, seed)

    @pytest.mark.parametrize("seed", range(20))
    def test_shape_ops_random_trials(self, seed):
        rng = np.random.default_rng(1000 + seed)
        v = Tensor(rng.uniform(-2, 2, 4), requires_grad=True)
        col = Tensor(rng.uniform(-2, 2, (3, 1)), requires_grad=True)
        m = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
        table = Tensor(rng.uniform(-2, 2, (6, 3)), requires_grad=True)
        idx = rng.integers(0, 6, size=4)
        w34 = rng.normal(size=(3, 4))
        w35 = rng.normal(size=(3, 5))
        w32 = rng.normal(size=(3, 2))
        w43 = rng.normal(size=(4, 3))
        cases = [
            (lambda: _scalar_loss(ad.repeat_rows(v, 3), w34), [v]),
            (lambda: _scalar_loss(ad.repeat_cols(col, 5), w35), [col]),
            (lambda: _scalar_loss(ad.slice_cols(m, 1, 3), w32), [m]),
            (lambda: _scalar_loss(ad.reshape(m, (4, 3)), w43), [m]),
            (lambda: _scalar_loss(ad.rows(table, idx), w43), [table]),
        ]
        build, tensors = cases[seed % 5]
        _fd_check(build, tensors, seed)

    @pytest.mark.parametrize("seed", range(10))
    def test_scalar_chain_ops(self, seed):
        rng = np.random.default_rng(2000 + seed)
        x = Tensor(rng.uniform(0.5, 2.0, (2, 3)), requires_grad=True)
        w = rng.normal(size=(2, 3))
        for build in (
            lambda: _scalar_loss(ad.log(x), w),
            lambda: _scalar_loss(ad.power(x, -0.5), w),
            lambda: _scalar_loss(ad.scale(x, -1.7), w),
            lambda: _scalar_loss(ad.absolute(x), w),
            lambda: _scalar_loss(ad.clip(x, 0.6, 1.9), w),
        ):
            x.zero_grad()
            _fd_check(build, [x], seed)
