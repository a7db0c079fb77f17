"""Tests for the reverse-mode autodiff core."""

import builtins
import ctypes
import io
import math
import re
import subprocess
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (mix_before, pair_features_before, rows_before,
                      sum_blocks_before)
from swan import autodiff as ad
from swan.autodiff import DimensionError, Tensor, backward
from swan.gradcheck import finite_difference, max_rel_error

try:
    import resource
except ImportError:  # not on this platform
    resource = None


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

    def test_repeat_cols(self):
        wide = ad.repeat_cols(Tensor(np.full((4, 1), 2.0)), 5)
        assert wide.shape == (4, 5)
        np.testing.assert_array_equal(wide.data, np.full((4, 5), 2.0))

    def test_reshape_size_check(self):
        with pytest.raises(DimensionError):
            ad.reshape(Tensor(np.ones((2, 3))), (4, 2))

    def test_rows_gather_and_bounds(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = ad.rows(table, [2, 0])
        np.testing.assert_array_equal(out.data, [[6.0, 7.0, 8.0], [0.0, 1.0, 2.0]])
        with pytest.raises(ValueError):
            ad.rows(table, [4])

    def test_rows_index_matrix_lays_rows_side_by_side(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = ad.rows(table, [[2, 0], [1, 1]])
        np.testing.assert_array_equal(out.data, [[6.0, 7.0, 8.0, 0.0, 1.0, 2.0],
                                                 [3.0, 4.0, 5.0, 3.0, 4.0, 5.0]])
        assert ad.rows(table, np.zeros((2, 0), dtype=np.int64)).shape == (2, 0)
        with pytest.raises(ValueError):
            ad.rows(table, [[0, 4]])
        with pytest.raises(DimensionError):
            ad.rows(table, np.zeros((1, 1, 1), dtype=np.int64))

    @pytest.mark.parametrize("indices", [[1.7], [True, False, True],
                                         np.array([[1.0, 0.0]]),
                                         np.array(["1"])])
    def test_rows_rejects_non_integer_indices(self, indices):
        # Casting would gather row 1 for 1.7 and rows 1, 0, 1 for booleans.
        with pytest.raises(TypeError, match="integer indices"):
            ad.rows(Tensor(np.ones((3, 2))), indices)

    def test_rows_takes_empty_and_unsigned_indices(self):
        table = Tensor(np.arange(6.0).reshape(3, 2))
        assert ad.rows(table, []).shape == (0, 2)  # np.asarray([]) is float64
        np.testing.assert_array_equal(
            ad.rows(table, np.array([2, 0], dtype=np.uint8)).data,
            [[4.0, 5.0], [0.0, 1.0]])

    def test_sum_blocks_adds_blocks_in_order(self):
        v = np.arange(12.0).reshape(2, 6)
        out = ad.sum_blocks(Tensor(v), 3)
        np.testing.assert_array_equal(out.data, (v[:, :2] + v[:, 2:4]) + v[:, 4:])


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

    def test_leaf_gradient_is_read_from_grad(self):
        x = Tensor(np.array(2.0), requires_grad=True)
        assert backward(ad.mul(x, x)) is None
        assert x.grad == pytest.approx(4.0)

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

    def test_operands_of_one_add_keep_independent_gradients(self):
        # Both operands of the inner add first get the one array it hands
        # down; a then accumulates more, which must not reach b or s.
        a = Tensor(np.zeros(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        scaled = ad.scale(a, 2.0)
        s = ad.add(a, b)
        backward(ad.sum_all(ad.add(scaled, s)))
        np.testing.assert_array_equal(a.grad, np.full(3, 3.0))
        np.testing.assert_array_equal(b.grad, np.ones(3))
        np.testing.assert_array_equal(s.grad, np.ones(3))

    def test_rows_gradient_hits_only_looked_up_rows(self):
        table = Tensor(np.ones((5, 2)), requires_grad=True)
        backward(ad.sum_all(ad.rows(table, [1, 1, 3])))
        expected = np.zeros((5, 2))
        expected[1] = 2.0
        expected[3] = 1.0
        np.testing.assert_array_equal(table.grad, expected)

    @given(data=st.data(), n_rows=st.integers(1, 12), d=st.integers(0, 5),
           shape=st.one_of(st.tuples(st.integers(0, 40)),
                           st.tuples(st.integers(0, 8), st.integers(0, 6))))
    @settings(max_examples=200, deadline=None)
    def test_rows_gradient_equals_add_at_bit_for_bit(self, data, n_rows, d, shape):
        # numpy does not document the order in which np.add.at or bincount
        # sum an index's contributions; the rows backward relies on both
        # adding them in order of occurrence, starting from 0.0. Indices
        # come from a few rows so most repeat, and -0.0 tests the start.
        pool = data.draw(st.integers(1, n_rows))
        n = math.prod(shape)
        idx = np.array(data.draw(st.lists(st.integers(0, pool - 1), min_size=n,
                                          max_size=n)), dtype=np.int64).reshape(shape)
        values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 1e-300]),
                           st.floats(-1e6, 1e6, allow_nan=False))
        g = np.array(data.draw(st.lists(values, min_size=n * d, max_size=n * d)),
                     dtype=np.float64).reshape(shape[0], math.prod(shape[1:]) * d)
        table = Tensor(np.zeros((n_rows, d)), requires_grad=True)
        backward(_scalar_loss(ad.rows(table, idx), g))

        expected = np.zeros((n_rows, d))
        np.add.at(expected, idx, g.reshape(*shape, d))
        np.testing.assert_array_equal(table.grad.view(np.int64),
                                      expected.view(np.int64))

    def test_no_grad_blocks_recording(self):
        x = Tensor(np.array(2.0), requires_grad=True)
        with ad.no_grad():
            out = ad.mul(x, x)
        assert not out.requires_grad and out._parents == ()


def test_every_public_op_returns_one_tensor():
    """An op's output is one Tensor, whatever else its body computes."""
    m = Tensor(np.arange(6.0).reshape(2, 3) / 10)
    col = Tensor(np.array([[0.1], [0.2]]))
    calls = {
        "matmul": lambda: ad.matmul(m, Tensor(np.ones((3, 2)))),
        "affine": lambda: ad.affine(m, Tensor(np.ones((3, 2))), Tensor(np.ones(2))),
        "mix": lambda: ad.mix(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 6))), 3),
        "sum_blocks": lambda: ad.sum_blocks(Tensor(np.ones((2, 6))), 3),
        "pair_features": lambda: ad.pair_features(col, m, Tensor(np.ones((2, 6)))),
        "dics_gate": lambda: ad.dics_gate(m, col, 0.5),
        "abs_cos_pairs": lambda: ad.abs_cos_pairs(Tensor(np.ones((2, 6))), 3),
        "bce": lambda: ad.bce(m, np.ones(6), 1e-12),
        "neg_row_variance": lambda: ad.neg_row_variance(m),
        "add": lambda: ad.add(m, m),
        "sub": lambda: ad.sub(m, m),
        "mul": lambda: ad.mul(m, m),
        "concat": lambda: ad.concat([m, col]),
        "sigmoid": lambda: ad.sigmoid(m),
        "relu": lambda: ad.relu(m),
        "softmax": lambda: ad.softmax(m),
        "scale": lambda: ad.scale(m, 2.0),
        "sum_all": lambda: ad.sum_all(m),
        "reshape": lambda: ad.reshape(m, (3, 2)),
        "repeat_cols": lambda: ad.repeat_cols(col, 3),
        "rows": lambda: ad.rows(m, [1, 0]),
    }
    public = {name for name, f in vars(ad).items()
              if callable(f) and getattr(f, "__module__", None) == ad.__name__
              and not isinstance(f, type) and not name.startswith("_")}
    assert public - {"backward", "no_grad"} == set(calls)
    for name, call in calls.items():
        assert type(call()) is Tensor, name


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
        col = Tensor(rng.uniform(-2, 2, (3, 1)), requires_grad=True)
        m = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
        table = Tensor(rng.uniform(-2, 2, (6, 3)), requires_grad=True)
        idx = rng.integers(0, 6, size=4)
        w35 = rng.normal(size=(3, 5))
        w43 = rng.normal(size=(4, 3))
        cases = [
            (lambda: _scalar_loss(ad.repeat_cols(col, 5), w35), [col]),
            (lambda: _scalar_loss(ad.reshape(m, (4, 3)), w43), [m]),
            (lambda: _scalar_loss(ad.rows(table, idx), w43), [table]),
        ]
        build, tensors = cases[seed % len(cases)]
        _fd_check(build, tensors, seed)

    @pytest.mark.parametrize("seed", range(10))
    def test_rows_index_matrix(self, seed):
        # A [B, k] index matrix, repeated rows included, gives [B, k*d].
        rng = np.random.default_rng(3000 + seed)
        table = Tensor(rng.uniform(-2, 2, (5, 3)), requires_grad=True)
        idx = rng.integers(0, 5, size=(4, 3))
        w = rng.normal(size=(4, 9))
        _fd_check(lambda: _scalar_loss(ad.rows(table, idx), w), [table], seed)

    def test_rows_index_matrix_repeated_rows(self):
        # Rows 1 and 3 repeat within an index row and across index rows.
        rng = np.random.default_rng(3100)
        table = Tensor(rng.uniform(-2, 2, (5, 3)), requires_grad=True)
        idx = np.array([[1, 1, 3], [3, 0, 1], [1, 3, 3]])
        w = rng.normal(size=(3, 9))
        _fd_check(lambda: _scalar_loss(ad.rows(table, idx), w), [table], 3100)

    @pytest.mark.parametrize("seed", range(10))
    def test_scalar_chain_ops(self, seed):
        rng = np.random.default_rng(2000 + seed)
        x = Tensor(rng.uniform(0.5, 2.0, (2, 3)), requires_grad=True)
        w = rng.normal(size=(2, 3))
        _fd_check(lambda: _scalar_loss(ad.scale(x, -1.7), w), [x], seed)


def _blocks(x: np.ndarray, n: int) -> list[np.ndarray]:
    return np.split(x, n, axis=-1)


def _abs_cos_pairs_loop(v: np.ndarray, n: int) -> float:
    """Pair-by-pair reference, zero-norm masking included."""
    total = 0.0
    blocks = _blocks(v, n)
    for m in range(n):
        for k in range(m + 1, n):
            for a, b in zip(blocks[m], blocks[k]):
                if a @ a > ad.NORM_FLOOR and b @ b > ad.NORM_FLOOR:
                    total += abs(a @ b) / np.sqrt((a @ a) * (b @ b))
    return total


class TestFusedOps:
    """The fused ops against loops of narrow ops and against finite differences."""

    def test_affine_is_matmul_plus_bias(self):
        rng = np.random.default_rng(50)
        x, w, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=2)
        out = ad.affine(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_array_equal(out.data, x @ w + b)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_affine_is_blockwise_products_plus_bias(self, n):
        rng = np.random.default_rng(51 + n)
        x, w = rng.normal(size=(4, n * 3)), rng.normal(size=(n * 3, 2))
        b = rng.normal(size=n * 2)
        out = ad.affine(Tensor(x), Tensor(w), Tensor(b), n)
        expected = np.concatenate([xi @ wi + bi for xi, wi, bi in
                                   zip(_blocks(x, n), np.split(w, n, axis=0),
                                       np.split(b, n))], axis=1)
        assert out.shape == (4, n * 2)
        np.testing.assert_allclose(out.data, expected, rtol=1e-14, atol=1e-15)

    def test_affine_shape_errors(self):
        with pytest.raises(DimensionError):
            ad.affine(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))), Tensor(np.ones(2)))
        with pytest.raises(DimensionError):
            ad.affine(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))), Tensor(np.ones(3)))

    def test_block_matmul_shape_errors(self):
        """The blockwise form, affine(..., n > 1): a width not split into n, a
        weight of the wrong height, a bias of m where n*m is due, no blocks."""
        with pytest.raises(DimensionError, match="not 2 matching blocks"):
            ad.affine(Tensor(np.ones((2, 5))), Tensor(np.ones((5, 2))), Tensor(np.ones(4)), 2)
        with pytest.raises(DimensionError, match="not 2 matching blocks"):
            ad.affine(Tensor(np.ones((2, 6))), Tensor(np.ones((4, 2))), Tensor(np.ones(4)), 2)
        with pytest.raises(DimensionError, match="not 2 matching blocks"):
            ad.affine(Tensor(np.ones((2, 6))), Tensor(np.ones((6, 2))), Tensor(np.ones(2)), 2)
        with pytest.raises(DimensionError, match="not 0 matching blocks"):
            ad.affine(Tensor(np.ones((2, 6))), Tensor(np.ones((6, 2))), Tensor(np.ones(0)), 0)
        with pytest.raises(DimensionError, match="1-D bias"):
            ad.affine(Tensor(np.ones((2, 6))), Tensor(np.ones((6, 2))),
                      Tensor(np.ones((1, 4))), 2)

    def test_bce_clamps_and_averages(self):
        eps = 1e-12
        p = np.array([0.9, 0.2, 0.0, 1.0])
        y = np.array([1.0, 0.0, 1.0, 0.0])
        q = np.clip(p, eps, 1.0 - eps)
        expected = -np.mean(y * np.log(q) + (1.0 - y) * np.log(1.0 - q))
        out = ad.bce(Tensor(p), y, eps)
        assert out.shape == ()
        assert out.item() == pytest.approx(expected, rel=1e-15)
        assert out.item() == pytest.approx(
            (-np.log(0.9) - np.log(0.8) - np.log(eps) - np.log(1.0 - (1.0 - eps))) / 4,
            rel=1e-12)

    def test_bce_shape_errors(self):
        with pytest.raises(DimensionError, match="3 targets"):
            ad.bce(Tensor(np.full((2, 1), 0.5)), [1, 0, 1], 1e-12)
        with pytest.raises(DimensionError, match="1 targets"):
            ad.bce(Tensor(np.full((1, 2), 0.5)), [1], 1e-12)

    def test_neg_row_variance_is_minus_mean_row_variance(self):
        rng = np.random.default_rng(58)
        w = rng.uniform(0, 1, (5, 4))
        out = ad.neg_row_variance(Tensor(w))
        assert out.shape == ()
        assert out.item() == pytest.approx(-w.var(axis=1).mean(), rel=1e-13)
        assert ad.neg_row_variance(Tensor([[0.0, 1.0]])).item() == -0.25

    def test_neg_row_variance_shape_errors(self):
        with pytest.raises(DimensionError):
            ad.neg_row_variance(Tensor([0.1, 0.9]))
        with pytest.raises(DimensionError):
            ad.neg_row_variance(Tensor(np.ones((3, 0))))

    def test_mix_is_weighted_block_sum(self):
        rng = np.random.default_rng(55)
        c, v = rng.normal(size=(3, 4)), rng.normal(size=(3, 4 * 2))
        out = ad.mix(Tensor(c), Tensor(v), 4)
        expected = sum(c[:, i:i + 1] * vi for i, vi in enumerate(_blocks(v, 4)))
        np.testing.assert_allclose(out.data, expected, rtol=1e-14, atol=1e-15)

    def test_mix_shape_errors(self):
        with pytest.raises(DimensionError):
            ad.mix(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 6))), 2)
        with pytest.raises(DimensionError):
            ad.mix(Tensor(np.ones((2, 4))), Tensor(np.ones((2, 6))), 4)

    @pytest.mark.parametrize("shape, n", [((2, 6), -1), ((2, 6), 0), ((2, 6), 4),
                                          ((6,), 3), ((), 1)])
    def test_sum_blocks_shape_errors(self, shape, n):
        with pytest.raises(DimensionError, match=f"^sum_blocks: {re.escape(str(shape))} "
                                                 f"is not {n} equal column blocks$"):
            ad.sum_blocks(Tensor(np.ones(shape)), n)

    def test_pair_features_layout(self):
        u = Tensor(np.array([[1.0], [2.0]]))
        t = Tensor(np.array([[3.0], [4.0]]))
        s = Tensor(np.array([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_array_equal(ad.pair_features(u, t, s).data, [
            [1.0, 3.0, -2.0, 15.0], [1.0, 3.0, -3.0, 18.0],
            [2.0, 4.0, -3.0, 28.0], [2.0, 4.0, -4.0, 32.0]])

    @pytest.mark.parametrize("shapes", [((2, 1), (2, 2), (2, 3)),
                                        ((2, 1), (2, 2), (3, 4)),
                                        ((3, 1), (2, 2), (2, 4)),
                                        ((2, 1), (2, 2), (2, 0)),
                                        ((2,), (2, 2), (2, 4))])
    def test_pair_features_shape_errors(self, shapes):
        u, t, s = (Tensor(np.zeros(shape)) for shape in shapes)
        with pytest.raises(DimensionError):
            ad.pair_features(u, t, s)

    def test_dics_gate_is_logistic_of_probability_gap(self):
        a, c = np.array([[0.3, -1.2, 2.0]]), np.array([[0.1]])
        w = ad.dics_gate(Tensor(a), Tensor(c), 0.5)
        p, t = 1.0 / (1.0 + np.exp(-a)), 1.0 / (1.0 + np.exp(-c))
        np.testing.assert_allclose(w.data, 1.0 / (1.0 + np.exp(-(p - t) / 0.5)),
                                   rtol=1e-14)

    @pytest.mark.parametrize("shapes", [((2, 3), (2, 3)), ((2, 3), (3, 1)),
                                        ((3,), (3, 1))])
    def test_dics_gate_shape_errors(self, shapes):
        a, c = (Tensor(np.zeros(shape)) for shape in shapes)
        with pytest.raises(DimensionError):
            ad.dics_gate(a, c, 1.0)

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan])
    def test_dics_gate_rejects_bad_tau(self, tau):
        with pytest.raises(ValueError, match="tau"):
            ad.dics_gate(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 1))), tau)

    def test_abs_cos_pairs_matches_pair_loop(self):
        rng = np.random.default_rng(56)
        v = rng.normal(size=(4, 5 * 3))
        v[1, 3:6] = 0.0   # a zero-norm vector: its pairs count 0
        v[2, :] = 0.0     # a whole row of them
        out = ad.abs_cos_pairs(Tensor(v), 5)
        assert out.shape == ()
        assert out.item() == pytest.approx(_abs_cos_pairs_loop(v, 5), rel=1e-13)

    def test_abs_cos_pairs_zero_norm_gets_no_gradient(self):
        rng = np.random.default_rng(57)
        v = Tensor(rng.normal(size=(2, 3 * 2)), requires_grad=True)
        v.data[0, 2:4] = 0.0
        backward(ad.abs_cos_pairs(v, 3))
        np.testing.assert_array_equal(v.grad[0, 2:4], 0.0)
        assert np.abs(v.grad[1]).sum() > 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(3000 + seed)
        batch, n, k, m = int(rng.integers(1, 4)), int(rng.integers(1, 4)), 3, 2
        x = Tensor(rng.uniform(-2, 2, (batch, n * k)), requires_grad=True)
        w = Tensor(rng.uniform(-2, 2, (n * k, m)), requires_grad=True)
        b = Tensor(rng.uniform(-2, 2, m), requires_grad=True)
        b_block = Tensor(rng.uniform(-2, 2, n * m), requires_grad=True)
        w_aff = Tensor(rng.uniform(-2, 2, (n * k, m)), requires_grad=True)
        c = Tensor(rng.uniform(-2, 2, (batch, n)), requires_grad=True)
        # probabilities clear of the clamp, so the loss is smooth around them
        p = Tensor(rng.uniform(0.05, 0.95, (batch, n)), requires_grad=True)
        y = rng.integers(0, 2, size=batch * n)
        gates = Tensor(rng.uniform(0, 1, (batch, n)), requires_grad=True)
        p_aff, p_block, p_mix = (rng.normal(size=(batch, m)),
                                 rng.normal(size=(batch, n * m)),
                                 rng.normal(size=(batch, k)))
        # pair_features of u = c, t = gates ([B, n]) and s = x (k blocks of n)
        p_pairs = rng.normal(size=(batch * k, 4 * n))
        thre = Tensor(rng.uniform(-2, 2, (batch, 1)), requires_grad=True)
        p_gate = rng.normal(size=(batch, n))
        cases = [
            (lambda: _scalar_loss(ad.affine(x, w_aff, b), p_aff), [x, w_aff, b]),
            (lambda: _scalar_loss(ad.affine(x, w, b_block, n), p_block),
             [x, w, b_block]),
            (lambda: _scalar_loss(ad.mix(c, x, n), p_mix), [c, x]),
            (lambda: ad.bce(p, y, 1e-12), [p]),
            (lambda: ad.neg_row_variance(gates), [gates]),
            (lambda: _scalar_loss(ad.pair_features(c, gates, x), p_pairs),
             [c, gates, x]),
            (lambda: _scalar_loss(ad.dics_gate(c, thre, 0.3), p_gate), [c, thre]),
        ]
        for build, tensors in cases:
            for t in tensors:
                t.zero_grad()
            _fd_check(build, tensors, seed)

    @pytest.mark.parametrize("seed", range(10))
    def test_abs_cos_pairs_gradient_with_zero_norm_rows(self, seed):
        rng = np.random.default_rng(4000 + seed)
        batch, n, d = 3, int(rng.integers(2, 5)), 3
        data = rng.uniform(-2, 2, (batch, n * d))
        data[0, :d] = 0.0           # one zero-norm vector in row 0
        data[2, :] = 0.0            # an all-zero row
        v = Tensor(data, requires_grad=True)
        _fd_check(lambda: ad.abs_cos_pairs(v, n), [v], seed)
        np.testing.assert_array_equal(v.grad[0, :d], 0.0)
        np.testing.assert_array_equal(v.grad[2], 0.0)


# ---------------------------------------------------------------------------
# the narrow ops the fused ones replaced, as they were


def _log(x):
    def backward_fn(g):
        if x.requires_grad:
            ad._accumulate(x, g / x.data)

    return ad._record(np.log(x.data), (x,), backward_fn)


def _clip(x, lo, hi):
    def backward_fn(g):
        if x.requires_grad:
            ad._accumulate(x, g * ((x.data > lo) & (x.data < hi)))

    return ad._record(np.clip(x.data, lo, hi), (x,), backward_fn)


def _repeat_rows(x, times):
    def backward_fn(g):
        if x.requires_grad:
            ad._accumulate(x, g.sum(axis=0).reshape(x.shape))

    return ad._record(np.broadcast_to(x.data[None, :], (times, x.shape[0])),
                      (x,), backward_fn)


def _block_matmul(x, w, n):
    batch, k, m = x.shape[0], x.shape[1] // n, w.shape[1]
    xs = x.data.reshape(batch, n, k).transpose(1, 0, 2)
    ws = w.data.reshape(n, k, m)

    def backward_fn(g):
        gs = g.reshape(batch, n, m).transpose(1, 0, 2)
        if x.requires_grad:
            gx = np.matmul(gs, ws.transpose(0, 2, 1))
            ad._accumulate(x, gx.transpose(1, 0, 2).reshape(batch, n * k))
        if w.requires_grad:
            ad._accumulate(w, np.matmul(xs.transpose(0, 2, 1), gs).reshape(n * k, m))

    out = np.matmul(xs, ws).transpose(1, 0, 2).reshape(batch, n * m)
    return ad._record(out, (x, w), backward_fn)


def _masked_sigmoid(x):
    """The sigmoid body before `exp(-|x|)`: one masked scatter per sign."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _pair_chain(u, t, s):
    """SAN's pair features as six narrow ops."""
    batch, d = t.shape
    n = s.shape[1] // d
    row_of = np.repeat(np.arange(batch), n)
    e_t = ad.rows(t, row_of)
    e_s = ad.reshape(s, (batch * n, d))
    return ad.concat([ad.rows(u, row_of), e_t, ad.sub(e_t, e_s), ad.mul(e_t, e_s)])


def _dics_chain(a, c, tau):
    """The selector's gates as six narrow ops."""
    p = ad.sigmoid(a)
    t = ad.sigmoid(c)
    return ad.sigmoid(ad.scale(ad.sub(p, ad.repeat_cols(t, a.shape[1])), 1.0 / tau))


def _plain_affine(x, w, b):
    """The one-layer affine: what layer 0 of every MLP ran."""
    def backward_fn(g):
        if x.requires_grad:
            ad._accumulate(x, g @ w.data.T)
        if w.requires_grad:
            ad._accumulate(w, x.data.T @ g)
        if b.requires_grad:
            ad._accumulate(b, g.sum(axis=0))

    return ad._record(x.data @ w.data + b.data, (x, w, b), backward_fn)


def _block_affine_chain(x, w, b, n):
    """A stacked layer past the first: block_matmul, repeat_rows and add."""
    return ad.add(_block_matmul(x, w, n), _repeat_rows(b, x.shape[0]))


def _ce_chain(labels, predictions, eps):
    y = np.asarray(labels, dtype=np.float64).reshape(-1, 1)
    preds = (predictions if predictions.shape == y.shape
             else ad.reshape(predictions, y.shape))
    p = _clip(preds, eps, 1.0 - eps)
    term = ad.add(ad.mul(Tensor(y), _log(p)),
                  ad.mul(Tensor(1.0 - y),
                         _log(ad.sub(Tensor(np.ones_like(y)), p))))
    return ad.scale(ad.sum_all(term), -1.0 / y.shape[0])


def _var_chain(w):
    batch, n = w.shape
    ones_col = Tensor(np.ones((n, 1)))
    mean = ad.repeat_cols(ad.scale(ad.matmul(w, ones_col), 1.0 / n), n)
    dev = ad.sub(w, mean)
    row_var = ad.scale(ad.matmul(ad.mul(dev, dev), ones_col), 1.0 / n)
    return ad.scale(ad.sum_all(row_var), -1.0 / batch)


def _value_and_grads(build, leaves):
    for t in leaves:
        t.zero_grad()
    out = build()
    backward(out)
    return [out.data.tobytes()] + [t.grad.tobytes() for t in leaves]


def _signed_zeros(rng, shape):
    """Normal draws, about a fifth of them -0.0 and a fifth +0.0."""
    x = rng.normal(size=shape)
    draw = rng.random(shape)
    x[draw < 0.2] = -0.0
    x[(draw >= 0.2) & (draw < 0.4)] = 0.0
    return x


def _op_bits(op, leaves, g):
    """The bytes of op()'s value, then of each leaf's gradient when g
    arrives at the output."""
    for t in leaves:
        t.zero_grad()
    out = op()
    out._backward_fn(g)
    return [out.data.tobytes()] + [t.grad.tobytes() for t in leaves]


# (B, n, d): n blocks of width d in B rows. Blocks one column wide stop
# at n = 7: at n >= 8 the bodies before summed those pairwise.
_BLOCK_SHAPES = [(0, 3, 4), (0, 1, 1), (1, 1, 1), (1, 1, 4), (1, 3, 4), (6, 1, 4),
                 (5, 3, 1), (7, 7, 1), (4, 9, 2), (10, 20, 16), (33, 2, 40),
                 (512, 5, 8)]


_SIGMOID_EDGES = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2e-308,
                  -2.2e-308, 1e-17, -1e-17, 36.0, -36.0, 37.5, -37.5, 709.0,
                  -709.0, 709.78, -709.78, 710.0, -710.0, 745.0, -745.0,
                  745.13, -745.13, 746.0, -746.0]


class TestFusedMatchRemovedChains:
    """Each fused op gives the bits of the chain of narrow ops it replaced,
    forward and backward, as it sits in the model: behind a ReLU for a
    stacked layer, scaled for a loss term. So do the op bodies rewritten
    for speed: the sigmoid, the one-block `affine`, and the gathers and
    block sums of `rows`, `mix`, `sum_blocks` and `pair_features`, whose
    bodies before are kept in conftest."""

    @pytest.mark.parametrize("batch, n, d", _BLOCK_SHAPES)
    @pytest.mark.parametrize("seed", range(3))
    def test_mix_and_sum_blocks_match_bodies_before(self, batch, n, d, seed):
        rng = np.random.default_rng(seed)
        c = Tensor(_signed_zeros(rng, (batch, n)), requires_grad=True)
        v = Tensor(_signed_zeros(rng, (batch, n * d)), requires_grad=True)
        g = _signed_zeros(rng, (batch, d))
        assert (_op_bits(lambda: ad.mix(c, v, n), [c, v], g)
                == _op_bits(lambda: mix_before(c, v, n), [c, v], g))
        assert (_op_bits(lambda: ad.sum_blocks(v, n), [v], g)
                == _op_bits(lambda: sum_blocks_before(v, n), [v], g))

    @pytest.mark.parametrize("index_shape", [(0,), (1,), (40,), (0, 3), (1, 1),
                                             (12, 5)])
    @pytest.mark.parametrize("seed", range(3))
    def test_rows_matches_body_before(self, index_shape, seed):
        rng = np.random.default_rng(seed)
        table = Tensor(_signed_zeros(rng, (7, 3)), requires_grad=True)
        idx = rng.integers(0, 7, size=index_shape)  # repeats rows
        g = _signed_zeros(rng, (index_shape[0], math.prod(index_shape[1:]) * 3))
        assert (_op_bits(lambda: ad.rows(table, idx), [table], g)
                == _op_bits(lambda: rows_before(table, idx), [table], g))

    @pytest.mark.parametrize("batch, du, d, n", [(0, 2, 3, 4), (1, 1, 1, 1), (1, 1, 1, 20),
                                                 (5, 1, 1, 9), (4, 8, 1, 20),
                                                 (3, 1, 6, 12), (512, 64, 16, 5)])
    @pytest.mark.parametrize("seed", range(3))
    def test_pair_features_matches_body_before(self, batch, du, d, n, seed):
        # One-column u or t with 8 or more pairs: the row sums must still
        # run in pair order, as the `bincount` scatter before did.
        rng = np.random.default_rng(seed)
        leaves = [Tensor(_signed_zeros(rng, shape), requires_grad=True)
                  for shape in ((batch, du), (batch, d), (batch, n * d))]
        g = _signed_zeros(rng, (batch * n, du + 3 * d))
        assert (_op_bits(lambda: ad.pair_features(*leaves), leaves, g)
                == _op_bits(lambda: pair_features_before(*leaves), leaves, g))

    @given(hnp.arrays(np.float64, st.integers(0, 40),
                      elements=st.sampled_from(_SIGMOID_EDGES) | st.floats()))
    @settings(max_examples=300, deadline=None)
    def test_sigmoid_matches_masked_form(self, x):
        x = np.concatenate([x, _SIGMOID_EDGES, [math.nan]])
        got, want = ad._stable_sigmoid(x), _masked_sigmoid(x)
        nan = np.isnan(x)
        assert np.isnan(got[nan]).all()
        np.testing.assert_array_equal(got[~nan].view(np.int64),
                                      want[~nan].view(np.int64))

    @given(st.integers(1, 24), st.integers(1, 12), st.integers(1, 12),
           st.booleans(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_affine_one_block_matches_3d_path(self, batch, k, m, sliced, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(batch, k + 3))
        # A column slice is a strided input, as concat's gradient views are.
        h = Tensor(data[:, 1:k + 1] if sliced else data[:, :k].copy(),
                   requires_grad=True)
        w = Tensor(rng.normal(size=(k, m)), requires_grad=True)
        b = Tensor(rng.normal(size=m), requires_grad=True)
        proj = rng.normal(size=(batch, m))
        fused = _value_and_grads(lambda: _scalar_loss(ad.affine(h, w, b), proj),
                                 [h, w, b])
        chain = _value_and_grads(
            lambda: _scalar_loss(_block_affine_chain(h, w, b, 1), proj), [h, w, b])
        assert fused == chain

    @given(st.integers(1, 9), st.integers(1, 6), st.integers(1, 5),
           st.integers(1, 7), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_pair_features_matches_rows_sub_mul_concat(self, batch, du, d, n, seed):
        rng = np.random.default_rng(seed)
        leaves = [Tensor(rng.normal(size=shape), requires_grad=True)
                  for shape in ((batch, du), (batch, d), (batch, n * d))]
        # Zero rows in the projection test the signs of zero gradients.
        proj = (rng.normal(size=(batch * n, du + 3 * d))
                * rng.integers(0, 2, (batch * n, 1)))
        fused = _value_and_grads(
            lambda: _scalar_loss(ad.pair_features(*leaves), proj), leaves)
        chain = _value_and_grads(
            lambda: _scalar_loss(_pair_chain(*leaves), proj), leaves)
        assert fused == chain

    @given(st.integers(1, 9), st.integers(1, 8),
           st.sampled_from([1e-3, 0.02, 0.5, 1.0, 7.0]), st.floats(0.1, 30.0),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_dics_gate_matches_sigmoid_chain(self, batch, k, tau, spread, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(spread * rng.normal(size=(batch, k)), requires_grad=True)
        c = Tensor(rng.normal(size=(batch, 1)), requires_grad=True)
        proj = rng.normal(size=(batch, k)) * rng.integers(0, 2, (batch, 1))
        fused = _value_and_grads(
            lambda: _scalar_loss(ad.dics_gate(a, c, tau), proj), [a, c])
        chain = _value_and_grads(
            lambda: _scalar_loss(_dics_chain(a, c, tau), proj), [a, c])
        assert fused == chain

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(5))
    def test_affine_matches_block_matmul_repeat_rows_add(self, n, seed):
        rng = np.random.default_rng(5000 + seed)
        batch, k, m = int(rng.integers(1, 40)), int(rng.integers(1, 20)), 16
        h = Tensor(rng.normal(size=(batch, n * k)), requires_grad=True)
        w = Tensor(rng.normal(size=(n * k, m)), requires_grad=True)
        b = Tensor(rng.normal(size=n * m), requires_grad=True)
        proj = rng.normal(size=(batch, n * m))
        leaves = [h, w, b]
        fused = _value_and_grads(
            lambda: _scalar_loss(ad.affine(ad.relu(h), w, b, n), proj), leaves)
        chain = _value_and_grads(
            lambda: _scalar_loss(_block_affine_chain(ad.relu(h), w, b, n), proj),
            leaves)
        assert fused == chain
        if n == 1:
            plain = _value_and_grads(
                lambda: _scalar_loss(_plain_affine(ad.relu(h), w, b), proj), leaves)
            assert fused == plain

    @pytest.mark.parametrize("case", ["inside", "edges", "at-eps", "row", "flat"])
    def test_bce_matches_clip_log_chain(self, case):
        eps = 1e-12
        rng = np.random.default_rng(6000)
        p = rng.uniform(0, 1, (23, 1))
        if case == "edges":
            p[::3] = 0.0
            p[1::3] = 1.0
        elif case == "at-eps":
            p[:4] = [[eps], [1.0 - eps], [eps / 2], [1.0 - eps / 4]]
        elif case == "row":
            p = p.reshape(1, -1)
        elif case == "flat":
            p = p.ravel()
        y = rng.integers(0, 2, size=23).astype(float)
        pred = Tensor(p, requires_grad=True)
        fused = _value_and_grads(lambda: ad.scale(ad.bce(pred, y, eps), 1.7), [pred])
        chain = _value_and_grads(lambda: ad.scale(_ce_chain(y, pred, eps), 1.7), [pred])
        assert fused == chain
        if case == "edges":
            np.testing.assert_array_equal(pred.grad[::3], 0.0)
            np.testing.assert_array_equal(pred.grad[1::3], 0.0)

    @pytest.mark.parametrize("case", ["random", "saturated", "mixed", "one-row",
                                      "one-gate"])
    def test_neg_row_variance_matches_ones_column_chain(self, case):
        rng = np.random.default_rng(7000)
        w = rng.uniform(0, 1, (17, 6))
        if case == "saturated":
            w = rng.integers(0, 2, size=(17, 6)).astype(float)
        elif case == "mixed":
            w[::2] = rng.integers(0, 2, size=(9, 6))
            w[1] = 0.25
            w[3, 2] = 1.0 - 1e-17
        elif case == "one-row":
            w = w[:1]
        elif case == "one-gate":
            w = w[:, :1]
        gates = Tensor(w, requires_grad=True)
        assert (_value_and_grads(lambda: ad.scale(ad.neg_row_variance(gates), 1.7),
                                 [gates])
                == _value_and_grads(lambda: ad.scale(_var_chain(gates), 1.7), [gates]))
        # As in the model, the gates feed other ops before the loss term,
        # so their other gradients arrive after the term's. They are kept
        # small here so that they do not round the term's bits away.
        proj = 1e-6 * rng.normal(size=w.shape)
        fused = _value_and_grads(
            lambda: ad.add(_scalar_loss(gates, proj), ad.neg_row_variance(gates)),
            [gates])
        chain = _value_and_grads(
            lambda: ad.add(_scalar_loss(gates, proj), _var_chain(gates)), [gates])
        assert fused == chain


class _FakeMallopt:
    def __init__(self, result=1):
        self.calls = []
        self.result = result

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.result


class TestHeapPolicy:
    @pytest.fixture
    def glibc(self, monkeypatch):
        """Report glibc from `os.confstr`, and fail any process start or
        file open while the policy runs."""
        asked = []

        def confstr(name):
            asked.append(name)
            return "glibc 2.36"

        def refuse(*args, **kwargs):
            raise AssertionError("the heap policy started a process or opened a file")

        monkeypatch.setattr(ad.os, "confstr", confstr)
        monkeypatch.setattr(subprocess, "Popen", refuse)
        monkeypatch.setattr(builtins, "open", refuse)
        monkeypatch.setattr(io, "open", refuse)
        return asked

    def test_glibc_sets_mmap_then_trim_threshold(self, glibc):
        mallopt = _FakeMallopt()
        assert ad._set_heap_policy({}, SimpleNamespace(mallopt=mallopt))
        assert mallopt.calls == [(-3, 32 << 20), (-1, 64 << 20)]
        assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
        assert mallopt.restype is ctypes.c_int
        assert glibc == ["CS_GNU_LIBC_VERSION"]

    def test_refused_setting_is_reported(self, glibc):
        mallopt = _FakeMallopt(result=0)
        assert not ad._set_heap_policy({}, SimpleNamespace(mallopt=mallopt))
        assert len(mallopt.calls) == 2

    def test_unrelated_tunables_do_not_block(self, glibc):
        mallopt = _FakeMallopt()
        env = {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2", "MALLOC_ARENA_MAX": "2"}
        assert ad._set_heap_policy(env, SimpleNamespace(mallopt=mallopt))
        assert len(mallopt.calls) == 2

    @pytest.mark.parametrize("env", [
        {"MALLOC_TRIM_THRESHOLD_": "131072"},
        {"MALLOC_MMAP_THRESHOLD_": "131072"},
        {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=131072"},
        {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2:glibc.malloc.mmap_threshold=4096"},
    ], ids=["trim", "mmap", "tunables", "tunables-second-entry"])
    def test_environment_setting_wins(self, glibc, env):
        mallopt = _FakeMallopt()
        assert not ad._set_heap_policy(env, SimpleNamespace(mallopt=mallopt))
        assert mallopt.calls == []

    @pytest.mark.parametrize("libc", ["no-confstr", "unknown-name", "unset", "musl"])
    def test_no_call_off_glibc(self, monkeypatch, libc):
        def confstr(name):
            if libc == "unknown-name":
                raise ValueError("unrecognized configuration name")
            return None if libc == "unset" else "musl 1.2.4"

        if libc == "no-confstr":
            monkeypatch.delattr(ad.os, "confstr")
        else:
            monkeypatch.setattr(ad.os, "confstr", confstr)
        mallopt = _FakeMallopt()
        assert not ad._set_heap_policy({}, SimpleNamespace(mallopt=mallopt))
        assert mallopt.calls == []

    @pytest.mark.skipif(not ad._HEAP_POLICY or resource is None,
                        reason="the heap policy is not set in this process")
    def test_training_steps_reuse_pages(self):
        # A step's temporaries, [512, 256] float64 arrays of 1 MiB among
        # them, all die at its end, as in training. Under glibc's default
        # trim threshold the freed top of the heap went back to the kernel
        # after each step: about 1,240 minor faults a step.
        rng = np.random.default_rng(0)
        arrays = rng.normal(size=(512, 128)), rng.normal(size=(128, 256)), rng.normal(size=256)

        def step():
            x, w, b = (Tensor(a, requires_grad=True) for a in arrays)
            backward(ad.sum_all(ad.relu(ad.affine(x, w, b))))

        for _ in range(5):
            step()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(50):
            step()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults / 50 < 50, f"{faults / 50:.0f} minor faults per step"
