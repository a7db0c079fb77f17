"""Tests for the cross-scene feature representation."""

import numpy as np
import pytest

from conftest import vocab_indices
from swan import autodiff as ad
from swan.autodiff import DimensionError, Tensor, backward
from swan.cfr import assemble_input, cfr_forward
from swan.features import ConfigError, EmbeddingSet, Feature, FeatureSchema
from swan.gradcheck import finite_difference, max_rel_error


def _tables(rng, scene_ids, feats=("sf0", "sf1"), rows=4, dim=3):
    schema = FeatureSchema([Feature(f, "categorical", "scene", vocab=rows - 1)
                            for f in feats])
    return EmbeddingSet.create(rng, schema, scene_ids, dim, cfr=True)


def _block(table, tables, sid, f):
    """Scene `sid`'s private rows of scene feature `f` in an array laid
    out like `tables.cfr`."""
    lo = tables.scene_vocab[sid] * tables.cfr_width + tables.cfr_offsets[f]
    return table[lo:lo + tables.schema[f].num_indices]


def _nbrs(tables, ids, rows=1):
    """Scene ids shared by `rows` rows, as the [rows, I] vocabulary-index
    matrix cfr_forward takes."""
    return np.tile(vocab_indices(tables, ids), (rows, 1))


def _expected_emb(tables, sid, idx):
    return sum(_block(tables.cfr.data, tables, sid, f)[idx[f]]
               for f in sorted(tables.cfr_offsets))


class TestCfrForward:
    def test_single_scene_identity_weighting(self):
        rng = np.random.default_rng(0)
        tables = _tables(rng, ["a"])
        idx = {"sf0": np.array([1]), "sf1": np.array([2])}
        out = cfr_forward(Tensor([[1.0]]), idx, tables, _nbrs(tables, ["a"]))
        np.testing.assert_allclose(out.data, _expected_emb(tables, "a", idx),
                                   atol=1e-15)

    def test_even_weights_average(self):
        rng = np.random.default_rng(1)
        tables = _tables(rng, ["a", "b"])
        idx = {"sf0": np.array([0]), "sf1": np.array([3])}
        out = cfr_forward(Tensor([[0.5, 0.5]]), idx, tables,
                          _nbrs(tables, ["a", "b"]))
        expected = 0.5 * (_expected_emb(tables, "a", idx)
                          + _expected_emb(tables, "b", idx))
        np.testing.assert_allclose(out.data, expected, atol=1e-15)

    def test_hand_set_weights_oracle(self):
        rng = np.random.default_rng(2)
        tables = _tables(rng, ["a", "b"])
        idx = {"sf0": np.array([2]), "sf1": np.array([1])}
        out = cfr_forward(Tensor([[0.3, 0.7]]), idx, tables,
                          _nbrs(tables, ["a", "b"]))
        expected = (0.3 * _expected_emb(tables, "a", idx)
                    + 0.7 * _expected_emb(tables, "b", idx))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_unknown_scene_is_config_error(self):
        rng = np.random.default_rng(3)
        tables = _tables(rng, ["a"])
        idx = {"sf0": np.array([0]), "sf1": np.array([0])}
        # The row every unknown scene shares has no cross-scene rows.
        ghost = np.array([[tables.scene_index("ghost")]])
        with pytest.raises(ConfigError, match="scene index 1"):
            cfr_forward(Tensor([[1.0]]), idx, tables, ghost)

    def test_weight_count_mismatch(self):
        rng = np.random.default_rng(4)
        tables = _tables(rng, ["a", "b"])
        idx = {"sf0": np.array([0]), "sf1": np.array([0])}
        with pytest.raises(DimensionError):
            cfr_forward(Tensor([[1.0]]), idx, tables, _nbrs(tables, ["a", "b"]))

    def test_linearity_in_weights(self):
        rng = np.random.default_rng(5)
        tables = _tables(rng, ["a", "b", "c"])
        idx = {"sf0": np.array([1, 3]), "sf1": np.array([0, 2])}
        ids = _nbrs(tables, ["a", "b", "c"], rows=2)
        s1 = rng.random((2, 3))
        s2 = rng.random((2, 3))
        alpha, beta = 0.6, -1.3
        mixed = cfr_forward(Tensor(alpha * s1 + beta * s2), idx, tables, ids)
        parts = (alpha * cfr_forward(Tensor(s1), idx, tables, ids).data
                 + beta * cfr_forward(Tensor(s2), idx, tables, ids).data)
        np.testing.assert_allclose(mixed.data, parts, atol=1e-12)

    def test_gradient_hits_only_similar_scene_tables(self):
        rng = np.random.default_rng(6)
        tables = _tables(rng, ["a", "b", "c"])
        idx = {"sf0": np.array([1]), "sf1": np.array([2])}
        out = cfr_forward(Tensor([[0.4, 0.6]]), idx, tables,
                          _nbrs(tables, ["a", "b"]))
        backward(ad.sum_all(out))
        grad = tables.cfr.grad
        for f in ("sf0", "sf1"):
            assert np.abs(_block(grad, tables, "a", f)).sum() > 0
            assert np.abs(_block(grad, tables, "b", f)).sum() > 0
            np.testing.assert_array_equal(_block(grad, tables, "c", f), 0.0)

    def test_rows_follow_the_documented_layout(self):
        rng = np.random.default_rng(9)
        tables = _tables(rng, ["b", "a", "c"])
        idx = {"sf0": np.array([1, 3]), "sf1": np.array([0, 2])}
        rows = tables.cfr_rows(idx, _nbrs(tables, ["c", "a"], rows=2))
        # Column f*I + i: scene feature f (of 4 rows each) of scene ids[i],
        # whose block starts at its vocabulary index times 8 rows.
        np.testing.assert_array_equal(rows, [[16 + 1, 0 + 1, 16 + 4, 0 + 4],
                                             [16 + 3, 0 + 3, 16 + 6, 0 + 6]])
        assert tables.cfr.shape == (3 * 8, 3)

    def test_rows_mix_their_own_scenes(self):
        rng = np.random.default_rng(10)
        tables = _tables(rng, ["a", "b", "c"])
        idx = {"sf0": np.array([1, 3]), "sf1": np.array([0, 2])}
        weights = rng.random((2, 2))
        nbrs = np.array([[0, 1], [2, 0]])
        out = cfr_forward(Tensor(weights), idx, tables, nbrs)
        for b, ids in enumerate([["a", "b"], ["c", "a"]]):
            row = {f: v[b:b + 1] for f, v in idx.items()}
            expected = sum(weights[b, i] * _expected_emb(tables, sid, row)
                           for i, sid in enumerate(ids))
            np.testing.assert_allclose(out.data[b:b + 1], expected, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        tables = _tables(rng, ["a", "b", "c"])
        idx = {"sf0": np.array([1, 3]), "sf1": np.array([0, 2])}
        weights = Tensor(rng.random((2, 2)), requires_grad=True)
        nbrs = np.array([[0, 1], [2, 0]])
        probe = Tensor(rng.normal(size=(2, 3)))

        def build():
            return ad.sum_all(ad.mul(cfr_forward(weights, idx, tables, nbrs), probe))

        backward(build())
        for name, t in (("weights", weights), ("cfr", tables.cfr)):
            numeric = finite_difference(lambda: build().item(), t)
            assert max_rel_error(t.grad, numeric) < 1e-6, name


class TestAssembleInput:
    def test_zero_parts_zero_vector(self):
        out = assemble_input(Tensor(np.zeros((1, 8))), Tensor(np.zeros((1, 4))),
                             Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 3))),
                             Tensor(np.zeros((1, 3))))
        np.testing.assert_array_equal(out.data, np.zeros((1, 18)))

    def test_zero_cfr_leaves_target_block(self):
        rng = np.random.default_rng(7)
        e_t = Tensor(rng.normal(size=(2, 3)))
        out = assemble_input(Tensor(rng.normal(size=(2, 5))),
                             Tensor(rng.normal(size=(2, 4))),
                             Tensor(rng.normal(size=(2, 3))),
                             e_t, Tensor(np.zeros((2, 3))))
        np.testing.assert_array_equal(out.data[:, -3:], e_t.data)

    def test_width_adds_up(self):
        rng = np.random.default_rng(8)
        out = assemble_input(Tensor(rng.normal(size=(1, 8))),
                             Tensor(rng.normal(size=(1, 4))),
                             Tensor(rng.normal(size=(1, 16))),
                             Tensor(rng.normal(size=(1, 16))),
                             Tensor(rng.normal(size=(1, 16))))
        assert out.shape == (1, 44)

    def test_block_order(self):
        e_o = Tensor(np.full((1, 2), 1.0))
        e_u = Tensor(np.full((1, 2), 2.0))
        vec = Tensor(np.full((1, 2), 3.0))
        e_t = Tensor(np.full((1, 2), 4.0))
        e_c = Tensor(np.full((1, 2), 0.25))
        out = assemble_input(e_o, e_u, vec, e_t, e_c)
        np.testing.assert_array_equal(
            out.data, [[1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.25, 4.25]])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            assemble_input(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2))),
                           Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 4))),
                           Tensor(np.zeros((1, 4))))
