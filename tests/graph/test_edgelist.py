"""Unit tests for repro.graph.edgelist."""

import numpy as np
import pytest

from repro.graph import EdgeList


class TestConstruction:
    def test_basic_construction(self):
        e = EdgeList([0, 1], [1, 2])
        assert e.n_edges == 2
        assert e.n_vertices == 3
        assert not e.is_weighted

    def test_weights_attached(self):
        e = EdgeList([0, 1], [1, 0], weights=[0.5, 2.0])
        assert e.is_weighted
        np.testing.assert_allclose(e.effective_weights(), [0.5, 2.0])

    def test_explicit_n_vertices(self):
        e = EdgeList([0], [1], n_vertices=10)
        assert e.n_vertices == 10

    def test_n_vertices_too_small_rejected(self):
        with pytest.raises(ValueError, match="smaller than"):
            EdgeList([0, 5], [1, 2], n_vertices=3)

    def test_negative_vertex_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            EdgeList([-1], [0])

    @pytest.mark.parametrize("n_vertices", [None, 3])
    @pytest.mark.parametrize("bad", [-1, np.iinfo(np.int64).min])
    @pytest.mark.parametrize("side", ["src", "dst"])
    def test_negative_vertex_rejected_on_either_side(self, side, bad, n_vertices):
        """A negative id reads as >= 2**63 unsigned; the most negative
        int64 (exactly 2**63) is caught too, with or without a bound."""
        ends = {"src": [0, 1], "dst": [1, 2]}
        ends[side] = [1, bad]
        with pytest.raises(ValueError, match="vertex ids must be non-negative"):
            EdgeList(ends["src"], ends["dst"], n_vertices=n_vertices)

    def test_bound_checked_before_sign(self):
        """An id past ``n_vertices`` next to a negative one names the bound."""
        with pytest.raises(ValueError, match=r"smaller than the largest endpoint \+ 1 \(10\)"):
            EdgeList([-1, 9], [0, 0], n_vertices=3)

    def test_id_equal_to_n_vertices_rejected(self):
        with pytest.raises(ValueError, match=r"n_vertices=3 is smaller .* \(4\)"):
            EdgeList([0, 3], [1, 2], n_vertices=3)
        assert EdgeList([0, 2], [1, 2], n_vertices=3).n_vertices == 3

    @pytest.mark.parametrize("n_vertices, expected", [(None, 0), (4, 4)])
    def test_empty_arrays_validate(self, n_vertices, expected):
        e = EdgeList(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                     n_vertices=n_vertices)
        assert e.n_vertices == expected and e.n_edges == 0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            EdgeList([0, 1], [1])

    def test_mismatched_weight_length_rejected(self):
        with pytest.raises(ValueError, match="weights length"):
            EdgeList([0, 1], [1, 0], weights=[1.0])

    def test_empty_edge_list(self):
        e = EdgeList([], [])
        assert e.n_edges == 0
        assert e.n_vertices == 0
        assert e.out_degrees().size == 0

    def test_dtype_coercion(self):
        e = EdgeList(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert e.src.dtype == np.int64
        assert e.dst.dtype == np.int64


class TestArrayRoundTrip:
    def test_as_array_shape_and_content(self, tiny_edges):
        E = tiny_edges.as_array()
        assert E.shape == (4, 3)
        np.testing.assert_allclose(E[:, 2], [1, 2, 1, 5])

    def test_from_array_weighted(self, tiny_edges):
        back = EdgeList.from_array(tiny_edges.as_array(), n_vertices=5)
        assert back == tiny_edges

    def test_from_array_two_columns(self):
        e = EdgeList.from_array(np.array([[0, 1], [1, 2]]))
        assert not e.is_weighted
        assert e.n_edges == 2

    def test_from_array_bad_shape(self):
        with pytest.raises(ValueError, match="expected"):
            EdgeList.from_array(np.zeros((3, 4)))


class TestTransformations:
    def test_copy_is_independent(self, tiny_edges):
        c = tiny_edges.copy()
        c.src[0] = 4
        assert tiny_edges.src[0] == 0

    def test_with_weights(self, tiny_edges):
        w = np.ones(4)
        new = tiny_edges.with_weights(w)
        np.testing.assert_allclose(new.effective_weights(), 1.0)
        # topology shared semantics: same endpoints
        np.testing.assert_array_equal(new.src, tiny_edges.src)

    def test_permute_edges_preserves_multiset(self, tiny_edges):
        perm = np.array([3, 2, 1, 0])
        p = tiny_edges.permute_edges(perm)
        assert sorted(zip(p.src, p.dst)) == sorted(zip(tiny_edges.src, tiny_edges.dst))

    def test_permute_edges_bad_length(self, tiny_edges):
        with pytest.raises(ValueError):
            tiny_edges.permute_edges(np.array([0, 1]))

    def test_reverse_swaps_endpoints(self, tiny_edges):
        r = tiny_edges.reverse()
        np.testing.assert_array_equal(r.src, tiny_edges.dst)
        np.testing.assert_array_equal(r.dst, tiny_edges.src)

    def test_iteration_yields_triples(self, tiny_edges):
        triples = list(tiny_edges)
        assert triples[0] == (0, 1, 1.0)
        assert len(triples) == 4


class TestStatistics:
    def test_out_degrees(self, tiny_edges):
        np.testing.assert_array_equal(tiny_edges.out_degrees(), [2, 0, 0, 1, 1])

    def test_in_degrees(self, tiny_edges):
        np.testing.assert_array_equal(tiny_edges.in_degrees(), [0, 2, 1, 0, 1])

    def test_self_loops_detected(self, tiny_edges):
        assert tiny_edges.has_self_loops()
        assert not EdgeList([0], [1]).has_self_loops()

    def test_total_weight(self, tiny_edges):
        assert tiny_edges.total_weight() == pytest.approx(9.0)
