"""Unit tests for repro.graph.csr."""

import numpy as np
import pytest

from repro.graph import CSRGraph, EdgeList, erdos_renyi


class TestConstruction:
    def test_from_edgelist_basic(self, tiny_edges):
        g = CSRGraph.from_edgelist(tiny_edges)
        assert g.n_vertices == 5
        assert g.n_edges == 4
        np.testing.assert_array_equal(g.neighbors(0), [1, 2])
        np.testing.assert_allclose(g.neighbor_weights(0), [1.0, 2.0])
        assert g.out_degree(1) == 0

    def test_from_arrays(self):
        g = CSRGraph.from_arrays([0, 1, 1], [1, 2, 0])
        assert g.n_edges == 3
        assert g.out_degree(1) == 2

    def test_invalid_indptr_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(indptr=[1, 2], indices=[0], weights=[1.0])

    def test_decreasing_indptr_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            CSRGraph(indptr=[0, 2, 1, 3], indices=[0, 1, 2], weights=[1.0, 1.0, 1.0])

    def test_weight_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            CSRGraph(indptr=[0, 1], indices=[0], weights=[1.0, 2.0])

    @pytest.mark.parametrize(
        "bad, match",
        [(2, "smaller than the largest index"), (10**8, "smaller than the largest index"),
         (-1, "non-negative")],
        ids=["n", "far", "negative"],
    )
    def test_out_of_range_index_rejected(self, bad, match):
        """An index outside ``[0, n)`` would reach scipy and the kernels
        unchecked; construction refuses it."""
        with pytest.raises(ValueError, match=match):
            CSRGraph(indptr=[0, 1, 2], indices=[1, bad], weights=[1.0, 1.0])

    @pytest.mark.parametrize("kind", ["random", "duplicates", "empty"])
    def test_arrays_equal_stable_argsort_reference(self, kind):
        """Out- and in-adjacency keep arrival order within each row."""
        rng = np.random.default_rng(4)
        if kind == "random":
            src, dst, n = rng.integers(0, 300, 4000), rng.integers(0, 300, 4000), 310
        elif kind == "duplicates":
            src, dst, n = rng.integers(0, 4, 3000), rng.integers(0, 3, 3000), 5
        else:
            src, dst, n = np.empty(0, np.int64), np.empty(0, np.int64), 3
        w = rng.uniform(0.1, 2.0, src.size)
        g = CSRGraph.from_edgelist(EdgeList(src, dst, w, n))
        order = np.argsort(src, kind="stable")
        np.testing.assert_array_equal(g.indptr, np.r_[0, np.cumsum(np.bincount(src, minlength=n))])
        np.testing.assert_array_equal(g.indices, dst[order])
        np.testing.assert_array_equal(g.weights, w[order])
        in_order = np.argsort(g.indices, kind="stable")
        np.testing.assert_array_equal(
            g.in_indptr, np.r_[0, np.cumsum(np.bincount(dst, minlength=n))]
        )
        np.testing.assert_array_equal(g.in_indices, src[order][in_order])
        np.testing.assert_array_equal(g.in_weights, w[order][in_order])
        np.testing.assert_array_equal(g._in_edge_pos, in_order)


class TestRoundTrip:
    def test_edgelist_roundtrip_preserves_edges(self, random_graph):
        csr = random_graph.to_csr()
        back = csr.to_edgelist()
        assert back.n_edges == random_graph.n_edges
        orig = sorted(zip(random_graph.src, random_graph.dst))
        rt = sorted(zip(back.src, back.dst))
        assert orig == rt

    def test_scipy_adjacency_agrees(self, weighted_graph):
        csr = weighted_graph.to_csr()
        A = csr.to_scipy()
        assert A.shape == (weighted_graph.n_vertices,) * 2
        assert A.sum() == pytest.approx(weighted_graph.total_weight())

    def test_edge_sources_matches_indptr(self, random_graph):
        csr = random_graph.to_csr()
        srcs = csr.edge_sources()
        assert srcs.size == csr.n_edges
        # Every edge slot's source must own that slot in indptr.
        for u in range(0, csr.n_vertices, 97):
            lo, hi = csr.edge_slice(u)
            assert np.all(srcs[lo:hi] == u)


class TestInAdjacency:
    def test_in_degrees_match_edgelist(self, random_graph):
        csr = random_graph.to_csr()
        np.testing.assert_array_equal(csr.in_degrees(), random_graph.in_degrees())

    def test_in_neighbors_are_reverse_of_out(self, tiny_edges):
        csr = tiny_edges.to_csr()
        assert set(csr.in_neighbors(1).tolist()) == {0, 3}
        assert csr.in_neighbors(0).size == 0

    def test_transpose_swaps_degrees(self, random_graph):
        csr = random_graph.to_csr()
        t = csr.transpose()
        np.testing.assert_array_equal(t.out_degrees(), csr.in_degrees())
        np.testing.assert_array_equal(t.in_degrees(), csr.out_degrees())

    def test_in_weights_sum_preserved(self, weighted_graph):
        csr = weighted_graph.to_csr()
        assert csr.in_weights.sum() == pytest.approx(csr.weights.sum())


class TestLargeRandom:
    def test_degree_sums_match_edge_count(self):
        edges = erdos_renyi(1000, 5000, seed=3)
        csr = edges.to_csr()
        assert csr.out_degrees().sum() == 5000
        assert csr.in_degrees().sum() == 5000
