"""Unit tests for repro.graph.csr."""

import numpy as np
import pytest

from repro.graph import CSRGraph, EdgeList, Graph, erdos_renyi
from repro.graph.csr import _row_slots


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
        """The out-adjacency keeps arrival order within each row."""
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


class TestRowSlots:
    @pytest.mark.parametrize(
        "rows",
        [[3, 0, 7, 7, 2], [5], [], list(range(10))],
        ids=["unsorted-repeats", "one", "none", "all"],
    )
    def test_matches_a_loop_over_rows(self, rows):
        """One ragged gather equals the per-row ``arange`` it replaces,
        including empty rows and rows listed twice."""
        indptr = np.array([0, 2, 2, 5, 9, 9, 10, 10, 14, 15, 15], dtype=np.int64)
        rows = np.asarray(rows, dtype=np.int64)
        owners, slots = _row_slots(indptr, rows)
        expected = [
            (r, i) for r in rows.tolist() for i in range(indptr[r], indptr[r + 1])
        ]
        assert owners.tolist() == [r for r, _ in expected]
        assert slots.tolist() == [i for _, i in expected]
        assert slots.dtype == np.int64

    def test_symmetric_rows_list_in_and_out_edges(self, tiny_edges):
        """The sorted plan's symmetric CSR, which replaced the in-adjacency,
        lists every edge at a vertex in its row, in either direction."""
        fused = Graph.coerce(tiny_edges).plan(2, layout="sorted").fused
        _, slots = _row_slots(fused.indptr, np.array([1]))
        # Vertex 1 has in-edges from 0 and 3 and no out-edges.
        assert fused.partner[slots].tolist() == [0, 3]
        np.testing.assert_array_equal(
            np.diff(fused.indptr), tiny_edges.out_degrees() + tiny_edges.in_degrees()
        )
        assert fused.weights.sum() == pytest.approx(2 * tiny_edges.total_weight())


class TestLargeRandom:
    def test_degree_sums_match_edge_count(self):
        edges = erdos_renyi(1000, 5000, seed=3)
        csr = edges.to_csr()
        assert csr.out_degrees().sum() == 5000
