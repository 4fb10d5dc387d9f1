"""Tests for the Graph facade: coercion and cached derived views."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import GraphEncoderEmbedding
from repro.core import gee_ligra, gee_parallel, gee_vectorized
from repro.graph import CSRGraph, EdgeList, Graph, as_edgelist, as_graph, erdos_renyi
from repro.graph.csr import CSRGraph as CSRGraphDirect
from repro.labels import mask_labels, random_partial_labels


@pytest.fixture(scope="module")
def base_case():
    edges = erdos_renyi(120, 700, seed=21, weighted=True)
    y = random_partial_labels(120, 4, 0.4, seed=21)
    return edges, y


class TestCoercion:
    def test_graph_passes_through_with_caches(self, base_case):
        edges, _ = base_case
        g = Graph.coerce(edges)
        _ = g.csr  # populate a cache
        assert Graph.coerce(g) is g
        assert "csr" in g.cached_views()

    def test_csr_input_is_adopted_not_rebuilt(self, base_case):
        edges, _ = base_case
        csr = edges.to_csr()
        g = Graph.coerce(csr)
        assert g.csr is csr
        # The O(s) edge-list expansion is lazy: CSR-consuming paths never
        # build it.
        assert g._edges is None
        assert g.n_vertices == csr.n_vertices and g.n_edges == csr.n_edges
        assert isinstance(g.edges, EdgeList)  # built on demand

    def test_tuple_and_array_inputs(self, base_case):
        edges, _ = base_case
        g_tuple = Graph.coerce((edges.src, edges.dst, edges.weights))
        assert g_tuple.n_edges == edges.n_edges
        arr = edges.as_array()
        g_arr = Graph.coerce(arr)
        np.testing.assert_array_equal(g_arr.edges.src, edges.src)
        with pytest.raises(ValueError, match="weights length"):
            Graph.coerce((edges.src, edges.dst, np.ones(edges.n_edges - 1)))

    @pytest.mark.parametrize("kind", ["csr", "scipy", "array", "tuple"])
    def test_unit_weight_inputs_compile_the_unit_weight_layout(self, kind):
        """A CSR's, scipy matrix's, ``(s, 3)`` array's or ``(src, dst,
        weights)`` tuple's all-ones weight column counts as no weights, as
        an unweighted EdgeList does, so the sorted layout stores no weight
        array and its embedding equals the EdgeList's bit for bit."""

        def coerce(edges):
            if kind == "csr":
                return Graph.coerce(edges.to_csr())
            if kind == "scipy":
                return Graph.coerce(edges.to_csr().to_scipy())
            if kind == "array":
                return Graph.coerce(edges.as_array())
            return Graph.coerce((edges.src, edges.dst, edges.effective_weights()))

        edges = erdos_renyi(200, 1500, seed=22)
        y = random_partial_labels(200, 4, 0.4, seed=22)
        g = coerce(edges)
        plan = g.plan(4, layout="sorted")
        assert plan.unit_weights
        assert plan.fused.weights is None
        assert not g.is_weighted
        assert np.array_equal(
            gee_vectorized(g, y, 4).embedding, gee_vectorized(edges, y, 4).embedding
        )
        g = coerce(erdos_renyi(200, 1500, seed=22, weighted=True))
        assert g.plan(4, layout="sorted").fused.weights is not None

    def test_non_graph_input_rejected(self):
        with pytest.raises(TypeError, match="graph-like"):
            Graph.coerce("not a graph")
        with pytest.raises(TypeError, match="graph-like"):
            Graph.coerce({"src": [0], "dst": [1]})

    def test_non_square_scipy_rejected(self):
        with pytest.raises(ValueError, match="square"):
            Graph.coerce(sp.csr_matrix(np.ones((2, 3))))

    def test_as_edgelist_helper(self, base_case):
        edges, _ = base_case
        assert as_edgelist(edges) is edges
        assert isinstance(as_edgelist(edges.as_array()), EdgeList)
        assert as_graph(edges).n_vertices == edges.n_vertices


class TestIdenticalEmbeddingsAcrossInputForms:
    """scipy-sparse / ndarray / CSR / EdgeList all embed identically."""

    def test_all_input_forms_agree(self, base_case):
        edges, y = base_case
        reference = gee_vectorized(edges, y, 4).embedding
        csr = edges.to_csr()
        forms = {
            "edgelist": edges,
            "graph": Graph.coerce(edges),
            "csr": csr,
            "ndarray3": edges.as_array(),
            "scipy-csr": csr.to_scipy(),
            "scipy-coo": csr.to_scipy().tocoo(),
        }
        for name, obj in forms.items():
            model = GraphEncoderEmbedding(method="vectorized").fit(obj, y)
            np.testing.assert_allclose(
                model.embedding_, reference, atol=1e-9, err_msg=name
            )

    def test_unweighted_two_column_array(self):
        edges = erdos_renyi(60, 300, seed=4)
        y = random_partial_labels(60, 3, 0.5, seed=4)
        arr2 = np.stack([edges.src, edges.dst], axis=1)
        a = GraphEncoderEmbedding(method="vectorized").fit(edges, y).embedding_
        b = GraphEncoderEmbedding(method="vectorized").fit(arr2, y).embedding_
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_functional_kernels_accept_graph_likes(self, base_case):
        edges, y = base_case
        reference = gee_vectorized(edges, y, 4).embedding
        g = Graph.coerce(edges)
        np.testing.assert_allclose(gee_ligra(g, y, 4).embedding, reference, atol=1e-9)
        np.testing.assert_allclose(
            gee_parallel(g, y, 4, n_workers=1).embedding, reference, atol=1e-9
        )
        np.testing.assert_allclose(
            gee_vectorized(edges.to_csr().to_scipy(), y, 4).embedding,
            reference,
            atol=1e-9,
        )


class TestCachedViews:
    def test_csr_built_once(self, base_case, monkeypatch):
        edges, _ = base_case
        g = Graph.coerce(edges)
        calls = {"n": 0}
        original = CSRGraphDirect.from_edgelist.__func__

        def counting(cls, e):
            calls["n"] += 1
            return original(cls, e)

        monkeypatch.setattr(CSRGraphDirect, "from_edgelist", classmethod(counting))
        first = g.csr
        second = g.csr
        assert first is second
        assert calls["n"] == 1

    def test_laplacian_view_cached_and_correct(self, base_case):
        from repro.core import laplacian_reweight

        edges, _ = base_case
        g = Graph.coerce(edges)
        lap = g.laplacian
        assert g.laplacian is lap  # cached, not recomputed
        expected = laplacian_reweight(edges)
        np.testing.assert_allclose(
            lap.edges.effective_weights(), expected.effective_weights(), atol=1e-12
        )

    def test_degree_views_cached(self, base_case):
        edges, _ = base_case
        g = Graph.coerce(edges)
        assert g.out_degrees is g.out_degrees
        assert g.in_degrees is g.in_degrees
        assert g.weighted_total_degrees is g.weighted_total_degrees
        np.testing.assert_array_equal(g.out_degrees, edges.out_degrees())

    def test_laplacian_fit_reuses_cached_view(self, base_case, monkeypatch):
        edges, y = base_case
        g = Graph.coerce(edges)
        model = GraphEncoderEmbedding(method="vectorized", laplacian=True)
        model.fit(g, y)
        first_lap = g.cached_views()
        assert "laplacian" in first_lap
        # A second fit on the same Graph must reuse the cached reweighting.
        lap_view = g.laplacian
        model.fit(g, y)
        assert g.laplacian is lap_view
