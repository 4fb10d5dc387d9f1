"""E7: every implementation computes the same embedding as the reference.

This is the paper's §III claim ("GEE-Ligra ... computes the same values on
the same input") verified across all implementations, backends, graph
shapes, label densities and edge orderings, including property-based tests
over randomly generated inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.core import gee_ligra, gee_parallel, gee_python, gee_vectorized
from repro.graph import EdgeList, erdos_renyi, rmat, star_graph, symmetrize
from repro.graph.io import ChunkedEdgeSource
from repro.labels import random_partial_labels

ATOL = 1e-9


def _implementations():
    return {
        "vectorized": lambda e, y, k: gee_vectorized(e, y, k),
        "vectorized-chunked": lambda e, y, k: get_backend("vectorized").embed(
            ChunkedEdgeSource.from_edgelist(e, chunk_edges=97), y, k
        ),
        "ligra-serial": lambda e, y, k: gee_ligra(e, y, k, backend="serial"),
        "ligra-vectorized": lambda e, y, k: gee_ligra(e, y, k, backend="vectorized"),
        "ligra-threads": lambda e, y, k: gee_ligra(e, y, k, backend="threads", n_workers=4),
        "parallel-1": lambda e, y, k: gee_parallel(e, y, k, n_workers=1),
        "parallel-4": lambda e, y, k: gee_parallel(e, y, k, n_workers=4),
    }


GRAPH_CASES = {
    "erdos-renyi": lambda: erdos_renyi(150, 900, seed=3),
    "erdos-renyi-weighted": lambda: erdos_renyi(150, 900, seed=4, weighted=True),
    "rmat-skewed": lambda: rmat(8, edge_factor=6, seed=5),
    "undirected": lambda: symmetrize(erdos_renyi(100, 400, seed=6)),
    "star": lambda: star_graph(50),
}


@pytest.mark.parametrize("impl_name", sorted(_implementations()))
@pytest.mark.parametrize("graph_name", sorted(GRAPH_CASES))
def test_matches_reference_on_graph_zoo(impl_name, graph_name):
    edges = GRAPH_CASES[graph_name]()
    y = random_partial_labels(edges.n_vertices, 7, 0.3, seed=1)
    reference = gee_python(edges, y, 7).embedding
    result = _implementations()[impl_name](edges, y, 7)
    np.testing.assert_allclose(result.embedding, reference, atol=ATOL)
    np.testing.assert_allclose(result.projection, gee_python(edges, y, 7).projection, atol=ATOL)


@pytest.mark.parametrize("labelled_fraction", [0.0, 0.05, 0.5, 1.0])
def test_label_density_sweep(labelled_fraction):
    edges = erdos_renyi(120, 700, seed=9)
    y = random_partial_labels(edges.n_vertices, 10, labelled_fraction, seed=2)
    reference = gee_python(edges, y, 10).embedding
    for name, impl in _implementations().items():
        np.testing.assert_allclose(
            impl(edges, y, 10).embedding, reference, atol=ATOL, err_msg=name
        )


def test_edge_order_invariance():
    """Permuting the edge list must not change the embedding (commutativity)."""
    edges = erdos_renyi(80, 500, seed=11, weighted=True)
    y = random_partial_labels(80, 5, 0.4, seed=3)
    base = gee_vectorized(edges, y, 5).embedding
    rng = np.random.default_rng(0)
    for _ in range(3):
        perm = rng.permutation(edges.n_edges)
        shuffled = edges.permute_edges(perm)
        np.testing.assert_allclose(gee_vectorized(shuffled, y, 5).embedding, base, atol=ATOL)


def test_csr_input_equals_edgelist_input():
    edges = erdos_renyi(100, 600, seed=13)
    y = random_partial_labels(100, 6, 0.3, seed=5)
    from_edges = gee_parallel(edges, y, 6, n_workers=2).embedding
    from_csr = gee_parallel(edges.to_csr(), y, 6, n_workers=2).embedding
    np.testing.assert_allclose(from_edges, from_csr, atol=ATOL)
    ligra_csr = gee_ligra(edges.to_csr(), y, 6, backend="vectorized").embedding
    np.testing.assert_allclose(ligra_csr, from_edges, atol=ATOL)


def test_atomics_on_off_same_result():
    """The paper's atomics-off run: unsafe updates change nothing serially,
    and the lock-striped threads backend stays exact."""
    edges = rmat(7, edge_factor=8, seed=17)
    y = random_partial_labels(edges.n_vertices, 8, 0.5, seed=7)
    ref = gee_python(edges, y, 8).embedding
    on = gee_ligra(edges, y, 8, backend="threads", n_workers=4, atomic=True).embedding
    off = gee_ligra(edges, y, 8, backend="serial", atomic=False).embedding
    np.testing.assert_allclose(on, ref, atol=ATOL)
    np.testing.assert_allclose(off, ref, atol=ATOL)


@st.composite
def graph_and_labels(draw):
    n = draw(st.integers(2, 40))
    s = draw(st.integers(0, 120))
    k = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=s)
    dst = rng.integers(0, n, size=s)
    weights = rng.uniform(0.1, 2.0, size=s) if draw(st.booleans()) else None
    labels = rng.integers(-1, k, size=n)
    if np.all(labels == -1):
        labels[0] = 0
    return EdgeList(src, dst, weights, n), labels.astype(np.int64), k


class TestPropertyBased:
    @given(case=graph_and_labels())
    @settings(max_examples=40, deadline=None)
    def test_vectorized_equals_reference(self, case):
        edges, labels, k = case
        ref = gee_python(edges, labels, k).embedding
        vec = gee_vectorized(edges, labels, k).embedding
        np.testing.assert_allclose(vec, ref, atol=ATOL)

    @given(case=graph_and_labels())
    @settings(max_examples=25, deadline=None)
    def test_ligra_serial_equals_reference(self, case):
        edges, labels, k = case
        ref = gee_python(edges, labels, k).embedding
        lig = gee_ligra(edges, labels, k, backend="serial").embedding
        np.testing.assert_allclose(lig, ref, atol=ATOL)

    @given(case=graph_and_labels())
    @settings(max_examples=15, deadline=None)
    def test_parallel_equals_reference(self, case):
        edges, labels, k = case
        ref = gee_python(edges, labels, k).embedding
        par = gee_parallel(edges, labels, k, n_workers=2).embedding
        np.testing.assert_allclose(par, ref, atol=ATOL)

    @given(case=graph_and_labels())
    @settings(max_examples=25, deadline=None)
    def test_embedding_mass_equals_weighted_known_degree(self, case):
        """Invariant: sum(Z) equals the total normalised contribution mass.

        Every edge endpoint with a known label contributes exactly
        ``w / count(class)`` to one cell, so the total embedding mass equals
        the sum over edges of those normalised weights.
        """
        edges, labels, k = case
        res = gee_vectorized(edges, labels, k)
        scales = np.zeros(edges.n_vertices)
        known = labels >= 0
        counts = np.bincount(labels[known], minlength=k)
        scales[known] = 1.0 / counts[labels[known]]
        w = edges.effective_weights()
        expected = float(np.sum(w * scales[edges.dst]) + np.sum(w * scales[edges.src]))
        assert res.embedding.sum() == pytest.approx(expected, abs=1e-8)
