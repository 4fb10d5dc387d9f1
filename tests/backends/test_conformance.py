"""Cross-backend conformance matrix.

One systematic grid replaces the historical ad-hoc per-backend checks:
**every registry backend** × **every accepted input kind** (``EdgeList``,
``CSRGraph``, ``(s, 3)`` ndarray, ``scipy.sparse``, chunked source) ×
**every structural edge case** (weighted, unweighted, self-loops, isolated
vertices, duplicate edges) must produce the embedding of the pure-Python
reference loop to 1e-10 — the different execution strategies and input
codecs may only differ in floating-point summation order.

The matrix also enforces that declared :class:`BackendCapabilities` are
honoured: unsupported construction kwargs raise at ``get_backend`` time,
and backends without ``supports_chunked`` reject chunked inputs instead of
silently materialising them.  The atomics ablation's serial reference
(``ligra-serial`` with ``atomic=False``) runs the same grid.  Every backend
can refresh an ``IncrementalEmbedding``, whose removals then subtract exact
multiplicities.

Each backend gives one answer per input: ``embed`` runs the backend's plan
kernel on the default plan, so it is bitwise ``embed_with_plan`` on
``Graph.coerce(X).plan(K)``, and each functional ``gee_*`` name is bitwise
its backend's ``embed``.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.backends import (
    backend_aliases,
    backend_capabilities,
    get_backend,
    list_backends,
)
from repro.core import gee_ligra, gee_parallel, gee_sparse, gee_vectorized
from repro.graph import Graph
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.graph.io import ChunkedEdgeSource

ATOL = 1e-10
K = 3

#: Structural edge cases.  Each builds (EdgeList, labels); ~30 vertices so
#: the interpreted reference stays instant across the whole matrix.
GRAPH_KINDS = {}


def _register(name):
    def deco(fn):
        GRAPH_KINDS[name] = fn
        return fn

    return deco


def _labels(n, rng):
    y = rng.integers(0, K, size=n).astype(np.int64)
    y[rng.random(n) < 0.3] = -1  # partial labelling exercises the masks
    if np.all(y == -1):
        y[0] = 0
    return y


@_register("unweighted")
def _unweighted():
    rng = np.random.default_rng(11)
    src = rng.integers(0, 30, size=70)
    dst = rng.integers(0, 30, size=70)
    keep = src != dst
    return EdgeList(src[keep], dst[keep], None, 30), _labels(30, rng)


@_register("weighted")
def _weighted():
    rng = np.random.default_rng(12)
    src = rng.integers(0, 30, size=70)
    dst = rng.integers(0, 30, size=70)
    keep = src != dst
    w = rng.uniform(0.1, 4.0, size=int(keep.sum()))
    return EdgeList(src[keep], dst[keep], w, 30), _labels(30, rng)


@_register("self-loops")
def _self_loops():
    rng = np.random.default_rng(13)
    src = rng.integers(0, 25, size=60)
    dst = rng.integers(0, 25, size=60)
    src[:10] = dst[:10]  # guaranteed loops
    w = rng.uniform(0.5, 2.0, size=60)
    return EdgeList(src, dst, w, 25), _labels(25, rng)


@_register("isolated-vertices")
def _isolated():
    rng = np.random.default_rng(14)
    # Vertices 10..19 appear in no edge at all.  Keeping the isolated block
    # *interior* (vertex 39 is an endpoint) makes the graph representable by
    # every input kind — a bare (s, 3) array cannot carry trailing isolated
    # vertices, since n is inferred as max endpoint + 1.
    src = rng.integers(0, 30, size=50)
    dst = rng.integers(0, 30, size=50)
    src[src >= 10] += 10
    dst[dst >= 10] += 10
    src[0], dst[0] = 39, 0
    keep = src != dst
    return EdgeList(src[keep], dst[keep], None, 40), _labels(40, rng)


@_register("duplicate-edges")
def _duplicates():
    rng = np.random.default_rng(15)
    src = rng.integers(0, 20, size=30)
    dst = rng.integers(0, 20, size=30)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    # Repeat every edge two extra times with distinct weights.
    src = np.concatenate([src, src, src])
    dst = np.concatenate([dst, dst, dst])
    w = rng.uniform(0.1, 2.0, size=src.size)
    return EdgeList(src, dst, w, 20), _labels(20, rng)


INPUT_KINDS = ["edgelist", "csr", "ndarray", "scipy-sparse", "chunked"]


def _as_input(edges: EdgeList, kind: str):
    """Re-encode an edge list as one of the accepted input kinds.

    CSR re-sorts edges per source vertex and scipy COO→CSR merges
    duplicates — both preserve the per-cell sums GEE accumulates, so every
    encoding must embed identically up to summation order.
    """
    if kind == "edgelist":
        return edges
    if kind == "csr":
        return CSRGraph.from_edgelist(edges)
    if kind == "ndarray":
        return edges.as_array()  # (s, 3) with materialised unit weights
    if kind == "scipy-sparse":
        return sp.coo_matrix(
            (edges.effective_weights(), (edges.src, edges.dst)),
            shape=(edges.n_vertices, edges.n_vertices),
        )
    if kind == "chunked":
        return ChunkedEdgeSource.from_edgelist(edges, chunk_edges=7)
    raise AssertionError(kind)


@pytest.fixture(scope="module")
def references():
    """Reference embedding per graph kind, from the interpreted loop."""
    out = {}
    for kind, build in GRAPH_KINDS.items():
        edges, labels = build()
        out[kind] = (edges, labels, get_backend("python").embed(edges, labels, K))
    return out


@pytest.mark.parametrize("graph_kind", sorted(GRAPH_KINDS))
@pytest.mark.parametrize("input_kind", INPUT_KINDS)
@pytest.mark.parametrize("backend_name", sorted(list_backends()))
def test_conformance_matrix(references, backend_name, input_kind, graph_kind):
    edges, labels, reference = references[graph_kind]
    backend = get_backend(backend_name)
    graph_input = _as_input(edges, input_kind)

    if input_kind == "chunked" and not backend_capabilities(backend_name).supports_chunked:
        with pytest.raises(ValueError, match="chunked"):
            backend.embed(graph_input, labels, K)
        return

    result = backend.embed(graph_input, labels, K).detached()
    assert result.embedding.shape == (edges.n_vertices, K)
    np.testing.assert_allclose(
        result.embedding,
        reference.embedding,
        atol=ATOL,
        err_msg=f"{backend_name} on {input_kind}/{graph_kind} diverges from the "
        "python reference",
    )


@pytest.mark.parametrize("graph_kind", sorted(GRAPH_KINDS))
@pytest.mark.parametrize("input_kind", INPUT_KINDS)
def test_atomics_off_serial_matches_reference(references, input_kind, graph_kind):
    """``ligra-serial`` with ``atomic=False``, the serial reference the
    atomics ablation times (``benchmarks/bench_ablation_atomics.py``), adds
    without locks.  One worker has nothing to race, so it embeds every
    input bitwise like the locked default, and rejects chunked inputs."""
    edges, labels, reference = references[graph_kind]
    graph_input = _as_input(edges, input_kind)
    unlocked = get_backend("ligra-serial", atomic=False)
    if input_kind == "chunked":
        with pytest.raises(ValueError, match="chunked"):
            unlocked.embed(graph_input, labels, K)
        return
    embedding = unlocked.embed(graph_input, labels, K).embedding
    locked = get_backend("ligra-serial").embed(graph_input, labels, K).embedding
    assert np.array_equal(embedding, locked)
    np.testing.assert_allclose(embedding, reference.embedding, atol=ATOL)


# --------------------------------------------------------------------------- #
# One embed answer per backend
# --------------------------------------------------------------------------- #
#: Every backend but ``ligra-threads``, whose concurrent atomic adds sum in
#: schedule order, is bitwise reproducible.
BITWISE_BACKENDS = sorted(set(list_backends()) - {"ligra-threads"})
IN_MEMORY_KINDS = [kind for kind in INPUT_KINDS if kind != "chunked"]


def _labellings(n, k, seed):
    """Full, partial and no labels over ``k`` classes."""
    rng = np.random.default_rng(seed)
    full = rng.integers(0, k, size=n)
    partial = np.where(rng.random(n) < 0.5, -1, full)
    return {"full": full, "partial": partial, "none": np.full(n, -1)}


def _embed_cases():
    """(graph kind, K, labelling, edges, labels) over the edge cases."""
    for graph_kind, build in sorted(GRAPH_KINDS.items()):
        edges, _ = build()
        for k in (1, 3, 50, 130):
            for labelling, y in _labellings(edges.n_vertices, k, seed=k).items():
                yield graph_kind, k, labelling, edges, y


@pytest.mark.parametrize("input_kind", IN_MEMORY_KINDS)
@pytest.mark.parametrize("backend_name", BITWISE_BACKENDS)
def test_embed_is_the_default_plan_kernel(backend_name, input_kind):
    backend = get_backend(backend_name)
    for graph_kind, k, labelling, edges, y in _embed_cases():
        graph_input = _as_input(edges, input_kind)
        embedded = backend.embed(graph_input, y, k).embedding
        planned = backend.embed_with_plan(Graph.coerce(graph_input).plan(k), y)
        assert np.array_equal(embedded, planned.embedding), (
            f"{backend_name} on {input_kind}/{graph_kind}, K={k}, {labelling} "
            "labels: embed differs from embed_with_plan on the default plan"
        )


#: Functional name -> the registered backend whose ``embed`` it equals.
FUNCTIONAL_NAMES = {
    "gee_vectorized": (gee_vectorized, {}, "vectorized"),
    "gee_sparse": (gee_sparse, {}, "sparse"),
    "gee_ligra[serial]": (gee_ligra, {"backend": "serial"}, "ligra-serial"),
    "gee_ligra[vectorized]": (gee_ligra, {"backend": "vectorized"}, "ligra-vectorized"),
    "gee_parallel": (gee_parallel, {}, "parallel"),
}


@pytest.mark.parametrize("function_name", sorted(FUNCTIONAL_NAMES))
def test_functional_names_are_their_backends_embed(function_name):
    fn, kwargs, backend_name = FUNCTIONAL_NAMES[function_name]
    backend = get_backend(backend_name)
    for graph_kind, build in sorted(GRAPH_KINDS.items()):
        edges, labels = build()
        for input_kind in IN_MEMORY_KINDS:
            graph_input = _as_input(edges, input_kind)
            assert np.array_equal(
                fn(graph_input, labels, K, **kwargs).embedding,
                backend.embed(graph_input, labels, K).embedding,
            ), f"{function_name} on {input_kind}/{graph_kind}"


@pytest.mark.parametrize("backend_name", sorted(list_backends()))
def test_empty_graph_is_rejected(backend_name):
    empty = EdgeList(np.empty(0, np.int64), np.empty(0, np.int64), None, 0)
    with pytest.raises(ValueError, match="at least one vertex"):
        get_backend(backend_name).embed(empty, np.empty(0, np.int64), K)


# --------------------------------------------------------------------------- #
# Declared capabilities are honoured
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend_name", sorted(list_backends()))
def test_n_workers_capability_honoured(backend_name):
    caps = backend_capabilities(backend_name)
    if caps.supports_n_workers:
        assert get_backend(backend_name, n_workers=2).n_workers == 2
    else:
        with pytest.raises(ValueError, match="n_workers"):
            get_backend(backend_name, n_workers=2)


@pytest.mark.parametrize("backend_name", sorted(list_backends()))
def test_unknown_options_rejected(backend_name):
    with pytest.raises(TypeError, match="unsupported option"):
        get_backend(backend_name, definitely_not_an_option=True)


@pytest.mark.parametrize("backend_name", sorted(list_backends()))
def test_parallel_capability_consistent(backend_name):
    caps = backend_capabilities(backend_name)
    # A backend that cannot take workers cannot claim to run concurrently.
    if caps.parallel:
        assert caps.supports_n_workers


def test_aliases_resolve_to_registered_backends():
    names = set(list_backends())
    for alias, canonical in backend_aliases().items():
        assert canonical in names
        assert alias not in names


def test_chunk_capable_backends_cover_the_engine():
    # The out-of-core engine's contract: at least the vectorized and
    # parallel execution strategies run it.
    capable = {n for n in list_backends() if backend_capabilities(n).supports_chunked}
    assert {"vectorized", "parallel"} <= capable


# --------------------------------------------------------------------------- #
# Regression: duplicate-edge removal must not double-subtract
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend_name", sorted(list_backends()))
def test_multigraph_removal_subtracts_exact_multiplicity(backend_name):
    """Removing one instance of a duplicated edge must subtract one weight.

    A removal path keyed on (src, dst) pairs instead of edge *instances*
    would subtract every duplicate's contribution at once, silently
    corrupting the raw sums; the incremental embedding then diverges from a
    fresh fit on the mutated multigraph.  The live state starts from the
    backend's own embedding, so each backend is checked.
    """
    from repro.stream import DynamicGraph, IncrementalEmbedding

    # (0, 1) three times with distinct weights, plus a duplicated self-loop.
    edges = EdgeList(
        src=np.array([0, 0, 0, 2, 2, 1, 3]),
        dst=np.array([1, 1, 1, 2, 2, 3, 0]),
        weights=np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]),
        n_vertices=4,
    )
    labels = np.array([0, 1, 2, 0])
    dyn = DynamicGraph(edges)
    inc = IncrementalEmbedding(dyn, labels, n_classes=3, backend=backend_name)
    dyn.remove_edges([0, 2], [1, 2])  # one instance of each duplicated pair
    delta = dyn.commit()
    assert delta.removed_weights.tolist() == [1.0, 8.0]
    report = inc.update()
    assert report.incremental

    remaining = dyn.graph.edges
    assert remaining.n_edges == 5  # exactly one instance of each pair gone
    reference = get_backend("python").embed(remaining, labels, 3)
    np.testing.assert_allclose(
        inc.embedding,
        reference.embedding,
        atol=ATOL,
        err_msg=f"{backend_name} double-subtracted a duplicated edge",
    )


# --------------------------------------------------------------------------- #
# One compiled graph form outside the Ligra columns
# --------------------------------------------------------------------------- #
LIGRA_BACKENDS = {name for name in list_backends() if name.startswith("ligra-")}


@pytest.mark.parametrize("backend_name", sorted(list_backends()))
def test_only_the_ligra_backends_build_a_csr(backend_name):
    """The Ligra engines walk the graph's CSR.  Every other backend reads
    the edge arrays or the sorted plan's symmetric CSR, and builds none."""
    assert len(LIGRA_BACKENDS) == 3
    edges, labels = GRAPH_KINDS["weighted"]()
    graph = Graph.coerce(edges)
    get_backend(backend_name).embed(graph, labels, K)
    assert ("csr" in graph.cached_views()) == (backend_name in LIGRA_BACKENDS)


@pytest.mark.parametrize("graph_kind", ["unweighted", "weighted", "duplicate-edges"])
def test_sparse_multiplies_by_the_sorted_plans_arrays(graph_kind):
    """``sparse`` wraps the symmetric CSR that ``parallel`` reads: the graph
    holds one sorted plan, scipy holds its ``partner`` without a copy, and
    leaves it as it was."""
    edges, labels = GRAPH_KINDS[graph_kind]()
    graph = Graph.coerce(edges)
    parallel = get_backend("parallel", n_workers=1)
    before = parallel.embed(graph, labels, K).embedding.copy()
    get_backend("sparse").embed(graph, labels, K)
    sorted_plans = [
        plan for plan in graph._plans.values() if getattr(plan, "layout", None) == "sorted"
    ]
    assert len(sorted_plans) == 1
    fused = sorted_plans[0].fused
    matrix = sorted_plans[0].scipy_adjacency()
    assert np.shares_memory(matrix.indices, fused.partner)
    if fused.weights is not None:
        assert np.shares_memory(matrix.data, fused.weights)
    assert np.array_equal(parallel.embed(graph, labels, K).embedding, before)
