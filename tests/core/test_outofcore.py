"""Out-of-core chunked execution: correctness, memory bounds, wiring.

The acceptance bar for the one chunked pass:

* a unit-weight chunked embedding is bitwise the default plan's at every
  chunk size, on every chunk-capable backend, for in-memory, file-backed
  (memory-mapped) and segmented sources, fully, partly and not labelled;
* a weighted one is bitwise with one chunk and within 1e-12 with more;
* ``parallel`` runs it serially: one worker, no pool, no shared memory;
* the edge pass's peak temporary allocation is bounded by the caller's
  memory budget (asserted with tracemalloc against a warm plan, so the
  vertex-side output buffer is excluded);
* the chunked path is reachable from every entry point it is wired
  through: ``Graph.plan(K, chunk_edges=...)``, backend ``embed`` on a
  ``ChunkedEdgeSource``, ``GraphEncoderEmbedding.fit(chunk_edges=...)``
  and ``gee_unsupervised(chunk_edges=...)``.
"""

from __future__ import annotations

import importlib
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.backends import backend_capabilities, get_backend, list_backends
from repro.core.api import GraphEncoderEmbedding
from repro.core.plan import ChunkedPlan, EmbedPlan
from repro.core.refinement import gee_unsupervised
from repro.graph import erdos_renyi
from repro.graph.facade import Graph
from repro.graph.edgelist import EdgeList
from repro.graph.io import CHUNK_BYTES_PER_EDGE, ChunkedEdgeSource, save_chunked
from repro.labels import random_partial_labels
from repro.stream import SegmentedEdgeStore

parallel_module = importlib.import_module("repro.core.gee_parallel")

CHUNKED_BACKENDS = sorted(
    name for name in list_backends() if backend_capabilities(name).supports_chunked
)

K = 5


@pytest.fixture(scope="module")
def case():
    edges = erdos_renyi(300, 5000, seed=3, weighted=True)
    labels = random_partial_labels(300, K, 0.5, seed=1)
    graph = Graph.coerce(edges)
    reference = get_backend("python").embed(graph, labels, K).detached().embedding
    return edges, labels, graph, reference


@pytest.fixture(scope="module")
def store(case, tmp_path_factory):
    edges, _, _, _ = case
    return save_chunked(edges, tmp_path_factory.mktemp("ooc") / "store")


def test_chunked_backend_set_is_declared():
    assert CHUNKED_BACKENDS == ["auto", "parallel", "vectorized"]


# --------------------------------------------------------------------------- #
# Equivalence: chunked == in-memory, all chunk sizes, all capable backends
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend_name", CHUNKED_BACKENDS)
def test_chunked_equals_in_memory(case, backend_name):
    edges, labels, graph, _ = case
    backend = get_backend(backend_name)
    baseline = backend.embed_with_plan(graph.plan(K), labels).detached().embedding
    E = edges.n_edges
    for chunk_edges in (1, E // 7, E):
        plan = graph.plan(K, chunk_edges=chunk_edges)
        assert isinstance(plan, ChunkedPlan)
        chunked = backend.embed_with_plan(plan, labels).detached().embedding
        np.testing.assert_allclose(
            chunked, baseline, atol=1e-12, rtol=1e-12,
            err_msg=f"{backend_name} chunk_edges={chunk_edges}",
        )
        if chunk_edges == E:
            # One weighted chunk sums every slot in the default plan's order.
            assert np.array_equal(chunked, baseline), backend_name


def _unit_case():
    rng = np.random.default_rng(5)
    n = 60
    edges = EdgeList(rng.integers(0, n, 400), rng.integers(0, n, 400), n_vertices=n)
    y = rng.integers(0, K, n)
    return edges, y


def _unit_sources(edges, kind, chunk_edges, tmp_path):
    """Chunked plans over the same edges: in memory, on disk, segmented."""
    if kind == "in-memory":
        return Graph.coerce(edges).plan(K, chunk_edges=chunk_edges)
    if kind == "file":
        store = save_chunked(edges, tmp_path / f"store-{chunk_edges}")
        return ChunkedPlan(ChunkedEdgeSource.open(store, chunk_edges=chunk_edges), K)
    half = edges.n_edges // 2
    store = SegmentedEdgeStore.create(
        tmp_path / f"segments-{chunk_edges}",
        EdgeList(edges.src[:half], edges.dst[:half], n_vertices=edges.n_vertices),
    )
    store.append(
        EdgeList(edges.src[half:], edges.dst[half:], n_vertices=edges.n_vertices)
    )
    return ChunkedPlan(store.source(chunk_edges=chunk_edges), K)


@pytest.mark.parametrize("labelled", ["full", "partial", "none"])
@pytest.mark.parametrize("kind", ["in-memory", "file", "segmented"])
@pytest.mark.parametrize("backend_name", CHUNKED_BACKENDS)
def test_unit_weight_chunks_equal_default_plan_bitwise(
    backend_name, kind, labelled, tmp_path
):
    """Unit weights sum exact integers, so any chunking of any source kind
    embeds bitwise the default plan."""
    edges, y = _unit_case()
    if labelled == "partial":
        y = np.where(np.arange(y.size) % 3 == 0, -1, y)
    elif labelled == "none":
        y = np.full(y.size, -1)
    default = (
        get_backend("vectorized")
        .embed_with_plan(Graph.coerce(edges).plan(K), y)
        .detached()
        .embedding
    )
    n_workers = 2 if backend_capabilities(backend_name).supports_n_workers else None
    backend = get_backend(backend_name, n_workers=n_workers)
    E = edges.n_edges
    for chunk_edges in (1, 7, E // 7, E):
        plan = _unit_sources(edges, kind, chunk_edges, tmp_path)
        result = backend.embed_with_plan(plan, y)
        assert result.n_workers == 1 and result.layout == "none"
        assert np.array_equal(result.embedding, default), (backend_name, chunk_edges)


@pytest.mark.parametrize("backend_name", CHUNKED_BACKENDS)
def test_file_backed_source_matches_reference(case, store, backend_name):
    _, labels, _, reference = case
    source = ChunkedEdgeSource.open(store, chunk_edges=617)
    result = get_backend(backend_name).embed(source, labels, K).detached()
    np.testing.assert_allclose(result.embedding, reference, atol=1e-10)


def test_parallel_chunked_multi_worker_matches(case, store):
    _, labels, _, reference = case
    source = ChunkedEdgeSource.open(store, chunk_edges=500)
    result = get_backend("parallel", n_workers=3).embed(source, labels, K).detached()
    np.testing.assert_allclose(result.embedding, reference, atol=1e-10)


def _shm_segments():
    shm = Path("/dev/shm")
    if not shm.is_dir():  # pragma: no cover - platforms without /dev/shm
        return set()
    return {name for name in os.listdir(shm) if name.startswith("psm_")}


def test_parallel_chunked_runs_the_serial_pass(case, store):
    """``parallel`` runs a chunked plan with the one serial pass: it reports
    one worker, starts no pool and leaves no shared-memory segment."""
    edges, labels, _, reference = case
    parallel_module.shutdown_workers()
    before = _shm_segments()
    backend = get_backend("parallel", n_workers=4)
    for source in (
        ChunkedEdgeSource.from_edgelist(edges, chunk_edges=-(-edges.n_edges // 2)),
        ChunkedEdgeSource.open(store, chunk_edges=500),
    ):
        result = backend.embed(source, labels, K)
        assert result.n_workers == 1
        np.testing.assert_allclose(result.embedding, reference, atol=1e-10)
    assert parallel_module._POOL is None
    assert _shm_segments() - before == set()


def test_unlabelled_vertices_and_unweighted_store(tmp_path):
    # Unweighted store round-trips without a weights column; partially
    # labelled graphs exercise the masked scatter path of every chunk.
    edges = erdos_renyi(120, 900, seed=9)
    labels = random_partial_labels(120, 3, 0.3, seed=2)
    reference = get_backend("python").embed(edges, labels, 3).embedding
    store = save_chunked(edges, tmp_path / "store")
    source = ChunkedEdgeSource.open(store, chunk_edges=97)
    assert not source.is_weighted
    for backend_name in CHUNKED_BACKENDS:
        out = get_backend(backend_name).embed(source, labels, 3).detached().embedding
        np.testing.assert_allclose(out, reference, atol=1e-10, err_msg=backend_name)


# --------------------------------------------------------------------------- #
# Memory bounds
# --------------------------------------------------------------------------- #
def test_budget_resolves_chunk_size_and_bounds_blocks():
    edges = erdos_renyi(50, 4000, seed=0)
    budget = 64 << 10
    source = ChunkedEdgeSource.from_edgelist(edges, memory_budget_bytes=budget)
    assert source.chunk_edges == budget // CHUNK_BYTES_PER_EDGE
    total = 0
    for src, dst, w in source.iter_chunks():
        assert src.size <= source.chunk_edges
        # The yielded triple itself stays well inside the budget.
        assert src.nbytes + dst.nbytes + (0 if w is None else w.nbytes) <= budget
        total += src.size
    assert total == edges.n_edges


@pytest.mark.parametrize("kind", ["memory", "file", "segments"])
def test_unweighted_chunks_carry_no_weights(tmp_path, kind):
    edges = erdos_renyi(40, 300, seed=4)
    if kind == "memory":
        source = ChunkedEdgeSource.from_edgelist(edges, chunk_edges=64)
    elif kind == "file":
        source = ChunkedEdgeSource.open(save_chunked(edges, tmp_path / "s"), chunk_edges=64)
    else:
        store = SegmentedEdgeStore.create(tmp_path / "seg", edges)
        store.append(erdos_renyi(40, 20, seed=5))
        source = store.source(chunk_edges=64)
    chunks = list(source.iter_chunks())
    assert len(chunks) > 1 and all(w is None for _, _, w in chunks)


@pytest.mark.parametrize("backend_name", ["vectorized", "parallel"])
def test_peak_allocation_bounded_by_budget(backend_name):
    # A graph whose one-shot edge-pass temporaries far exceed the budget.
    edges = erdos_renyi(400, 60000, seed=3, weighted=True)
    labels = random_partial_labels(400, 4, 0.5, seed=1)
    graph = Graph.coerce(edges)
    budget = 256 << 10

    backend = get_backend(backend_name)
    plan = graph.plan(4, memory_budget_bytes=budget)
    full_plan = graph.plan(4)
    # Warm both paths so reusable buffers and cached views (the vertex-side
    # state the budget does not govern) exist before tracing.
    backend.embed_with_plan(plan, labels)
    backend.embed_with_plan(full_plan, labels)

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        backend.embed_with_plan(plan, labels)
        _, peak_chunked = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        backend.embed_with_plan(full_plan, labels)
        _, peak_full = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    # The chunked pass stays inside the budget; the default plan's full
    # pass (the thing the budget protects against) does not.  ``parallel``
    # runs a default plan on the sorted layout, whose temporaries are
    # L2-sized blocks, so the contrast assertion only applies to the
    # default plan's pass.
    assert peak_chunked <= budget, (peak_chunked, budget)
    if backend_name == "vectorized":
        assert peak_full > budget, (peak_full, budget)


# --------------------------------------------------------------------------- #
# Plan caching and wiring
# --------------------------------------------------------------------------- #
def test_chunked_plans_cached_per_chunk_size(case):
    edges, _, _, _ = case
    graph = Graph.coerce(edges.copy())
    p1 = graph.plan(K, chunk_edges=100)
    p2 = graph.plan(K, chunk_edges=100)
    p3 = graph.plan(K, chunk_edges=200)
    full = graph.plan(K)
    assert p1 is p2
    assert p3 is not p1
    assert isinstance(full, EmbedPlan) and full is graph.plan(K)


def test_budget_and_chunk_edges_are_exclusive(case):
    edges, _, _, _ = case
    with pytest.raises(ValueError, match="not both"):
        ChunkedEdgeSource.from_edgelist(
            edges, chunk_edges=10, memory_budget_bytes=1 << 20
        )
    with pytest.raises(ValueError, match="positive"):
        ChunkedEdgeSource.from_edgelist(edges, chunk_edges=0)


def test_non_chunk_capable_backends_reject(case):
    edges, labels, graph, _ = case
    source = ChunkedEdgeSource.from_edgelist(edges, chunk_edges=100)
    plan = graph.plan(K, chunk_edges=100)
    for name in list_backends():
        if backend_capabilities(name).supports_chunked:
            continue
        backend = get_backend(name)
        with pytest.raises(ValueError, match="chunked"):
            backend.embed(source, labels, K)
        with pytest.raises(ValueError, match="chunked"):
            backend.embed_with_plan(plan, labels)


def test_source_cannot_be_coerced_to_graph(case):
    edges, _, _, _ = case
    source = ChunkedEdgeSource.from_edgelist(edges, chunk_edges=100)
    with pytest.raises(TypeError, match="ChunkedEdgeSource"):
        Graph.coerce(source)
    roundtrip = source.to_edgelist()
    assert roundtrip == edges


def test_estimator_fit_chunk_edges(case, store):
    edges, labels, _, reference = case
    model = GraphEncoderEmbedding(K, method="vectorized").fit(
        edges, labels, chunk_edges=123
    )
    np.testing.assert_allclose(model.embedding_, reference, atol=1e-10)
    # File-backed source straight into fit, re-blocked by the fit kwarg.
    source = ChunkedEdgeSource.open(store)
    model2 = GraphEncoderEmbedding(K, method="parallel").fit(
        source, labels, chunk_edges=611
    )
    np.testing.assert_allclose(model2.embedding_, reference, atol=1e-10)
    # Downstream helpers keep working on an out-of-core fit.
    assert model2.predict().shape == (edges.n_vertices,)
    # Budget-based re-blocking of an opened store, same result.
    model3 = GraphEncoderEmbedding(K, method="vectorized").fit(
        ChunkedEdgeSource.open(store), labels, memory_budget_bytes=128 << 10
    )
    np.testing.assert_allclose(model3.embedding_, reference, atol=1e-10)


def test_estimator_fit_chunked_rejects_incapable_backend(case, store):
    _, labels, _, _ = case
    source = ChunkedEdgeSource.open(store)
    with pytest.raises(ValueError, match="chunked"):
        GraphEncoderEmbedding(K, method="python").fit(source, labels)


def test_estimator_fit_chunked_rejects_laplacian(case, store):
    _, labels, _, _ = case
    source = ChunkedEdgeSource.open(store)
    with pytest.raises(ValueError, match="laplacian"):
        GraphEncoderEmbedding(K, method="vectorized", laplacian=True).fit(
            source, labels
        )


def test_unsupervised_chunked_matches_full(case):
    edges, _, _, _ = case
    kwargs = dict(max_iterations=6, seed=7, implementation="vectorized")
    full = gee_unsupervised(edges, 3, **kwargs)
    chunked = gee_unsupervised(edges, 3, chunk_edges=700, **kwargs)
    np.testing.assert_array_equal(full.labels, chunked.labels)
    np.testing.assert_allclose(full.embedding, chunked.embedding, atol=1e-10)
    assert chunked.n_delta_passes == full.n_delta_passes


def test_unsupervised_chunked_default_implementation_works(case):
    # The default implementation is the "vectorized" registry backend.
    edges, _, _, _ = case
    result = gee_unsupervised(edges, 3, max_iterations=3, seed=7, chunk_edges=700)
    assert result.embedding.shape == (edges.n_vertices, 3)


def test_unsupervised_chunked_requires_registry_backend(case):
    edges, _, _, _ = case
    from repro.core.laplacian import gee_laplacian

    with pytest.raises(ValueError, match="registry"):
        gee_unsupervised(
            edges, 3, implementation=gee_laplacian, chunk_edges=100, max_iterations=2
        )


def test_unsupervised_chunked_rejects_the_bare_vectorized_callable(case):
    # Only a registry backend streams a chunked plan; the bare function is
    # not mapped to one.
    edges, _, _, _ = case
    from repro.core import gee_vectorized

    with pytest.raises(ValueError, match="registry"):
        gee_unsupervised(
            edges, 3, implementation=gee_vectorized, chunk_edges=100, max_iterations=2
        )


def test_save_chunked_streams_from_source(case, store, tmp_path):
    # Store-to-store conversion goes chunk by chunk (never materialises).
    edges, _, _, _ = case
    source = ChunkedEdgeSource.open(store, chunk_edges=333)
    copy = save_chunked(source, tmp_path / "copy")
    reopened = ChunkedEdgeSource.open(copy)
    assert reopened.to_edgelist() == edges
