"""The owner-range executor behind ``parallel``: one row range per pool task.

``repro.core.gee_parallel.run_owner_ranges`` fills and rescales the rows of
each ``(row_lo, row_hi, label)`` range from the plan's sorted fused layout:
one range in process, several as one task each on the session pool, all
writing one output.  Every output slot sums its incidences in array order
whatever the cut, so every worker count and every split of the rows must
reproduce the serial sorted pass bit for bit — on the conformance edge
cases (rows no incidence reaches, self loops, duplicate edges, more ranges
than busy rows), with narrow and wide shared label segments.  A pooled
workspace reused with other labels keeps no rows of the previous embed,
segmented-store sources stream to the reference, and an
``IncrementalEmbedding`` patches the pooled embedding it adopts exactly.
"""

import gc
import importlib
import multiprocessing
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro import GraphEncoderEmbedding
from repro.backends import get_backend, list_backends
from repro.core import gee_parallel, gee_python, gee_vectorized
from repro.core.gee_parallel import _FUSED_CACHE, run_owner_ranges, shutdown_workers
from repro.core.validation import class_counts, inverse_class_counts
from repro.graph import EdgeList, Graph, erdos_renyi
from repro.labels import random_partial_labels
from repro.parallel import ForkWorkerPool, fork_available
from repro.stream import DynamicGraph, IncrementalEmbedding, SegmentedEdgeStore

parallel_module = importlib.import_module("repro.core.gee_parallel")

fork_only = pytest.mark.skipif(not fork_available(), reason="fork not available")

ATOL = 1e-10
K = 3

CASES = ["unweighted", "weighted", "self-loops", "duplicate-edges", "isolated-vertices"]
LABELLINGS = ["full", "partial"]


def _edges(case):
    rng = np.random.default_rng(42)
    src = rng.integers(0, 24, size=60)
    dst = rng.integers(0, 24, size=60)
    if case == "unweighted":
        return EdgeList(src, dst, n_vertices=24)
    if case == "weighted":
        return EdgeList(src, dst, rng.uniform(0.5, 2.0, size=60), n_vertices=24)
    if case == "self-loops":
        loop = np.arange(8)
        return EdgeList(
            np.concatenate([src[:20], loop]),
            np.concatenate([dst[:20], loop]),
            n_vertices=24,
        )
    if case == "duplicate-edges":
        return EdgeList(
            np.concatenate([src[:15]] * 3),
            np.concatenate([dst[:15]] * 3),
            rng.uniform(0.5, 2.0, size=45),
            n_vertices=24,
        )
    if case == "isolated-vertices":
        # Rows [10, 14) and [24, 40) touch no edge, inside and after the
        # busy rows, so some ranges own only empty rows.
        return EdgeList(src % 10, dst % 10 + 14, n_vertices=40)
    raise AssertionError(case)  # pragma: no cover - parametrize typo guard


def _labels(n, labelling, k=K, seed=3):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, k, size=n).astype(np.int64)
    if labelling == "partial":
        y[rng.random(n) < 0.4] = -1
    return y


def _sorted_pass(edges, y, k=K):
    """The serial pass over the fused sorted layout (detached)."""
    plan = Graph.coerce(edges).plan(k, layout="sorted")
    return get_backend("vectorized").embed_with_plan(plan, y).detached().embedding


def _plan(graph, k, plan_kind):
    if plan_kind == "sorted":
        return graph.plan(k, layout="sorted")
    return graph.plan(k)


class TestBitwiseEqualToSortedPass:
    @pytest.mark.parametrize("k", [3, 130])
    @pytest.mark.parametrize("plan_kind", ["default", "sorted"])
    @pytest.mark.parametrize("labelling", LABELLINGS)
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize(
        "n_workers", [1] + [pytest.param(w, marks=fork_only) for w in (2, 3, 7)]
    )
    def test_every_worker_count(self, n_workers, case, labelling, plan_kind, k):
        """K = 130 ships the labels as an int16 shared segment, K = 3 as int8."""
        edges = _edges(case)
        y = _labels(edges.n_vertices, labelling, k)
        plan = _plan(Graph.coerce(edges), k, plan_kind)
        result = get_backend("parallel", n_workers=n_workers).embed_with_plan(plan, y)
        assert result.n_workers == n_workers
        assert result.layout == "sorted"
        assert np.array_equal(result.embedding, _sorted_pass(edges, y, k))


class TestRangeByRange:
    @pytest.mark.parametrize("labelling", LABELLINGS)
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("n_parts", [1, 2, 3, 7])
    def test_in_process_ranges_tile_the_embedding(self, n_parts, case, labelling):
        """Each range run alone, in process, into one output: the rows tile
        the serial pass, and no range writes outside its rows."""
        edges = _edges(case)
        y = _labels(edges.n_vertices, labelling)
        plan = Graph.coerce(edges).plan(K, layout="sorted")
        inv = inverse_class_counts(class_counts(y, K))
        out = np.full((edges.n_vertices, K), np.nan)
        for row_lo, row_hi in plan.fused_row_ranges(n_parts):
            before = out.copy()
            run_owner_ranges(plan.fused, y, inv, [(row_lo, row_hi, "part")], out)
            outside = np.ones(edges.n_vertices, dtype=bool)
            outside[row_lo:row_hi] = False
            assert np.array_equal(out[outside], before[outside], equal_nan=True)
        assert np.array_equal(out, _sorted_pass(edges, y))


@fork_only
class TestPooledWorkspace:
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_reused_workspace_keeps_no_rows_of_the_last_embed(self, n_workers, case):
        """The shared output is not zeroed between embeds: every row must be
        reassigned, including rows whose sums drop to zero."""
        edges = _edges(case)
        n = edges.n_vertices
        full = _labels(n, "full")
        sparse = np.full(n, -1, dtype=np.int64)
        sparse[: n // 4] = full[: n // 4]  # most rows now see no labelled partner
        backend = get_backend("parallel", n_workers=n_workers)
        plan = Graph.coerce(edges).plan(K, layout="sorted")
        first = backend.embed_with_plan(plan, full).embedding
        second = backend.embed_with_plan(plan, sparse).embedding
        assert np.array_equal(second, _sorted_pass(edges, sparse))
        assert np.array_equal(first, _sorted_pass(edges, full))

    @pytest.mark.parametrize("labelled", [1.0, 0.5], ids=["full", "half"])
    @pytest.mark.parametrize("n_workers", [1, 2, 3, 5])
    def test_several_blocks_per_range(self, n_workers, labelled):
        """K = 50 gives every range several L2 row blocks; a kept result
        survives the next embed."""
        k = 50
        edges = erdos_renyi(3000, 30_000, seed=21, weighted=True)
        y = random_partial_labels(edges.n_vertices, k, labelled, seed=4)
        plan = Graph.coerce(edges).plan(k, layout="sorted")
        ref = get_backend("vectorized").embed_with_plan(plan, y).detached().embedding
        backend = get_backend("parallel", n_workers=n_workers)
        kept = backend.embed_with_plan(plan, y).embedding
        backend.embed_with_plan(plan, np.roll(y, 1))
        assert np.array_equal(kept, ref)


class TestExactness:
    def test_repeated_embeds_are_identical(self, skewed_graph):
        y = random_partial_labels(skewed_graph.n_vertices, 6, 0.4, seed=3)
        plan = Graph.coerce(skewed_graph).plan(6, layout="sorted")
        backend = get_backend("parallel", n_workers=3)
        first = backend.embed_with_plan(plan, y).embedding.copy()
        second = backend.embed_with_plan(plan, y).embedding
        assert np.array_equal(first, second)

    def test_fully_labelled_and_all_unknown(self, small_sbm):
        edges, truth = small_sbm
        g = Graph.coerce(edges)
        backend = get_backend("parallel", n_workers=2)
        full = backend.embed(g, truth, 3).embedding
        np.testing.assert_allclose(
            full, gee_vectorized(edges, truth, 3).embedding, atol=ATOL
        )
        unknown = np.full(edges.n_vertices, -1, dtype=np.int64)
        assert np.all(backend.embed(g, unknown, 3).embedding == 0)

    def test_empty_graph(self):
        edges = EdgeList([], [], n_vertices=5)
        y = np.array([0, 1, -1, 0, 1])
        res = gee_parallel(edges, y, n_workers=3)
        assert res.n_workers == 1  # nothing to split
        assert res.embedding.shape == (5, 2)
        assert np.all(res.embedding == 0)

    def test_result_metadata(self, random_graph):
        y = random_partial_labels(random_graph.n_vertices, 4, 0.5, seed=2)
        g = Graph.coerce(random_graph)
        res = get_backend("parallel", n_workers=3).embed(g, y, 4)
        assert res.method == "gee-parallel"
        assert res.layout == "sorted"
        assert res.n_workers == 3
        for key in ("preprocess", "projection", "edge_pass", "total"):
            assert res.timings[key] >= 0
        assert res.projection.shape == (random_graph.n_vertices, 4)

    def test_in_process_embed_keeps_one_output_buffer(self):
        """A warm one-worker embed allocates at most one output plus the
        kernel's block temporaries."""
        n, k = 20_000, 50
        plan = Graph.coerce(erdos_renyi(n, 200_000, seed=5)).plan(k, layout="sorted")
        y = random_partial_labels(n, k, 1.0, seed=5)
        backend = get_backend("parallel", n_workers=1)
        backend.embed_with_plan(plan, y)  # warm: the sorted layout
        tracemalloc.start()
        try:
            backend.embed_with_plan(plan, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * k * 8

    @fork_only
    def test_two_workers_on_a_four_worker_pool(self, random_graph, monkeypatch):
        """The range count bounds concurrency, whatever the pool size."""
        shutdown_workers()
        parallel_module._get_pool(4)
        dispatched = []
        pool_map = ForkWorkerPool.map

        def recording_map(self, fn, task_args, **kwargs):
            dispatched.append(len(task_args))
            return pool_map(self, fn, task_args, **kwargs)

        monkeypatch.setattr(ForkWorkerPool, "map", recording_map)
        try:
            y = random_partial_labels(random_graph.n_vertices, 4, 0.5, seed=2)
            plan = Graph.coerce(random_graph).plan(4, layout="sorted")
            result = get_backend("parallel", n_workers=2).embed_with_plan(plan, y)
            assert parallel_module._POOL.n_workers == 4
        finally:
            shutdown_workers()
        assert dispatched == [2]
        assert result.n_workers == 2
        serial = get_backend("vectorized").embed_with_plan(plan, y).embedding
        assert np.array_equal(result.embedding, serial)


class TestRowRanges:
    def test_ranges_partition_the_rows(self, skewed_graph):
        plan = Graph.coerce(skewed_graph).plan(4, layout="sorted")
        ranges = plan.fused_row_ranges(6)
        assert len(ranges) == 6
        assert ranges[0][0] == 0 and ranges[-1][1] == skewed_graph.n_vertices
        assert all(lo <= hi for lo, hi in ranges)
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))

    def test_ranges_balance_degree(self):
        edges = erdos_renyi(400, 6000, seed=17)
        plan = Graph.coerce(edges).plan(4, layout="sorted")
        degrees = np.diff(plan.fused.indptr)
        loads = [int(degrees[lo:hi].sum()) for lo, hi in plan.fused_row_ranges(4)]
        assert sum(loads) == 2 * edges.n_edges
        # No range should exceed 2x the even share.
        assert max(loads) <= 2 * (2 * edges.n_edges) // 4

    def test_zero_parts_rejected(self, tiny_edges):
        plan = Graph.coerce(tiny_edges).plan(2, layout="sorted")
        with pytest.raises(ValueError, match="n_parts"):
            plan.fused_row_ranges(0)


POOLED_WORKERS = [1] + [pytest.param(w, marks=fork_only) for w in (2, 7)]


def _dense_sums(edges, labels, k):
    """The raw per-class sums of an edge loop: ``S[u, y[v]] += w`` both ways."""
    S = np.zeros((labels.shape[0], k))
    for u, v, w in zip(edges.src, edges.dst, edges.effective_weights()):
        if labels[v] >= 0:
            S[u, labels[v]] += w
        if labels[u] >= 0:
            S[v, labels[u]] += w
    return S


class TestIncrementalPatches:
    """An ``IncrementalEmbedding`` refreshed through ``parallel`` keeps the
    embedding the pool wrote as its live ``Z`` (no copy) and patches it with
    the one O(Δ) step; other embeds on the same pool leave it alone."""

    @staticmethod
    def _live(n_workers, n=26, k=4):
        rng = np.random.default_rng(n_workers)
        labels = rng.integers(-1, k, size=n).astype(np.int64)
        dyn = DynamicGraph(erdos_renyi(n, 80, weighted=True, seed=n_workers))
        inc = IncrementalEmbedding(
            dyn,
            labels,
            n_classes=k,
            backend=get_backend("parallel", n_workers=n_workers),
            churn_threshold=1e9,
        )
        return rng, dyn, inc

    @pytest.mark.parametrize("n_workers", POOLED_WORKERS)
    def test_patch_stream_matches_dense_reference(self, n_workers):
        """Signed inserts, weight bumps and deletions compose exactly,
        small batches and large, while the pool embeds other labels."""
        rng, dyn, inc = self._live(n_workers)
        y, k = inc.labels, inc.n_classes
        n = y.shape[0]
        for batch in (1, 5, 11, 5000, 3):
            current = dyn.graph.edges
            pos = rng.choice(current.n_edges, size=min(batch, 20), replace=False)
            dyn.remove_edges(current.src[pos], current.dst[pos])
            upd = np.setdiff1d(np.arange(current.n_edges), pos)[: min(batch, 20)]
            dyn.update_weights(
                current.src[upd], current.dst[upd], rng.uniform(0.5, 2.0, upd.size)
            )
            dyn.add_edges(
                rng.integers(0, n, size=batch),
                rng.integers(0, n, size=batch),
                rng.uniform(0.5, 1.5, size=batch),
            )
            dyn.commit()
            inc.backend.embed_with_plan(dyn.graph.plan(k), rng.integers(0, k, size=n))
            assert inc.update().incremental
            edges = dyn.graph.edges
            np.testing.assert_allclose(
                inc.raw_sums, _dense_sums(edges, y, k), atol=ATOL, rtol=0
            )
            np.testing.assert_allclose(
                inc.embedding, gee_python(edges, y, k).embedding, atol=ATOL
            )

    @fork_only
    def test_empty_delta_is_noop(self):
        """A commit that only adds vertices patches nothing: the pooled
        rows keep their values and the new rows are zero."""
        _, dyn, inc = self._live(2)
        before = inc.embedding.copy()
        dyn.add_vertices(2)
        dyn.commit()
        report = inc.update()
        assert report.incremental and report.patched_edges == 0
        np.testing.assert_array_equal(inc.embedding[:26], before)
        assert not inc.embedding[26:].any() and not inc.raw_sums[26:].any()

    @pytest.mark.parametrize("n_workers", POOLED_WORKERS)
    def test_rows_past_the_graph_are_patched(self, n_workers):
        """Vertices added since the pooled refresh: every delta lands, self
        loops and edges between two new vertices included."""
        rng, dyn, inc = self._live(n_workers)
        k = inc.n_classes
        dyn.add_vertices(4)
        dyn.add_edges(
            [0, 26, 29, 4, 28], [27, 28, 2, 29, 28], [1.0, 0.5, 2.0, 0.25, 1.5]
        )
        dyn.commit()
        y = np.concatenate([inc.labels, rng.integers(0, k, size=4)])
        assert inc.update(labels=y).incremental
        edges = dyn.graph.edges
        np.testing.assert_allclose(
            inc.raw_sums, _dense_sums(edges, y, k), atol=ATOL, rtol=0
        )
        np.testing.assert_allclose(
            inc.embedding, gee_python(edges, y, k).embedding, atol=ATOL
        )


@fork_only
def test_owned_results_leave_a_plan_view_alone():
    edges = erdos_renyi(400, 4000, seed=3, weighted=True)
    g = Graph.coerce(edges)
    y1 = random_partial_labels(400, 4, 0.5, seed=1)
    y2 = random_partial_labels(400, 4, 0.5, seed=2)
    view = get_backend("vectorized").embed_with_plan(g.plan(4, layout="sorted"), y1)
    kept = view.embedding.copy()
    results = [
        get_backend("parallel", n_workers=2).embed(g, y2, 4),
        gee_parallel(g, y2, 4),
    ]
    assert np.array_equal(view.embedding, kept)
    for result in results:
        np.testing.assert_allclose(result.embedding, results[0].embedding, atol=ATOL)


@fork_only
def test_repeated_pooled_embeds_share_the_session_pool():
    shutdown_workers()
    g = Graph.coerce(erdos_renyi(300, 3000, seed=4))
    y = random_partial_labels(300, 4, 0.5, seed=4)
    for k in (4, 5, 4):
        get_backend("parallel", n_workers=2).embed(g, y, k)
        gee_parallel(g, y, k, n_workers=2)
    assert len(multiprocessing.active_children()) <= 2


@fork_only
@pytest.mark.parametrize("entry", ["gee_parallel", "backend"])
@pytest.mark.parametrize("kind", ["edgelist", "csr", "array"])
def test_private_facades_release_their_layout(kind, entry):
    """A non-``Graph`` input gets a private facade; what the embed cached
    on it goes with the call."""
    edges = erdos_renyi(300, 3000, seed=5, weighted=True)
    y = random_partial_labels(300, 4, 0.5, seed=5)
    csr = edges.to_csr()
    inputs = {
        "edgelist": edges,
        "csr": csr,
        "array": np.column_stack([edges.src, edges.dst, edges.weights]),
    }
    gc.collect()
    shutdown_workers()
    gc.disable()
    try:
        for _ in range(3):
            if entry == "gee_parallel":
                result = gee_parallel(inputs[kind], y, 4, n_workers=2)
            else:
                result = get_backend("parallel", n_workers=2).embed(inputs[kind], y, 4)
            assert result.n_workers == 2
        assert len(_FUSED_CACHE) == 0
    finally:
        gc.enable()


def _shm_segments():
    shm = Path("/dev/shm")
    if not shm.is_dir():  # pragma: no cover - platforms without /dev/shm
        return set()
    return {name for name in os.listdir(shm) if name.startswith("psm_")}


@fork_only
@pytest.mark.parametrize("entry", ["gee_parallel", "backend"])
def test_raw_input_embed_leaves_no_new_segment(entry):
    """A raw input's sorted layout is shipped to shared memory for the call
    and unlinked with its private facade; only the session workspace's
    segments outlive the embed."""
    edges = erdos_renyi(300, 3000, seed=6, weighted=True)
    y = random_partial_labels(300, 4, 0.5, seed=6)
    run = {
        "gee_parallel": lambda: gee_parallel(edges, y, 4, n_workers=2),
        "backend": lambda: get_backend("parallel", n_workers=2).embed(edges, y, 4),
    }[entry]
    assert run().n_workers == 2  # creates the workspace for this (n, K)
    before = _shm_segments()
    for _ in range(3):
        assert run().n_workers == 2
    assert _shm_segments() - before == set()


class TestSegmentedStoreSources:
    """``parallel``'s chunked pass reads exactly the segments the caller's
    source maps: a segmented store's path is its root, which a later commit
    may have rewritten."""

    @staticmethod
    def _graph():
        edges = erdos_renyi(300, 3000, seed=1, weighted=True)
        return edges, random_partial_labels(300, 4, 0.6, seed=2)

    @staticmethod
    def _part(edges, lo, hi):
        return EdgeList(
            edges.src[lo:hi], edges.dst[lo:hi], edges.weights[lo:hi], n_vertices=300
        )

    @fork_only
    def test_pooled_fit_over_a_store_matches_reference(self, tmp_path):
        edges, y = self._graph()
        store = SegmentedEdgeStore.create(
            tmp_path / "store", self._part(edges, 0, 2000)
        )
        store.append(self._part(edges, 2000, 3000))
        assert store.n_segments == 2
        model = GraphEncoderEmbedding(method="parallel", n_workers=2)
        Z = model.fit(store.source(chunk_edges=500), y).embedding_
        np.testing.assert_allclose(Z, gee_python(edges, y, 4).embedding, atol=ATOL)

    @fork_only
    def test_pooled_refreshes_follow_the_commits(self, tmp_path):
        edges, y = self._graph()
        dyn = DynamicGraph(edges, store=tmp_path / "store")
        inc = IncrementalEmbedding(
            dyn, y, 4, backend=get_backend("parallel", n_workers=2), chunk_edges=500
        )
        np.testing.assert_allclose(
            inc.embedding, gee_python(edges, y, 4).embedding, atol=ATOL
        )
        rng = np.random.default_rng(3)
        dyn.add_edges(
            rng.integers(0, 300, 50), rng.integers(0, 300, 50), rng.uniform(0.5, 2, 50)
        )
        dyn.commit()  # append-only: a second segment
        inc.update(force_refresh=True)
        current = dyn.graph.edges
        np.testing.assert_allclose(
            inc.embedding, gee_python(current, y, 4).embedding, atol=ATOL
        )
        dyn.remove_edges(current.src[:40], current.dst[:40])
        dyn.commit()  # structural: the store is rewritten
        inc.update(force_refresh=True)
        np.testing.assert_allclose(
            inc.embedding, gee_python(dyn.graph.edges, y, 4).embedding, atol=ATOL
        )

    @fork_only
    def test_a_source_held_across_a_rewrite_never_mixes_versions(self, tmp_path):
        """A source opened before a removal commit embeds its own version,
        never the store's new one."""
        edges, y = self._graph()
        dyn = DynamicGraph(edges, store=tmp_path / "store")
        held = dyn.chunked_source(chunk_edges=500)
        dyn.remove_edges(edges.src[:300], edges.dst[:300])
        dyn.commit()
        model = GraphEncoderEmbedding(method="parallel", n_workers=2)
        Z = model.fit(held, y).embedding_
        np.testing.assert_allclose(Z, gee_python(edges, y, 4).embedding, atol=ATOL)

    def test_segment_names_are_never_reused(self, tmp_path):
        edges, _ = self._graph()
        store = SegmentedEdgeStore.create(
            tmp_path / "store", self._part(edges, 0, 1000)
        )
        store.append(self._part(edges, 1000, 2000))
        store.rewrite(self._part(edges, 0, 500))
        store.append(self._part(edges, 500, 600))
        assert store._segments == ["seg-00002", "seg-00003"]
        reopened = SegmentedEdgeStore.open(tmp_path / "store")
        reopened.append(self._part(edges, 600, 700))
        assert reopened._segments[-1] == "seg-00004"
        assert reopened.n_edges == 700
        assert sorted(p.name for p in (tmp_path / "store").glob("seg-*")) == [
            "seg-00002", "seg-00003", "seg-00004"
        ]


def test_sharded_is_gone():
    """``parallel`` is the one pooled backend: no backend, ``Graph`` method
    or module of ``repro`` is named after shards any more."""
    assert not [name for name in list_backends() if name.startswith("shard")]
    with pytest.raises(ValueError, match="unknown backend 'sharded'"):
        get_backend('sharded')
    assert not hasattr(Graph, "shard")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(".shard", "repro")
