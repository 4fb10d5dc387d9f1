"""ShardedGraph: exactness, structure invariants, lifecycle, out-of-core."""

import os
import tracemalloc

import numpy as np
import pytest

from repro.backends import get_backend
from repro.core import gee_vectorized
from repro.graph import EdgeList, Graph, erdos_renyi
from repro.labels import random_partial_labels
from repro.shard import ShardedGraph, patch_sums_sharded

ATOL = 1e-10

N_CPUS = os.cpu_count() or 1
SHARD_COUNTS = sorted({1, 2, 7, N_CPUS})


def _edge_case_graphs():
    """The conformance edge-case menagerie, as (name, edges, labels) triples."""
    rng = np.random.default_rng(42)
    cases = {}
    src = rng.integers(0, 24, size=60)
    dst = rng.integers(0, 24, size=60)
    cases["unweighted"] = EdgeList(src, dst, n_vertices=24)
    cases["weighted"] = EdgeList(
        src, dst, rng.uniform(0.5, 2.0, size=60), n_vertices=24
    )
    loop = np.arange(8)
    cases["self_loops"] = EdgeList(
        np.concatenate([src[:20], loop]),
        np.concatenate([dst[:20], loop]),
        n_vertices=24,
    )
    cases["duplicates"] = EdgeList(
        np.concatenate([src[:15], src[:15]]),
        np.concatenate([dst[:15], dst[:15]]),
        np.concatenate([rng.uniform(0.5, 2.0, 15)] * 2),
        n_vertices=24,
    )
    # Vertices 24..29 exist but touch no edge.
    cases["isolated"] = EdgeList(src, dst, n_vertices=30)
    out = []
    for name, edges in cases.items():
        y = random_partial_labels(edges.n_vertices, 3, 0.6, seed=9)
        out.append((name, edges, y))
    return out


class TestExactness:
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    @pytest.mark.parametrize(
        "name,edges,y", _edge_case_graphs(), ids=lambda v: v if isinstance(v, str) else ""
    )
    def test_matches_single_pool_across_edge_cases(self, name, edges, y, n_shards):
        ref = gee_vectorized(edges, y, 3).embedding
        Z = Graph.coerce(edges).shard(n_shards).embed(y, 3).embedding
        np.testing.assert_allclose(Z, ref, atol=ATOL)

    @pytest.mark.parametrize("layout", ["none", "sorted"])
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_matches_every_plan_layout(self, random_graph, layout, n_shards):
        y = random_partial_labels(random_graph.n_vertices, 4, 0.5, seed=2)
        g = Graph.coerce(random_graph)
        ref = (
            get_backend("vectorized")
            .embed_with_plan(g.plan(4, layout=layout), y)
            .embedding
        )
        Z = g.shard(n_shards).embed(y, 4).embedding
        np.testing.assert_allclose(Z, ref, atol=ATOL)

    def test_pooled_equals_serial(self, random_graph):
        """An explicit multi-worker pool must reproduce the serial result."""
        y = random_partial_labels(random_graph.n_vertices, 4, 0.5, seed=2)
        with ShardedGraph(random_graph, 4) as sg:
            serial = sg.embed(y, 4, n_workers=1).embedding.copy()
            pooled_res = sg.embed(y, 4, n_workers=2)
            np.testing.assert_allclose(pooled_res.embedding, serial, atol=ATOL)

    @pytest.mark.parametrize("labelled", [1.0, 0.5], ids=["full", "half"])
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5])
    def test_bitwise_equal_to_single_pool_pass(self, n_shards, labelled):
        """Serial and pooled shards reproduce the sorted single-pool pass
        bit for bit, and a pooled result survives the next pooled embed."""
        k = 50  # several L2 row blocks per shard
        edges = erdos_renyi(3000, 30_000, seed=21, weighted=True)
        y = random_partial_labels(edges.n_vertices, k, labelled, seed=4)
        plan = Graph.coerce(edges).plan(k, layout="sorted")
        ref = get_backend("vectorized").embed_with_plan(plan, y).detached().embedding
        with ShardedGraph(edges, n_shards) as sg:
            serial = sg.embed(y, k, n_workers=1).embedding
            pooled = sg.embed(y, k, n_workers=2).embedding
            sg.embed(np.roll(y, 1), k, n_workers=2)
            assert np.array_equal(serial, ref)
            assert np.array_equal(pooled, ref)

    def test_serial_embed_keeps_one_output_buffer(self):
        """Shards write disjoint rows of one buffer: a warm serial embed
        allocates one output plus per-shard temporaries, not one per shard."""
        n, k = 20_000, 50
        edges = erdos_renyi(n, 200_000, seed=5)
        y = random_partial_labels(n, k, 1.0, seed=5)
        sg = ShardedGraph(edges, 4)
        sg.embed(y, k, n_workers=1)  # warm: the sorted plan
        tracemalloc.start()
        try:
            sg.embed(y, k, n_workers=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * k * 8

    def test_repeated_embeds_are_identical(self, skewed_graph):
        """Pinned affinities + fixed in-shard order: no run-to-run jitter."""
        y = random_partial_labels(skewed_graph.n_vertices, 6, 0.4, seed=3)
        with ShardedGraph(skewed_graph, 5) as sg:
            first = sg.embed(y, 6).embedding.copy()
            second = sg.embed(y, 6).embedding
            assert np.array_equal(first, second)

    def test_fully_labelled_and_all_unknown(self, small_sbm):
        edges, truth = small_sbm
        sg = Graph.coerce(edges).shard(3)
        full = sg.embed(truth, 3).embedding
        np.testing.assert_allclose(
            full, gee_vectorized(edges, truth, 3).embedding, atol=ATOL
        )
        unknown = np.full(edges.n_vertices, -1, dtype=np.int64)
        assert np.all(sg.embed(unknown, 3).embedding == 0)

    def test_empty_graph(self):
        edges = EdgeList([], [], n_vertices=5)
        y = np.array([0, 1, -1, 0, 1])
        res = ShardedGraph(edges, 3).embed(y)
        assert res.embedding.shape == (5, 2)
        assert np.all(res.embedding == 0)

    def test_result_metadata(self, random_graph):
        y = random_partial_labels(random_graph.n_vertices, 4, 0.5, seed=2)
        res = Graph.coerce(random_graph).shard(3).embed(y, 4)
        assert res.method == "gee-sharded[3]"
        assert res.layout == "sorted"
        for key in ("projection", "edge_pass", "total"):
            assert res.timings[key] >= 0
        assert res.projection.shape == (random_graph.n_vertices, 4)


class TestStructure:
    def test_row_cuts_partition_the_vertex_range(self, skewed_graph):
        sg = ShardedGraph(skewed_graph, 6)
        assert sg.row_cuts[0] == 0
        assert sg.row_cuts[-1] == skewed_graph.n_vertices
        assert np.all(np.diff(sg.row_cuts) >= 0)
        specs = [s.spec for s in sg.shards]
        assert [s.row_lo for s in specs] == list(sg.row_cuts[:-1])
        assert [s.row_hi for s in specs] == list(sg.row_cuts[1:])

    def test_incidences_cover_every_half_edge(self, skewed_graph, tmp_path):
        from repro.stream.segments import SegmentedEdgeStore

        sg = ShardedGraph(skewed_graph, 6)
        assert sum(s.n_incidences for s in sg.shards) == 2 * skewed_graph.n_edges
        for shard, path in zip(sg.shards, sg.persist(tmp_path)):
            owners = SegmentedEdgeStore.open(path).source().to_edgelist().src
            assert owners.size == shard.n_incidences
            if owners.size:
                assert owners.min() >= shard.spec.row_lo
                assert owners.max() < shard.spec.row_hi
                assert np.all(np.diff(owners) >= 0)  # slice stays sorted

    def test_degree_balance(self):
        edges = erdos_renyi(400, 6000, seed=17)
        sg = ShardedGraph(edges, 4)
        loads = [s.n_incidences for s in sg.shards]
        # Degree-balanced cuts: no shard should exceed 2x the even share.
        assert max(loads) <= 2 * (2 * edges.n_edges) // 4

    def test_affinities_are_the_shard_ids(self, skewed_graph):
        sg = ShardedGraph(skewed_graph, 5)
        assert [s.spec.worker_affinity for s in sg.shards] == [0, 1, 2, 3, 4]

    def test_shard_count_clamped_to_vertices(self, tiny_edges):
        sg = ShardedGraph(tiny_edges, 1000)
        assert sg.n_shards == tiny_edges.n_vertices

    def test_invalid_shard_count_rejected(self, tiny_edges):
        with pytest.raises(ValueError, match="n_shards"):
            ShardedGraph(tiny_edges, 0)
        with pytest.raises(ValueError, match="n_shards"):
            Graph.coerce(tiny_edges).shard(-2)

    def test_negative_worker_count_rejected(self, tiny_edges):
        y = np.array([0, 1, 0, 1, -1])
        with pytest.raises(ValueError, match="negative"):
            ShardedGraph(tiny_edges, 2).embed(y, 2, n_workers=-1)


class TestFacadeCache:
    def test_shard_is_cached_per_count(self, random_graph):
        g = Graph.coerce(random_graph)
        assert g.shard(3) is g.shard(3)
        assert g.shard(3) is not g.shard(4)
        # Clamped requests share the clamped entry.
        tiny = Graph.coerce(EdgeList([0, 1], [1, 2], n_vertices=3))
        assert tiny.shard(50) is tiny.shard(3)

    def test_invalidate_cache_closes_sharded_views(self, random_graph):
        g = Graph.coerce(random_graph)
        sg = g.shard(2)
        g.invalidate_cache()
        assert sg.closed
        assert g.shard(2) is not sg


class TestIncrementalPatches:
    def test_patch_matches_fresh_fit(self, random_graph):
        """Shard-routed O(Δ) patches track a fresh fit to 1e-10."""
        from repro.stream import DynamicGraph, IncrementalEmbedding

        n = random_graph.n_vertices
        y = random_partial_labels(n, 4, 0.5, seed=6)
        dyn = DynamicGraph(random_graph)
        inc = IncrementalEmbedding(dyn, y, n_classes=4, backend="sharded")
        rng = np.random.default_rng(0)
        dyn.add_edges(rng.integers(0, n, 40), rng.integers(0, n, 40))
        dyn.commit()
        inc.update()
        fresh = gee_vectorized(dyn.graph.edges, y, 4).embedding
        np.testing.assert_allclose(inc.embedding, fresh, atol=ATOL)

    def test_patch_uses_real_row_cuts(self, random_graph):
        y = random_partial_labels(random_graph.n_vertices, 4, 0.5, seed=6)
        sg = Graph.coerce(random_graph).shard(4)
        S = sg.raw_sums(y, 4).reshape(-1)
        expected = S.copy()
        src = np.array([0, 10, 499])
        dst = np.array([5, 10, 0])
        dw = np.array([1.5, -0.5, 2.0])
        for u, v, w in zip(src, dst, dw):
            if y[v] >= 0:
                expected[u * 4 + y[v]] += w
            if y[u] >= 0:
                expected[v * 4 + y[u]] += w
        sg.patch_sums(S, src, dst, dw, y, 4)
        np.testing.assert_allclose(S, expected, atol=ATOL)

    def test_standalone_patch_threads_match_inline(self):
        """A large routed delta (thread fan-out) equals the inline patch."""
        n, k = 300, 5
        rng = np.random.default_rng(1)
        y = random_partial_labels(n, k, 0.7, seed=1)
        m = 20_000  # above the thread threshold after doubling
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        dw = rng.uniform(-1.0, 1.0, m)
        threaded = np.zeros(n * k)
        inline = np.zeros(n * k)
        patch_sums_sharded(threaded, src, dst, dw, y, k, n_shards=4, n_workers=4)
        patch_sums_sharded(inline, src, dst, dw, y, k, n_shards=1, n_workers=1)
        np.testing.assert_allclose(threaded, inline, atol=ATOL)

    def test_empty_delta_is_noop(self):
        S = np.ones(12)
        patch_sums_sharded(
            S, np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0),
            np.array([0, 1, 2]), 4, n_shards=2,
        )
        assert np.all(S == 1.0)

    @pytest.mark.parametrize("n_shards", [1, 2, 7])
    def test_patch_stream_matches_dense_reference(self, n_shards):
        """Signed inserts, weight bumps and deletions compose exactly."""
        rng = np.random.default_rng(n_shards)
        n, k = 26, 4
        labels = rng.integers(-1, k, size=n).astype(np.int64)
        S_flat = np.zeros(n * k)
        expected = np.zeros((n, k))
        for _ in range(6):
            batch = rng.integers(1, 12)
            src = rng.integers(0, n, size=batch).astype(np.int64)
            dst = rng.integers(0, n, size=batch).astype(np.int64)
            delta = rng.uniform(-1.0, 1.5, size=batch)
            patch_sums_sharded(S_flat, src, dst, delta, labels, k, n_shards=n_shards)
            for u, v, w in zip(src, dst, delta):
                if labels[v] >= 0:
                    expected[u, labels[v]] += w
                if labels[u] >= 0:
                    expected[v, labels[u]] += w
            np.testing.assert_allclose(
                S_flat.reshape(n, k), expected, atol=ATOL, rtol=0
            )

    def test_graph_patch_equals_even_cut_patch(self, skewed_graph):
        """Routing by the graph's degree-balanced cuts or by even cuts is a
        performance choice only: both give the same sums."""
        n, k = skewed_graph.n_vertices, 4
        y = random_partial_labels(n, k, 0.6, seed=8)
        sharded = Graph.coerce(skewed_graph).shard(3)
        rng = np.random.default_rng(9)
        src = rng.integers(0, n, size=40).astype(np.int64)
        dst = rng.integers(0, n, size=40).astype(np.int64)
        delta = rng.uniform(-0.5, 1.0, size=40)
        via_graph = np.zeros(n * k)
        via_even = np.zeros(n * k)
        sharded.patch_sums(via_graph, src, dst, delta, y, k)
        patch_sums_sharded(via_even, src, dst, delta, y, k, n_shards=3)
        np.testing.assert_allclose(via_graph, via_even, atol=ATOL, rtol=0)

    @pytest.mark.parametrize("n_shards", [1, 2, 7])
    def test_rows_past_the_last_cut_are_patched(self, n_shards):
        """Sums sized for more rows than the graph (vertices added since the
        cuts were made): the last shard owns every row from its cut on, so
        no delta is dropped."""
        n, grown, k = 10, 14, 3
        sharded = Graph.coerce(
            EdgeList(np.arange(n - 1), np.arange(1, n), n_vertices=n)
        ).shard(n_shards)
        y = np.random.default_rng(n_shards).integers(0, k, size=grown)
        src = np.array([0, 10, 13, 4, 12])
        dst = np.array([11, 12, 2, 13, 12])
        delta = np.array([1.0, -0.5, 2.0, 0.25, 1.5])
        via_graph = np.zeros(grown * k)
        via_even = np.zeros(grown * k)
        sharded.patch_sums(via_graph, src, dst, delta, y, k)
        patch_sums_sharded(via_even, src, dst, delta, y, k, n_shards=n_shards)
        expected = np.zeros((grown, k))
        for u, v, w in zip(src, dst, delta):
            expected[u, y[v]] += w
            expected[v, y[u]] += w
        np.testing.assert_allclose(via_even.reshape(grown, k), expected, atol=ATOL, rtol=0)
        np.testing.assert_allclose(via_graph, via_even, atol=ATOL, rtol=0)


class TestOneKernel:
    """Every shard runs the one NumPy row-range kernel; no entry point
    takes a kernel selector."""

    @pytest.mark.parametrize("entry", ["embed", "patch_sums", "patch_sums_sharded"])
    def test_kernel_keyword_is_refused(self, entry, tiny_edges):
        y = np.array([0, 1, -1, 1, 0])
        k = 2
        S = np.zeros(tiny_edges.n_vertices * k)
        sg = Graph.coerce(tiny_edges).shard(2)
        one = (np.array([0]), np.array([1]), np.array([1.0]), y, k)
        calls = {
            "embed": lambda: sg.embed(y, k, kernel="numpy"),
            "patch_sums": lambda: sg.patch_sums(S, *one, kernel="numpy"),
            "patch_sums_sharded": lambda: patch_sums_sharded(S, *one, kernel="numpy"),
        }
        with pytest.raises(TypeError, match="kernel"):
            calls[entry]()
        assert np.all(S == 0.0)


class TestOutOfCore:
    def test_persist_and_stream_match_in_memory(self, weighted_graph, tmp_path):
        y = random_partial_labels(weighted_graph.n_vertices, 4, 0.5, seed=8)
        sg = ShardedGraph(weighted_graph, 5)
        ref = sg.embed(y, 4).embedding
        paths = sg.persist(tmp_path)
        assert len(paths) == 5
        assert all(p.exists() for p in paths)
        for chunk_edges in (None, 64, 10_000):
            Z = sg.embed_outofcore(y, 4, chunk_edges=chunk_edges).embedding
            np.testing.assert_allclose(Z, ref, atol=ATOL)

    def test_explicit_root_reopens_stores(self, weighted_graph, tmp_path):
        y = random_partial_labels(weighted_graph.n_vertices, 4, 0.5, seed=8)
        ShardedGraph(weighted_graph, 3).persist(tmp_path)
        fresh = ShardedGraph(weighted_graph, 3)
        Z = fresh.embed_outofcore(y, 4, root=tmp_path).embedding
        np.testing.assert_allclose(
            Z, gee_vectorized(weighted_graph, y, 4).embedding, atol=ATOL
        )

    def test_missing_stores_rejected(self, weighted_graph):
        y = random_partial_labels(weighted_graph.n_vertices, 4, 0.5, seed=8)
        with pytest.raises(ValueError, match="persist"):
            ShardedGraph(weighted_graph, 2).embed_outofcore(y, 4)


class TestLifecycle:
    def test_close_is_idempotent(self, random_graph):
        sg = ShardedGraph(random_graph, 2)
        y = random_partial_labels(random_graph.n_vertices, 3, 0.5, seed=0)
        sg.embed(y, 3, n_workers=2)
        sg.close()
        sg.close()
        assert sg.closed

    def test_closed_graph_still_runs_serial(self, random_graph):
        sg = ShardedGraph(random_graph, 2)
        sg.close()
        y = random_partial_labels(random_graph.n_vertices, 3, 0.5, seed=0)
        Z = sg.embed(y, 3, n_workers=1).embedding
        np.testing.assert_allclose(
            Z, gee_vectorized(random_graph, y, 3).embedding, atol=ATOL
        )

    def test_closed_graph_rejects_pool(self, random_graph):
        sg = ShardedGraph(random_graph, 2)
        sg.close()
        y = random_partial_labels(random_graph.n_vertices, 3, 0.5, seed=0)
        with pytest.raises(RuntimeError, match="closed"):
            sg.embed(y, 3, n_workers=2)

    def test_context_manager(self, random_graph):
        y = random_partial_labels(random_graph.n_vertices, 3, 0.5, seed=0)
        with ShardedGraph(random_graph, 2) as sg:
            sg.embed(y, 3, n_workers=2)
        assert sg.closed
