"""Locality-optimized layouts: permutation invariance, narrowing, memory.

The fused sorted layout only *reorders commutative additions* (and
hoists the per-edge projection scale into a per-column rescale), so every
``supports_layout`` backend × layout combination must reproduce the
unpermuted pure-Python reference on the conformance-matrix edge cases to
1e-12.  The suite also pins the int32 index-narrowing boundary at
``n*K = 2^31``, the plan-buffer reuse property (no fresh ``(n*K,)``
output temporary on the layout plan path), and the sorted row-range
kernel: bitwise split invariance, and per-range allocation proportional
to the range.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import GraphEncoderEmbedding
from repro.backends import backend_capabilities, get_backend, list_backends
from repro.core import gee_python
from repro.core.gee_vectorized import accumulate_fused_rows_sorted, class_rescale
from repro.core.plan import (
    LAYOUTS,
    ChunkedPlan,
    EmbedPlan,
    choose_index_dtype,
    compile_fused_layout,
)
from repro.graph import Graph
from repro.graph.edgelist import EdgeList
from repro.parallel import fork_available

ATOL = 1e-12
K = 5

LAYOUT_BACKENDS = sorted(
    n for n in list_backends() if backend_capabilities(n).supports_layout
)
PERMUTING_LAYOUTS = [l for l in LAYOUTS if l != "none"]


def _labels(n, rng, labelled="partial"):
    y = rng.integers(0, K, size=n).astype(np.int64)
    if labelled == "partial":
        y[rng.random(n) < 0.35] = -1
        if np.all(y == -1):
            y[0] = 0
    return y


def _case(name, labelled):
    """Conformance-matrix structural edge cases (small, reference-checkable)."""
    rng = np.random.default_rng(hash(name) % (2**32))
    if name == "weighted":
        src = rng.integers(0, 40, 120)
        dst = rng.integers(0, 40, 120)
        w = rng.uniform(0.1, 4.0, 120)
        edges = EdgeList(src, dst, w, 40)
    elif name == "unweighted":
        src = rng.integers(0, 40, 120)
        dst = rng.integers(0, 40, 120)
        edges = EdgeList(src, dst, None, 40)
    elif name == "self-loops":
        src = rng.integers(0, 30, 90)
        dst = rng.integers(0, 30, 90)
        src[:15] = dst[:15]
        edges = EdgeList(src, dst, rng.uniform(0.5, 2.0, 90), 30)
    elif name == "duplicate-edges":
        src = rng.integers(0, 20, 30)
        dst = rng.integers(0, 20, 30)
        src = np.concatenate([src, src, src])
        dst = np.concatenate([dst, dst, dst])
        edges = EdgeList(src, dst, rng.uniform(0.1, 2.0, src.size), 20)
    elif name == "isolated-vertices":
        src = rng.integers(0, 25, 60)
        dst = rng.integers(0, 25, 60)
        edges = EdgeList(src, dst, None, 45)  # vertices 25..44 isolated
    else:  # pragma: no cover - guard against typos in parametrize
        raise AssertionError(name)
    return edges, _labels(edges.n_vertices, rng, labelled)


CASES = ["weighted", "unweighted", "self-loops", "duplicate-edges", "isolated-vertices"]


class TestPermutationInvariance:
    """All supports_layout backends × layouts × structural edge cases."""

    @pytest.mark.parametrize("backend_name", LAYOUT_BACKENDS)
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("labelled", ["partial", "full"])
    def test_matches_unpermuted_reference(self, backend_name, layout, case, labelled):
        edges, y = _case(case, labelled)
        reference = gee_python(edges, y, K).embedding
        graph = Graph.coerce(edges)
        plan = graph.plan(K, layout=layout)
        caps = backend_capabilities(backend_name)
        workers = 2 if caps.supports_n_workers else None
        backend = get_backend(backend_name, n_workers=workers)
        result = backend.embed_with_plan(plan, y)
        np.testing.assert_allclose(result.embedding, reference, atol=ATOL)
        if backend_name in ("parallel", "sharded"):
            # The owner-range executor runs the graph's sorted plan
            # regardless of the plan's layout, and says so.
            assert result.layout == "sorted"
        else:
            assert result.layout in (layout, "none")  # auto may re-choose

    @pytest.mark.skipif(not fork_available(), reason="fork not available")
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("labelled", ["partial", "full"])
    def test_parallel_on_default_plan_is_the_sorted_pass(self, workers, case, labelled):
        """``parallel`` runs the sorted kernel on a layout-preserving plan
        too: bitwise the serial sorted pass, for any worker count."""
        edges, y = _case(case, labelled)
        graph = Graph.coerce(edges)
        sorted_pass = (
            get_backend("vectorized")
            .embed_with_plan(graph.plan(K, layout="sorted"), y)
            .detached()
            .embedding
        )
        plan = graph.plan(K)
        assert plan.layout == "none"
        result = get_backend("parallel", n_workers=workers).embed_with_plan(plan, y)
        assert result.layout == "sorted"
        assert result.n_workers == workers
        assert np.array_equal(result.embedding, sorted_pass)

    @pytest.mark.parametrize("chunk_edges", [1, 17, 10_000])
    def test_chunked_sorted_incidence(self, chunk_edges):
        edges, y = _case("weighted", "partial")
        reference = gee_python(edges, y, K).embedding
        graph = Graph.coerce(edges)
        plan = graph.plan(K, chunk_edges=chunk_edges, layout="sorted")
        assert isinstance(plan, ChunkedPlan) and plan.layout == "sorted"
        for backend_name in ("vectorized", "parallel"):
            result = get_backend(backend_name).embed_with_plan(plan, y)
            np.testing.assert_allclose(result.embedding, reference, atol=ATOL)

    def test_sparse_rejects_sorted_incidence_chunked_plan(self):
        """The two-sided A+Aᵀ matmul would double-count incidence blocks
        (each edge appears twice) — the sparse backend must refuse, not
        silently return a wrong embedding."""
        edges, y = _case("weighted", "partial")
        plan = Graph.coerce(edges).plan(K, chunk_edges=32, layout="sorted")
        with pytest.raises(ValueError, match="sorted-incidence"):
            get_backend("sparse").embed_with_plan(plan, y)

    def test_chunked_incidence_plan_reports_true_edge_count(self):
        edges, _ = _case("weighted", "partial")
        g = Graph.coerce(edges)
        plain = g.plan(K, chunk_edges=32)
        incidence = g.plan(K, chunk_edges=32, layout="sorted")
        assert incidence.n_edges == plain.n_edges == edges.n_edges
        assert incidence.source.n_edges == 2 * edges.n_edges

    def test_layout_plan_equals_default_plan(self):
        edges, y = _case("weighted", "partial")
        graph = Graph.coerce(edges)
        backend = get_backend("vectorized")
        base = backend.embed_with_plan(graph.plan(K), y).detached()
        for layout in PERMUTING_LAYOUTS:
            other = backend.embed_with_plan(graph.plan(K, layout=layout), y)
            np.testing.assert_allclose(other.embedding, base.embedding, atol=ATOL)


class TestPlanLayoutCaching:
    def test_default_plan_stays_layout_preserving(self):
        edges, _ = _case("unweighted", "partial")
        g = Graph.coerce(edges)
        plan = g.plan(K)
        assert plan.layout == "none"
        assert g.plan(K) is plan  # bare-K cache key unchanged

    def test_each_layout_is_a_separate_cached_plan(self):
        edges, _ = _case("unweighted", "partial")
        g = Graph.coerce(edges)
        base = g.plan(K)
        sorted_plan = g.plan(K, layout="sorted")
        assert base is not sorted_plan
        assert g.plan(K, layout="sorted") is sorted_plan
        assert sorted_plan.layout == "sorted"

    @pytest.mark.parametrize("layout", ["zorted", "blocked"])
    def test_unknown_layout_rejected(self, layout):
        edges, y = _case("unweighted", "partial")
        g = Graph.coerce(edges)
        with pytest.raises(ValueError, match="layout"):
            g.plan(K, layout=layout)
        accepted = r"layout must be one of \('none', 'sorted', 'auto'\)"
        with pytest.raises(ValueError, match=accepted):
            GraphEncoderEmbedding(K, layout=layout).fit(edges, y)

    def test_fused_on_none_plan_raises(self):
        edges, _ = _case("unweighted", "partial")
        plan = Graph.coerce(edges).plan(K)
        with pytest.raises(ValueError, match="layout-preserving"):
            plan.fused

    def test_auto_layout_resolves_to_concrete(self):
        edges, y = _case("weighted", "full")
        g = Graph.coerce(edges)
        plan = g.plan(K, layout="auto")
        assert plan.layout in LAYOUTS
        result = get_backend("vectorized").embed_with_plan(plan, y)
        reference = gee_python(edges, y, K).embedding
        np.testing.assert_allclose(result.embedding, reference, atol=ATOL)


class TestIndexNarrowing:
    def test_dtype_boundary_fuzzed(self):
        """``n*K < 2^31`` → int32, else int64 — fuzzed around the boundary."""
        rng = np.random.default_rng(0)
        limit = 2**31
        for _ in range(300):
            k = int(rng.integers(1, 1 << 12))
            # Aim n*K near the boundary, both sides, plus random magnitudes.
            near = limit // k + int(rng.integers(-2, 3))
            n = max(1, near if rng.random() < 0.7 else int(rng.integers(1, 1 << 24)))
            expected = np.int32 if n * k < limit else np.int64
            assert choose_index_dtype(n, k) is expected, (n, k)
        # Exact boundary: 2^31 - 1 cells is the last int32-safe size.
        assert choose_index_dtype(limit - 1, 1) is np.int32
        assert choose_index_dtype(limit, 1) is np.int64

    @pytest.mark.parametrize("layout", PERMUTING_LAYOUTS)
    def test_int64_fallback_is_exact(self, layout):
        """Force the int64 path via a tiny limit; results must not change."""
        edges, y = _case("weighted", "partial")
        reference = gee_python(edges, y, K).embedding
        graph = Graph.coerce(edges)
        plan = graph.plan(K, layout=layout)
        narrow = plan.fused
        assert narrow.index_dtype is np.int32
        wide = compile_fused_layout(
            plan.src,
            plan.dst,
            plan.weights,
            plan.n_vertices,
            K,
            int32_limit=1,  # every graph is now "too big" for int32
        )
        assert wide.index_dtype is np.int64
        plan._fused = wide  # swap the compiled artifact under the kernel
        result = get_backend("vectorized").embed_with_plan(plan, y)
        np.testing.assert_allclose(result.embedding, reference, atol=ATOL)
        np.testing.assert_array_equal(
            np.sort(narrow.owner_flat.astype(np.int64)),
            np.sort(wide.owner_flat),
        )

    @pytest.mark.skipif(not fork_available(), reason="fork not available")
    @pytest.mark.parametrize("backend_name", ["vectorized", "parallel"])
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("labelled", ["partial", "full"])
    def test_int64_layout_is_bitwise_the_int32_layout(self, backend_name, case, labelled):
        """Both index widths hold the same stable owner order, so the serial
        pass and the worker passes sum every slot in the same order."""
        edges, y = _case(case, labelled)
        workers = 2 if backend_name == "parallel" else None
        backend = get_backend(backend_name, n_workers=workers)
        narrow_plan = Graph.coerce(edges).plan(K, layout="sorted")
        assert narrow_plan.fused.index_dtype is np.int32
        narrow = backend.embed_with_plan(narrow_plan, y).detached().embedding
        wide_plan = Graph.coerce(edges).plan(K, layout="sorted")
        wide_plan._fused = compile_fused_layout(
            wide_plan.src,
            wide_plan.dst,
            None if wide_plan.unit_weights else wide_plan.weights,
            wide_plan.n_vertices,
            K,
            int32_limit=1,
        )
        assert wide_plan.fused.index_dtype is np.int64
        wide = backend.embed_with_plan(wide_plan, y).embedding
        assert np.array_equal(wide, narrow)
        np.testing.assert_allclose(wide, gee_python(edges, y, K).embedding, atol=ATOL)


class TestPlanBufferReuse:
    """The satellite bugfix: layout plan paths must not allocate a fresh
    ``(n*K,)`` output temporary — the block-local segment sums write into
    the plan's reused buffer with only L2-sized temporaries."""

    def _peak_during_embed(self, backend, plan, y):
        backend.embed_with_plan(plan, y)  # warm: compile layout, buffers
        tracemalloc.start()
        backend.embed_with_plan(plan, y)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    def test_sorted_plan_path_avoids_output_temporary(self):
        rng = np.random.default_rng(3)
        n, e, k = 6000, 20000, 40
        edges = EdgeList(rng.integers(0, n, e), rng.integers(0, n, e), None, n)
        y = rng.integers(0, k, n)
        graph = Graph.coerce(edges)
        backend = get_backend("vectorized")
        out_bytes = n * k * 8

        peak_sorted = self._peak_during_embed(backend, graph.plan(k, layout="sorted"), y)
        peak_none = self._peak_during_embed(backend, graph.plan(k), y)
        # The arrival-order dense path allocates a full output-sized
        # bincount temporary; the fused path must stay well under one.
        assert peak_none >= out_bytes
        assert peak_sorted < out_bytes
        assert peak_sorted < peak_none

    def test_layout_result_views_plan_buffer(self):
        edges, y = _case("weighted", "full")
        g = Graph.coerce(edges)
        plan = g.plan(K, layout="sorted")
        backend = get_backend("vectorized")
        first = backend.embed_with_plan(plan, y)
        before = first.embedding.copy()
        second = backend.embed_with_plan(plan, np.roll(y, 1))
        assert not np.shares_memory(first.embedding, second.embedding)
        assert np.array_equal(first.embedding, before)
        np.testing.assert_allclose(
            first.embedding, gee_python(edges, y, K).embedding, atol=ATOL
        )


class TestRowRangeKernel:
    """The one sorted kernel: the serial pass runs it over ``[0, n)``, the
    parallel and sharded workers over their own row ranges.  Every output
    slot sums its incidences in array order, so any split of the rows gives
    bitwise the sums of a single call."""

    ROWS_PER_BLOCK = 16

    @staticmethod
    def _splits(n, parts, rows_per_block):
        """``parts`` row ranges covering ``[0, n)``, no inner cut block-aligned."""
        cuts = [0]
        for i in range(1, parts):
            cut = i * n // parts
            cuts.append(cut + 1 if cut % rows_per_block == 0 else cut)
        cuts.append(n)
        return cuts

    @pytest.mark.skipif(not fork_available(), reason="fork not available")
    @pytest.mark.parametrize("labelled", ["full", "partial"])
    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
    @pytest.mark.parametrize("dtype", ["int32", "int64"])
    def test_split_invariance(self, dtype, weighted, labelled):
        rng = np.random.default_rng(11)
        n, e = 500, 4000
        w = rng.uniform(0.1, 4.0, e) if weighted else None
        edges = EdgeList(rng.integers(0, n, e), rng.integers(0, n, e), w, n)
        y = _labels(n, rng, labelled)
        plan = Graph.coerce(edges).plan(K, layout="sorted")
        fused = compile_fused_layout(
            plan.src,
            plan.dst,
            None if plan.unit_weights else plan.weights,
            n,
            K,
            block_bytes=self.ROWS_PER_BLOCK * K * 8,
            **({"int32_limit": 1} if dtype == "int64" else {}),
        )
        assert np.dtype(fused.index_dtype).name == dtype
        assert fused.rows_per_block == self.ROWS_PER_BLOCK
        plan._fused = fused
        y_idx = y.astype(fused.index_dtype)

        def run(cuts):
            out = np.full(n * K, np.nan)
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                accumulate_fused_rows_sorted(
                    out,
                    fused.owner_flat,
                    fused.partner,
                    fused.weights,
                    y_idx,
                    K,
                    fused.rows_per_block,
                    lo,
                    hi,
                    fully_labelled=labelled == "full",
                )
            return out

        whole = run([0, n])
        assert np.isfinite(whole).all()  # every row written, none skipped
        for parts in (1, 2, 3, 7):
            cuts = self._splits(n, parts, self.ROWS_PER_BLOCK)
            assert all(c % self.ROWS_PER_BLOCK for c in cuts[1:-1])
            np.testing.assert_array_equal(run(cuts), whole)

        Z = whole.reshape(n, K)
        class_rescale(Z, y, K)
        np.testing.assert_allclose(Z, gee_python(edges, y, K).embedding, atol=ATOL)
        serial = get_backend("vectorized").embed_with_plan(plan, y)
        np.testing.assert_array_equal(serial.embedding, Z)
        parallel = get_backend("parallel", n_workers=2).embed_with_plan(plan, y)
        assert parallel.n_workers == 2
        np.testing.assert_array_equal(parallel.embedding, Z)

    def test_labels_narrower_than_layout_refused(self):
        """Flat indices are summed into the gathered labels' dtype, so int32
        labels against an int64 layout must raise rather than wrap."""
        edges, y = _case("weighted", "full")
        plan = Graph.coerce(edges).plan(K, layout="sorted")
        wide = compile_fused_layout(
            plan.src, plan.dst, plan.weights, plan.n_vertices, K, int32_limit=1
        )
        out = np.zeros(plan.n_vertices * K)
        with pytest.raises(TypeError):
            accumulate_fused_rows_sorted(
                out,
                wide.owner_flat,
                wide.partner,
                wide.weights,
                y.astype(np.int32),
                K,
                wide.rows_per_block,
                0,
                plan.n_vertices,
                fully_labelled=True,
            )

    @pytest.mark.parametrize("labelled", ["full", "partial"])
    def test_range_call_allocates_only_for_its_rows(self, labelled):
        """A call over one eighth of the rows allocates for those rows only.

        An int64 search key against the int32 incidence array makes
        ``np.searchsorted`` convert the whole array: 8 B per layout
        incidence.  Reading only the range's own incidences stays far
        below that.
        """
        rng = np.random.default_rng(5)
        n, e = 200_000, 1_000_000
        fused = compile_fused_layout(
            rng.integers(0, n, e), rng.integers(0, n, e), None, n, K
        )
        assert fused.index_dtype is np.int32
        assert fused.n_incidences == 2 * e
        y_idx = _labels(n, rng, labelled).astype(fused.index_dtype)
        out = np.zeros(n * K)
        tracemalloc.start()
        accumulate_fused_rows_sorted(
            out,
            fused.owner_flat,
            fused.partner,
            fused.weights,
            y_idx,
            K,
            fused.rows_per_block,
            0,
            n // 8,
            fully_labelled=labelled == "full",
        )
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 3 * fused.n_incidences
