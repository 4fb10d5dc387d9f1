"""Locality-optimized layouts: permutation invariance, narrowing, memory.

The fused sorted layout only *reorders commutative additions* (and
hoists the per-edge projection scale into a per-column rescale), so every
``supports_layout`` backend × layout combination must reproduce the
unpermuted pure-Python reference on the conformance-matrix edge cases to
1e-12.  The suite also pins the int32 index-narrowing boundary at
``n*K = 2^31`` and the label dtypes by ``K``, the symmetric-CSR layout
itself (row pointer, partner width, byte count, unit-weight row order),
the plan-buffer reuse property (no fresh ``(n*K,)`` output temporary on
the layout plan path), and the sorted row-range kernel: bitwise split
invariance, and per-range allocation proportional to the range.
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
    EmbedPlan,
    choose_index_dtype,
    choose_label_dtype,
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


def _labels(n, rng, labelled="partial", k=K):
    y = rng.integers(0, k, size=n).astype(np.int64)
    if labelled == "none":
        y[:] = -1
    elif labelled == "partial":
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
        if backend_name in ("auto", "parallel"):
            # The owner-range executor runs the graph's sorted plan
            # regardless of the plan's layout, and so does auto's rule;
            # each says so.
            assert result.layout == "sorted"
        else:
            assert result.layout == layout
        if backend_name == "auto":
            choice = result.execution_choice
            delegate = get_backend(choice.backend, n_workers=choice.n_workers)
            ran = delegate.embed_with_plan(graph.plan(K, layout=choice.layout), y)
            assert np.array_equal(result.embedding, ran.embedding)

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

    @pytest.mark.parametrize("budget", [{"chunk_edges": 17}, {"memory_budget_bytes": 4096}])
    def test_chunked_plan_has_no_sorted_layout(self, budget):
        """A chunked plan streams in stored order: asking for the sorted
        layout raises and names both alternatives."""
        edges, _ = _case("weighted", "partial")
        graph = Graph.coerce(edges)
        with pytest.raises(ValueError) as info:
            graph.plan(K, layout="sorted", **budget)
        assert 'graph.plan(K, layout="sorted")' in str(info.value)
        assert "graph.plan(K, chunk_edges=...)" in str(info.value)
        assert graph.plan(K, **budget).is_chunked

    @pytest.mark.parametrize("k", [1, 3, 50, 130])
    @pytest.mark.parametrize("labelled", ["full", "partial", "none"])
    @pytest.mark.parametrize("case", CASES)
    def test_layout_plan_equals_default_plan(self, case, labelled, k):
        """The default plan's pass sums every slot in the sorted layout's
        order: bitwise the sorted pass, and ``parallel`` at any worker
        count."""
        edges, _ = _case(case, labelled)
        y = _labels(edges.n_vertices, np.random.default_rng(k), labelled, k)
        graph = Graph.coerce(edges)
        backend = get_backend("vectorized")
        base = backend.embed_with_plan(graph.plan(k), y)
        assert base.layout == "none"
        np.testing.assert_allclose(base.embedding, gee_python(edges, y, k).embedding, atol=ATOL)
        for layout in PERMUTING_LAYOUTS:
            other = backend.embed_with_plan(graph.plan(k, layout=layout), y)
            assert np.array_equal(other.embedding, base.embedding)
        if fork_available():
            for workers in (1, 2, 3):
                pooled = get_backend("parallel", n_workers=workers)
                assert np.array_equal(
                    pooled.embed_with_plan(graph.plan(k), y).embedding, base.embedding
                )


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

    @pytest.mark.parametrize("layout", ["zorted", "blocked", "auto"])
    def test_unknown_layout_rejected(self, layout):
        edges, y = _case("unweighted", "partial")
        g = Graph.coerce(edges)
        with pytest.raises(ValueError, match="layout"):
            g.plan(K, layout=layout)
        accepted = r"layout must be one of \('none', 'sorted'\)"
        with pytest.raises(ValueError, match=accepted):
            GraphEncoderEmbedding(K, layout=layout).fit(edges, y)

    def test_fused_on_none_plan_raises(self):
        edges, _ = _case("unweighted", "partial")
        plan = Graph.coerce(edges).plan(K)
        with pytest.raises(ValueError, match="layout-preserving"):
            plan.fused


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

    def test_label_dtype_boundaries(self):
        """The narrowest signed dtype holding every label in ``[-1, K)``."""
        table = {
            1: np.int8,
            128: np.int8,
            129: np.int16,
            32_768: np.int16,
            32_769: np.int32,
            2**31: np.int32,
            2**31 + 1: np.int64,
        }
        for k, expected in table.items():
            assert choose_label_dtype(k) is expected, k

    def test_partner_narrows_by_vertex_count(self):
        """``partner`` holds vertex ids, so a graph with ``n`` below the
        int32 limit but ``n*K`` at or above it keeps int32 partners."""
        edges, y = _case("weighted", "partial")
        n = edges.n_vertices
        limit = n * K  # n < limit <= n*K
        plan = Graph.coerce(edges).plan(K, layout="sorted")
        plan._fused = compile_fused_layout(
            plan.src, plan.dst, plan.weights, n, K, int32_limit=limit
        )
        assert plan.fused.partner.dtype == np.int32
        result = get_backend("vectorized").embed_with_plan(plan, y)
        np.testing.assert_allclose(result.embedding, gee_python(edges, y, K).embedding, atol=ATOL)

    @pytest.mark.parametrize("layout", PERMUTING_LAYOUTS)
    def test_int64_fallback_is_exact(self, layout):
        """Force the int64 path via a tiny limit; results must not change."""
        edges, y = _case("weighted", "partial")
        reference = gee_python(edges, y, K).embedding
        graph = Graph.coerce(edges)
        plan = graph.plan(K, layout=layout)
        narrow = plan.fused
        assert narrow.partner.dtype == np.int32
        wide = compile_fused_layout(
            plan.src,
            plan.dst,
            plan.weights,
            plan.n_vertices,
            K,
            int32_limit=1,  # every graph is now "too big" for int32
        )
        assert wide.partner.dtype == np.int64
        plan._fused = wide  # swap the compiled artifact under the kernel
        result = get_backend("vectorized").embed_with_plan(plan, y)
        np.testing.assert_allclose(result.embedding, reference, atol=ATOL)
        np.testing.assert_array_equal(narrow.indptr, wide.indptr)
        np.testing.assert_array_equal(narrow.partner.astype(np.int64), wide.partner)

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
        assert narrow_plan.fused.partner.dtype == np.int32
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
        assert wide_plan.fused.partner.dtype == np.int64
        wide = backend.embed_with_plan(wide_plan, y).embedding
        assert np.array_equal(wide, narrow)
        np.testing.assert_allclose(wide, gee_python(edges, y, K).embedding, atol=ATOL)


class TestSymmetricCSR:
    """The sorted layout is the symmetric CSR of the graph: a row pointer,
    the partner of each incidence and its weight."""

    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
    def test_nbytes_counts_the_three_arrays(self, weighted):
        edges, _ = _case("weighted" if weighted else "unweighted", "full")
        fused = Graph.coerce(edges).plan(K, layout="sorted").fused
        assert fused.indptr.dtype == np.int64
        assert fused.indptr.size == edges.n_vertices + 1
        assert fused.indptr[-1] == fused.n_incidences == 2 * edges.n_edges
        expected = fused.indptr.nbytes + fused.partner.nbytes
        if weighted:
            expected += fused.weights.nbytes
        else:
            assert fused.weights is None
        assert fused.nbytes == expected

    @pytest.mark.parametrize("case", ["unweighted", "isolated-vertices"])
    @pytest.mark.parametrize("labelled", ["full", "partial"])
    def test_unit_weight_rows_give_the_stable_order_sums(self, case, labelled):
        """A unit-weight compile lists each row's partners in ascending
        order; its raw sums are bitwise those of the stable-order compile
        (counts of ones are exact in any order)."""
        edges, y = _case(case, labelled)
        n = edges.n_vertices
        unit = compile_fused_layout(edges.src, edges.dst, None, n, K)
        stable = compile_fused_layout(edges.src, edges.dst, np.ones(edges.n_edges), n, K)
        np.testing.assert_array_equal(unit.indptr, stable.indptr)
        for u in range(n):
            row = slice(unit.indptr[u], unit.indptr[u + 1])
            assert np.all(np.diff(unit.partner[row]) >= 0)
            np.testing.assert_array_equal(unit.partner[row], np.sort(stable.partner[row]))
        y_lab = y.astype(choose_label_dtype(K))
        sums = []
        for fused in (unit, stable):
            out = np.full(n * K, np.nan)
            accumulate_fused_rows_sorted(
                out,
                fused.indptr,
                fused.partner,
                fused.weights,
                y_lab,
                K,
                fused.rows_per_block,
                0,
                n,
                fully_labelled=labelled == "full",
            )
            sums.append(out)
        np.testing.assert_array_equal(sums[0], sums[1])

    @pytest.mark.skipif(not fork_available(), reason="fork not available")
    @pytest.mark.parametrize("k", [129, 200])
    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
    def test_int16_labels_match_reference(self, k, weighted):
        """``K > 128`` gathers int16 labels; serial and pooled fits agree
        bitwise and match the pure-Python reference."""
        rng = np.random.default_rng(k)
        n, e = 400, 3000
        w = rng.uniform(0.1, 4.0, e) if weighted else None
        edges = EdgeList(rng.integers(0, n, e), rng.integers(0, n, e), w, n)
        y = rng.integers(0, k, n)
        y[rng.random(n) < 0.3] = -1
        assert choose_label_dtype(k) is np.int16
        serial = GraphEncoderEmbedding(k, method="vectorized", layout="sorted").fit(edges, y)
        pooled = GraphEncoderEmbedding(k, method="parallel", n_workers=2).fit(edges, y)
        assert pooled.result_.n_workers == 2
        reference = gee_python(edges, y, k).embedding
        np.testing.assert_allclose(serial.embedding_, reference, atol=1e-10)
        assert np.array_equal(pooled.embedding_, serial.embedding_)


class TestPlanBufferReuse:
    """The satellite bugfix: layout plan paths must not allocate a fresh
    ``(n*K,)`` output temporary — the block-local segment sums write into
    the plan's reused buffer with only L2-sized temporaries."""

    def _peak_during_embed(self, backend, plan, y):
        backend.embed_with_plan(plan, y)  # warm: compile layout, buffers
        tracemalloc.start()
        try:
            backend.embed_with_plan(plan, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
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
        # The default plan's pass allocates one output-sized bincount
        # temporary; the fused path must stay well under one.
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
    ``parallel`` workers over their own row ranges.  Every output
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
        assert fused.partner.dtype.name == dtype
        assert fused.rows_per_block == self.ROWS_PER_BLOCK
        plan._fused = fused
        y_lab = y.astype(choose_label_dtype(K))

        def run(cuts):
            out = np.full(n * K, np.nan)
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                accumulate_fused_rows_sorted(
                    out,
                    fused.indptr,
                    fused.partner,
                    fused.weights,
                    y_lab,
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

    @pytest.mark.parametrize("k, dtype", [(5, np.uint8), (200, np.int8), (40_000, np.int16)])
    def test_labels_too_narrow_for_k_refused(self, k, dtype):
        """A label dtype that cannot hold ``K - 1`` and ``-1`` must raise
        rather than wrap the labels into other classes' columns."""
        edges, _ = _case("weighted", "full")
        fused = compile_fused_layout(
            edges.src, edges.dst, edges.weights, edges.n_vertices, k
        )
        out = np.zeros(edges.n_vertices * k)
        with pytest.raises(TypeError, match=f"K={k}"):
            accumulate_fused_rows_sorted(
                out,
                fused.indptr,
                fused.partner,
                fused.weights,
                np.zeros(edges.n_vertices, dtype=dtype),
                k,
                fused.rows_per_block,
                0,
                edges.n_vertices,
                fully_labelled=True,
            )

    @pytest.mark.parametrize("labelled", ["full", "partial"])
    def test_range_call_allocates_only_for_its_rows(self, labelled):
        """A call over one eighth of the rows allocates for those rows only.

        The row pointer gives the range's incidences directly, and the
        kernel gathers one narrow label per incidence of the range.  A
        temporary over the whole layout, such as an int64 index per
        incidence, would cost 8 B per layout incidence and break the bound.
        """
        rng = np.random.default_rng(5)
        n, e = 200_000, 1_000_000
        fused = compile_fused_layout(
            rng.integers(0, n, e), rng.integers(0, n, e), None, n, K
        )
        assert fused.partner.dtype == np.int32
        assert fused.n_incidences == 2 * e
        y_lab = _labels(n, rng, labelled).astype(choose_label_dtype(K))
        out = np.zeros(n * K)
        tracemalloc.start()
        try:
            accumulate_fused_rows_sorted(
                out,
                fused.indptr,
                fused.partner,
                fused.weights,
                y_lab,
                K,
                fused.rows_per_block,
                0,
                n // 8,
                fully_labelled=labelled == "full",
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * fused.n_incidences
