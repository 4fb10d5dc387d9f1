"""Tests for the compiled EmbedPlan layer and the delta-driven refinement."""

import numpy as np
import pytest

from repro.backends import backend_capabilities, get_backend, list_backends
from repro.core import (
    EmbedPlan,
    GraphEncoderEmbedding,
    gee_python,
    gee_unsupervised,
    gee_vectorized,
)
from repro.core.plan import owner_sort
from repro.core.refinement import _apply_label_delta
from repro.core.validation import class_counts
from repro.graph import EdgeList, Graph, erdos_renyi, planted_partition
from repro.labels import mask_labels


@pytest.fixture(scope="module")
def seeded():
    edges, truth = planted_partition(240, 4, 0.1, 0.01, seed=7)
    y = mask_labels(truth, 0.3, seed=7)
    return edges, y


class TestPlanCaching:
    def test_same_graph_same_k_reuses_plan(self, seeded):
        edges, _ = seeded
        g = Graph.coerce(edges)
        plan = g.plan(4)
        assert isinstance(plan, EmbedPlan)
        assert g.plan(4) is plan

    def test_different_k_compiles_new_plan(self, seeded):
        edges, _ = seeded
        g = Graph.coerce(edges)
        p4 = g.plan(4)
        p6 = g.plan(6)
        assert p4 is not p6
        assert p6.n_classes == 6
        # Both stay cached independently.
        assert g.plan(4) is p4
        assert g.plan(6) is p6

    def test_inplace_mutation_invalidates(self, seeded):
        edges, _ = seeded
        g = Graph.coerce(edges.copy())
        p = g.plan(4)
        # Mutate a sampled edge (the first edge is always fingerprinted).
        g.edges.dst[0] = (g.edges.dst[0] + 1) % g.n_vertices
        p2 = g.plan(4)
        assert p2 is not p
        assert int(p2.dst[0]) == int(g.edges.dst[0])

    def test_mutation_invalidates_other_cached_views(self, seeded):
        edges, _ = seeded
        g = Graph.coerce(edges.copy())
        g.plan(4)
        stale_csr = g.csr
        g.edges.src[0] = (g.edges.src[0] + 1) % g.n_vertices
        g.plan(4)
        assert g.csr is not stale_csr

    def test_explicit_invalidate_cache(self, seeded):
        edges, _ = seeded
        g = Graph.coerce(edges)
        p = g.plan(4)
        g.invalidate_cache()
        assert g.plan(4) is not p

    def test_plan_precomputes_flat_components_and_views(self, seeded):
        edges, _ = seeded
        g = Graph.coerce(edges)
        p = g.plan(5)
        np.testing.assert_array_equal(p.src_flat, p.src * 5)
        np.testing.assert_array_equal(p.dst_flat, p.dst * 5)
        # The sorted layout's row pointer gives every edge one incidence at
        # each endpoint, and reads the edge arrays only: no CSR/CSC view.
        indptr = g.plan(5, layout="sorted").fused.indptr
        assert indptr[-1] == 2 * p.n_edges
        assert g._csr is None

    def test_plan_compile_is_lazy_about_adjacency(self, seeded):
        """One-shot vectorized fits must not pay for CSR/CSC builds."""
        edges, y = seeded
        g = Graph.coerce(edges)
        p = g.plan(4)
        assert g._csr is None  # compile touched only the edge arrays
        get_backend("vectorized").embed_with_plan(p, y)
        assert g._csr is None

    def test_mutation_before_first_plan_detected(self, seeded):
        """A mutation between CSR construction and the FIRST plan() call
        must not pair fresh edge arrays with the stale CSR."""
        edges, y = seeded
        g = Graph.coerce(edges.copy())
        stale_csr = g.csr  # view built before any plan exists
        g.edges.dst[0] = (g.edges.dst[0] + 1) % g.n_vertices
        p = g.plan(4)
        assert g.csr is not stale_csr
        # Edge-array and CSR consumers of the same plan agree.
        np.testing.assert_allclose(
            get_backend("vectorized").embed_with_plan(p, y).embedding,
            get_backend("sparse").embed_with_plan(p, y).embedding,
            atol=1e-9,
        )

    def test_mutation_detected_for_first_time_k(self, seeded):
        """A new K after mutation must not mix fresh edges with stale views."""
        edges, _ = seeded
        g = Graph.coerce(edges.copy())
        g.plan(4)
        stale_csr = g.csr
        g.edges.dst[0] = (g.edges.dst[0] + 1) % g.n_vertices
        p6 = g.plan(6)  # K never seen before; fingerprint must still trip
        assert g.csr is not stale_csr
        assert int(p6.dst[0]) == int(g.edges.dst[0])

    def test_plan_cache_capped(self, seeded):
        edges, _ = seeded
        g = Graph.coerce(edges)
        for k in range(2, 2 + g._MAX_PLANS + 3):
            g.plan(k)
        assert len(g._plans) == g._MAX_PLANS

    def test_adopted_csr_mutation_detected(self, seeded):
        """For a CSR-adopted graph the CSR is the source of truth: in-place
        CSR mutation must invalidate the plan and the derived edge view."""
        edges, y = seeded
        csr = Graph.coerce(edges.copy()).csr
        g = Graph.coerce(csr)
        p = g.plan(4)
        csr.weights[0] = 5.0  # first edge is always fingerprint-sampled
        p2 = g.plan(4)
        assert p2 is not p
        assert float(p2.weights[0]) == 5.0
        # The rebuilt plan matches a from-scratch embed of the mutated CSR.
        result = get_backend("vectorized").embed_with_plan(p2, y)
        reference = gee_python(g.edges, y, 4).embedding
        np.testing.assert_allclose(result.embedding, reference, atol=1e-9)

    def test_row_ranges_cached_per_worker_count(self, seeded):
        edges, _ = seeded
        p = Graph.coerce(edges).plan(4, layout="sorted")
        r2 = p.fused_row_ranges(2)
        assert p.fused_row_ranges(2) is r2
        assert len(p.fused_row_ranges(3)) == 3
        assert r2[0][0] == 0 and r2[-1][1] == p.n_vertices
        assert p.fused_row_ranges(1) == [(0, p.n_vertices)]


class TestOwnerSort:
    """The packed-key owner sort gives exactly the stable argsort's order."""

    @pytest.mark.parametrize(
        "case", ["random", "random-int32", "duplicate-heavy", "single", "empty"]
    )
    def test_matches_the_stable_argsort(self, case, argsort_kinds, monkeypatch):
        rng = np.random.default_rng(11)
        owner = {
            "random": rng.integers(0, 1_000_000, size=5000),
            "random-int32": rng.integers(0, 1_000_000, size=5000).astype(np.int32),
            "duplicate-heavy": rng.integers(0, 4, size=5000),
            "single": np.array([7]),
            "empty": np.empty(0, dtype=np.int64),
        }[case]
        order, sorted_owner = owner_sort(owner)
        monkeypatch.undo()
        expected = np.argsort(owner, kind="stable")
        assert np.array_equal(order, expected)
        assert np.array_equal(sorted_owner, owner[expected])
        assert sorted_owner.dtype == owner.dtype
        assert argsort_kinds == ([] if owner.size else ["stable"])  # packed unless empty

    def test_owners_too_wide_to_pack_take_the_stable_argsort(self, argsort_kinds, monkeypatch):
        rng = np.random.default_rng(12)
        owner = rng.integers(2**61 - 16, 2**61, size=3000)
        order, sorted_owner = owner_sort(owner)
        monkeypatch.undo()
        assert argsort_kinds == ["stable"]
        expected = np.argsort(owner, kind="stable")
        assert np.array_equal(order, expected)
        assert np.array_equal(sorted_owner, owner[expected])


class TestEmbedWithPlan:
    @pytest.mark.parametrize("name", sorted(list_backends()))
    def test_matches_reference_and_classic_path(self, seeded, name):
        edges, y = seeded
        g = Graph.coerce(edges)
        reference = gee_python(edges, y, 4).embedding
        caps = backend_capabilities(name)
        backend = get_backend(name, n_workers=2 if caps.supports_n_workers else None)
        plan = g.plan(4)
        result = backend.embed_with_plan(plan, y)
        np.testing.assert_allclose(result.embedding, reference, atol=1e-9)
        # Lazy projection materialises correctly.
        np.testing.assert_allclose(
            result.projection, gee_python(edges, y, 4).projection, atol=1e-12
        )

    def test_repeated_calls_reuse_output_buffer(self, seeded):
        edges, y = seeded
        g = Graph.coerce(edges)
        plan = g.plan(4)
        backend = get_backend("vectorized")
        r1 = backend.embed_with_plan(plan, y)
        address = r1.embedding.ctypes.data
        kept = r1.detached()
        assert kept is r1  # nothing to detach: the result owns its array
        expected = r1.embedding.copy()
        del r1, kept
        r2 = backend.embed_with_plan(plan, y)
        assert r2.embedding.ctypes.data == address  # the dropped result's buffer
        np.testing.assert_array_equal(r2.embedding, expected)

    @pytest.mark.parametrize(
        "backend_name, layout",
        [("vectorized", None), ("vectorized", "sorted"), ("parallel", None)],
    )
    def test_embeds_compile_no_flat_index_or_unit_weights(self, seeded, backend_name, layout):
        """The default plan's pass reads the validated edge arrays alone,
        and no kernel reads a unit-weight graph's ones."""
        weighted, y = seeded
        edges = EdgeList(weighted.src, weighted.dst, None, weighted.n_vertices)
        g = Graph.coerce(edges)
        plan = g.plan(4, layout=layout)
        workers = 2 if backend_name == "parallel" else None
        result = get_backend(backend_name, n_workers=workers).embed_with_plan(plan, y)
        np.testing.assert_allclose(result.embedding, gee_python(edges, y, 4).embedding, atol=1e-12)
        assert plan._src_flat is None and plan._dst_flat is None
        for compiled in g._plans.values():
            assert compiled.unit_weights and compiled._weights is None
        np.testing.assert_array_equal(plan.weights, np.ones(edges.n_edges))

    def test_fully_labelled_fast_path(self, seeded):
        edges, _ = seeded
        g = Graph.coerce(edges)
        y_full = np.arange(g.n_vertices) % 4
        plan = g.plan(4)
        fast = get_backend("vectorized").embed_with_plan(plan, y_full)
        np.testing.assert_allclose(
            fast.embedding, gee_python(edges, y_full, 4).embedding, atol=1e-9
        )

    def test_weighted_graph_with_plan(self):
        edges = erdos_renyi(120, 700, seed=5, weighted=True)
        y = mask_labels(np.arange(120) % 3, 0.4, seed=5)
        g = Graph.coerce(edges)
        plan = g.plan(3)
        reference = gee_python(edges, y, 3).embedding
        for name in ("vectorized", "sparse", "ligra-vectorized", "parallel"):
            result = get_backend(name).embed_with_plan(plan, y)
            np.testing.assert_allclose(result.embedding, reference, atol=1e-9)

    def test_plan_label_validation_still_applies(self, seeded):
        edges, _ = seeded
        g = Graph.coerce(edges)
        plan = g.plan(4)
        backend = get_backend("vectorized")
        with pytest.raises(ValueError, match="out of range"):
            backend.embed_with_plan(plan, np.full(g.n_vertices, 7))
        with pytest.raises(ValueError, match="1-D array"):
            backend.embed_with_plan(plan, np.zeros(3))


class TestEstimatorWithPlanActive:
    def test_fit_caches_plan_and_second_fit_matches(self, seeded):
        edges, y = seeded
        g = Graph.coerce(edges)
        first = GraphEncoderEmbedding(method="vectorized").fit(g, y).embedding_.copy()
        plan = g.plan(4)
        second = GraphEncoderEmbedding(method="vectorized").fit(g, y)
        assert g.plan(4) is plan  # the fit reused the compiled plan
        np.testing.assert_allclose(second.embedding_, first, atol=0)

    def test_fits_do_not_alias_each_other(self, seeded):
        """Two fits on one Graph must not share the plan's output buffer."""
        edges, y = seeded
        g = Graph.coerce(edges)
        a = GraphEncoderEmbedding(method="vectorized").fit(g, y)
        snapshot = a.embedding_.copy()
        y2 = np.roll(y, 1)
        GraphEncoderEmbedding(method="vectorized").fit(g, y2)
        np.testing.assert_array_equal(a.embedding_, snapshot)

    def test_transform_matches_full_batch_with_plan_active(self, seeded):
        edges, y = seeded
        g = Graph.coerce(edges)
        model = GraphEncoderEmbedding(method="vectorized").fit(g, y)
        n = g.n_vertices
        new_edges = np.array([[n, 0, 1.0], [n, 5, 1.0], [3, n, 2.0]])
        rows = model.transform(new_edges)

        combined = np.vstack([g.edges.as_array(), new_edges])
        y_ext = np.concatenate([y, [-1]])
        full = GraphEncoderEmbedding(method="vectorized").fit(combined, y_ext)
        np.testing.assert_allclose(rows[0], full.embedding_[n], atol=1e-12)

    def test_partial_fit_matches_full_batch_with_plan_active(self, seeded):
        edges, y = seeded
        g = Graph.coerce(edges)
        batch_model = GraphEncoderEmbedding(method="vectorized").fit(g, y)

        E = g.edges.as_array()
        half = E.shape[0] // 2
        stream = GraphEncoderEmbedding(method="vectorized")
        stream.partial_fit(E[:half], labels=y)
        stream.partial_fit(E[half:])
        np.testing.assert_allclose(
            stream.embedding_, batch_model.embedding_, atol=1e-9
        )


class TestDeltaRefinement:
    def test_delta_update_matches_from_scratch_embed(self, seeded):
        """The tentpole exactness claim: delta S-updates track a full embed."""
        edges, _ = seeded
        g = Graph.coerce(edges)
        k = 4
        fused = g.plan(k, layout="sorted").fused
        rng = np.random.default_rng(11)
        y_old = rng.integers(0, k, size=g.n_vertices)
        S_flat = (
            gee_vectorized(g.edges, y_old, k).embedding
            * class_counts(y_old, k)[None, :]
        ).ravel().copy()
        # Ten successive delta rounds, each flipping ~5% of the labels.
        y = y_old
        for _ in range(10):
            y_new = y.copy()
            flip = rng.choice(g.n_vertices, size=12, replace=False)
            y_new[flip] = rng.integers(0, k, size=flip.size)
            _apply_label_delta(S_flat, fused, y, y_new)
            y = y_new
        counts = class_counts(y, k).astype(np.float64)
        inv = np.where(counts > 0, 1.0 / np.maximum(counts, 1.0), 0.0)
        Z_delta = S_flat.reshape(g.n_vertices, k) * inv[None, :]
        Z_full = gee_vectorized(g.edges, y, k).embedding
        np.testing.assert_allclose(Z_delta, Z_full, atol=1e-10)

    @pytest.mark.parametrize("case", ["self-loop", "duplicates", "unit-duplicates"])
    def test_delta_handles_weights_and_self_loops(self, case):
        src = np.array([0, 1, 2, 3, 3, 4])
        dst = np.array([1, 2, 0, 3, 4, 0])  # includes self-loop (3, 3)
        w = np.array([1.5, 0.5, 2.0, 3.0, 1.0, 0.25])
        if case != "self-loop":
            # (0, 1) twice more, once reversed, and the self-loop again: a
            # changed vertex's row lists every instance.
            src = np.concatenate([src, [0, 1, 3]])
            dst = np.concatenate([dst, [1, 0, 3]])
            w = np.concatenate([w, [4.0, 0.125, 8.0]])
        g = Graph.coerce((src, dst, None if case == "unit-duplicates" else w))
        k = 3
        fused = g.plan(k, layout="sorted").fused
        y0 = np.array([0, 1, 2, 0, 1])
        y1 = np.array([1, 1, 2, 2, 0])  # changes vertices 0, 3, 4
        S = (
            gee_vectorized(g.edges, y0, k).embedding * class_counts(y0, k)[None, :]
        ).ravel().copy()
        _apply_label_delta(S, fused, y0, y1)
        counts = class_counts(y1, k).astype(np.float64)
        inv = np.where(counts > 0, 1.0 / np.maximum(counts, 1.0), 0.0)
        Z_delta = S.reshape(5, k) * inv[None, :]
        np.testing.assert_allclose(
            Z_delta, gee_vectorized(g.edges, y1, k).embedding, atol=1e-12
        )

    def test_delta_pass_reads_the_sorted_layout_not_the_csr(self):
        """The delta pass walks the sorted plan's symmetric CSR; it builds
        no CSR view of its own."""
        edges, truth = planted_partition(240, 4, 0.1, 0.01, seed=7)
        g = Graph.coerce(edges)
        res = gee_unsupervised(
            g, 4, seed=0, max_iterations=6, initial_labels=truth,
            convergence_fraction=1.0, delta=True,
        )
        assert res.n_delta_passes > 0
        assert "csr" not in g.cached_views()
        assert g.plan(4, layout="sorted")._fused is not None

    def test_unsupervised_delta_matches_full_loop(self):
        # Warm-start near the planted truth so the per-iteration churn stays
        # under delta_threshold and the delta path actually engages.
        edges, truth = planted_partition(240, 4, 0.1, 0.01, seed=7)
        rng = np.random.default_rng(3)
        noisy = truth.copy()
        flip = rng.choice(240, size=24, replace=False)
        noisy[flip] = rng.integers(0, 4, size=flip.size)
        kwargs = dict(
            seed=0, max_iterations=12, initial_labels=noisy,
            convergence_fraction=1.0,
        )
        res_delta = gee_unsupervised(edges, 4, delta=True, **kwargs)
        res_full = gee_unsupervised(edges, 4, delta=False, **kwargs)
        np.testing.assert_array_equal(res_delta.labels, res_full.labels)
        np.testing.assert_allclose(res_delta.embedding, res_full.embedding, atol=1e-10)
        assert res_delta.n_delta_passes > 0
        assert res_full.n_delta_passes == 0

    def test_chaotic_iterations_fall_back_to_full(self, seeded):
        """Random starts churn >50% of labels; the delta loop must notice
        and run those rounds as full passes rather than doubling the work."""
        edges, _ = seeded
        res = gee_unsupervised(edges, 4, seed=0, max_iterations=5, delta=True)
        # Every early iteration changed most labels -> full fallback each time.
        assert res.n_full_passes >= 1
        assert res.n_full_passes + res.n_delta_passes == res.n_iterations

    def test_full_refresh_cadence(self, seeded):
        edges, _ = seeded
        res = gee_unsupervised(
            edges, 4, seed=0, max_iterations=9, delta=True,
            full_refresh_every=4, convergence_fraction=1.0,
            delta_threshold=1.0,  # disable the churn fallback: cadence only
        )
        # Iterations 1, 5, 9 are full refreshes; the rest are deltas.
        assert res.n_full_passes == 3
        assert res.n_full_passes + res.n_delta_passes == res.n_iterations

    def test_delta_with_registry_backend_implementation(self, seeded):
        edges, _ = seeded
        res = gee_unsupervised(
            edges, 4, seed=0, max_iterations=8, implementation="sparse", delta=True
        )
        ref = gee_unsupervised(
            edges, 4, seed=0, max_iterations=8, implementation="vectorized", delta=True
        )
        np.testing.assert_array_equal(res.labels, ref.labels)

    def test_auto_delta_disabled_for_reweighting_callable(self, seeded):
        """delta="auto" must not replay raw edge weights against an
        implementation that reweights internally (gee_laplacian)."""
        from repro.core import gee_laplacian

        edges, _ = seeded
        auto = gee_unsupervised(edges, 4, seed=0, max_iterations=6,
                                implementation=gee_laplacian)
        off = gee_unsupervised(edges, 4, seed=0, max_iterations=6,
                               implementation=gee_laplacian, delta=False)
        assert auto.n_delta_passes == 0
        np.testing.assert_array_equal(auto.labels, off.labels)
        np.testing.assert_allclose(auto.embedding, off.embedding, atol=0)

    def test_auto_delta_enabled_for_standard_kernels(self, seeded):
        edges, truth = planted_partition(240, 4, 0.1, 0.01, seed=7)
        res = gee_unsupervised(
            edges, 4, seed=0, max_iterations=8, initial_labels=truth,
            convergence_fraction=1.0, implementation=gee_vectorized,
        )
        assert res.n_delta_passes > 0  # "auto" engaged for the raw kernel

    def test_invalid_full_refresh_every(self, seeded):
        edges, _ = seeded
        with pytest.raises(ValueError, match="full_refresh_every"):
            gee_unsupervised(edges, 4, full_refresh_every=0)
        with pytest.raises(ValueError, match="delta must be"):
            gee_unsupervised(edges, 4, delta="yes")
