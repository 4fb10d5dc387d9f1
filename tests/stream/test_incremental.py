"""IncrementalEmbedding: O(Δ) maintenance must match a fresh fit exactly.

The central property (also the PR's acceptance criterion): after *any*
sequence of committed mutations, the incrementally-maintained embedding
equals a from-scratch ``fit`` on the mutated graph to 1e-10.  It is fuzzed
over ~200 seeded mutation scripts — random mixes of additions, removals
(exact-multiplicity on multigraphs), weight updates and labelled vertex
arrivals — with full refreshes through every registered backend, so a new
backend is automatically held to the same bar.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import list_backends
from repro.core.api import GraphEncoderEmbedding
from repro.graph import Graph, erdos_renyi, temporal_drift
from repro.stream import DynamicGraph, IncrementalEmbedding

ATOL = 1e-10
N_SCRIPTS = 200


def _fresh_fit(dyn: DynamicGraph, labels: np.ndarray, k: int) -> np.ndarray:
    """A cold full-batch fit on the current mutated graph (new facade)."""
    model = GraphEncoderEmbedding(k, method="vectorized")
    return model.fit(Graph(dyn.graph.edges.copy()), labels).embedding_


def test_chunked_refreshes_need_a_chunk_capable_backend():
    """``sparse`` has no chunked pass: asking it for chunked refreshes
    raises and names the backend."""
    edges = erdos_renyi(30, 80, seed=0)
    y = np.arange(30) % 3
    with pytest.raises(ValueError, match="'sparse' cannot run chunked refreshes"):
        IncrementalEmbedding(DynamicGraph(edges), y, backend="sparse", chunk_edges=64)
    inc = IncrementalEmbedding(DynamicGraph(edges), y, backend="sparse")
    assert inc.n_refreshes == 1


def test_requires_dynamic_graph():
    with pytest.raises(TypeError, match="DynamicGraph"):
        IncrementalEmbedding(erdos_renyi(5, 5, seed=0), np.zeros(5, dtype=np.int64),
                             n_classes=1)


class TestBasicMaintenance:
    @pytest.mark.parametrize("backend", list_backends())
    def test_mixed_batch_matches_fresh_fit(self, backend):
        rng = np.random.default_rng(7)
        edges = erdos_renyi(50, 220, weighted=True, seed=7)
        y = rng.integers(0, 4, size=50)
        y[rng.random(50) < 0.25] = -1
        dyn = DynamicGraph(edges)
        inc = IncrementalEmbedding(dyn, y, n_classes=4, backend=backend)
        dyn.add_edges([0, 5, 9], [9, 2, 0], [1.5, 0.5, 2.0])
        dyn.remove_edges(edges.src[:4], edges.dst[:4])
        dyn.update_weights(edges.src[10:12], edges.dst[10:12], [3.0, 4.0])
        dyn.commit()
        report = inc.update()
        assert report.incremental and not report.refreshed
        np.testing.assert_allclose(inc.embedding, _fresh_fit(dyn, y, 4), atol=ATOL)

    def test_multiple_commits_one_update(self):
        edges = erdos_renyi(40, 150, seed=3)
        y = np.random.default_rng(3).integers(0, 3, size=40)
        dyn = DynamicGraph(edges)
        inc = IncrementalEmbedding(dyn, y, n_classes=3)
        for i in range(3):
            dyn.add_edges([i], [i + 1])
            dyn.remove_edges([edges.src[i]], [edges.dst[i]])
            dyn.commit()
        report = inc.update()
        assert report.n_deltas == 3 and report.version_to == 3
        np.testing.assert_allclose(inc.embedding, _fresh_fit(dyn, y, 3), atol=ATOL)

    @pytest.mark.parametrize("labelled_later", [False, True])
    def test_labelled_vertex_arrivals_rescale_their_class(self, labelled_later):
        """New vertices rescale their class; one that no edge has reached
        yet may still be labelled at a later update."""
        edges = erdos_renyi(30, 100, seed=5)
        y = np.random.default_rng(5).integers(0, 3, size=30)
        dyn = DynamicGraph(edges)
        inc = IncrementalEmbedding(dyn, y, n_classes=3)
        dyn.add_vertices(2)
        if labelled_later:
            dyn.commit()
            inc.update()  # the new vertices arrive unlabelled, unread
        dyn.add_edges([30, 31], [0, 1])
        dyn.commit()
        y2 = np.concatenate([y, [0, 2]])
        inc.update(labels=y2)
        np.testing.assert_allclose(inc.embedding, _fresh_fit(dyn, y2, 3), atol=ATOL)

    @pytest.mark.parametrize("with_labels", [False, True])
    def test_one_edge_update_allocates_less_than_one_embedding(self, with_labels):
        """A one-edge batch moves O(n) bytes at most, never an n×K array
        (traced, not timed), with or without the label vector."""
        import tracemalloc

        n, k = 20_000, 16
        y = np.random.default_rng(3).integers(-1, k, size=n)
        dyn = DynamicGraph(erdos_renyi(n, 60_000, seed=3))
        inc = IncrementalEmbedding(dyn, y, n_classes=k)
        dyn.add_edges([1], [2])
        dyn.commit()
        tracemalloc.start()
        try:
            report = inc.update(labels=y if with_labels else None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.incremental
        assert peak < n * k * 8
        np.testing.assert_allclose(inc.embedding, _fresh_fit(dyn, y, k), atol=ATOL)

    def test_label_rewrite_rejected(self):
        edges = erdos_renyi(20, 60, seed=6)
        y = np.zeros(20, dtype=np.int64)
        dyn = DynamicGraph(edges)
        inc = IncrementalEmbedding(dyn, y, n_classes=2)
        dyn.add_edges([0], [1])
        dyn.commit()
        flipped = y.copy()
        flipped[0] = 1
        with pytest.raises(ValueError, match="must not change"):
            inc.update(labels=flipped)

    def test_noop_update(self):
        dyn = DynamicGraph(erdos_renyi(10, 30, seed=1))
        inc = IncrementalEmbedding(dyn, np.zeros(10, dtype=np.int64), n_classes=1)
        report = inc.update()
        assert report.n_deltas == 0 and not report.refreshed
        assert not inc.stale


class TestRefreshPolicy:
    def test_churn_threshold_triggers_exact_refresh(self):
        edges = erdos_renyi(30, 100, seed=9)
        y = np.random.default_rng(9).integers(0, 3, size=30)
        dyn = DynamicGraph(edges)
        inc = IncrementalEmbedding(dyn, y, n_classes=3, churn_threshold=0.1)
        # 100 removals + 100 additions >> 10% of E
        dyn.remove_edges(edges.src, edges.dst)
        dyn.add_edges(edges.dst, edges.src)
        dyn.commit()
        report = inc.update()
        assert report.refreshed and report.refresh_reason == "churn-threshold"
        assert inc.churn_since_refresh == 0
        np.testing.assert_allclose(inc.embedding, _fresh_fit(dyn, y, 3), atol=ATOL)

    def test_refresh_every_schedule(self):
        edges = erdos_renyi(25, 80, seed=10)
        y = np.random.default_rng(10).integers(0, 2, size=25)
        dyn = DynamicGraph(edges)
        inc = IncrementalEmbedding(dyn, y, n_classes=2, refresh_every=2)
        reasons = []
        for _ in range(4):
            dyn.add_edges([0], [1])
            dyn.commit()
            reasons.append(inc.update().refresh_reason)
        assert reasons == [None, "refresh-every", None, "refresh-every"]
        assert inc.n_refreshes == 3  # initial + two scheduled

    def test_empty_log_with_version_gap_forces_refresh(self):
        """Regression: max_log=0 must not leave the embedding silently stale."""
        edges = erdos_renyi(20, 60, seed=21)
        y = np.random.default_rng(21).integers(0, 2, size=20)
        dyn = DynamicGraph(edges, max_log=0)
        inc = IncrementalEmbedding(dyn, y, n_classes=2)
        dyn.add_edges([3], [0])
        dyn.commit()
        report = inc.update()
        assert report.refreshed and report.refresh_reason == "log-truncated"
        assert not inc.stale
        np.testing.assert_allclose(inc.embedding, _fresh_fit(dyn, y, 2), atol=ATOL)

    def test_truncated_log_forces_refresh(self):
        edges = erdos_renyi(25, 80, seed=11)
        y = np.random.default_rng(11).integers(0, 2, size=25)
        dyn = DynamicGraph(edges, max_log=1)
        inc = IncrementalEmbedding(dyn, y, n_classes=2)
        for _ in range(3):
            dyn.add_edges([2], [3])
            dyn.commit()
        report = inc.update()
        assert report.refreshed and report.refresh_reason == "log-truncated"
        np.testing.assert_allclose(inc.embedding, _fresh_fit(dyn, y, 2), atol=ATOL)

    def test_force_refresh_and_staleness_accounting(self):
        edges = erdos_renyi(25, 80, seed=12)
        y = np.random.default_rng(12).integers(0, 2, size=25)
        dyn = DynamicGraph(edges)
        inc = IncrementalEmbedding(dyn, y, n_classes=2)
        dyn.add_edges([0, 1], [2, 3])
        dyn.commit()
        assert inc.stale
        inc.update()
        assert inc.churn_since_refresh == 2 and inc.staleness > 0
        report = inc.update(force_refresh=True)
        assert report.refreshed and report.refresh_reason == "forced"
        assert inc.churn_since_refresh == 0


def _run_script(rng: np.random.Generator, backend: str) -> None:
    n = int(rng.integers(15, 50))
    s = int(rng.integers(30, 160))
    k = int(rng.integers(2, 5))
    weighted = bool(rng.random() < 0.5)
    edges = erdos_renyi(n, s, weighted=weighted, seed=int(rng.integers(1 << 31)))
    y = rng.integers(0, k, size=n).astype(np.int64)
    y[rng.random(n) < 0.2] = -1
    dyn = DynamicGraph(edges)
    inc = IncrementalEmbedding(dyn, y, n_classes=k, backend=backend)
    labels = y
    for _ in range(int(rng.integers(1, 4))):
        current = dyn.graph.edges
        # removals: sample existing instances (multigraph duplicates and all)
        n_rem = int(rng.integers(0, min(6, current.n_edges + 1)))
        if n_rem:
            pos = rng.choice(current.n_edges, size=n_rem, replace=False)
            dyn.remove_edges(current.src[pos], current.dst[pos])
        # weight updates on surviving edges: update requests address edges
        # remaining after this batch's removals, so sample disjoint positions
        n_upd = int(rng.integers(0, 3))
        if n_upd and current.n_edges > n_rem:
            rest = np.setdiff1d(np.arange(current.n_edges), pos if n_rem else [])
            upd = rng.choice(rest, size=min(n_upd, rest.size), replace=False)
            dyn.update_weights(
                current.src[upd], current.dst[upd], rng.uniform(0.5, 2.0, upd.size)
            )
        # occasional labelled vertex arrivals
        new_labels = None
        n_total = dyn.n_vertices
        if rng.random() < 0.3:
            grow = int(rng.integers(1, 3))
            dyn.add_vertices(grow)
            n_total += grow
            fresh = rng.integers(-1, k, size=grow)
            new_labels = np.concatenate([labels, fresh])
        # additions over the (possibly grown) vertex set
        n_add = int(rng.integers(0, 15))
        if n_add:
            dyn.add_edges(
                rng.integers(0, n_total, size=n_add),
                rng.integers(0, n_total, size=n_add),
                rng.uniform(0.5, 1.5, size=n_add) if weighted else None,
            )
        if dyn.commit() is None:
            continue
        if new_labels is not None:
            labels = np.asarray(new_labels, dtype=np.int64)
        if rng.random() < 0.7:  # sometimes let several commits accumulate
            inc.update(labels=labels)
    inc.update(labels=labels)
    fresh_model = GraphEncoderEmbedding(k, method="vectorized")
    fresh = fresh_model.fit(Graph(dyn.graph.edges.copy()), labels).embedding_
    np.testing.assert_allclose(inc.embedding, fresh, atol=ATOL)


@pytest.mark.parametrize("backend", list_backends())
def test_fuzz_mutation_scripts_match_fresh_fit(backend):
    """~200 seeded random mutation scripts track a fresh fit to 1e-10."""
    rng = np.random.default_rng(20260729)
    for script in range(N_SCRIPTS):
        try:
            _run_script(rng, backend)
        except AssertionError:
            raise AssertionError(
                f"mutation script {script} diverged on backend {backend!r}"
            )


class TestRefinementOverVersions:
    def test_drift_scenario_replays_through_dynamic_graph(self):
        scen = temporal_drift(
            60, 300, 3, n_batches=4, arrival_rate=0.05, removal_rate=0.05,
            drift_fraction=0.02, weighted=True, seed=13,
        )
        dyn = DynamicGraph(scen.initial)
        inc = IncrementalEmbedding(dyn, scen.labels, n_classes=3)
        for batch in scen.batches:
            if batch.n_removed:
                dyn.remove_edges(batch.remove_src, batch.remove_dst)
            if batch.n_added:
                dyn.add_edges(batch.add.src, batch.add.dst, batch.add.weights)
            dyn.commit()
            inc.update()
        np.testing.assert_allclose(
            inc.embedding, _fresh_fit(dyn, scen.labels, 3), atol=ATOL
        )
        assert inc.n_patch_updates >= 1
