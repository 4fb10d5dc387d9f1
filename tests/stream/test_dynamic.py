"""DynamicGraph: staging, commit semantics, instance matching, versioned snapshots, plan carry."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import gee_unsupervised
from repro.core.api import GraphEncoderEmbedding
from repro.graph import EdgeList, Graph, erdos_renyi
from repro.stream import DynamicGraph, MissingEdgeError
from repro.stream.mutations import match_edge_instances


def _multigraph():
    """A weighted multigraph: (1, 2) three times with distinct weights."""
    return EdgeList(
        src=np.array([0, 1, 1, 1, 2, 3]),
        dst=np.array([1, 2, 2, 2, 3, 0]),
        weights=np.array([1.0, 10.0, 20.0, 30.0, 2.0, 3.0]),
        n_vertices=4,
    )


class TestStagingAndCommit:
    def test_empty_commit_is_noop(self):
        dyn = DynamicGraph(_multigraph())
        assert dyn.commit() is None
        assert dyn.version == 0

    def test_add_remove_update_in_one_batch(self):
        dyn = DynamicGraph(_multigraph())
        dyn.add_edges([3], [2], [7.0])
        dyn.remove_edges([0], [1])
        dyn.update_weights([2], [3], [5.0])
        delta = dyn.commit()
        assert dyn.version == 1
        assert delta.n_added == 1 and delta.n_removed == 1 and delta.n_updated == 1
        assert not delta.append_only
        edges = dyn.graph.edges
        assert edges.n_edges == 6
        # removed (0, 1); updated (2, 3) to 5.0; appended (3, 2, 7.0)
        assert not np.any((edges.src == 0) & (edges.dst == 1))
        pos = np.flatnonzero((edges.src == 2) & (edges.dst == 3))
        assert edges.weights[pos].tolist() == [5.0]
        assert edges.weights[-1] == 7.0

    def test_staged_fluent_chaining_and_discard(self):
        dyn = DynamicGraph(_multigraph())
        dyn.add_edges([0], [2]).remove_edges([0], [1]).add_vertices(2)
        assert dyn.n_staged > 0
        dyn.discard_staged()
        assert dyn.n_staged == 0
        assert dyn.commit() is None

    def test_add_vertices_grows_vertex_set(self):
        dyn = DynamicGraph(_multigraph())
        dyn.add_vertices(3)
        dyn.add_edges([4, 6], [0, 5])
        delta = dyn.commit()
        assert dyn.n_vertices == 7
        assert delta.n_vertices_before == 4 and delta.n_vertices_after == 7
        assert not delta.append_only  # vertex growth is structural

    def test_new_endpoint_without_add_vertices_rejected(self):
        dyn = DynamicGraph(_multigraph())
        dyn.add_edges([4], [0])
        with pytest.raises(ValueError, match="add_vertices"):
            dyn.commit()
        # failed commits leave the graph untouched
        assert dyn.version == 0 and dyn.n_vertices == 4

    def test_update_weights_materialises_on_unweighted_graph(self):
        dyn = DynamicGraph(EdgeList(np.array([0, 1]), np.array([1, 2]), None, 3))
        dyn.update_weights([0], [1], [4.0])
        dyn.commit()
        edges = dyn.graph.edges
        assert edges.is_weighted
        assert edges.weights.tolist() == [4.0, 1.0]

    def test_removal_records_actual_instance_weights(self):
        dyn = DynamicGraph(_multigraph())
        dyn.remove_edges([1], [2])
        delta = dyn.commit()
        # first instance by edge position carries weight 10.0
        assert delta.removed_weights.tolist() == [10.0]

    def test_unweighted_removal_records_unit_weights(self, monkeypatch):
        dyn = DynamicGraph(EdgeList(np.array([0, 1, 1, 2]), np.array([1, 2, 2, 0]), None, 3))

        def no_full_weights(self):
            raise AssertionError("an unweighted commit materialised E unit weights")

        monkeypatch.setattr(EdgeList, "effective_weights", no_full_weights)
        dyn.remove_edges([1], [2])
        delta = dyn.commit()
        assert delta.removed_weights.tolist() == [1.0]
        edges = dyn.graph.edges
        assert not edges.is_weighted
        assert edges.src.tolist() == [0, 1, 2] and edges.dst.tolist() == [1, 2, 0]


class TestMultigraphMultiplicity:
    """remove_edges must remove exactly the requested multiplicity."""

    def test_single_request_removes_single_instance(self):
        dyn = DynamicGraph(_multigraph())
        dyn.remove_edges([1], [2])
        dyn.commit()
        edges = dyn.graph.edges
        remaining = np.flatnonzero((edges.src == 1) & (edges.dst == 2))
        assert remaining.size == 2
        assert sorted(edges.weights[remaining].tolist()) == [20.0, 30.0]

    def test_multiplicity_two_removes_two_instances(self):
        dyn = DynamicGraph(_multigraph())
        dyn.remove_edges([1, 1], [2, 2])
        dyn.commit()
        edges = dyn.graph.edges
        remaining = np.flatnonzero((edges.src == 1) & (edges.dst == 2))
        assert edges.weights[remaining].tolist() == [30.0]

    def test_exceeding_multiplicity_raises(self):
        dyn = DynamicGraph(_multigraph())
        dyn.remove_edges([1] * 4, [2] * 4)
        with pytest.raises(MissingEdgeError, match="multiplicity"):
            dyn.commit()
        assert dyn.graph.edges.n_edges == 6  # untouched

    def test_missing_edge_raises(self):
        dyn = DynamicGraph(_multigraph())
        dyn.remove_edges([3], [3])
        with pytest.raises(MissingEdgeError):
            dyn.commit()

    def test_update_matches_surviving_instances_only(self):
        dyn = DynamicGraph(_multigraph())
        # Remove the first (1,2) instance; the update must then hit the
        # second (weight 20.0), not the removed one.
        dyn.remove_edges([1], [2])
        dyn.update_weights([1], [2], [99.0])
        delta = dyn.commit()
        assert delta.updated_old_weights.tolist() == [20.0]
        edges = dyn.graph.edges
        pos = np.flatnonzero((edges.src == 1) & (edges.dst == 2))
        assert sorted(edges.weights[pos].tolist()) == [30.0, 99.0]


def _oracle_match(src, dst, req_src, req_dst, n_vertices):
    """Brute force: the r-th request for a pair takes the r-th position of that pair."""
    if any(v < 0 or v >= n_vertices for v in (*req_src, *req_dst)):
        raise ValueError("out of range")
    taken = {}
    out = []
    for u, v in zip(req_src.tolist(), req_dst.tolist()):
        r = taken.get((u, v), 0)
        positions = np.flatnonzero((src == u) & (dst == v))
        if r >= positions.size:
            raise MissingEdgeError((u, v))
        out.append(positions[r])
        taken[(u, v)] = r + 1
    return np.array(out, dtype=np.int64)


class TestMatchEdgeInstances:
    def test_fuzz_matches_oracle(self):
        """Seeded fuzz of the matcher against :func:`_oracle_match`.

        Small vertex sets give heavy duplication and self-loops; requests
        drawn from stored instances reach the stored multiplicity, and the
        cross product of their endpoints covers unrequested pairs (the
        bitmap prefilter's false positives).  Some cases then ask for one
        instance too many, or name an out-of-range vertex.
        """
        seen = {"matched": 0, "false_positive": 0, "missing": 0, "out_of_range": 0}
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 9))
            e = int(rng.integers(0, 40))
            src = rng.integers(0, n, size=e)
            dst = np.where(rng.random(e) < 0.2, src, rng.integers(0, n, size=e))
            picked = rng.permutation(e)[: int(rng.integers(0, e + 1))]
            req_src, req_dst = src[picked], dst[picked]
            mode = seed % 4
            if mode == 2:  # one request beyond the stored multiplicity
                u, v = rng.integers(0, n, size=2)
                extra = int(np.sum((src == u) & (dst == v))) + 1
                req_src = np.concatenate((req_src, np.full(extra, u)))
                req_dst = np.concatenate((req_dst, np.full(extra, v)))
            elif mode == 3:  # an endpoint outside [0, n)
                bad = int(rng.choice([-1, n, n + 5]))
                req_src = np.append(req_src, bad if rng.random() < 0.5 else 0)
                req_dst = np.append(req_dst, 0 if req_src[-1] == bad else bad)
            order = rng.permutation(req_src.size)
            req_src, req_dst = req_src[order], req_dst[order]
            try:
                expected = _oracle_match(src, dst, req_src, req_dst, n)
            except MissingEdgeError:
                with pytest.raises(MissingEdgeError, match="multiplicity"):
                    match_edge_instances(src, dst, req_src, req_dst, n)
                seen["missing"] += 1
                continue
            except ValueError:
                with pytest.raises(ValueError, match="must lie in") as err:
                    match_edge_instances(src, dst, req_src, req_dst, n)
                assert not isinstance(err.value, MissingEdgeError)
                seen["out_of_range"] += 1
                continue
            got = match_edge_instances(src, dst, req_src, req_dst, n)
            np.testing.assert_array_equal(got, expected, err_msg=f"seed {seed}")
            seen["matched"] += 1
            requested = set(zip(req_src.tolist(), req_dst.tolist()))
            cross = np.isin(src, req_src) & np.isin(dst, req_dst)
            if any((u, v) not in requested for u, v in zip(src[cross], dst[cross])):
                seen["false_positive"] += 1
        assert all(count >= 20 for count in seen.values()), seen

    def test_peak_memory_has_no_per_edge_keys(self):
        """The matcher's scratch stays far below one int64 per edge."""
        rng = np.random.default_rng(0)
        n, e, r = 100_000, 1_000_000, 1_000
        src = rng.integers(0, n, size=e)
        dst = rng.integers(0, n, size=e)
        picked = rng.choice(e, size=r, replace=False)
        req_src, req_dst = src[picked], dst[picked]
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            positions = match_edge_instances(src, dst, req_src, req_dst, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(src[positions], req_src)
        assert np.array_equal(dst[positions], req_dst)
        assert peak / e < 8.0, f"{peak / e:.1f} B/edge"


class TestSnapshotsAndLog:
    def test_snapshot_is_immutable_under_commits(self):
        base = erdos_renyi(40, 160, weighted=True, seed=2)
        dyn = DynamicGraph(base)
        snap = dyn.snapshot()
        y = np.random.default_rng(0).integers(0, 3, size=40)
        before = GraphEncoderEmbedding(3).fit(snap.graph, y).embedding_.copy()
        for i in range(3):
            dyn.add_edges([i], [i + 1])
            dyn.remove_edges([base.src[i]], [base.dst[i]])
            dyn.commit()
        assert snap.version == 0 and snap.n_edges == 160
        after = GraphEncoderEmbedding(3).fit(Graph(snap.edges), y).embedding_
        np.testing.assert_array_equal(before, after)

    def test_log_versions_and_since(self):
        dyn = DynamicGraph(_multigraph())
        for i in range(4):
            dyn.add_edges([0], [1])
            dyn.commit()
        assert [d.version for d in dyn.log] == [1, 2, 3, 4]
        assert [d.version for d in dyn.log.since(1)] == [2, 3, 4]
        assert dyn.log.since(4) == []

    def test_log_truncation_reports_missing_history(self):
        dyn = DynamicGraph(_multigraph(), max_log=2)
        for _ in range(4):
            dyn.add_edges([0], [1])
            dyn.commit()
        assert len(dyn.log) == 2
        assert dyn.log.since(0) is None  # truncated
        assert [d.version for d in dyn.log.since(2)] == [3, 4]


class TestPlanCarry:
    def test_append_only_commit_extends_cached_plan(self):
        dyn = DynamicGraph(erdos_renyi(30, 90, weighted=True, seed=4))
        plan = dyn.graph.plan(3)
        _ = plan.src_flat  # force index compilation so the extension reuses it
        dyn.add_edges([0, 1], [2, 3], [1.5, 2.5])
        dyn.commit()
        carried = dyn.graph.plan(3)
        assert carried is not plan  # copy-on-write, never shared mutation
        assert carried.n_edges == 92
        # Seeded from the old plan's compiled artifacts — no recompilation:
        # the arrays are already materialised without any property access.
        assert carried._src is not None and carried._src.shape == (92,)
        assert carried._src_flat is not None and carried._src_flat.shape == (92,)
        y = np.random.default_rng(1).integers(0, 3, size=30)
        via_plan = GraphEncoderEmbedding(3).fit(dyn.graph, y).embedding_.copy()
        fresh = GraphEncoderEmbedding(3).fit(Graph(dyn.graph.edges.copy()), y).embedding_
        np.testing.assert_allclose(via_plan, fresh, atol=1e-12)

    def test_snapshot_readers_plan_is_not_mutated_by_commits(self):
        """Regression: a reader-held plan must keep its version's edge set."""
        from repro.backends import get_backend

        dyn = DynamicGraph(erdos_renyi(25, 60, seed=20))
        y = np.random.default_rng(2).integers(0, 3, size=25)
        snap = dyn.snapshot()
        reader_plan = snap.graph.plan(3)
        backend = get_backend("vectorized")
        before = backend.embed_with_plan(reader_plan, y).detached().embedding.copy()
        dyn.add_edges([0, 1, 2], [3, 4, 5])
        dyn.commit()  # append-only: extends the plan for the new version
        assert reader_plan.n_edges == 60
        after = backend.embed_with_plan(reader_plan, y).detached().embedding
        np.testing.assert_array_equal(before, after)
        assert dyn.graph.plan(3).n_edges == 63

    def test_structural_commit_recompiles_plan(self):
        base = erdos_renyi(30, 90, seed=5)
        dyn = DynamicGraph(base)
        plan = dyn.graph.plan(3)
        dyn.remove_edges([base.src[0]], [base.dst[0]])
        dyn.commit()
        new_plan = dyn.graph.plan(3)
        assert new_plan is not plan
        assert new_plan.n_edges == 89

    def test_unweighted_to_weighted_append_recompiles(self):
        # Appending weighted edges onto an unweighted graph changes the
        # weight materialisation, so the plan must not be carried.
        dyn = DynamicGraph(erdos_renyi(20, 50, seed=6))
        plan = dyn.graph.plan(2)
        dyn.add_edges([0], [1], [5.0])
        dyn.commit()
        assert dyn.graph.plan(2) is not plan
        assert dyn.graph.edges.weights[-1] == 5.0


class TestRefinementCarry:
    def test_gee_unsupervised_carries_state_across_versions(self):
        from repro.graph import planted_partition

        edges, _ = planted_partition(150, 3, 0.2, 0.01, seed=8)
        dyn = DynamicGraph(edges)
        first = gee_unsupervised(dyn, 3, seed=0)
        assert dyn.refinement_state is not None
        version0, carried = dyn.refinement_state
        assert version0 == 0
        np.testing.assert_array_equal(carried, first.labels)

        dyn.add_edges([0, 1], [2, 3])
        dyn.commit()
        second = gee_unsupervised(dyn, 3, seed=0)
        # Warm-started from an already-converged assignment: one round.
        assert second.n_iterations <= 2
        assert dyn.refinement_state[0] == 1
        agreement = float(np.mean(first.labels == second.labels))
        assert agreement > 0.95
