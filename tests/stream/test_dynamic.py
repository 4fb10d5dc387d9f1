"""DynamicGraph: staging, commit semantics, instance matching, versions built on
read, snapshots, per-version plans."""

from __future__ import annotations

import gc
import tracemalloc
import weakref

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


def _as_parts(rng, src, dst):
    """Split the live edges into a base and a tail, each with dead edges mixed in.

    Dead edges copy live pairs, so a matcher that reads them finds extra
    instances.  Returns the matcher's parts and the live position of every
    part position (-1 for a dead one).
    """
    e = src.size
    cut = int(rng.integers(0, e + 1))
    parts, live_of = [], []
    for lo, hi in ((0, cut), (cut, e)):
        n_dead = int(rng.integers(0, 4)) if e else 0
        copied = rng.integers(0, e, size=n_dead)
        dead = np.sort(rng.choice(hi - lo + n_dead, size=n_dead, replace=False))
        is_dead = np.zeros(hi - lo + n_dead, dtype=bool)
        is_dead[dead] = True
        part_src = np.empty(is_dead.size, dtype=np.int64)
        part_dst = np.empty(is_dead.size, dtype=np.int64)
        part_src[is_dead], part_dst[is_dead] = src[copied], dst[copied]
        part_src[~is_dead], part_dst[~is_dead] = src[lo:hi], dst[lo:hi]
        index = np.full(is_dead.size, -1)
        index[~is_dead] = np.arange(lo, hi)
        parts.append((part_src, part_dst, dead if n_dead or rng.random() < 0.5 else None))
        live_of.append(index)
    return parts, np.concatenate(live_of)


class TestMatchEdgeInstances:
    def test_fuzz_matches_oracle(self):
        """Seeded fuzz of the matcher against :func:`_oracle_match`.

        Small vertex sets give heavy duplication and self-loops; requests
        drawn from stored instances reach the stored multiplicity, and the
        cross product of their endpoints covers unrequested pairs (the
        bitmap prefilter's false positives).  Some cases then ask for one
        instance too many, or name an out-of-range vertex.  The matcher sees
        the edges as a base and a tail with dead copies of live pairs mixed
        into both (:func:`_as_parts`), as a commit passes a version's parts.
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
            parts, live_of = _as_parts(rng, src, dst)
            try:
                expected = _oracle_match(src, dst, req_src, req_dst, n)
            except MissingEdgeError:
                with pytest.raises(MissingEdgeError, match="multiplicity"):
                    match_edge_instances(parts, req_src, req_dst, n)
                seen["missing"] += 1
                continue
            except ValueError:
                with pytest.raises(ValueError, match="must lie in") as err:
                    match_edge_instances(parts, req_src, req_dst, n)
                assert not isinstance(err.value, MissingEdgeError)
                seen["out_of_range"] += 1
                continue
            got = live_of[match_edge_instances(parts, req_src, req_dst, n)]
            np.testing.assert_array_equal(got, expected, err_msg=f"seed {seed}")
            seen["matched"] += 1
            requested = set(zip(req_src.tolist(), req_dst.tolist()))
            cross = np.isin(src, req_src) & np.isin(dst, req_dst)
            if any((u, v) not in requested for u, v in zip(src[cross], dst[cross])):
                seen["false_positive"] += 1
        assert all(count >= 20 for count in seen.values()), seen

    def test_packed_keys_take_no_stable_argsort(self, argsort_kinds, monkeypatch):
        """While ``n²·C`` packs into 63 bits, both rankings are
        ``owner_sort``'s plain sort of unique keys: no stable argsort runs,
        and duplicated pairs still resolve earliest instance first."""
        rng = np.random.default_rng(21)
        n, e = 200, 5_000
        src = rng.integers(0, n, size=e)
        dst = rng.integers(0, n, size=e)
        src[-300:], dst[-300:] = src[:300], dst[:300]  # every pair here twice
        # Distinct positions, among them the second copies of 50 pairs.
        picked = np.concatenate(
            (rng.choice(e - 50, size=400, replace=False), np.arange(e - 50, e))
        )
        req_src, req_dst = src[picked], dst[picked]
        parts = [(src[:3_000], dst[:3_000], None), (src[3_000:], dst[3_000:], None)]
        got = match_edge_instances(parts, req_src, req_dst, n)
        monkeypatch.undo()
        assert argsort_kinds == []
        np.testing.assert_array_equal(got, _oracle_match(src, dst, req_src, req_dst, n))

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
            positions = match_edge_instances([(src, dst, None)], req_src, req_dst, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(src[positions], req_src)
        assert np.array_equal(dst[positions], req_dst)
        assert peak / e < 8.0, f"{peak / e:.1f} B/edge"


class _EagerOracle:
    """The eager commit: every batch rebuilds ``concat(kept, added)``.

    Matches with :func:`_oracle_match` over the whole live edge list, and
    weight updates over the batch's survivors, so it shares no code with
    :meth:`DynamicGraph.commit`.
    """

    def __init__(self, edges):
        self.src, self.dst = edges.src.copy(), edges.dst.copy()
        self.weights = None if edges.weights is None else edges.weights.copy()
        self.n_vertices = edges.n_vertices

    def commit(self, batch):
        """Apply ``batch`` (see :func:`_random_batch`); return the delta's weights."""
        n_before = self.n_vertices
        w = self.weights if self.weights is not None else np.ones(self.src.size)
        removed = _oracle_match(self.src, self.dst, *batch["remove"], n_before)
        keep = np.ones(self.src.size, dtype=bool)
        keep[removed] = False
        survivors = np.flatnonzero(keep)
        upd_src, upd_dst, upd_w = batch["update"]
        updated = survivors[
            _oracle_match(self.src[survivors], self.dst[survivors], upd_src, upd_dst, n_before)
        ]
        groups = batch["add"]
        add_src = np.concatenate([s for s, _, _ in groups] + [np.empty(0, np.int64)])
        add_dst = np.concatenate([d for _, d, _ in groups] + [np.empty(0, np.int64)])
        add_w = np.concatenate(
            [np.ones(s.size) if g is None else g for s, _, g in groups] + [np.empty(0)]
        )
        n_after = n_before + batch["grow"]
        if add_src.size and max(add_src.max(), add_dst.max()) >= n_after:
            raise ValueError("outside the committed vertex set")
        weighted = (
            self.weights is not None
            or any(g is not None for _, _, g in groups)
            or updated.size > 0
        )
        out = {"removed": w[removed].copy(), "old": w[updated].copy(), "new": upd_w}
        new_w = w.copy()
        new_w[updated] = upd_w
        self.src = np.concatenate((self.src[keep], add_src))
        self.dst = np.concatenate((self.dst[keep], add_dst))
        self.weights = np.concatenate((new_w[keep], add_w)) if weighted else None
        self.n_vertices = n_after
        return out

    def frozen(self):
        return EdgeList(self.src.copy(), self.dst.copy(),
                        None if self.weights is None else self.weights.copy(),
                        self.n_vertices)


def _random_batch(rng, oracle, *, fail=None):
    """A mixed batch drawn from the oracle's live edges.

    Removals hit random live instances, half the time among the latest
    (the tail of a pending version); updates hit other live instances;
    additions repeat live pairs, add self-loops and, after ``add_vertices``,
    reach new vertices, with and without weights.  ``fail`` (0, 1 or 2)
    adds one removal or one update too many, or an edge past the vertex
    set.
    """
    e, n = oracle.src.size, oracle.n_vertices
    pool = np.arange(max(0, e - 12), e) if rng.random() < 0.5 else np.arange(e)
    picked = rng.permutation(pool)[: int(rng.integers(0, min(6, pool.size) + 1))]
    rest = np.setdiff1d(np.arange(e), picked)
    updated = rng.permutation(rest)[: int(rng.integers(0, min(3, rest.size) + 1))]
    grow = int(rng.integers(1, 4)) if rng.random() < 0.2 else 0
    groups = []
    for _ in range(int(rng.integers(0, 3))):
        k = int(rng.integers(1, 6))
        src = rng.integers(0, n + grow, size=k)
        dst = np.where(rng.random(k) < 0.25, src, rng.integers(0, n + grow, size=k))
        if e and rng.random() < 0.5:  # duplicates of live pairs
            dup = rng.integers(0, e, size=k)
            src, dst = oracle.src[dup].copy(), oracle.dst[dup].copy()
        weights = rng.integers(1, 9, size=k).astype(float) / 2 if rng.random() < 0.5 else None
        groups.append((src, dst, weights))
    batch = {
        "remove": (oracle.src[picked], oracle.dst[picked]),
        "update": (oracle.src[updated], oracle.dst[updated],
                   rng.integers(1, 9, size=updated.size).astype(float) / 4),
        "add": groups,
        "grow": grow,
    }
    if fail is not None:
        u, v = (oracle.src[0], oracle.dst[0]) if e else (0, 0)
        count = int(np.sum((oracle.src == u) & (oracle.dst == v))) + 1
        if fail == 0:  # one removal beyond the live multiplicity
            s, d = batch["remove"]
            batch["remove"] = (np.append(s, [u] * count), np.append(d, [v] * count))
        elif fail == 1:  # one update beyond the live multiplicity
            s, d, w = batch["update"]
            batch["update"] = (np.append(s, [u] * count), np.append(d, [v] * count),
                               np.append(w, [1.0] * count))
        else:  # an added edge past the vertex set
            groups.append((np.array([n + grow]), np.array([0]), None))
    return batch


def _stage(dyn, batch):
    if batch["grow"]:
        dyn.add_vertices(batch["grow"])
    dyn.remove_edges(*batch["remove"])
    dyn.update_weights(*batch["update"])
    for src, dst, weights in batch["add"]:
        dyn.add_edges(src, dst, weights)


def _assert_edges_equal(got, want, msg=""):
    assert got.n_vertices == want.n_vertices, msg
    assert np.array_equal(got.src, want.src), msg
    assert np.array_equal(got.dst, want.dst), msg
    assert (got.weights is None) == (want.weights is None), msg
    if want.weights is not None:
        assert np.array_equal(got.weights, want.weights), msg


def _schedule(edges, n_batches, seed):
    """``n_batches`` random batches and the oracle's edge list at every version."""
    rng = np.random.default_rng(seed)
    oracle = _EagerOracle(edges)
    batches, versions = [], [oracle.frozen()]
    for _ in range(n_batches):
        batches.append(_random_batch(rng, oracle))
        oracle.commit(batches[-1])
        versions.append(oracle.frozen())
    return batches, versions


class TestVersionsShareTheirParents:
    """A version is its parent's base, dead positions and tail, built when read."""

    def test_fuzz_against_eager_oracle(self):
        """Seeded mixed batches with random reads, checked against the eager rebuild.

        Every version's snapshot is read, some at once and the rest at the
        end, and must be bitwise the oracle's edge list at that version; so
        must the delta's removed and updated weights, and ``n_edges``.
        """
        seen = {"pending": 0, "compacted": 0, "read": 0, "failed": 0}
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 30))
            edges = erdos_renyi(n, int(rng.integers(0, 120)), weighted=seed % 2 == 0, seed=seed)
            oracle, dyn = _EagerOracle(edges), DynamicGraph(edges)
            held = []
            for _ in range(20):
                fail = int(rng.integers(0, 3)) if rng.random() < 0.1 else None
                batch = _random_batch(rng, oracle, fail=fail)
                parent, version = dyn._current, dyn.version
                pending = parent._parts is not None
                _stage(dyn, batch)
                try:
                    want = oracle.commit(batch)
                except (MissingEdgeError, ValueError) as err:
                    with pytest.raises(type(err)):
                        dyn.commit()
                    assert dyn.version == version and dyn.n_edges == oracle.src.size
                    dyn.discard_staged()
                    seen["failed"] += 1
                    continue
                delta = dyn.commit()
                if delta is None:  # an empty batch
                    continue
                seen["pending"] += pending
                seen["compacted"] += pending and parent._parts is None
                assert np.array_equal(delta.removed_weights, want["removed"])
                assert np.array_equal(delta.updated_old_weights, want["old"])
                assert np.array_equal(delta.updated_new_weights, want["new"])
                assert dyn.n_edges == oracle.src.size
                assert dyn.n_vertices == oracle.n_vertices
                held.append((dyn.snapshot(), oracle.frozen()))
                if rng.random() < 0.3:
                    _assert_edges_equal(dyn.graph.edges, oracle.frozen(), f"seed {seed}")
                    seen["read"] += 1
            for i in rng.permutation(len(held)):
                snap, want = held[i]
                _assert_edges_equal(snap.edges, want, f"seed {seed} v{snap.version}")
        assert all(count >= 20 for count in seen.values()), seen

    def test_builds_run_no_endpoint_scan(self, monkeypatch):
        """A version build, and a commit that updates a base edge's weight,
        wrap parts validated when they were staged or built: neither scans
        the endpoints again, and the built edges are the eager rebuild's.
        The public ``EdgeList`` constructor still scans."""
        edges = erdos_renyi(50, 400, weighted=True, seed=16)
        oracle, dyn = _EagerOracle(edges), DynamicGraph(edges)
        batch = {
            "remove": (edges.src[3:6], edges.dst[3:6]),
            "update": (edges.src[:3], edges.dst[:3], np.array([5.0, 6.0, 7.0])),
            "add": [(np.array([0, 50]), np.array([50, 1]), np.array([0.5, 0.25]))],
            "grow": 1,
        }
        scans = []
        post_init = EdgeList.__post_init__

        def counting(self):
            scans.append(self.src.size)
            post_init(self)

        monkeypatch.setattr(EdgeList, "__post_init__", counting)
        _stage(dyn, batch)
        dyn.commit()
        built = dyn.graph.edges
        assert scans == []
        with pytest.raises(ValueError, match="non-negative"):
            EdgeList(np.array([0, -1]), np.array([1, 2]))
        assert scans == [2]
        monkeypatch.undo()
        oracle.commit(batch)
        _assert_edges_equal(built, oracle.frozen())

    def test_snapshots_stay_bitwise_stable(self):
        """Snapshots of a pending and of a built version keep their edges
        and their ``vectorized`` fit across later commits, rebases and
        compactions, and both match the eager oracle."""
        edges = erdos_renyi(60, 200, weighted=True, seed=11)
        y = np.random.default_rng(11).integers(0, 3, size=60)
        y[::5] = -1
        batches, versions = _schedule(edges, 24, seed=12)
        labels = lambda n: np.concatenate((y, np.full(n - y.size, -1)))  # noqa: E731

        def fit(graph):
            return GraphEncoderEmbedding(3).fit(graph, labels(graph.n_vertices)).embedding_

        dyn = DynamicGraph(edges)
        for batch in batches[:2]:
            _stage(dyn, batch)
            dyn.commit()
        pending = dyn.snapshot()  # v2, built from v0's base, not read
        _stage(dyn, batches[2])
        dyn.commit()
        built = dyn.snapshot()
        built_edges, built_fit = built.edges.copy(), fit(built.graph).copy()
        compactions = 0
        for i, batch in enumerate(batches[3:], start=3):
            parent = dyn._current
            was_pending = parent._parts is not None
            _stage(dyn, batch)
            dyn.commit()
            compacted = was_pending and parent._parts is None
            compactions += compacted
            if i == 5 or (compacted and compactions == 1):
                dyn.graph  # a read: the next commit rebases on this version
        assert compactions >= 2
        _assert_edges_equal(pending.edges, versions[2])
        assert np.array_equal(fit(pending.graph), fit(Graph(versions[2])))
        _assert_edges_equal(built.edges, built_edges)
        _assert_edges_equal(built.edges, versions[3])
        assert np.array_equal(fit(built.graph), built_fit)
        _assert_edges_equal(dyn.graph.edges, versions[-1])

    @pytest.mark.parametrize("read_parent", [False, True], ids=["pending", "built"])
    def test_failed_commit_changes_nothing(self, read_parent):
        """A commit that raises, on a pending or a built version, leaves the
        version and ``n_edges`` as they were, and later commits give what
        they give on a graph that never saw it."""
        edges = erdos_renyi(40, 300, weighted=True, seed=13)
        good, versions = _schedule(edges, 6, seed=13)
        dyn = DynamicGraph(edges)
        _stage(dyn, good[0])
        dyn.commit()
        if read_parent:
            dyn.graph
        at_v1 = _EagerOracle(versions[1])
        for kind in range(3):
            failing = _random_batch(np.random.default_rng(kind), at_v1, fail=kind)
            version, n_edges = dyn.version, dyn.n_edges
            _stage(dyn, failing)
            with pytest.raises(ValueError):
                dyn.commit()
            assert dyn.version == version and dyn.n_edges == n_edges
            dyn.discard_staged()
        for i, batch in enumerate(good[1:], start=2):
            _stage(dyn, batch)
            dyn.commit()
            assert dyn.version == i
            _assert_edges_equal(dyn.snapshot().edges, versions[i])

    def test_commit_allocates_no_per_edge_arrays(self):
        """A weighted commit of 1,000 additions and 1,000 removals at E = 1M
        allocates under 8 bytes per edge (the eager rebuild took 33)."""
        rng = np.random.default_rng(14)
        n, e = 100_000, 1_000_000
        edges = EdgeList(
            rng.integers(0, n, size=e), rng.integers(0, n, size=e), rng.random(e), n
        )
        dyn = DynamicGraph(edges)
        gone = rng.choice(e, size=1_000, replace=False)
        dyn.remove_edges(edges.src[gone], edges.dst[gone])
        dyn.add_edges(rng.integers(0, n, 1_000), rng.integers(0, n, 1_000), rng.random(1_000))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            delta = dyn.commit()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert delta.n_removed == delta.n_added == 1_000
        assert dyn.n_edges == e
        assert peak / e < 8.0, f"{peak / e:.2f} B/edge"

    def test_superseded_base_is_freed_once_the_next_version_is_built(self):
        """With ``gc`` off, the base of a pending version dies when that
        version is read, once the last snapshot of the base's version goes;
        a snapshot of the pending version itself does not hold it."""
        gc.disable()
        try:
            dyn = DynamicGraph(erdos_renyi(50, 200, weighted=True, seed=15))
            base_src = weakref.ref(dyn.graph.edges.src)
            reader = dyn.snapshot()
            dyn.remove_edges(reader.edges.src[:3], reader.edges.dst[:3])
            dyn.add_edges([0, 1], [2, 3], [0.5, 0.25])
            dyn.commit()
            pending = dyn.snapshot()
            assert base_src() is not None  # v1 is still v0's base plus parts
            dyn.graph
            assert base_src() is not None  # the v0 reader holds it
            del reader
            assert base_src() is None
            assert pending.n_edges == 199 and pending.graph is dyn.graph
        finally:
            gc.enable()


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
    @pytest.mark.parametrize("weighted", [True, False])
    def test_append_only_commit_plans_from_the_new_arrays(self, weighted):
        """No plan is carried across a commit: the new version's default
        plan reads the committed arrays themselves, and fits bitwise what a
        fresh graph fits."""
        dyn = DynamicGraph(erdos_renyi(30, 90, weighted=weighted, seed=4))
        y = np.random.default_rng(1).integers(0, 3, size=30)
        y[::4] = -1
        GraphEncoderEmbedding(3).fit(dyn.graph, y)
        dyn.add_edges([0, 1], [2, 3], [1.5, 2.5] if weighted else None)
        dyn.commit()
        assert dyn.graph.plan(3).src is dyn.graph.edges.src
        via_plan = GraphEncoderEmbedding(3).fit(dyn.graph, y).embedding_
        fresh = GraphEncoderEmbedding(3).fit(Graph(dyn.graph.edges.copy()), y).embedding_
        assert np.array_equal(via_plan, fresh)

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
        dyn.commit()  # append-only
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
