"""The :class:`DynamicGraph`: a mutation-logged, versioned graph.

Production graphs mutate continuously; the paper's one-pass embedding only
ever sees a frozen edge list.  ``DynamicGraph`` bridges the two worlds with
three ideas:

* **staged mutation batches** — :meth:`add_edges`, :meth:`remove_edges`,
  :meth:`update_weights` and :meth:`add_vertices` stage work; one
  :meth:`commit` applies the whole batch atomically and returns the
  normalised :class:`~repro.stream.mutations.MutationDelta`;
* **versions that share their parent's arrays** — a version is a base
  :class:`~repro.graph.edgelist.EdgeList` shared with its parent, the
  sorted base positions removed since, and a tail of the edges added
  since.  A commit matches the batch's removals over those parts (one O(E)
  bitmap pass) and then does O(Δ + tail) bookkeeping; no edge array is
  copied and no array of an earlier version is ever written, so a
  :meth:`snapshot` taken by a reader stays a consistent view no matter how
  many batches writers commit afterwards;
* **a mutation log** — recent deltas are kept so an incremental consumer
  (:class:`~repro.stream.incremental.IncrementalEmbedding`) can catch up in
  O(Δ) from whatever version it last saw.

A version's :class:`~repro.graph.facade.Graph` is built on first read
(:attr:`DynamicGraph.graph`, :attr:`Snapshot.graph` or ``.edges``,
:meth:`~DynamicGraph.plan`, :meth:`~DynamicGraph.chunked_source`, a
refresh, a store rewrite): one O(E) ``concat(base[~dead], tail)``, bitwise
the arrays an eager rebuild would give, shared by the graph and every
snapshot of that version, which then becomes the base of the next commit.
A commit whose parent's dead positions plus tail reach
:data:`COMPACT_FRACTION` of its base builds the parent's graph first
(compaction), so the parts stay small.  Each version's graph starts with an
empty plan cache; its default plan compiles nothing, and the built
:class:`~repro.graph.edgelist.EdgeList` is not scanned again: its parts
were validated when they were staged or built.

Removal semantics on multigraphs are exact-multiplicity: requesting
``(u, v)`` once removes *one* instance even when the pair is duplicated
(see :func:`~repro.stream.mutations.match_edge_instances`); requesting more
instances than exist raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from ..graph.edgelist import EdgeList
from ..graph.facade import Graph, GraphLike
from ..graph.io import ChunkedEdgeSource
from ..obs import metrics as obs_metrics
from .mutations import (
    MutationDelta,
    MutationLog,
    as_endpoint_arrays,
    match_edge_instances,
    normalise_weight_array,
)

__all__ = ["DynamicGraph", "Snapshot"]

#: A commit first builds its parent's graph (compaction) once the parent's
#: dead base positions plus its tail reach this fraction of its base.
COMPACT_FRACTION = 1 / 8

_NO_POSITIONS = np.empty(0, dtype=np.int64)
_NO_TAIL = (_NO_POSITIONS, _NO_POSITIONS, np.empty(0, dtype=np.float64))

_Tail = Tuple[np.ndarray, np.ndarray, np.ndarray]


class _Version:
    """One version's edge set: ``concat(base[~dead], tail)``, built on first read.

    ``base`` is an :class:`~repro.graph.edgelist.EdgeList` shared with
    earlier versions (an edge list, never a facade that may hold plans),
    ``dead`` the sorted base positions removed since that base, and
    ``tail`` the ``(src, dst, weights)`` of the live edges added since it
    (weights always explicit: ones for unweighted additions).  ``weighted``
    says whether the version carries a weight column.

    The record's edge set never changes.  :attr:`graph` builds it once and
    then drops the parts: the built edge list is the base that the next
    commit shares, and the old base is freed once no other version holds
    it.
    """

    __slots__ = ("n_vertices", "n_edges", "_graph", "_parts", "_fingerprint_mode")

    def __init__(
        self,
        base: EdgeList,
        dead: np.ndarray,
        tail: _Tail,
        n_vertices: int,
        weighted: bool,
        fingerprint_mode: str,
    ) -> None:
        self.n_vertices = int(n_vertices)
        self.n_edges = base.n_edges - dead.size + tail[0].size
        self._graph: Optional[Graph] = None
        self._parts = (base, dead, tail, weighted)
        self._fingerprint_mode = fingerprint_mode

    @classmethod
    def of(cls, graph: Graph) -> "_Version":
        """A version whose graph is already built."""
        version = cls.__new__(cls)
        version.n_vertices = graph.n_vertices
        version.n_edges = graph.n_edges
        version._graph = graph
        version._parts = None
        version._fingerprint_mode = graph._fingerprint_mode
        return version

    @property
    def graph(self) -> Graph:
        """The version's :class:`~repro.graph.facade.Graph`, built on first read."""
        graph = self._graph
        if graph is None:
            parts = self._parts
            if parts is None:  # another reader built it meanwhile
                return self._graph
            base, dead, (tail_src, tail_dst, tail_w), weighted = parts
            kept = slice(None)
            if dead.size:
                kept = np.ones(base.n_edges, dtype=bool)
                kept[dead] = False
            src = np.concatenate((base.src[kept], tail_src))
            dst = np.concatenate((base.dst[kept], tail_dst))
            weights = None
            if weighted:
                weights = np.concatenate((base.effective_weights()[kept], tail_w))
            # Cut and joined from validated parts: no endpoint scan.
            graph = Graph(EdgeList._of_valid_arrays(src, dst, weights, self.n_vertices))
            graph._fingerprint_mode = self._fingerprint_mode
            self._graph = graph
            self._parts = None
        return graph

    @property
    def fingerprint_mode(self) -> str:
        """The plan fingerprint mode the next version inherits."""
        if self._graph is not None:
            return self._graph._fingerprint_mode
        return self._fingerprint_mode

    def parts(self) -> Tuple[EdgeList, np.ndarray, _Tail, bool]:
        """``(base, dead, tail, weighted)``; a built version is its own base.

        Compacts first: when the dead positions plus the tail reach
        :data:`COMPACT_FRACTION` of the base, the graph is built and its
        edges become the base.
        """
        parts = self._parts
        if parts is not None:
            base, dead, tail, _ = parts
            if dead.size + tail[0].size < COMPACT_FRACTION * base.n_edges:
                return parts
        edges = self.graph.edges
        return edges, _NO_POSITIONS, _NO_TAIL, edges.is_weighted


def _weights_at(base: EdgeList, tail_w: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Weights of the instances at ``pos`` (base positions, then the tail's).

    Unit weights on an unweighted base.
    """
    out = np.ones(pos.size, dtype=np.float64)
    n_base = base.n_edges
    in_base = pos < n_base
    if base.is_weighted:
        out[in_base] = base.weights[pos[in_base]]
    in_tail = ~in_base
    out[in_tail] = tail_w[pos[in_tail] - n_base]
    return out


@dataclass(frozen=True)
class Snapshot:
    """A versioned, immutable view of a :class:`DynamicGraph`.

    O(1) to take: the snapshot holds the version's record, whose arrays no
    later commit ever writes, so readers embed, plan and iterate against it
    while writers keep committing batches.  :attr:`graph` (and
    :attr:`edges`) build the version's graph on first read, the one
    :class:`~repro.graph.facade.Graph` that the :class:`DynamicGraph` and
    every snapshot of that version share.
    """

    version: int
    _state: _Version = field(repr=False)

    @property
    def graph(self) -> Graph:
        return self._state.graph

    @property
    def n_vertices(self) -> int:
        return self._state.n_vertices

    @property
    def n_edges(self) -> int:
        return self._state.n_edges

    @property
    def edges(self) -> EdgeList:
        return self.graph.edges


class DynamicGraph:
    """A graph under continuous mutation, with versioned snapshots.

    Parameters
    ----------
    graph:
        Any graph-like input (see :meth:`repro.graph.facade.Graph.coerce`);
        adopted as version 0.  A :class:`~repro.graph.facade.Graph` is
        adopted directly, keeping its cached views and compiled plans.
        The underlying arrays are treated as immutable from this point on
        (later versions share them; pass a copy if you intend to keep
        mutating them in place).
    max_log:
        Bound on retained :class:`~repro.stream.mutations.MutationDelta`
        history (``None`` keeps everything).  Readers older than the kept
        history fall back to a full refresh.
    store:
        Optional :class:`~repro.stream.segments.SegmentedEdgeStore` (or a
        path to create one at) mirroring the edge set on disk.  Append-only
        commits append one immutable segment; structural commits rewrite.
        :meth:`chunked_source` then streams from disk, so refreshes can run
        out-of-core.
    """

    def __init__(
        self,
        graph: GraphLike,
        *,
        max_log: Optional[int] = None,
        store=None,
    ) -> None:
        graph = Graph.coerce(graph)
        self._current = _Version.of(graph)
        self.version = 0
        self.log = MutationLog(max_entries=max_log)
        #: Warm-start state carried across versions by ``gee_unsupervised``
        #: (a ``(version, labels)`` pair; see repro.core.refinement).
        self.refinement_state: Optional[Tuple[int, np.ndarray]] = None
        self._staged_add: List[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]] = []
        self._staged_remove: List[Tuple[np.ndarray, np.ndarray]] = []
        self._staged_update: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._staged_vertices = 0
        if store is not None:
            from .segments import SegmentedEdgeStore

            if not isinstance(store, SegmentedEdgeStore):
                store = SegmentedEdgeStore.create(store, graph.edges)
            elif store.n_edges != graph.n_edges:
                raise ValueError(
                    "attached store does not match the graph "
                    f"({store.n_edges} stored edges vs {graph.n_edges})"
                )
        self.store = store

    # ------------------------------------------------------------------ #
    # Read side
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> Graph:
        """The current version's :class:`~repro.graph.facade.Graph` facade.

        Built on the first read of a version, in one O(E) pass; shared with
        every :meth:`snapshot` of that version.
        """
        return self._current.graph

    @property
    def n_vertices(self) -> int:
        return self._current.n_vertices

    @property
    def n_edges(self) -> int:
        return self._current.n_edges

    def snapshot(self) -> Snapshot:
        """A consistent, immutable view of the current version (O(1))."""
        return Snapshot(self.version, self._current)

    def plan(self, n_classes: int, **kwargs):
        """The current version's compiled plan (see :meth:`Graph.plan`)."""
        return self.graph.plan(n_classes, **kwargs)

    def chunked_source(
        self,
        *,
        chunk_edges: Optional[int] = None,
        memory_budget_bytes: Optional[int] = None,
    ) -> ChunkedEdgeSource:
        """A bounded-memory edge stream over the current version.

        Backed by the attached segmented store when one is present (the
        edges then stream from disk, never materialised); otherwise a
        re-blocked view of the in-memory arrays.
        """
        if self.store is not None:
            return self.store.source(
                chunk_edges=chunk_edges, memory_budget_bytes=memory_budget_bytes
            )
        return ChunkedEdgeSource.from_edgelist(
            self.graph.edges,
            chunk_edges=chunk_edges,
            memory_budget_bytes=memory_budget_bytes,
        )

    # ------------------------------------------------------------------ #
    # Write side: staging
    # ------------------------------------------------------------------ #
    @property
    def n_staged(self) -> int:
        """Number of staged operations awaiting :meth:`commit`."""
        return (
            sum(s.size for s, _, _ in self._staged_add)
            + sum(s.size for s, _ in self._staged_remove)
            + sum(s.size for s, _, _ in self._staged_update)
            + (1 if self._staged_vertices else 0)
        )

    def add_edges(self, src, dst, weights=None) -> "DynamicGraph":
        """Stage new directed edges (duplicates create additional instances).

        Endpoints must lie inside the vertex set the commit will have —
        stage :meth:`add_vertices` first for genuinely new vertices
        (endpoint validation happens at commit time, against
        ``n_vertices + staged growth``).
        """
        s, d = as_endpoint_arrays(src, dst)
        w = normalise_weight_array(weights, s.size)
        if s.size:
            self._staged_add.append((s, d, w))
        return self

    def remove_edges(self, src, dst) -> "DynamicGraph":
        """Stage removal of edge instances, with exact multiplicity.

        Each requested ``(src, dst)`` occurrence removes exactly one stored
        instance (the earliest by edge position not already claimed by this
        batch); a duplicated edge requested once keeps its other copies.
        Requests addressing more instances than the graph holds make
        :meth:`commit` raise
        :class:`~repro.stream.mutations.MissingEdgeError`.
        """
        s, d = as_endpoint_arrays(src, dst)
        if s.size:
            self._staged_remove.append((s, d))
        return self

    def update_weights(self, src, dst, weights) -> "DynamicGraph":
        """Stage new weights for existing edge instances.

        Instance matching follows the same exact-multiplicity rule as
        :meth:`remove_edges`; updates are matched against the edges that
        survive this batch's removals.
        """
        s, d = as_endpoint_arrays(src, dst)
        w = normalise_weight_array(weights, s.size)
        if w is None:
            raise ValueError("update_weights requires a weight array")
        if s.size:
            self._staged_update.append((s, d, w))
        return self

    def add_vertices(self, count: int) -> "DynamicGraph":
        """Stage growth of the vertex set by ``count`` fresh ids."""
        count = int(count)
        if count < 0:
            raise ValueError("count must be non-negative")
        self._staged_vertices += count
        return self

    def discard_staged(self) -> None:
        """Drop every staged operation without committing."""
        self._staged_add.clear()
        self._staged_remove.clear()
        self._staged_update.clear()
        self._staged_vertices = 0

    # ------------------------------------------------------------------ #
    # Commit
    # ------------------------------------------------------------------ #
    def commit(self) -> Optional[MutationDelta]:
        """Apply the staged batch atomically; bump the version.

        Returns the committed :class:`~repro.stream.mutations.MutationDelta`
        (also appended to :attr:`log`), or ``None`` when nothing was staged.
        Readers holding earlier snapshots are unaffected: the new version
        shares its parent's base and writes no array it shares.  The cost is
        one O(E) bitmap match of the removals and updates plus O(Δ + tail)
        bookkeeping; the new version's graph is built only when read.  A
        commit that raises leaves the graph as it was.
        """
        if (
            not self._staged_add
            and not self._staged_remove
            and not self._staged_update
            and self._staged_vertices == 0
        ):
            return None
        # Staged call groups collapsing into this one atomic delta.
        obs_metrics.count(
            "dynamic.coalesced_mutations",
            len(self._staged_add)
            + len(self._staged_remove)
            + len(self._staged_update)
            + (1 if self._staged_vertices else 0),
        )
        current = self._current
        base, dead, (tail_src, tail_dst, tail_w), weighted = current.parts()
        n_base = base.n_edges
        n_before = current.n_vertices
        n_after = n_before + self._staged_vertices

        # --- removals: match exact instances against the live edges ------ #
        if self._staged_remove:
            rem_src = np.concatenate([s for s, _ in self._staged_remove])
            rem_dst = np.concatenate([d for _, d in self._staged_remove])
            removed_pos = match_edge_instances(
                [(base.src, base.dst, dead), (tail_src, tail_dst, None)],
                rem_src,
                rem_dst,
                n_before,
            )
        else:
            rem_src = rem_dst = removed_pos = _NO_POSITIONS
        removed_w = _weights_at(base, tail_w, removed_pos)
        in_base = removed_pos < n_base
        if np.any(in_base):
            dead = np.sort(np.concatenate((dead, removed_pos[in_base])))
        removed_tail = removed_pos[~in_base] - n_base

        # --- weight updates: matched against the surviving instances ----- #
        if self._staged_update:
            upd_src = np.concatenate([s for s, _, _ in self._staged_update])
            upd_dst = np.concatenate([d for _, d, _ in self._staged_update])
            upd_new_w = np.concatenate([w for _, _, w in self._staged_update])
            upd_pos = match_edge_instances(
                [(base.src, base.dst, dead), (tail_src, tail_dst, removed_tail)],
                upd_src,
                upd_dst,
                n_before,
            )
            upd_old_w = _weights_at(base, tail_w, upd_pos)
        else:
            upd_src = upd_dst = upd_pos = _NO_POSITIONS
            upd_new_w = upd_old_w = np.empty(0, dtype=np.float64)

        # --- additions --------------------------------------------------- #
        if self._staged_add:
            add_src = np.concatenate([s for s, _, _ in self._staged_add])
            add_dst = np.concatenate([d for _, d, _ in self._staged_add])
            if any(w is not None for _, _, w in self._staged_add):
                add_w = np.concatenate(
                    [
                        w if w is not None else np.ones(s.size, dtype=np.float64)
                        for s, _, w in self._staged_add
                    ]
                )
                add_weighted = True
            else:
                add_w = np.ones(add_src.size, dtype=np.float64)
                add_weighted = False
            if add_src.size and max(add_src.max(), add_dst.max()) >= n_after:
                raise ValueError(
                    f"added edges reference vertex "
                    f"{int(max(add_src.max(), add_dst.max()))} outside the "
                    f"committed vertex set [0, {n_after}); stage add_vertices "
                    "first to grow the graph"
                )
        else:
            add_src = add_dst = _NO_POSITIONS
            add_w = np.empty(0, dtype=np.float64)
            add_weighted = False

        # --- the next version: O(Δ + tail); shared arrays stay unwritten -- #
        upd_in_base = upd_pos < n_base
        if np.any(upd_in_base):
            base_w = base.effective_weights().copy()  # earlier versions keep theirs
            base_w[upd_pos[upd_in_base]] = upd_new_w[upd_in_base]
            base = EdgeList._of_valid_arrays(base.src, base.dst, base_w, base.n_vertices)
        if not np.all(upd_in_base):
            tail_w = tail_w.copy()
            tail_w[upd_pos[~upd_in_base] - n_base] = upd_new_w[~upd_in_base]
        kept = slice(None)
        if removed_tail.size:
            kept = np.ones(tail_src.size, dtype=bool)
            kept[removed_tail] = False
        tail = (
            np.concatenate((tail_src[kept], add_src)),
            np.concatenate((tail_dst[kept], add_dst)),
            np.concatenate((tail_w[kept], add_w)),
        )
        weighted = weighted or add_weighted or upd_pos.size > 0
        version = _Version(base, dead, tail, n_after, weighted, current.fingerprint_mode)

        delta = MutationDelta(
            version=self.version + 1,
            n_vertices_before=n_before,
            n_vertices_after=n_after,
            added_src=add_src,
            added_dst=add_dst,
            added_weights=add_w,
            removed_src=rem_src,
            removed_dst=rem_dst,
            removed_weights=removed_w,
            updated_src=upd_src,
            updated_dst=upd_dst,
            updated_old_weights=upd_old_w,
            updated_new_weights=upd_new_w,
        )

        if self.store is not None:
            if delta.append_only and self.store.weighted == weighted:
                self.store.append(EdgeList(add_src, add_dst, add_w if weighted else None, n_after))
            else:
                self.store.rewrite(version.graph.edges)

        self._current = version
        self.version += 1
        self.log.append(delta)
        self.discard_staged()
        return delta

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        staged = f", staged={self.n_staged}" if self.n_staged else ""
        return (
            f"DynamicGraph(v{self.version}, n={self.n_vertices}, "
            f"s={self.n_edges}{staged})"
        )
