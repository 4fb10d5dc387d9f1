"""The :class:`DynamicGraph`: a mutation-logged, versioned graph.

Production graphs mutate continuously; the paper's one-pass embedding only
ever sees a frozen edge list.  ``DynamicGraph`` bridges the two worlds with
three ideas:

* **staged mutation batches** — :meth:`add_edges`, :meth:`remove_edges`,
  :meth:`update_weights` and :meth:`add_vertices` stage work; one
  :meth:`commit` applies the whole batch atomically and returns the
  normalised :class:`~repro.stream.mutations.MutationDelta`;
* **copy-on-write versions** — every commit builds *new* edge arrays and a
  *new* :class:`~repro.graph.facade.Graph` facade; the previous version's
  arrays are never touched, so a :meth:`snapshot` taken by a reader stays a
  consistent view no matter how many batches writers commit afterwards;
* **a mutation log** — recent deltas are kept so incremental consumers
  (:class:`~repro.stream.incremental.IncrementalEmbedding`,
  ``GraphEncoderEmbedding.update``) can catch up in O(Δ) from whatever
  version they last saw.

Append-only commits (only ``add_edges``, no vertex growth) take a fast
path: each cached :class:`~repro.core.plan.EmbedPlan` of the previous
version is *extended* into the new version's cache — a copy-on-write plan
whose already-validated edge arrays and compiled ``u*K``/``v*K`` flat-index
components are the old ones plus the appended Δ — instead of being thrown
away and recompiled (the old version's plans stay untouched for its
snapshot readers).  A full refresh after a string of appends therefore pays
no validation or index-building cost, which is what makes the
churn-triggered exact re-embeds of the incremental engine cheap.

Removal semantics on multigraphs are exact-multiplicity: requesting
``(u, v)`` once removes *one* instance even when the pair is duplicated
(see :func:`~repro.stream.mutations.match_edge_instances`); requesting more
instances than exist raises.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _weights_at(edges: EdgeList, pos: np.ndarray) -> np.ndarray:
    """Weights of the instances at ``pos``; unit weights on an unweighted graph."""
    if edges.is_weighted:
        return edges.weights[pos]
    return np.ones(pos.size, dtype=np.float64)


@dataclass(frozen=True)
class Snapshot:
    """A versioned, immutable view of a :class:`DynamicGraph`.

    Copy-on-write makes this O(1): the snapshot holds the version's
    :class:`~repro.graph.facade.Graph` (whose arrays no later commit ever
    mutates), so readers embed, plan and iterate against it while writers
    keep committing batches.
    """

    version: int
    graph: Graph

    @property
    def n_vertices(self) -> int:
        return self.graph.n_vertices

    @property
    def n_edges(self) -> int:
        return self.graph.n_edges

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
        (copy-on-write needs that; pass a copy if you intend to keep
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
        self._graph = Graph.coerce(graph)
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
                store = SegmentedEdgeStore.create(store, self._graph.edges)
            elif store.n_edges != self._graph.n_edges:
                raise ValueError(
                    "attached store does not match the graph "
                    f"({store.n_edges} stored edges vs {self._graph.n_edges})"
                )
        self.store = store

    # ------------------------------------------------------------------ #
    # Read side
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> Graph:
        """The current version's :class:`~repro.graph.facade.Graph` facade."""
        return self._graph

    @property
    def n_vertices(self) -> int:
        return self._graph.n_vertices

    @property
    def n_edges(self) -> int:
        return self._graph.n_edges

    def snapshot(self) -> Snapshot:
        """A consistent, immutable view of the current version (O(1))."""
        return Snapshot(version=self.version, graph=self._graph)

    def plan(self, n_classes: int, **kwargs):
        """The current version's compiled plan (see :meth:`Graph.plan`)."""
        return self._graph.plan(n_classes, **kwargs)

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
            self._graph.edges,
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
        Readers holding earlier snapshots are unaffected: the new version is
        built from new arrays (copy-on-write).
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
        old_graph = self._graph
        edges = old_graph.edges
        n_before = int(edges.n_vertices)
        n_after = n_before + self._staged_vertices

        # --- removals: match exact instances against the current edges --- #
        if self._staged_remove:
            rem_src = np.concatenate([s for s, _ in self._staged_remove])
            rem_dst = np.concatenate([d for _, d in self._staged_remove])
            removed_pos = match_edge_instances(
                edges.src, edges.dst, rem_src, rem_dst, n_before
            )
        else:
            rem_src = rem_dst = removed_pos = np.empty(0, dtype=np.int64)
        removed_w = _weights_at(edges, removed_pos)

        keep = np.ones(edges.n_edges, dtype=bool)
        keep[removed_pos] = False

        # --- weight updates: matched against the surviving instances ----- #
        if self._staged_update:
            upd_src = np.concatenate([s for s, _, _ in self._staged_update])
            upd_dst = np.concatenate([d for _, d, _ in self._staged_update])
            upd_new_w = np.concatenate([w for _, _, w in self._staged_update])
            survivors = np.flatnonzero(keep)
            upd_local = match_edge_instances(
                edges.src[survivors], edges.dst[survivors], upd_src, upd_dst, n_before
            )
            upd_pos = survivors[upd_local]
            upd_old_w = _weights_at(edges, upd_pos)
        else:
            upd_src = upd_dst = upd_pos = np.empty(0, dtype=np.int64)
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
            add_src = add_dst = np.empty(0, dtype=np.int64)
            add_w = np.empty(0, dtype=np.float64)
            add_weighted = False

        # --- build the next version's arrays (copy-on-write) ------------- #
        weighted = edges.is_weighted or add_weighted or upd_pos.size > 0
        kept = keep if removed_pos.size else slice(None)
        new_src = np.concatenate((edges.src[kept], add_src))
        new_dst = np.concatenate((edges.dst[kept], add_dst))
        new_w = None
        if weighted:
            old_w = edges.effective_weights()
            if upd_pos.size:
                old_w = old_w.copy()  # the old version keeps its weights
                old_w[upd_pos] = upd_new_w
            new_w = np.concatenate((old_w[kept], add_w))

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

        new_graph = Graph(EdgeList(new_src, new_dst, new_w, n_after))
        new_graph._fingerprint_mode = old_graph._fingerprint_mode
        if delta.append_only and not (add_weighted and not edges.is_weighted):
            self._carry_plans(old_graph, new_graph, add_src, add_dst, add_w)

        if self.store is not None:
            if delta.append_only and self.store.weighted == weighted:
                self.store.append(EdgeList(add_src, add_dst, add_w if weighted else None, n_after))
            else:
                self.store.rewrite(new_graph.edges)

        self._graph = new_graph
        self.version += 1
        self.log.append(delta)
        self.discard_staged()
        return delta

    @staticmethod
    def _carry_plans(
        old_graph: Graph,
        new_graph: Graph,
        add_src: np.ndarray,
        add_dst: np.ndarray,
        add_w: np.ndarray,
    ) -> None:
        """Seed the new version's plan cache from the old one, copy-on-write.

        Only full :class:`~repro.core.plan.EmbedPlan` objects carry (chunked
        plans pin the old version's source and are simply dropped); each is
        *extended* — a new plan whose compiled artifacts are the old ones
        plus the Δ appended edges, re-fingerprinted against the new arrays
        — so the first refresh on the new version pays no validation or
        index-compilation cost.  The old version's plans are left in place
        untouched: snapshot readers of that version keep embedding exactly
        the edge set they saw.
        """
        from ..core.plan import EmbedPlan

        carried = {
            key: plan
            for key, plan in old_graph._plans.items()
            if isinstance(plan, EmbedPlan)
        }
        if not carried:
            return
        fingerprint = new_graph.edge_data_fingerprint()
        for key, plan in carried.items():
            new_graph._plans[key] = plan.extended(
                add_src, add_dst, add_w, graph=new_graph, fingerprint=fingerprint
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        staged = f", staged={self.n_staged}" if self.n_staged else ""
        return (
            f"DynamicGraph(v{self.version}, n={self.n_vertices}, "
            f"s={self.n_edges}{staged})"
        )
