"""Dynamic-graph subsystem: mutation logs, O(Δ) embedding maintenance.

The static pipeline embeds a frozen edge list; this package keeps an
embedding *live* while the graph mutates underneath it:

* :class:`DynamicGraph` — a versioned graph with staged mutation batches
  (``add_edges`` / ``remove_edges`` / ``update_weights`` / ``add_vertices``),
  O(1) snapshots for readers and a bounded
  :class:`~repro.stream.mutations.MutationLog`.  A commit copies no edge
  array: the new version shares its parent's base edges and records the
  removed positions and the added tail, and its graph is built on first
  read;
* :class:`IncrementalEmbedding` — maintains the GEE embedding under
  committed batches in O(Δ) by scatter-patching persisted raw per-class
  sums (:class:`~repro.core.raw_sums.RawSums`), with churn-triggered exact
  full refreshes through any backend's compiled-plan path;
* :class:`SegmentedEdgeStore` — append-only on-disk segments so mutated
  graphs larger than memory keep streaming through the out-of-core engine.

Quick start::

    from repro import DynamicGraph, IncrementalEmbedding

    dyn = DynamicGraph(edges)
    inc = IncrementalEmbedding(dyn, labels, n_classes=K)
    dyn.add_edges([0, 5], [7, 2]).remove_edges([3], [4])
    dyn.commit()
    inc.update()            # O(Δ): rescales only the slots it patched
    Z = inc.embedding
"""

from .dynamic import DynamicGraph, Snapshot
from .incremental import IncrementalEmbedding, UpdateReport
from .mutations import MissingEdgeError, MutationDelta, MutationLog
from .segments import SegmentedEdgeSource, SegmentedEdgeStore

__all__ = [
    "DynamicGraph",
    "Snapshot",
    "IncrementalEmbedding",
    "UpdateReport",
    "MutationDelta",
    "MutationLog",
    "MissingEdgeError",
    "SegmentedEdgeStore",
    "SegmentedEdgeSource",
]
