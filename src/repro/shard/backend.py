"""The ``sharded`` backend: owner-range shards behind the standard protocol.

A thin adapter from the :class:`~repro.backends.registry.GEEBackend`
protocol onto :class:`~repro.shard.ShardedGraph`.  The facade caches
sharded graphs per shard count (``Graph.shard``) and the sorted plan they
run over per ``K``, so repeated embeds — backend sweeps, the refinement
loop, incremental re-fits — pay the degree count and the sort once,
exactly like cached plans.

The backend deliberately does **not** accept chunked plans: sharding and
chunking answer the same memory question at different layers, and the
sharded out-of-core story is the explicit per-shard segment stores of
:meth:`ShardedGraph.persist` / :meth:`ShardedGraph.embed_outofcore`.
"""

from __future__ import annotations

import numpy as np

from ..backends.registry import BackendCapabilities, GEEBackend, register_backend
from ..parallel import effective_worker_count
from .sharded import patch_sums_sharded

__all__ = ["ShardedGEEBackend"]


@register_backend(
    "sharded",
    capabilities=BackendCapabilities(
        supports_n_workers=True,
        parallel=True,
        deterministic=True,
        supports_incremental=True,
        supports_layout=True,
        supports_sharding=True,
        description=(
            "owner-range sharded fused edge pass; each shard writes the raw "
            "class sums of its own rows into one output (n_shards option)"
        ),
    ),
)
class ShardedGEEBackend(GEEBackend):
    """Owner-range sharded execution into one shared class-sum buffer.

    Options
    -------
    n_shards:
        Number of contiguous owner-range shards.  ``None`` (the default)
        uses one shard per machine worker, clamped to the vertex count.
    """

    _OPTIONS = {"n_shards": None}

    def _resolved_shards(self, n_vertices: int) -> int:
        requested = self.n_shards
        if requested is None:
            requested = effective_worker_count(None)
        return max(1, min(int(requested), max(1, int(n_vertices))))

    def _embed(self, graph, labels, n_classes):
        sharded = graph.shard(self._resolved_shards(graph.n_vertices))
        return sharded.embed(labels, n_classes, n_workers=self.n_workers)

    def _embed_with_plan(self, plan, labels):
        graph = plan.graph
        sharded = graph.shard(self._resolved_shards(graph.n_vertices))
        return sharded.embed(labels, plan.n_classes, n_workers=self.n_workers)

    def _patch_sums(
        self,
        S_flat: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        delta_w: np.ndarray,
        labels: np.ndarray,
        n_classes: int,
    ) -> None:
        # The incremental protocol carries no graph, so routing uses even
        # row cuts sized from S_flat; ShardedGraph.patch_sums supplies its
        # real degree-balanced cuts when a sharded graph is in scope.
        patch_sums_sharded(
            S_flat,
            src,
            dst,
            delta_w,
            labels,
            n_classes,
            n_shards=self.n_shards,
            n_workers=self.n_workers,
        )
