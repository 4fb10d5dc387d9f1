"""Vectorised dense backend.

Processes the frontier's edges as flat NumPy slabs through the function's
``update_batch`` hook.  This plays the role the Numba JIT plays in the
paper: it removes the per-edge interpreter overhead but still executes on a
single core.  Functions without a batch hook fall back to the serial
traversal.
"""

from __future__ import annotations

import numpy as np

from ...graph.csr import CSRGraph
from ..edge_map import EdgeMapFunction, edge_map_dense_serial
from ..vertex_subset import VertexSubset
from .base import DenseBackend, frontier_edges

__all__ = ["VectorizedBackend"]


class VectorizedBackend(DenseBackend):
    """Single-threaded batch execution of the dense edge map: the frontier's
    whole edge set goes to one ``update_batch`` call."""

    name = "vectorized"

    def dense_edge_map(
        self, graph: CSRGraph, frontier: VertexSubset, fn: EdgeMapFunction
    ) -> VertexSubset:
        if type(fn).update_batch is EdgeMapFunction.update_batch:
            # No batch hook implemented: fall back to the serial traversal.
            return edge_map_dense_serial(graph, frontier, fn)
        srcs, dsts, ws = frontier_edges(graph, frontier)
        out_mask = np.zeros(graph.n_vertices, dtype=bool)
        if srcs.size:
            fired = fn.update_batch(srcs, dsts, ws)
            if fired is None:
                out_mask[dsts] = True
            else:
                out_mask[dsts[np.asarray(fired, dtype=bool)]] = True
        return VertexSubset(graph.n_vertices, mask=out_mask)
