"""Backend interface for dense edge-map execution.

A backend decides *how* the dense traversal of the edge set is executed:
serially, vectorised through NumPy, or with threads.  Callers never talk to
backends directly — they go through :class:`repro.ligra.engine.LigraEngine`,
which owns one backend.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ...graph.csr import CSRGraph, _row_slots
from ..edge_map import EdgeMapFunction
from ..vertex_subset import VertexSubset

__all__ = ["DenseBackend", "frontier_edges"]


def frontier_edges(
    graph: CSRGraph, frontier: VertexSubset
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat ``(srcs, dsts, weights)`` arrays of all out-edges of the frontier."""
    if len(frontier) == graph.n_vertices:
        return graph.edge_sources(), graph.indices, graph.weights
    srcs, slots = _row_slots(graph.indptr, frontier.indices())
    return srcs, graph.indices[slots], graph.weights[slots]


class DenseBackend:
    """Interface implemented by every execution backend."""

    #: human-readable backend name used in reports
    name: str = "base"

    def dense_edge_map(
        self, graph: CSRGraph, frontier: VertexSubset, fn: EdgeMapFunction
    ) -> VertexSubset:
        """Apply ``fn`` to every out-edge of the frontier, dense traversal."""
        raise NotImplementedError
