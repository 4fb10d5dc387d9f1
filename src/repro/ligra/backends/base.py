"""Backend interface for dense edge-map execution.

A backend decides *how* the dense traversal of the edge set is executed:
serially, vectorised through NumPy, with threads, or with forked processes
over shared memory.  Callers never talk to backends directly — they go
through :class:`repro.ligra.engine.LigraEngine`, which owns one backend.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ...graph.csr import CSRGraph
from ..edge_map import EdgeMapFunction
from ..vertex_subset import VertexSubset

__all__ = ["DenseBackend", "AccumulatingEdgeMapFunction", "frontier_edges"]


class AccumulatingEdgeMapFunction(EdgeMapFunction):
    """An edge-map function whose effect is pure accumulation.

    Functions of this form (GEE's ``updateEmb``, degree counting, ...)
    commute across edges: the result is a sum of per-edge contributions
    into one or more output arrays.  That property is what lets the process
    backend replace Ligra's hardware atomics with private per-worker
    partials plus a reduction, without changing the result beyond
    floating-point summation order.
    """

    def output_arrays(self) -> dict:
        """The named arrays that edge updates accumulate into (``+=``)."""
        raise NotImplementedError

    def update_batch_into(
        self,
        outputs: dict,
        srcs: np.ndarray,
        dsts: np.ndarray,
        weights: np.ndarray,
    ) -> Optional[np.ndarray]:
        """Accumulate the contribution of a flat edge batch into ``outputs``.

        ``outputs`` maps the same names as :meth:`output_arrays` to arrays
        of the same shapes (possibly private zero-filled copies).  Returns a
        boolean "fired" mask over destinations in the batch (or ``None``
        meaning all fired).
        """
        raise NotImplementedError

    # Default scalar/batch hooks in terms of the accumulate form.
    def update_batch(self, srcs, dsts, weights):  # noqa: D102 - see base class
        return self.update_batch_into(self.output_arrays(), srcs, dsts, weights)

    def update(self, u, v, w):  # noqa: D102 - see base class
        res = self.update_batch_into(
            self.output_arrays(),
            np.asarray([u], dtype=np.int64),
            np.asarray([v], dtype=np.int64),
            np.asarray([w], dtype=np.float64),
        )
        if res is None:
            return True
        return bool(np.asarray(res).ravel()[0])


def frontier_edges(
    graph: CSRGraph, frontier: VertexSubset
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat ``(srcs, dsts, weights)`` arrays of all out-edges of the frontier."""
    if len(frontier) == graph.n_vertices:
        return graph.edge_sources(), graph.indices, graph.weights
    idx = frontier.indices()
    degs = graph.indptr[idx + 1] - graph.indptr[idx]
    srcs = np.repeat(idx, degs)
    # Gather the edge slots of every frontier vertex.
    slots = np.concatenate(
        [np.arange(graph.indptr[u], graph.indptr[u + 1]) for u in idx.tolist()]
    ) if idx.size else np.empty(0, dtype=np.int64)
    slots = slots.astype(np.int64)
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

    def close(self) -> None:
        """Release any worker resources (idempotent)."""

    def __enter__(self) -> "DenseBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
