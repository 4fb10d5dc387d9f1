"""The dense ``edgeMap`` primitive and the function protocol it maps.

This is the heart of the Ligra programming model (paper §II): apply a
user-supplied update function to every out-edge of a frontier, returning
the frontier of destinations whose update "fired".  GEE-Ligra runs Ligra's
dense traversal (``edgeMapDense``): every vertex's out-edge list is walked
and only edges whose source is in the frontier are applied.  Its frontier
is the whole vertex set (paper §III), with one worker per vertex edge list.

The user function is an :class:`EdgeMapFunction`.  Backends use the richest
hook the function provides: per-edge scalar calls always work, a
``update_block`` hook lets a backend hand a whole vertex edge list to NumPy,
and ``update_batch`` lets the vectorised backend process an arbitrary flat
slab of edges at once.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graph.csr import CSRGraph
from .vertex_subset import VertexSubset

__all__ = ["EdgeMapFunction", "edge_map_dense_serial"]


class EdgeMapFunction:
    """Base class for functions mapped over edges.

    Subclasses must implement :meth:`update`; the other hooks have sensible
    defaults and are optional accelerators.
    """

    def update(self, u: int, v: int, w: float) -> bool:
        """Apply the edge ``(u, v, w)``; return True if the destination
        should join the output frontier.  May assume no concurrent call
        touches the same destination (dense mode orders them)."""
        raise NotImplementedError

    def update_atomic(self, u: int, v: int, w: float) -> bool:
        """Race-safe version of :meth:`update`, used when different workers
        may target the same destination concurrently.  Defaults to
        :meth:`update` (correct for serial execution)."""
        return self.update(u, v, w)

    def cond(self, v: int) -> bool:
        """Whether destination ``v`` still accepts updates (Ligra's ``cond``);
        returning False lets dense traversal skip or early-exit a vertex."""
        return True

    # ------------------------------------------------------------------ #
    # Optional bulk hooks
    # ------------------------------------------------------------------ #
    def update_block(
        self, u: int, dsts: np.ndarray, weights: np.ndarray
    ) -> Optional[np.ndarray]:
        """Process the whole out-edge list of source ``u`` at once.

        Return a boolean mask (aligned with ``dsts``) of destinations that
        joined the output frontier, or ``None`` to fall back to per-edge
        calls.  Implementing this hook is what makes an edge map fast in
        pure Python: the backend loops over *vertices*, NumPy loops over
        their edges.
        """
        return None

    def update_batch(
        self, srcs: np.ndarray, dsts: np.ndarray, weights: np.ndarray
    ) -> Optional[np.ndarray]:
        """Process an arbitrary flat batch of edges at once.

        Used by the vectorised backend and by parallel workers, which hand
        each worker's edge range to this hook in one call.  Return a boolean
        mask of destinations that fired or ``None`` to fall back.
        """
        return None


def edge_map_dense_serial(
    graph: CSRGraph, frontier: VertexSubset, fn: EdgeMapFunction
) -> VertexSubset:
    """Serial ``edgeMapDense``: walk every vertex's out-edge list.

    Following the paper's description (§III), the dense traversal processes
    the out-edge list of each source vertex sequentially; only edges whose
    source is in the frontier are applied.  With a full frontier this visits
    every edge exactly once.
    """
    out_mask = np.zeros(graph.n_vertices, dtype=bool)
    fmask = frontier.mask()
    full = len(frontier) == graph.n_vertices
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    for u in range(graph.n_vertices):
        if not full and not fmask[u]:
            continue
        lo, hi = int(indptr[u]), int(indptr[u + 1])
        if lo == hi:
            continue
        dsts = indices[lo:hi]
        ws = weights[lo:hi]
        block = fn.update_block(u, dsts, ws)
        if block is not None:
            out_mask[dsts[block]] = True
            continue
        for j in range(hi - lo):
            v = int(dsts[j])
            if fn.cond(v) and fn.update(u, v, float(ws[j])):
                out_mask[v] = True
    return VertexSubset(graph.n_vertices, mask=out_mask)
