"""The Ligra-style engine: a graph plus the schedule of its dense edgeMap.

:class:`LigraEngine` ties together the pieces of the programming model the
paper builds on (§II) that GEE-Ligra (Algorithm 2) runs:

* a graph in CSR form,
* ``edge_map`` — apply a function over the out-edges of a frontier with
  Ligra's dense traversal (``edgeMapDense``),
* a pluggable execution backend for that traversal (serial / vectorized /
  threads).

An engine holds no resource.  Over a :class:`CSRGraph` it takes
microseconds to build, so GEE-Ligra builds one per pass.
"""

from __future__ import annotations

from typing import Optional, Union

from ..graph.csr import CSRGraph
from ..graph.edgelist import EdgeList
from ..graph.facade import Graph, GraphLike
from .backends import DenseBackend, make_backend
from .edge_map import EdgeMapFunction
from .vertex_subset import VertexSubset

__all__ = ["LigraEngine"]


class LigraEngine:
    """Frontier-based graph processing engine.

    Parameters
    ----------
    graph:
        The graph, as any graph-like input: a :class:`CSRGraph` is used
        directly, a :class:`~repro.graph.facade.Graph` contributes its
        cached CSR view, and everything else (``EdgeList``, ``(s, 2|3)``
        arrays, ``scipy.sparse`` adjacencies) is coerced once at
        construction.
    backend:
        Dense-traversal execution backend: a backend instance or one of the
        names ``"serial"``, ``"vectorized"``, ``"threads"``.
    n_workers:
        Worker count for the threads backend (ignored otherwise).
    """

    def __init__(
        self,
        graph: Union[CSRGraph, EdgeList, GraphLike],
        *,
        backend: Union[str, DenseBackend] = "serial",
        n_workers: Optional[int] = None,
    ) -> None:
        if not isinstance(graph, CSRGraph):
            graph = Graph.coerce(graph).csr
        self.graph = graph
        if isinstance(backend, str):
            backend = make_backend(backend, n_workers)
        self.backend = backend

    @property
    def n_vertices(self) -> int:
        """Number of vertices of the underlying graph."""
        return self.graph.n_vertices

    @property
    def n_edges(self) -> int:
        """Number of directed edges of the underlying graph."""
        return self.graph.n_edges

    def full_frontier(self) -> VertexSubset:
        """All vertices active (the GEE-Ligra frontier)."""
        return VertexSubset.full(self.n_vertices)

    def edge_map(self, frontier: VertexSubset, fn: EdgeMapFunction) -> VertexSubset:
        """Apply ``fn`` over the out-edges of ``frontier``; return the
        frontier of destinations whose update fired.

        The dense traversal runs on the configured backend.
        """
        if frontier.n_vertices != self.n_vertices:
            raise ValueError("frontier does not match the engine's graph")
        return self.backend.dense_edge_map(self.graph, frontier, fn)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LigraEngine(n={self.n_vertices}, s={self.n_edges}, "
            f"backend={self.backend.name!r})"
        )
