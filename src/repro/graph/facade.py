"""The :class:`Graph` facade: one graph object, many cached views.

Every entry point of the library (the :class:`~repro.core.api.GraphEncoderEmbedding`
estimator, the functional GEE kernels, the Ligra engine and the experiment
drivers) accepts a *graph-like* input and funnels it through
:meth:`Graph.coerce`:

* a :class:`Graph` (returned unchanged, keeping its caches),
* an :class:`~repro.graph.edgelist.EdgeList`,
* a :class:`~repro.graph.csr.CSRGraph` (adopted as the CSR view, never
  rebuilt),
* an ``(s, 2)`` or ``(s, 3)`` NumPy array of ``(src, dst[, weight])`` rows,
* a ``(src, dst[, weights])`` tuple of arrays,
* any ``scipy.sparse`` square adjacency matrix.

An array's, tuple's, CSR's or matrix's weights that are all 1.0 attach no
weight array, as an unweighted edge list does, so their plans compile the
unit-weight layout.

The facade exists because the expensive derived structures — the CSR
adjacency, degree vectors, the Laplacian-reweighted edge list, the compiled
embed plans — used to be recomputed by every call that needed them.
``Graph`` builds each view lazily on first access and caches it for the
object's lifetime, so an experiment that embeds the same graph with six
backends pays for each view once.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .csr import CSRGraph
from .edgelist import EdgeList, unit_weights_as_none

__all__ = ["Graph", "GraphLike", "as_graph", "as_edgelist"]

#: The union of input types `Graph.coerce` understands.
GraphLike = Union["Graph", EdgeList, CSRGraph, np.ndarray, tuple]


class Graph:
    """A graph with lazily-built, cached derived views.

    Parameters
    ----------
    edges:
        The canonical edge-list representation.  May be omitted when ``csr``
        is given; the edge-list view is then built lazily on first access,
        so CSR-consuming code paths never pay for the ``O(s)`` expansion.
    csr:
        Optional prebuilt CSR adjacency for the same graph; adopted as the
        cached CSR view instead of being rebuilt on first access.
    """

    def __init__(
        self, edges: Optional[EdgeList] = None, *, csr: Optional[CSRGraph] = None
    ) -> None:
        if edges is None and csr is None:
            raise TypeError("Graph requires an EdgeList and/or a CSRGraph")
        if edges is not None and not isinstance(edges, EdgeList):
            raise TypeError(f"Graph wraps an EdgeList, got {type(edges)!r}")
        self._edges = edges
        self._csr: Optional[CSRGraph] = csr
        #: Whether a caller-supplied CSR is the source of truth (the edge
        #: list view is then a derived snapshot).
        self._adopted_csr = csr is not None
        self._laplacian: Optional["Graph"] = None
        self._out_degrees: Optional[np.ndarray] = None
        self._in_degrees: Optional[np.ndarray] = None
        self._weighted_degrees: Optional[np.ndarray] = None
        self._is_weighted: Optional[bool] = None
        #: K -> compiled EmbedPlan, or ("chunked", K, chunk_edges) ->
        #: compiled ChunkedPlan (see :meth:`plan`), oldest-first.
        self._plans: Dict[object, object] = {}
        #: Fingerprint of the edge data at the time the CSR view was built
        #: (see :meth:`plan` — detects mutations that happen between view
        #: construction and the first plan compilation).
        self._view_fingerprint = None
        #: Mutation-detection mode: ``"sampled"`` (O(1), best-effort for
        #: in-place edits) or ``"full"`` (O(s) digest, exact).  Sticky —
        #: set via ``plan(K, fingerprint="full")``.
        self._fingerprint_mode = "sampled"

    #: Cap on cached plans per graph (each holds the validated edges, a sorted
    #: plan its symmetric CSR, and an n*K buffer); oldest is evicted beyond this.
    _MAX_PLANS = 8

    # ------------------------------------------------------------------ #
    # Coercion
    # ------------------------------------------------------------------ #
    @classmethod
    def coerce(cls, obj: GraphLike, *, n_vertices: Optional[int] = None) -> "Graph":
        """Build a :class:`Graph` from any graph-like input.

        A ``Graph`` passes through unchanged (its caches are preserved); a
        ``CSRGraph`` is adopted as the CSR view without a rebuild.  Raises
        :class:`TypeError` for inputs that are not graph-like.
        """
        if isinstance(obj, cls):
            return obj
        if isinstance(obj, EdgeList):
            return cls(obj)
        if isinstance(obj, CSRGraph):
            return cls(csr=obj)
        if isinstance(obj, np.ndarray):
            return cls(EdgeList.from_array(obj, n_vertices=n_vertices))
        if _is_scipy_sparse(obj):
            return cls(_edgelist_from_scipy(obj))
        if isinstance(obj, tuple) and len(obj) in (2, 3):
            edges = EdgeList(obj[0], obj[1], obj[2] if len(obj) == 3 else None, n_vertices)
            edges.weights = unit_weights_as_none(edges.weights)
            return cls(edges)
        from .io import ChunkedEdgeSource

        if isinstance(obj, ChunkedEdgeSource):
            raise TypeError(
                "a ChunkedEdgeSource cannot be coerced to an in-memory Graph "
                "(it may be larger than RAM); pass it directly to a chunk-aware "
                "backend's embed(), GraphEncoderEmbedding.fit(), or materialise "
                "it explicitly with source.to_edgelist()"
            )
        raise TypeError(
            "expected a graph-like input (Graph, EdgeList, CSRGraph, an (s, 2|3) "
            f"ndarray, a (src, dst[, weights]) tuple or a scipy.sparse matrix), "
            f"got {type(obj)!r}"
        )

    # ------------------------------------------------------------------ #
    # Basic protocol
    # ------------------------------------------------------------------ #
    @property
    def edges(self) -> EdgeList:
        """The canonical edge-list view (built lazily from an adopted CSR)."""
        if self._edges is None:
            assert self._csr is not None
            self._edges = self._csr.to_edgelist()
            # Record what the adopted CSR looked like when this snapshot
            # was taken, so a later plan() can tell whether the CSR was
            # mutated in between.
            self._view_fingerprint = self.edge_data_fingerprint()
        return self._edges

    @property
    def n_vertices(self) -> int:
        """Number of vertices ``n``."""
        if self._edges is not None:
            return int(self._edges.n_vertices)
        assert self._csr is not None
        return self._csr.n_vertices

    @property
    def n_edges(self) -> int:
        """Number of directed edges ``s``."""
        if self._edges is not None:
            return self._edges.n_edges
        assert self._csr is not None
        return self._csr.n_edges

    @property
    def is_weighted(self) -> bool:
        """Whether the graph carries non-unit edge weights (cached).

        For CSR-adopted graphs the answer needs an O(s) scan of the weight
        column (CSR always materialises one; all-unit counts as
        unweighted), so it is computed once and per-call consumers do not
        re-pay it.
        """
        if self._is_weighted is None:
            if self._edges is not None:
                self._is_weighted = self._edges.is_weighted
            else:
                assert self._csr is not None
                self._is_weighted = not bool(np.all(self._csr.weights == 1.0))
        return self._is_weighted

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cached = [
            name
            for name, slot in (
                ("csr", self._csr),
                ("laplacian", self._laplacian),
                ("degrees", self._out_degrees),
            )
            if slot is not None
        ]
        suffix = f", cached={cached}" if cached else ""
        return f"Graph(n={self.n_vertices}, s={self.n_edges}{suffix})"

    # ------------------------------------------------------------------ #
    # Cached views
    # ------------------------------------------------------------------ #
    @property
    def csr(self) -> CSRGraph:
        """The CSR out-adjacency (built once, then cached)."""
        if self._csr is None:
            self._csr = CSRGraph.from_edgelist(self._edges)
            # Record what the edges looked like when this view was built,
            # so a later plan() can tell whether they were mutated since.
            self._view_fingerprint = self.edge_data_fingerprint()
        return self._csr

    @property
    def out_degrees(self) -> np.ndarray:
        """Unweighted out-degree of every vertex (cached)."""
        if self._out_degrees is None:
            if self._csr is not None:
                self._out_degrees = self._csr.out_degrees().astype(np.int64)
            else:
                self._out_degrees = self.edges.out_degrees()
        return self._out_degrees

    @property
    def in_degrees(self) -> np.ndarray:
        """Unweighted in-degree of every vertex (cached)."""
        if self._in_degrees is None:
            self._in_degrees = self.edges.in_degrees()
        return self._in_degrees

    @property
    def weighted_total_degrees(self) -> np.ndarray:
        """Weighted total (in + out) degree of every vertex (cached)."""
        if self._weighted_degrees is None:
            from ..core.laplacian import weighted_total_degrees

            self._weighted_degrees = weighted_total_degrees(self.edges)
        return self._weighted_degrees

    @property
    def laplacian(self) -> "Graph":
        """The Laplacian-reweighted graph (``w / sqrt(d_u d_v)``), cached.

        Reuses :attr:`weighted_total_degrees`, so asking for the Laplacian
        view repeatedly (e.g. across refinement iterations) reweights once.
        """
        if self._laplacian is None:
            from ..core.laplacian import laplacian_reweight

            self._laplacian = Graph(
                laplacian_reweight(self.edges, degrees=self.weighted_total_degrees)
            )
        return self._laplacian

    # ------------------------------------------------------------------ #
    # Compiled embed plans
    # ------------------------------------------------------------------ #
    def edge_data_fingerprint(self) -> Tuple:
        """Fingerprint of the edge source of truth, in the graph's mode.

        Samples (default) or fully digests (``fingerprint="full"`` was
        requested on :meth:`plan`) whichever representation is canonical:
        the adopted CSR for CSR-adopted graphs, the edge list otherwise.
        """
        from ..core.plan import (
            csr_fingerprint,
            csr_fingerprint_full,
            edge_fingerprint,
            edge_fingerprint_full,
        )

        full = self._fingerprint_mode == "full"
        # A CSR-adopted graph's edge list is a derived snapshot, so sampling
        # it would never see CSR mutations.
        if self._adopted_csr:
            return csr_fingerprint_full(self._csr) if full else csr_fingerprint(self._csr)
        return edge_fingerprint_full(self.edges) if full else edge_fingerprint(self.edges)

    def plan(
        self,
        n_classes: int,
        *,
        chunk_edges: Optional[int] = None,
        memory_budget_bytes: Optional[int] = None,
        fingerprint: Optional[str] = None,
        layout: Optional[str] = None,
    ):
        """The compiled :class:`~repro.core.plan.EmbedPlan` for ``K`` classes.

        The plan — validated edge arrays, a sorted plan's symmetric CSR and
        a reusable output buffer, each built on first use — is cached, so
        repeated ``embed_with_plan`` calls (backend sweeps, worker sweeps,
        the refinement loop) pay the label-independent work exactly once.

        A different ``K`` compiles a separate plan.  If the underlying edge
        arrays changed since compilation (detected via a sampled
        fingerprint — best-effort for in-place mutation, exact for array
        replacement), every cached view is dropped and the plan recompiled.

        With ``chunk_edges`` (a block length) or ``memory_budget_bytes`` (a
        cap on per-block temporaries) the compiled artifact is instead a
        :class:`~repro.core.plan.ChunkedPlan`: it compiles nothing, and the
        edge pass streams the edges in stored order in bounded blocks.
        Only backends whose capabilities declare ``supports_chunked``
        accept a chunked plan.

        ``fingerprint`` selects the mutation-detection mode and is sticky
        for the graph: ``"sampled"`` (the default — O(1), exact for array
        replacement, best-effort for in-place edits beyond ~32 edges) or
        ``"full"`` (an O(s) digest of every edge, exact for any content
        change).  Switching modes on a graph with cached plans drops them
        once (the fingerprints are not comparable across modes).

        ``layout`` selects the plan's memory layout: ``None``/``"none"``
        (the default — arrival order kept, nothing compiled; ``parallel``
        still runs the sorted kernel on such a plan, through the graph's
        cached sorted plan), ``"sorted"`` (the locality-optimized fused
        incidence layout, see :class:`~repro.core.plan.FusedLayout`).  Both
        layouts embed bitwise the same.  Each layout is a separate cached
        plan.  A chunked plan has no layout: ``layout="sorted"`` with
        ``chunk_edges`` or ``memory_budget_bytes`` raises
        :class:`ValueError`.
        """
        from ..core.plan import LAYOUTS, EmbedPlan

        k = int(n_classes)
        if layout is None:
            layout = "none"
        elif layout not in LAYOUTS:
            raise ValueError(f"layout must be one of {LAYOUTS}, got {layout!r}")
        chunked = chunk_edges is not None or memory_budget_bytes is not None
        if chunked and layout == "sorted":
            raise ValueError(
                "a chunked plan streams the edges in stored order and has no "
                'sorted layout; use graph.plan(K, layout="sorted"), whose '
                "kernel already works one L2 row block at a time, or "
                "graph.plan(K, chunk_edges=...) for bounded temporaries"
            )
        if fingerprint is not None:
            if fingerprint not in ("sampled", "full"):
                raise ValueError(
                    f'fingerprint must be "sampled" or "full", got {fingerprint!r}'
                )
            self._fingerprint_mode = fingerprint
        fingerprint = self.edge_data_fingerprint()
        # A plan must never pair fresh edge arrays with stale derived
        # views.  The baseline fingerprint is whichever is older: the one
        # the cached plans were compiled under (a mismatch clears the lot),
        # or — before any plan exists — the one recorded when the CSR view
        # was built from the edges.
        baseline = None
        if self._plans:
            baseline = next(iter(self._plans.values())).fingerprint
        else:
            # Recorded when the CSR view (non-adopted) or the edge-list
            # snapshot (adopted CSR) was built — same fingerprint kind as
            # `fingerprint` in each case.
            baseline = self._view_fingerprint
        if baseline is not None and baseline != fingerprint:
            self.invalidate_cache()
        if chunked:
            from .io import ChunkedEdgeSource

            # Resolve the block length for the cache key without building
            # the source.
            resolved_chunk = ChunkedEdgeSource._resolve_chunk_edges(
                memory_budget_bytes, chunk_edges
            )
            key = ("chunked", k, resolved_chunk)
        else:
            # The bare-K key keeps the historical default plans (and every
            # pre-layout caller) hitting the same cache slot.
            key = k if layout == "none" else (k, layout)
        cached = self._plans.get(key)
        if cached is not None:
            obs_metrics.count("plan_cache.hits")
            return cached
        obs_metrics.count("plan_cache.misses")
        if len(self._plans) >= self._MAX_PLANS:
            # Drop the oldest plan (insertion order) — K sweeps beyond the
            # cap would otherwise pin one flat-index pair + buffer per K.
            self._plans.pop(next(iter(self._plans)))
        with obs_trace(
            "plan.compile",
            K=k,
            layout=layout,
            chunked=chunked,
            n_edges=self.n_edges,
        ):
            if chunked:
                from ..core.plan import ChunkedPlan

                source = ChunkedEdgeSource.from_edgelist(
                    self.edges, chunk_edges=resolved_chunk
                )
                plan = ChunkedPlan(source, k, graph=self, fingerprint=fingerprint)
            else:
                plan = EmbedPlan(self, k, fingerprint=fingerprint, layout=layout)
        self._plans[key] = plan
        return plan

    def invalidate_cache(self) -> None:
        """Drop every cached derived view and compiled plan.

        Call this after mutating the underlying edge arrays in place;
        :meth:`plan` also calls it when its fingerprint check detects a
        mutation.
        """
        if self._adopted_csr:
            # The adopted CSR is the source of truth: drop the derived
            # edge-list snapshot (it may predate a CSR mutation) and keep
            # the CSR itself.
            self._edges = None
        else:
            self._csr = None
        self._laplacian = None
        self._out_degrees = None
        self._in_degrees = None
        self._weighted_degrees = None
        self._is_weighted = None
        self._view_fingerprint = None
        self.drop_plans()

    def drop_plans(self) -> None:
        """Drop the compiled plans cached on this graph.

        They reference the graph back, so a graph about to be discarded
        frees their arrays and shared memory at once instead of at the next
        cyclic garbage collection.  Unlike :meth:`invalidate_cache` it keeps
        every derived view.
        """
        self._plans.clear()

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def to_scipy(self):
        """The adjacency as a ``scipy.sparse.csr_matrix`` (via the CSR view)."""
        return self.csr.to_scipy()

    def cached_views(self) -> Tuple[str, ...]:
        """Names of the derived views built so far (introspection/tests)."""
        names = []
        if self._csr is not None:
            names.append("csr")
        if self._laplacian is not None:
            names.append("laplacian")
        if self._out_degrees is not None:
            names.append("out_degrees")
        if self._in_degrees is not None:
            names.append("in_degrees")
        if self._weighted_degrees is not None:
            names.append("weighted_total_degrees")
        return tuple(names)


def _is_scipy_sparse(obj) -> bool:
    try:
        import scipy.sparse as sp
    except ImportError:  # pragma: no cover - scipy is a hard dep in practice
        return False
    return sp.issparse(obj)


def _edgelist_from_scipy(matrix) -> EdgeList:
    """Convert a square scipy.sparse adjacency matrix to an edge list."""
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError(
            f"adjacency matrix must be square, got shape {tuple(matrix.shape)}"
        )
    coo = matrix.tocoo()
    return EdgeList(
        src=np.asarray(coo.row, dtype=np.int64),
        dst=np.asarray(coo.col, dtype=np.int64),
        weights=unit_weights_as_none(np.asarray(coo.data, dtype=np.float64)),
        n_vertices=int(matrix.shape[0]),
    )


def as_graph(obj: GraphLike, *, n_vertices: Optional[int] = None) -> Graph:
    """Alias for :meth:`Graph.coerce` (functional spelling)."""
    return Graph.coerce(obj, n_vertices=n_vertices)


def as_edgelist(obj: GraphLike, *, n_vertices: Optional[int] = None) -> EdgeList:
    """Coerce any graph-like input to an :class:`EdgeList`."""
    if isinstance(obj, EdgeList):
        return obj
    return Graph.coerce(obj, n_vertices=n_vertices).edges
