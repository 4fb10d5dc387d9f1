"""Compiled embed plans: the Y-independent half of a GEE call, done once.

Profiling repeated ``embed()`` calls on one graph (backend sweeps, worker
sweeps, the unsupervised refinement loop) shows the timed region paying for
work whose result never changes between calls: edge validation, the sorted
layout's symmetric CSR and the ``n×K`` output allocation are all functions
of the graph and ``K`` alone — only the label vector varies.  The paper's
own protocol never pays these costs (Ligra times an already-loaded graph),
so neither should ours.

:class:`EmbedPlan` is the compiled artifact holding all of it.  Plans are
cached on the :class:`~repro.graph.facade.Graph` facade via
``graph.plan(K)`` — one plan per ``(graph, K)`` — and every registered
backend exposes ``embed_with_plan(plan, labels)`` (see
:meth:`repro.backends.GEEBackend.embed_with_plan`), which performs no edge
validation and no index rebuilding per call.  The default plan compiles
nothing beyond the validated edges; its vectorised pass allocates one
``n×K`` temporary, and a sorted plan's only L2-sized block temporaries.

The embedding ``embed_with_plan`` returns belongs to the caller: the
kernel writes it in place into a buffer of the plan's small output ring
(:class:`~repro.parallel.shm.OutputRing`), and the plan reuses that buffer
only once no array views it any more.  So repeated calls on a plan whose
results are dropped reuse one buffer, and a kept result never changes.

One sharp edge, documented on the methods involved: cache invalidation
after *in-place* mutation of the underlying edge arrays is best-effort, via
a sampled fingerprint (see :func:`edge_fingerprint`).  Replacing the arrays
or building a new ``Graph`` is always detected.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..analysis.annotations import hot_path
from ..graph.csr import owner_sort
from ..parallel.shm import OutputRing
from .validation import _resolve_n_classes, validate_edges, validate_labels

__all__ = [
    "EmbedPlan",
    "ChunkedPlan",
    "FusedLayout",
    "LAYOUTS",
    "choose_index_dtype",
    "choose_label_dtype",
    "compile_fused_layout",
    "owner_sort",
    "edge_fingerprint",
    "csr_fingerprint",
    "edge_fingerprint_full",
    "csr_fingerprint_full",
]

#: Number of evenly-spaced edge samples hashed into the fingerprint.
_FINGERPRINT_SAMPLES = 32

#: The memory layouts a plan can compile its edge arrays into.  ``"none"``
#: keeps arrival order and compiles nothing (the default); ``"sorted"``
#: permutes for scatter locality (see :class:`FusedLayout`).
LAYOUTS = ("none", "sorted")

#: Index arrays narrow to int32 below this bound: the partner ids are the
#: dominant per-incidence read traffic of the fused kernel, so halving
#: their width halves index bandwidth.  Above the bound an index no longer
#: fits a signed 32-bit integer and int64 is required.
_INT32_LIMIT = 2**31

#: Target size in bytes of one row block's output slice.  Each block's
#: scatter window (``rows_per_block * K`` float64 slots) is sized to stay
#: resident in a typical L2 cache, so the block-local ``np.bincount``
#: writes never leave it.
_LAYOUT_BLOCK_BYTES = 1 << 18


def choose_index_dtype(n_vertices: int, n_classes: int, *, limit: int = _INT32_LIMIT):
    """The narrowest integer dtype that can hold every flat index ``< n*K``.

    int32 when ``n_vertices * n_classes < limit`` (every flat index is in
    ``[0, n*K)``; ``n_classes=1`` sizes vertex ids), int64 otherwise.  The
    product is computed in Python integers, so it can never overflow.
    """
    if int(n_vertices) * int(n_classes) < limit:
        return np.int32
    return np.int64


def choose_label_dtype(n_classes: int):
    """The narrowest signed integer dtype holding every label in ``[-1, K)``.

    int8 for ``K <= 128``, int16 for ``K <= 32768``, then int32, then
    int64: a signed type holds ``-K`` exactly when it holds ``K - 1``.  The
    sorted kernel gathers one label per incidence from a table of ``n``
    labels, so a narrower table keeps more of it in cache.
    """
    return np.min_scalar_type(-int(n_classes)).type


class FusedLayout:
    """The symmetric CSR of a graph: the incidence arrays of the edge pass.

    The edge pass updates ``Z[u, Y[v]] += scale[v]·w`` and
    ``Z[v, Y[u]] += scale[u]·w`` per edge — two scatter halves whose flat
    targets are effectively random in arrival order.  The layout rewrites
    the pass as **one** set of ``2E`` incidences ``(owner, partner, w)``
    (each edge appears twice, once per endpoint as owner), grouped by
    owner row: row ``u`` owns ``partner[indptr[u]:indptr[u+1]]`` and the
    matching ``weights``.  The scatter then walks the output sequentially
    (and within one row touches at most ``K`` adjacent slots), one
    L2-sized block of rows at a time.

    The per-edge scale is also hoisted: ``scale[v]`` depends only on
    ``Y[v]`` — the very class column the contribution lands in — so the
    kernel scatters *raw* weights and applies ``diag(1/n_c)`` per column
    afterwards (the ``Z = S·diag(1/n_c)`` identity), eliminating the O(E)
    scale gather entirely.  ``partner`` holds vertex ids, so it narrows to
    int32 when ``n < 2^31`` (:func:`choose_index_dtype`); no array holds a
    flat ``n*K`` index.

    All artifacts are label-independent; per call only the ``Y`` gather
    and the block-local ``np.bincount``s run
    (:func:`~repro.core.gee_vectorized.accumulate_fused_rows_sorted`).
    A weighted row lists its source-owned, then its destination-owned
    incidences, each in arrival order, and a unit-weight row its partners
    in ascending order (exact integer sums), so the default plan's pass
    embeds bitwise the same.
    """

    __slots__ = (
        "__weakref__",
        "n_vertices",
        "n_classes",
        "n_incidences",
        "rows_per_block",
        "indptr",
        "partner",
        "weights",
    )

    def __init__(
        self,
        n_vertices: int,
        n_classes: int,
        rows_per_block: int,
        indptr: np.ndarray,
        partner: np.ndarray,
        weights: Optional[np.ndarray],
    ) -> None:
        self.n_vertices = int(n_vertices)
        self.n_classes = int(n_classes)
        self.n_incidences = int(partner.size)
        #: Rows per L2-sized scatter block.
        self.rows_per_block = int(rows_per_block)
        #: Row pointer (int64, ``n + 1``): row ``u`` owns incidences
        #: ``indptr[u]:indptr[u+1]``.
        self.indptr = indptr
        #: The other endpoint per incidence (int32/int64 by ``n``).
        self.partner = partner
        #: Weights per incidence, or ``None`` for unit-weight graphs (the
        #: block-local ``bincount`` then runs weightless, which is faster).
        self.weights = weights

    @property
    def nbytes(self) -> int:
        """Total bytes held by the compiled incidence arrays."""
        total = self.indptr.nbytes + self.partner.nbytes
        if self.weights is not None:
            total += self.weights.nbytes
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FusedLayout(n={self.n_vertices}, "
            f"incidences={self.n_incidences}, K={self.n_classes}, "
            f"dtype={self.partner.dtype.name})"
        )


def compile_fused_layout(
    src: np.ndarray,
    dst: np.ndarray,
    weights: Optional[np.ndarray],
    n_vertices: int,
    n_classes: int,
    *,
    int32_limit: int = _INT32_LIMIT,
    block_bytes: int = _LAYOUT_BLOCK_BYTES,
) -> FusedLayout:
    """Compile the symmetric CSR incidence arrays for one ``(graph, K)``.

    ``weights=None`` marks a unit-weight graph (no weight array is stored
    and the scatter runs weightless); it sorts one packed int64 key
    ``owner << b | partner`` (``b`` the bit length of ``n - 1``) whose low
    bits are the sorted partners, so no permutation is gathered.  A weighted
    graph, or a key too wide for 63 bits, takes :func:`owner_sort`'s stable
    order.  See :class:`FusedLayout`.
    """
    n = int(n_vertices)
    k = int(n_classes)
    idx_dtype = choose_index_dtype(n, 1, limit=int32_limit)
    rows_per_block = max(1, int(block_bytes) // (k * 8))

    owner = np.concatenate((src, dst)).astype(np.int64, copy=False)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=n))))
    partner = np.concatenate((dst, src))
    bits = max(n - 1, 0).bit_length()
    if weights is None and 2 * bits <= 63:
        key = np.left_shift(owner, bits, out=owner)
        key |= partner
        del partner
        key.sort()
        key &= (1 << bits) - 1
        partner_p = key.astype(idx_dtype, copy=False)
        return FusedLayout(n, k, rows_per_block, indptr, partner_p, None)
    order, _ = owner_sort(owner)
    del owner
    partner_p = partner[order].astype(idx_dtype, copy=False)
    weights_p = None if weights is None else np.concatenate((weights, weights))[order]
    return FusedLayout(n, k, rows_per_block, indptr, partner_p, weights_p)


def edge_fingerprint(edges) -> Tuple:
    """A cheap, best-effort fingerprint of an edge list's contents.

    Samples ``_FINGERPRINT_SAMPLES`` evenly-spaced edges (O(1) work, never
    O(s)) plus the shapes, so plan caches can detect both array replacement
    and most in-place mutations without rescanning the graph.  A mutation
    that only touches un-sampled edges goes undetected — callers that
    mutate edge arrays in place should call ``Graph.invalidate_cache()``
    explicitly.
    """
    s = edges.n_edges
    if s == 0:
        sample: Tuple = ()
    else:
        idx = np.unique(
            np.linspace(0, s - 1, num=min(s, _FINGERPRINT_SAMPLES)).astype(np.int64)
        )
        parts = [edges.src[idx], edges.dst[idx]]
        if edges.weights is not None:
            # Compare weight bit patterns, not float values: a NaN weight
            # would otherwise make the fingerprint never equal itself and
            # force a cache rebuild on every plan() call.
            parts.append(edges.weights[idx].view(np.int64))
        sample = tuple(np.concatenate(parts).tolist())
    return ("edges", int(edges.n_vertices), int(s), edges.weights is not None, sample)


def csr_fingerprint(csr) -> Tuple:
    """Sampled fingerprint of a CSR adjacency (for CSR-adopted graphs).

    CSR-adopted :class:`~repro.graph.facade.Graph` objects treat the CSR as
    the source of truth (the edge-list view is a derived snapshot), so
    mutation detection must sample the CSR arrays themselves.
    """
    s = csr.n_edges
    if s == 0:
        sample: Tuple = ()
    else:
        idx = np.unique(
            np.linspace(0, s - 1, num=min(s, _FINGERPRINT_SAMPLES)).astype(np.int64)
        )
        pidx = np.unique(
            np.linspace(
                0, csr.indptr.size - 1, num=min(csr.indptr.size, _FINGERPRINT_SAMPLES)
            ).astype(np.int64)
        )
        sample = tuple(
            np.concatenate(
                [csr.indices[idx], csr.indptr[pidx], csr.weights[idx].view(np.int64)]
            ).tolist()
        )
    return ("csr", int(csr.n_vertices), int(s), sample)


def edge_fingerprint_full(edges) -> Tuple:
    """An exact fingerprint hashing *every* edge (O(s), not sampled).

    The sampled :func:`edge_fingerprint` is O(1) but best-effort for
    in-place mutation: edits that touch only un-sampled edges go undetected
    beyond ~32 edges.  This variant digests the full ``src``/``dst``/weight
    arrays, so any content change trips the plan cache — the mode
    ``graph.plan(K, fingerprint="full")`` selects.  The digest is a few
    GB/s of hashing; cheap next to an embed, but not free, which is why
    sampling stays the default.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(edges.src).tobytes())
    h.update(np.ascontiguousarray(edges.dst).tobytes())
    if edges.weights is not None:
        h.update(np.ascontiguousarray(edges.weights).tobytes())
    return (
        "edges-full",
        int(edges.n_vertices),
        int(edges.n_edges),
        edges.weights is not None,
        h.hexdigest(),
    )


def csr_fingerprint_full(csr) -> Tuple:
    """Exact (every entry hashed) fingerprint of a CSR adjacency."""
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(csr.indptr).tobytes())
    h.update(np.ascontiguousarray(csr.indices).tobytes())
    h.update(np.ascontiguousarray(csr.weights).tobytes())
    return ("csr-full", int(csr.n_vertices), int(csr.n_edges), h.hexdigest())


class _PlanOutputs:
    """The per-call output arrays of a plan, from its private output ring.

    Each call gets an array it owns; the ring holds one ``(n*K,)`` buffer
    while no result views it, and reuses it for the next call.
    """

    n_vertices: int
    n_classes: int
    _outputs: Optional[OutputRing]

    def _output_ring(self) -> OutputRing:
        if self._outputs is None:
            self._outputs = OutputRing((self.n_vertices * self.n_classes,))
        return self._outputs

    @hot_path(reason="per-call output hand-out; must reuse, not reallocate")
    def zeroed_output(self) -> np.ndarray:
        """A zeroed flat ``(n*K,)`` output array that the caller owns.

        It reuses the plan's idle buffer when no earlier result views it
        any more, and allocates another otherwise, so a kept result is
        never overwritten.
        """
        return self._output_ring().take(zeroed=True)[0]

    @hot_path(reason="per-call output hand-out; must reuse, not reallocate")
    def output_matrix(self) -> np.ndarray:
        """An ``(n, K)`` output array that the caller owns (not zeroed).

        Same reuse as :meth:`zeroed_output`.
        """
        flat = self._output_ring().take()[0]
        return flat.reshape(self.n_vertices, self.n_classes)


class EmbedPlan(_PlanOutputs):
    """Per-``(graph, K)`` compiled artifact for repeated GEE edge passes.

    Compilation is tiered so one-shot fits don't pay for views they never
    read.  Construction itself is O(1): only the dimensions and fingerprint
    are captured.  Every heavier artifact is built on first access and
    cached for the plan's lifetime (each is read by only some consumers):

    * the validated edge arrays (``src``, ``dst``; ``weights`` builds a
      unit-weight graph's ones only when read) — the scatter kernels'
      input; CSR-consuming backends never expand them;
    * the flat-index components ``src*K`` and ``dst*K``, which no kernel
      reads;
    * the symmetric-CSR :class:`FusedLayout` (``layout="sorted"`` plans)
      and the per-worker-count row partitions of the owner-range executor;
      ``sparse``'s scipy matrix and the unsupervised delta pass read it
      too;
    * the output ring that hands each call an array it owns.

    The Ligra engines alone read the graph's CSR out-adjacency
    (:attr:`csr`), which the shared ``Graph`` caches.

    Do not construct directly — use :meth:`repro.graph.facade.Graph.plan`,
    which caches one plan per ``K`` and handles invalidation.
    """

    #: Class-level dispatch flag: chunk-aware consumers check it instead of
    #: isinstance so the two plan kinds stay duck-compatible.
    is_chunked = False

    def __init__(
        self,
        graph,
        n_classes: int,
        *,
        fingerprint: Optional[Tuple] = None,
        layout: str = "none",
    ):
        from ..graph.facade import Graph

        if not isinstance(graph, Graph):  # pragma: no cover - defensive
            raise TypeError("EmbedPlan compiles a Graph facade; use Graph.coerce first")
        k = int(n_classes)
        if k <= 0:
            raise ValueError("n_classes must be positive")
        if graph.n_vertices == 0:
            raise ValueError("GEE requires at least one vertex")
        if layout not in LAYOUTS:
            raise ValueError(f"layout must be one of {LAYOUTS}, got {layout!r}")

        self.graph = graph
        self.n_classes = k
        self.n_vertices = int(graph.n_vertices)
        self.n_edges = int(graph.n_edges)
        #: Compiled memory layout: ``"none"`` compiles nothing beyond the
        #: validated edges; ``"sorted"`` compiles a :class:`FusedLayout` on
        #: first access of :attr:`fused`.
        self.layout = layout

        self.fingerprint = (
            edge_fingerprint(graph.edges) if fingerprint is None else fingerprint
        )

        # Lazily-built views, reusable buffers and per-backend caches.
        self._src: Optional[np.ndarray] = None
        self._dst: Optional[np.ndarray] = None
        self._weights: Optional[np.ndarray] = None
        self._unit_weights: Optional[bool] = None
        self._src_flat: Optional[np.ndarray] = None
        self._dst_flat: Optional[np.ndarray] = None
        self._fused: Optional[FusedLayout] = None
        self._fused_row_ranges: Dict[int, List[Tuple[int, int]]] = {}
        self._outputs: Optional[OutputRing] = None
        self._scipy_adj = None

    # ------------------------------------------------------------------ #
    # Edge arrays and flat scatter-index components (vectorised kernels)
    # ------------------------------------------------------------------ #
    def _materialise_edges(self) -> None:
        edges = validate_edges(self.graph.edges)
        self._src = edges.src
        self._dst = edges.dst
        self._unit_weights = edges.weights is None
        # None for unit weights: :attr:`weights` builds the ones when read.
        self._weights = edges.weights

    @property
    def src(self) -> np.ndarray:
        """Validated edge sources (materialised on first access)."""
        if self._src is None:
            self._materialise_edges()
        return self._src  # type: ignore[return-value]

    @property
    def dst(self) -> np.ndarray:
        """Validated edge destinations (materialised on first access)."""
        if self._dst is None:
            self._materialise_edges()
        return self._dst  # type: ignore[return-value]

    @property
    def weights(self) -> np.ndarray:
        """Edge weights; a unit-weight graph's ones are built on first read."""
        if self._src is None:
            self._materialise_edges()
        if self._weights is None:
            self._weights = np.ones(self._src.size, dtype=np.float64)
        return self._weights

    @property
    def src_flat(self) -> np.ndarray:
        """Y-independent flat-index component: ``flat = src_flat + Y[dst]``."""
        if self._src_flat is None:
            self._src_flat = self.src * self.n_classes
        return self._src_flat

    @property
    def dst_flat(self) -> np.ndarray:
        """Y-independent flat-index component: ``flat = dst_flat + Y[src]``."""
        if self._dst_flat is None:
            self._dst_flat = self.dst * self.n_classes
        return self._dst_flat

    # ------------------------------------------------------------------ #
    # Locality-optimized layout (the symmetric CSR incidence arrays)
    # ------------------------------------------------------------------ #
    @property
    def unit_weights(self) -> bool:
        """Whether the graph is unit-weight (no weight array stored)."""
        if self._unit_weights is None:
            self._materialise_edges()
        return bool(self._unit_weights)

    @property
    def fused(self) -> FusedLayout:
        """The compiled :class:`FusedLayout` (requires ``layout != "none"``).

        Built on first access from the validated edge arrays and cached for
        the plan's lifetime — the row pointer, partner order, index
        narrowing and block size are all label-independent.
        """
        if self.layout == "none":
            raise ValueError(
                'this plan was compiled layout-preserving (layout="none"); '
                'request graph.plan(K, layout="sorted") for the '
                "locality-optimized arrays"
            )
        if self._fused is None:
            self._fused = compile_fused_layout(
                self.src,
                self.dst,
                None if self.unit_weights else self.weights,
                self.n_vertices,
                self.n_classes,
            )
        return self._fused

    def fused_row_ranges(self, n_parts: int) -> List[Tuple[int, int]]:
        """Degree-balanced owner row ranges, one per part, cached per count.

        The partition the ``parallel`` backend hands its workers: it cuts
        the rows of :attr:`fused` by their incidence counts, so a worker
        sweep over one plan cuts each count once.  One part is the whole
        row range, which compiles nothing.
        """
        n_parts = int(n_parts)
        cached = self._fused_row_ranges.get(n_parts)
        if cached is None:
            if n_parts == 1:
                cached = [(0, self.n_vertices)]
            else:
                from ..parallel.partition import balanced_ranges_from_work

                cached = balanced_ranges_from_work(np.diff(self.fused.indptr), n_parts)
            self._fused_row_ranges[n_parts] = cached
        return cached

    # ------------------------------------------------------------------ #
    # Adjacency views (cached on the shared Graph / CSRGraph)
    # ------------------------------------------------------------------ #
    @property
    def csr(self):
        """The CSR out-adjacency (the graph facade's cached view).

        Only the Ligra engines read it, so no other backend builds it.
        """
        return self.graph.csr

    # ------------------------------------------------------------------ #
    # Per-call helpers
    # ------------------------------------------------------------------ #
    def validate_labels(self, labels: np.ndarray) -> np.ndarray:
        """Validate a label vector against the compiled ``(n, K)`` (O(n))."""
        y, _ = validate_labels(labels, self.n_vertices, self.n_classes)
        return y

    def scipy_adjacency(self):
        """The symmetric adjacency ``A + Aᵀ`` as a ``scipy.sparse.csr_matrix``.

        It wraps :attr:`fused` — its ``weights`` (ones for a unit-weight
        graph), ``partner`` and ``indptr`` — without copying ``partner``, so
        it needs a sorted plan.  Cached for the plan's lifetime.
        """
        if self._scipy_adj is None:
            import scipy.sparse as sp

            fused = self.fused
            data = np.ones(fused.n_incidences) if fused.weights is None else fused.weights
            n = self.n_vertices
            self._scipy_adj = sp.csr_matrix(
                (data, fused.partner, fused.indptr), shape=(n, n)
            )
        return self._scipy_adj

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EmbedPlan(n={self.n_vertices}, s={self.n_edges}, "
            f"K={self.n_classes})"
        )


class ChunkedPlan(_PlanOutputs):
    """Per-``(source, K)`` artifact for bounded-memory edge passes.

    The out-of-core counterpart of :class:`EmbedPlan`.  It compiles
    nothing: the chunked pass
    (:func:`~repro.core.gee_vectorized.gee_vectorized_chunked`) streams the
    source in stored order and adds each block's known incidences into one
    ``(n*K,)`` output, the only full-length allocation a chunk consumer
    makes.  Every other temporary is O(chunk_edges).

    ``source`` is a :class:`~repro.graph.io.ChunkedEdgeSource` (memory-mapped
    on-disk store, segmented store or a re-blocked in-memory edge list).
    ``graph`` is the owning :class:`~repro.graph.facade.Graph` when the plan
    was compiled via ``graph.plan(K, chunk_edges=...)`` and ``None`` for
    standalone file-backed sources — chunk consumers must not touch
    ``graph`` (a file-backed source has no in-memory views to offer).

    Like :class:`EmbedPlan`, each call's output comes from the plan's output
    ring (see :meth:`zeroed_output`).
    """

    is_chunked = True

    def __init__(
        self,
        source,
        n_classes: int,
        *,
        graph=None,
        fingerprint: Optional[Tuple] = None,
    ):
        from ..graph.io import ChunkedEdgeSource

        if not isinstance(source, ChunkedEdgeSource):  # pragma: no cover - defensive
            raise TypeError(
                f"ChunkedPlan compiles a ChunkedEdgeSource, got {type(source)!r}"
            )
        k = int(n_classes)
        if k <= 0:
            raise ValueError("n_classes must be positive")
        self.source = source
        self.graph = graph
        self.n_classes = k
        self.n_vertices = int(source.n_vertices)
        self.n_edges = int(source.n_edges)
        self.chunk_edges = int(source.chunk_edges)
        self.fingerprint = fingerprint
        self._outputs: Optional[OutputRing] = None

    # ------------------------------------------------------------------ #
    # Per-call helpers (same contract as EmbedPlan)
    # ------------------------------------------------------------------ #
    def validate_labels(self, labels: np.ndarray) -> np.ndarray:
        """Validate a label vector against the compiled ``(n, K)`` (O(n))."""
        y, _ = validate_labels(labels, self.n_vertices, self.n_classes)
        return y

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ChunkedPlan(n={self.n_vertices}, s={self.n_edges}, "
            f"K={self.n_classes}, chunk_edges={self.chunk_edges})"
        )


def _plan_in_layout(plan: EmbedPlan, layout: str) -> EmbedPlan:
    """The plan of ``plan``'s graph and ``K`` in ``layout``: ``plan`` if it has it.

    The graph caches one plan per layout, so a kernel that reads another
    layout's arrays (``sparse`` and ``parallel`` read the sorted plan's
    symmetric CSR) compiles them once per graph, not per call.
    """
    if plan.layout == layout:
        return plan
    return plan.graph.plan(plan.n_classes, layout=layout)


def _embed_on_default_plan(graph, labels: np.ndarray, n_classes: Optional[int], kernel):
    """``kernel(plan, labels)`` on the default plan of a graph-like input.

    The one route from a graph-like input to a plan kernel, taken by every
    backend's ``embed`` and by the functional ``gee_*`` names: coerce the
    input, take ``K`` from ``n_classes`` or the labels (which the kernel
    validates) and run the kernel on ``graph.plan(K)``.  A private facade
    (any input but a :class:`~repro.graph.facade.Graph`) drops its plans
    afterwards, so their buffers and shared memory go with the call.
    """
    from ..graph.facade import Graph

    g = Graph.coerce(graph)
    k = _resolve_n_classes(labels, n_classes)
    try:
        return kernel(g.plan(k), labels)
    finally:
        if g is not graph:
            g.drop_plans()
