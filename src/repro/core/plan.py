"""Compiled embed plans: the Y-independent half of a GEE call, done once.

Profiling repeated ``embed()`` calls on one graph (backend sweeps, worker
sweeps, the unsupervised refinement loop) shows the timed region paying for
work whose result never changes between calls: edge validation, the
``u*K`` / ``v*K`` flat scatter indices, CSR/CSC adjacency views, degree
vectors and the ``n×K`` output allocation are all functions of the graph
and ``K`` alone — only the label vector varies.  The paper's own protocol
never pays these costs (Ligra times an already-loaded graph), so neither
should ours.

:class:`EmbedPlan` is the compiled artifact holding all of it.  Plans are
cached on the :class:`~repro.graph.facade.Graph` facade via
``graph.plan(K)`` — one plan per ``(graph, K)`` — and every registered
backend exposes ``embed_with_plan(plan, labels)`` (see
:meth:`repro.backends.GEEBackend.embed_with_plan`), which performs *zero*
edge validation, *zero* index rebuilding and *zero* large allocations per
call.

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
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..analysis.annotations import hot_path
from ..parallel.shm import OutputRing
from .validation import validate_edges, validate_labels

__all__ = [
    "EmbedPlan",
    "ChunkedPlan",
    "FusedLayout",
    "LAYOUTS",
    "choose_index_dtype",
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
#: preserves arrival order (the historical, layout-preserving default);
#: ``"sorted"`` permutes for scatter locality (see :class:`FusedLayout`);
#: ``"auto"`` lets the calibrated cost model pick.
LAYOUTS = ("none", "sorted")

#: Flat scatter indices narrow to int32 below this ``n * K`` bound — the
#: index arrays are the dominant per-edge read traffic of the fused kernel,
#: so halving their width halves index bandwidth.  Above the bound a flat
#: index no longer fits a signed 32-bit integer and int64 is required.
_INT32_LIMIT = 2**31

#: Target size in bytes of one row block's output slice.  Each block's
#: scatter window (``rows_per_block * K`` float64 slots) is sized to stay
#: resident in a typical L2 cache, so the block-local ``np.bincount``
#: writes never leave it.
_LAYOUT_BLOCK_BYTES = 1 << 18


def choose_index_dtype(n_vertices: int, n_classes: int, *, limit: int = _INT32_LIMIT):
    """The narrowest integer dtype that can hold every flat index ``< n*K``.

    int32 when ``n_vertices * n_classes < limit`` (every flat scatter index
    is in ``[0, n*K)``), int64 otherwise.  The product is computed in Python
    integers, so the decision itself can never overflow.
    """
    if int(n_vertices) * int(n_classes) < limit:
        return np.int32
    return np.int64


class FusedLayout:
    """Locality-optimized incidence arrays for the GEE edge pass.

    The edge pass updates ``Z[u, Y[v]] += scale[v]·w`` and
    ``Z[v, Y[u]] += scale[u]·w`` per edge — two scatter halves whose flat
    targets are effectively random in arrival order.  The fused layout
    rewrites the pass as **one** array of ``2E`` incidences
    ``(owner, partner, w)`` (each edge appears twice, once per endpoint as
    owner), sorted by owner row at compile time (stable, so arrival order
    is kept within a row).  Flat targets are then monotone across rows, so
    the scatter walks the output sequentially (and within one row touches
    at most ``K`` adjacent slots), one L2-sized block of rows at a time.

    The per-edge scale is also hoisted: ``scale[v]`` depends only on
    ``Y[v]`` — the very class column the contribution lands in — so the
    kernel scatters *raw* weights and applies ``diag(1/n_c)`` per column
    afterwards (the ``Z = S·diag(1/n_c)`` identity), eliminating the O(E)
    scale gather entirely.  Index arrays narrow to int32 when
    ``n*K < 2^31`` (:func:`choose_index_dtype`), halving index bandwidth.

    All artifacts are label-independent; per call only the ``Y`` gather,
    the (masked) flat-index add and the block-local ``np.bincount``s run
    (:func:`~repro.core.gee_vectorized.accumulate_fused_rows_sorted`).
    The permutation reorders commutative additions only, so results match
    the arrival-order kernels up to floating-point summation order.
    """

    __slots__ = (
        "__weakref__",
        "n_vertices",
        "n_classes",
        "n_incidences",
        "rows_per_block",
        "index_dtype",
        "owner_flat",
        "partner",
        "weights",
    )

    def __init__(
        self,
        n_vertices: int,
        n_classes: int,
        rows_per_block: int,
        index_dtype,
        owner_flat: np.ndarray,
        partner: np.ndarray,
        weights: Optional[np.ndarray],
    ) -> None:
        self.n_vertices = int(n_vertices)
        self.n_classes = int(n_classes)
        self.n_incidences = int(owner_flat.size)
        #: Rows per L2-sized scatter block.
        self.rows_per_block = int(rows_per_block)
        self.index_dtype = index_dtype
        #: ``owner * K`` per incidence, permuted (int32/int64 per dtype).
        self.owner_flat = owner_flat
        #: The other endpoint per incidence, permuted (same dtype).
        self.partner = partner
        #: Permuted weights, or ``None`` for unit-weight graphs (the
        #: block-local ``bincount`` then runs weightless, which is faster).
        self.weights = weights

    @property
    def nbytes(self) -> int:
        """Total bytes held by the compiled incidence arrays."""
        total = self.owner_flat.nbytes + self.partner.nbytes
        if self.weights is not None:
            total += self.weights.nbytes
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FusedLayout(n={self.n_vertices}, "
            f"incidences={self.n_incidences}, K={self.n_classes}, "
            f"dtype={np.dtype(self.index_dtype).name})"
        )


def owner_sort(owner: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The stable sorting permutation of ``owner``, and the sorted owners.

    Sorts one packed int64 key per incidence, ``owner << b | i`` with ``b``
    the bit length of the incidence count.  The keys are unique, so any
    sort yields the stable order, and an int64 sort runs several times
    faster than the stable argsort: ``key >> b`` is the sorted owners and
    ``key & (2**b - 1)`` the permutation.  Owners too large to pack into 63
    bits take the stable argsort.  ``owner`` must be non-negative.
    """
    m = int(owner.size)
    bits = m.bit_length()
    if m == 0 or int(owner.max()).bit_length() + bits > 63:
        order = np.argsort(owner, kind="stable")
        return order, owner[order]
    key = np.left_shift(owner, bits, dtype=np.int64)
    key |= np.arange(m, dtype=np.int64)
    key.sort()
    sorted_owner = np.empty_like(owner)
    np.right_shift(key, bits, out=sorted_owner, casting="unsafe")
    key &= (1 << bits) - 1
    return key, sorted_owner


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
    """Compile the owner-sorted fused incidence arrays for one ``(graph, K)``.

    ``weights=None`` marks a unit-weight graph (no weight array is stored
    and the scatter runs weightless).  See :class:`FusedLayout`.
    """
    n = int(n_vertices)
    k = int(n_classes)
    idx_dtype = choose_index_dtype(n, k, limit=int32_limit)
    rows_per_block = max(1, int(block_bytes) // (k * 8))

    owner = np.concatenate((src, dst))
    partner = np.concatenate((dst, src))
    order, owner = owner_sort(owner)
    owner_flat = (owner * k).astype(idx_dtype)
    partner_p = partner[order].astype(idx_dtype)
    weights_p = None if weights is None else np.concatenate((weights, weights))[order]
    return FusedLayout(n, k, rows_per_block, idx_dtype, owner_flat, partner_p, weights_p)


def sorted_incidence(
    src: np.ndarray, dst: np.ndarray, weights: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """The owner-sorted ``(owner, partner, w)`` incidence triple of an edge set.

    The raw-vertex-id counterpart of :func:`compile_fused_layout`, used to
    build chunked *incidence* sources (``graph.plan(K, chunk_edges=...,
    layout="sorted")``): each edge appears twice, once per endpoint as
    owner, and the triple is sorted by owner so every streamed block's
    scatter targets are monotone.  ``weights=None`` stays ``None`` (unit
    weights).
    """
    owner = np.concatenate((src, dst))
    partner = np.concatenate((dst, src))
    order, owner = owner_sort(owner)
    w2 = None if weights is None else np.concatenate((weights, weights))[order]
    return owner, partner[order], w2


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
    cached for the plan's lifetime (each is read by only some consumers,
    and the CSR/CSC caches live on the shared ``Graph``/``CSRGraph`` so
    nothing is ever rebuilt):

    * the validated edge arrays (``src``, ``dst``, materialised
      ``weights``) — the scatter kernels' input; CSR-consuming backends
      never expand them;
    * the flat-index components ``src*K`` and ``dst*K`` the vectorised
      scatter kernels otherwise recompute per call;
    * the owner-sorted :class:`FusedLayout` (``layout="sorted"`` plans);
    * the total-degree vector and the per-worker-count row partitions of
      the owner-range executor;
    * the CSR out-adjacency and CSC (reverse) in-adjacency views;
    * the output ring that hands each call an array it owns;
    * the scipy adjacency pair.

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
        #: Compiled memory layout: ``"none"`` preserves arrival order;
        #: ``"sorted"`` compiles a :class:`FusedLayout` on first access of
        #: :attr:`fused`.
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
        self._total_degrees: Optional[np.ndarray] = None
        self._fused_row_ranges: Dict[int, List[Tuple[int, int]]] = {}
        self._outputs: Optional[OutputRing] = None
        self._scipy_adj = None
        self._scipy_adj_T = None
        #: Resource-free Ligra engines cached per engine-backend name (the
        #: serial/vectorized schedules only — thread/process engines hold
        #: worker pools and stay per-call).
        self._ligra_engines: Dict[str, object] = {}

    # ------------------------------------------------------------------ #
    # Edge arrays and flat scatter-index components (vectorised kernels)
    # ------------------------------------------------------------------ #
    def _materialise_edges(self) -> None:
        edges = validate_edges(self.graph.edges)
        self._src = edges.src
        self._dst = edges.dst
        self._unit_weights = edges.weights is None
        self._weights = edges.effective_weights()

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
        """Materialised edge weights (unit weights for unweighted graphs)."""
        if self._weights is None:
            self._materialise_edges()
        return self._weights  # type: ignore[return-value]

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
    # Locality-optimized layout (owner-sorted incidence arrays)
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
        the plan's lifetime — the layout permutation, flat-index narrowing
        and block size are all label-independent.
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

    @property
    def total_degrees(self) -> np.ndarray:
        """Unweighted total (in + out) degree per vertex, from the edge arrays.

        The work per row of the owner-range executor (a self loop counts
        twice, as it owns two incidences); it never forces the CSR/CSC
        views, so layout plans stay adjacency-free.
        """
        if self._total_degrees is None:
            n = self.n_vertices
            self._total_degrees = np.bincount(self.src, minlength=n) + np.bincount(
                self.dst, minlength=n
            )
        return self._total_degrees

    def fused_row_ranges(self, n_parts: int) -> List[Tuple[int, int]]:
        """Degree-balanced owner row ranges, one per part, cached per count.

        The partition the ``parallel`` backend hands its workers: it
        depends only on the degree profile, so a worker sweep over one plan
        cuts each count once.  One part is the whole row range, which needs
        no degree count.
        """
        n_parts = int(n_parts)
        cached = self._fused_row_ranges.get(n_parts)
        if cached is None:
            if n_parts == 1:
                cached = [(0, self.n_vertices)]
            else:
                from ..parallel.partition import balanced_ranges_from_work

                cached = balanced_ranges_from_work(self.total_degrees, n_parts)
            self._fused_row_ranges[n_parts] = cached
        return cached

    # ------------------------------------------------------------------ #
    # Adjacency views (cached on the shared Graph / CSRGraph)
    # ------------------------------------------------------------------ #
    @property
    def csr(self):
        """The CSR out-adjacency (the graph facade's cached view).

        Accessing :attr:`~repro.graph.csr.CSRGraph.in_indptr` on it builds
        the CSC (in-adjacency) triple, which the CSRGraph then caches — so
        the Ligra/delta consumers pay that build at most once per graph,
        and edge-array-only backends never pay it.
        """
        return self.graph.csr

    # ------------------------------------------------------------------ #
    # Per-call helpers
    # ------------------------------------------------------------------ #
    def validate_labels(self, labels: np.ndarray) -> np.ndarray:
        """Validate a label vector against the compiled ``(n, K)`` (O(n))."""
        y, _ = validate_labels(labels, self.n_vertices, self.n_classes)
        return y

    # ------------------------------------------------------------------ #
    # Copy-on-write extension (append-only graph mutations)
    # ------------------------------------------------------------------ #
    def extended(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        weights: np.ndarray,
        *,
        graph,
        fingerprint: Tuple,
    ) -> "EmbedPlan":
        """A plan for the append-extended graph, reusing this plan's artifacts.

        The fast path behind append-only :class:`~repro.stream.dynamic.DynamicGraph`
        commits: instead of recompiling against the new version's edge
        arrays (re-validating all ``E`` edges, rebuilding the flat
        scatter-index components), the returned plan seeds its lazy fields
        by concatenating the ``Δ`` appended edges onto whichever artifacts
        this plan already materialised — no validation, and index
        arithmetic only on the ``Δ`` tail.

        Copy-on-write: *this* plan is left untouched, so snapshot readers
        of the previous version who hold it keep embedding exactly their
        version's edge set.  ``graph`` must be the post-append facade over
        the same vertex set; the appended endpoint arrays must already be
        validated (they come from a committed mutation batch).
        """
        if int(graph.n_vertices) != self.n_vertices:
            raise ValueError(
                "extended() cannot change the vertex set "
                f"({self.n_vertices} -> {int(graph.n_vertices)}); recompile the plan"
            )
        new = EmbedPlan(graph, self.n_classes, fingerprint=fingerprint, layout=self.layout)
        if self._src is not None:
            new._src = np.concatenate((self._src, src))
            new._dst = np.concatenate((self._dst, dst))
            # Appended batches always carry explicit weights, so the
            # extended plan is no longer unit-weight unless they are all 1
            # (the fused layout recompiles lazily from these seeds anyway).
            new._unit_weights = bool(self._unit_weights) and bool(np.all(weights == 1.0))
            new._weights = np.concatenate((self._weights, weights))
        if self._src_flat is not None:
            new._src_flat = np.concatenate((self._src_flat, src * self.n_classes))
        if self._dst_flat is not None:
            new._dst_flat = np.concatenate((self._dst_flat, dst * self.n_classes))
        return new

    def scipy_adjacency(self):
        """The adjacency as ``scipy.sparse.csr_matrix``, cached."""
        if self._scipy_adj is None:
            self._scipy_adj = self.csr.to_scipy()
        return self._scipy_adj

    def scipy_adjacency_T(self):
        """The transposed adjacency as CSR (i.e. CSC of ``A``), cached."""
        if self._scipy_adj_T is None:
            self._scipy_adj_T = self.scipy_adjacency().T.tocsr()
        return self._scipy_adj_T

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EmbedPlan(n={self.n_vertices}, s={self.n_edges}, "
            f"K={self.n_classes})"
        )


class ChunkedPlan(_PlanOutputs):
    """Per-``(source, K)`` compiled artifact for bounded-memory edge passes.

    The out-of-core counterpart of :class:`EmbedPlan`: where the full plan
    materialises the ``u*K``/``v*K`` flat scatter indices for all ``E``
    edges once, the chunked plan compiles them *per block* as
    :meth:`iter_compiled` streams the source — the only full-length
    allocation a chunk consumer ever makes is the ``(n*K,)`` output buffer
    the per-block scatter-adds accumulate into (scatter-add is associative,
    so the block-wise sums equal the one-shot pass exactly, up to
    floating-point summation order).

    ``source`` is a :class:`~repro.graph.io.ChunkedEdgeSource` (memory-mapped
    on-disk store or a re-blocked in-memory edge list).  ``graph`` is the
    owning :class:`~repro.graph.facade.Graph` when the plan was compiled via
    ``graph.plan(K, chunk_edges=...)`` and ``None`` for standalone
    file-backed sources — chunk consumers must not touch ``graph`` (a
    file-backed source has no in-memory views to offer).

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
        layout: str = "none",
    ):
        from ..graph.io import ChunkedEdgeSource

        if not isinstance(source, ChunkedEdgeSource):  # pragma: no cover - defensive
            raise TypeError(
                f"ChunkedPlan compiles a ChunkedEdgeSource, got {type(source)!r}"
            )
        k = int(n_classes)
        if k <= 0:
            raise ValueError("n_classes must be positive")
        if layout not in LAYOUTS:
            raise ValueError(f"layout must be one of {LAYOUTS}, got {layout!r}")
        self.source = source
        self.graph = graph
        self.n_classes = k
        self.n_vertices = int(source.n_vertices)
        # A sorted-incidence source holds each directed edge twice (once per
        # endpoint as owner); n_edges stays the graph's directed edge count
        # so plans are comparable across layouts (per-edge metrics, the
        # cost model's E term).
        self.n_edges = (
            int(source.n_edges) if layout == "none" else int(source.n_edges) // 2
        )
        self.chunk_edges = int(source.chunk_edges)
        self.fingerprint = fingerprint
        #: ``"sorted"`` marks an *incidence* source: the blocks stream
        #: ``(owner, partner, w)`` triples sorted by owner (each edge
        #: appears twice), and the chunked kernels run the one-sided
        #: segment-sum update with a final per-column rescale instead of
        #: the two-sided edge update.  Built by
        #: ``graph.plan(K, chunk_edges=..., layout="sorted")``.
        self.layout = layout
        self._outputs: Optional[OutputRing] = None

    # ------------------------------------------------------------------ #
    # Per-call helpers (same contract as EmbedPlan)
    # ------------------------------------------------------------------ #
    def validate_labels(self, labels: np.ndarray) -> np.ndarray:
        """Validate a label vector against the compiled ``(n, K)`` (O(n))."""
        y, _ = validate_labels(labels, self.n_vertices, self.n_classes)
        return y

    # ------------------------------------------------------------------ #
    # Streaming compilation
    # ------------------------------------------------------------------ #
    def iter_compiled(
        self, chunk_lo: int = 0, chunk_hi: Optional[int] = None
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Stream ``(src, dst, w, src*K, dst*K)`` blocks, compiled lazily.

        Each block's flat-index components are O(chunk) temporaries built
        here and dropped when the consumer moves on — never the O(E) arrays
        the full plan would pin.  ``chunk_lo``/``chunk_hi`` restrict the
        stream to a contiguous chunk-index range (how the parallel backend
        hands each worker its slab).
        """
        k = self.n_classes
        for src, dst, w in self.source.iter_chunks(chunk_lo, chunk_hi):
            yield src, dst, w, src * k, dst * k

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ChunkedPlan(n={self.n_vertices}, s={self.n_edges}, "
            f"K={self.n_classes}, chunk_edges={self.chunk_edges})"
        )
