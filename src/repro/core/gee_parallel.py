"""Edge-parallel GEE over forked workers and shared memory.

This is the dedicated kernel behind the strong-scaling experiment
(Figure 3): it exposes the worker count explicitly, reports a per-phase
timing breakdown, and keeps the parallel machinery visible (row
partitioning, shared-memory output) rather than hiding it inside the
engine.  ``gee_ligra`` and this function compute the same embedding; this
one exists so the scaling study can sweep workers cheaply.

Parallelisation strategy
------------------------
Ligra's ``edgeMapDense`` iterates over *destination* vertices and their
in-edges, which makes every embedding row single-writer; the atomics only
guard the much rarer source-row updates.  The kernel here takes that idea
to its limit with an **owner-computes row partition**:

* the embedding rows (vertices) are split into ``p`` ranges balanced by
  total (in + out) degree;
* worker ``j`` computes *all* contributions that land in its row range —
  the out-edge contributions ``Z[u, Y[v]]`` for its ``u`` range (read from
  the CSR out-adjacency) and the in-edge contributions ``Z[v, Y[u]]`` for
  its ``v`` range (read from the CSC in-adjacency);
* each worker writes its block of the shared-memory ``Z`` directly.

No two workers ever write the same row, so there are no atomics, no locks
and no reduction — the CPython substitute for Ligra's lock-free writeAdd
that preserves the edge-parallel structure (every edge is still visited
exactly twice, once per endpoint) while sidestepping the GIL entirely.

Worker management mirrors how Ligra treats its thread pool: the workers are
a long-lived resource created once per session (``fork`` is two orders of
magnitude more expensive than dispatching a task to an already-forked
worker in this environment), and each embedding call only dispatches row
ranges to them.  All inputs and the output travel through named POSIX
shared memory; the shared copy of the adjacency is cached between calls on
the same graph, so repeated runs (benchmark repeats, worker sweeps) pay the
one-time copy only once — the analogue of Ligra having loaded the graph
before the timed region starts.
"""

from __future__ import annotations

import atexit
import time
import weakref
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.edgelist import EdgeList
from ..graph.facade import Graph
from ..parallel.partition import block_ranges
from ..parallel.pool import (
    ForkWorkerPool,
    effective_worker_count,
    fork_available,
    resolve_worker_count,
)
from ..analysis.annotations import hot_path
from ..obs import trace
from ..parallel.shm import SharedArrayHandle, SharedArraySet, attach_many
from .gee_vectorized import scatter_add
from .projection import projection_from_scales, projection_scales
from .result import EmbeddingResult
from .validation import UNKNOWN_LABEL, validate_edges, validate_labels

__all__ = [
    "gee_parallel",
    "gee_parallel_with_plan",
    "gee_parallel_chunked",
    "owner_rows_accumulate",
    "patch_sums_parallel",
    "shutdown_workers",
]


@hot_path(reason="parallel O(Δ) incremental patch kernel")
def patch_sums_parallel(
    S_flat: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    delta_w: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    *,
    n_workers: Optional[int] = None,
) -> None:
    """Apply a signed edge delta to flat raw per-class sums, in place.

    The parallel O(Δ) patch kernel: the *gather* half of the patch (label
    gathers, known-label masks, flat-index arithmetic — the bulk of the work
    for typical deltas) is split into contiguous edge slabs processed by a
    thread pool, NumPy releasing the GIL for the array ops; the final
    scatter runs serially over the slab results in slab order, so the
    update is deterministic (fixed association order) like the owner-computes
    full kernel.  Forked workers would lose here: a delta batch is far too
    small to amortise shipping it through shared memory.

    Deltas below a few thousand edges skip the pool entirely — thread
    dispatch would cost more than it saves.
    """
    k = int(n_classes)
    m = int(src.size)
    workers = effective_worker_count(n_workers)
    if m < 4096 or workers <= 1:
        from .gee_vectorized import patch_sums_vectorized

        patch_sums_vectorized(S_flat, src, dst, delta_w, labels, k)
        return
    from concurrent.futures import ThreadPoolExecutor

    slabs = [r for r in block_ranges(m, min(workers, m)) if r[0] < r[1]]

    def gather(slab: Tuple[int, int]) -> Tuple[np.ndarray, np.ndarray]:
        lo, hi = slab
        s, d, w = src[lo:hi], dst[lo:hi], delta_w[lo:hi]
        y_d = labels[d]
        y_s = labels[s]
        known_d = y_d != UNKNOWN_LABEL
        known_s = y_s != UNKNOWN_LABEL
        # repro: ignore[hot-path-alloc] O(Δ) slab temporaries, not O(E): the slab is a delta slice
        flat = np.concatenate(
            (s[known_d] * k + y_d[known_d], d[known_s] * k + y_s[known_s])
        )
        contrib = np.concatenate((w[known_d], w[known_s]))
        return flat, contrib

    with ThreadPoolExecutor(max_workers=len(slabs)) as pool:
        parts = list(pool.map(gather, slabs))
    flat = np.concatenate([p[0] for p in parts])
    contrib = np.concatenate([p[1] for p in parts])
    scatter_add(S_flat, flat, contrib)


@hot_path(reason="owner-computes row kernel run by every forked worker")
def owner_rows_accumulate(
    row_lo: int,
    row_hi: int,
    out_indptr: np.ndarray,
    out_indices: np.ndarray,
    out_weights: np.ndarray,
    in_indptr: np.ndarray,
    in_indices: np.ndarray,
    in_weights: np.ndarray,
    labels: np.ndarray,
    scales: np.ndarray,
    n_classes: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Compute the embedding rows ``row_lo:row_hi`` from scratch.

    Combines the out-edge contributions (``Z[u, Y[v]] += scale[v]·w`` for
    ``u`` in the row range) and the in-edge contributions
    (``Z[v, Y[u]] += scale[u]·w`` for ``v`` in the row range) of every edge
    incident to the range.  Returns the dense ``(row_hi-row_lo, K)`` block.
    ``out`` may supply a reusable flat ``(n_rows*K,)`` buffer (zeroed here).
    """
    n_rows = row_hi - row_lo
    if out is None:
        # repro: ignore[hot-path-alloc] per-worker private row block; callers pass out= to reuse it
        block = np.zeros(n_rows * n_classes, dtype=np.float64)
    else:
        block = out
        block.fill(0.0)
    if n_rows <= 0:
        return block.reshape(0, n_classes)

    # Out-edges of the owned rows: source row gets the destination's class.
    lo, hi = int(out_indptr[row_lo]), int(out_indptr[row_hi])
    if hi > lo:
        dst = out_indices[lo:hi]
        w = out_weights[lo:hi]
        deg = np.diff(out_indptr[row_lo : row_hi + 1])
        src_local = np.repeat(np.arange(n_rows, dtype=np.int64), deg)
        y_dst = labels[dst]
        known = y_dst != UNKNOWN_LABEL
        if np.any(known):
            flat = src_local[known] * n_classes + y_dst[known]
            scatter_add(block, flat, scales[dst[known]] * w[known])

    # In-edges of the owned rows: destination row gets the source's class.
    lo, hi = int(in_indptr[row_lo]), int(in_indptr[row_hi])
    if hi > lo:
        src = in_indices[lo:hi]
        w = in_weights[lo:hi]
        deg = np.diff(in_indptr[row_lo : row_hi + 1])
        dst_local = np.repeat(np.arange(n_rows, dtype=np.int64), deg)
        y_src = labels[src]
        known = y_src != UNKNOWN_LABEL
        if np.any(known):
            flat = dst_local[known] * n_classes + y_src[known]
            scatter_add(block, flat, scales[src[known]] * w[known])
    return block.reshape(n_rows, n_classes)


#: Worker-process cache of shared-memory attachments, keyed by segment name.
#: Re-mapping (and therefore re-faulting) hundreds of megabytes of adjacency
#: on every task would dominate the runtime in this sandbox, so each worker
#: attaches a given segment once and keeps the mapping warm; the cache is
#: LRU-bounded so segments of evicted plans/graphs (whose parent-side
#: finalizers already unlinked them) don't pin O(E) pages per plan forever.
_WORKER_ATTACHMENTS: Dict[str, tuple] = {}

#: Mappings kept per worker.  Generous relative to one call's segment count
#: (~10), tight enough that a K-sweep over many layout plans cannot grow a
#: worker's RSS without bound.
_MAX_WORKER_ATTACHMENTS = 32


def _attach_cached(handles: Dict[str, SharedArrayHandle]) -> Dict[str, np.ndarray]:
    """Attach to every handle, reusing LRU-bounded mappings in this process."""
    from ..parallel.shm import attach

    views: Dict[str, np.ndarray] = {}
    for name, handle in handles.items():
        cached = _WORKER_ATTACHMENTS.pop(handle.shm_name, None)
        if cached is None:
            view, seg = attach(handle)
            cached = (view, seg)
        # Re-insert at the end: plain dicts preserve insertion order, so
        # the front of the dict is always the least-recently-used mapping.
        _WORKER_ATTACHMENTS[handle.shm_name] = cached
        views[name] = cached[0]
    while len(_WORKER_ATTACHMENTS) > _MAX_WORKER_ATTACHMENTS:
        stale_name = next(iter(_WORKER_ATTACHMENTS))
        if stale_name in {h.shm_name for h in handles.values()}:
            break  # everything older is part of the current task
        view, seg = _WORKER_ATTACHMENTS.pop(stale_name)
        del view  # release the exported buffer before closing the mapping
        try:
            seg.close()
        except BufferError:  # pragma: no cover - defensive
            pass
    return views


def _pool_task(
    _context: dict,
    handles: Dict[str, SharedArrayHandle],
    row_lo: int,
    row_hi: int,
    n_classes: int,
) -> None:
    """Worker task: fill the owned row block of the shared embedding.

    Runs inside a long-lived pool worker; all arrays are reached through the
    shared-memory handles, so the task payload is a few hundred bytes.
    """
    views = _attach_cached(handles)
    block = owner_rows_accumulate(
        row_lo,
        row_hi,
        views["out_indptr"],
        views["out_indices"],
        views["out_weights"],
        views["in_indptr"],
        views["in_indices"],
        views["in_weights"],
        views["labels"],
        views["scales"],
        n_classes,
    )
    views["Z"][row_lo:row_hi, :] = block


# --------------------------------------------------------------------------- #
# Long-lived worker pool and shared-graph cache
# --------------------------------------------------------------------------- #
_POOL: Optional[ForkWorkerPool] = None


def _get_pool(n_workers: Optional[int] = None) -> ForkWorkerPool:
    """The session-wide worker pool (created lazily, reused across calls).

    The pool grows to the largest worker count requested so far: a request
    for more workers than the current pool holds recreates it at the new
    size, so an explicit ``n_workers`` is always genuinely honoured.
    """
    global _POOL
    needed = effective_worker_count(None) if n_workers is None else int(n_workers)
    if _POOL is None or _POOL._closed:  # noqa: SLF001 - own class
        _POOL = ForkWorkerPool(needed)
    elif _POOL.n_workers < needed:
        _POOL.close()
        _POOL = ForkWorkerPool(needed)
    return _POOL


def shutdown_workers() -> None:
    """Terminate the session's GEE worker pool and drop the graph cache.

    Mostly useful in tests and at interpreter shutdown; a subsequent
    :func:`gee_parallel` call transparently recreates the pool.
    """
    global _POOL, _WORKSPACE
    if _POOL is not None:
        _POOL.close()
        _POOL = None
    for entry in list(_GRAPH_CACHE.values()):
        entry.close()
    _GRAPH_CACHE.clear()
    for entry in list(_FUSED_CACHE.values()):
        entry.close()
    _FUSED_CACHE.clear()
    if _WORKSPACE is not None:
        _WORKSPACE.close()
        _WORKSPACE = None


atexit.register(shutdown_workers)


class _SharedGraph:
    """Shared-memory copy of one graph's adjacency arrays."""

    def __init__(self, csr: CSRGraph) -> None:
        with trace("shm.ship", what="graph", n_edges=csr.n_edges):
            self.shm = SharedArraySet()
            self.shm.share("out_indptr", csr.indptr)
            self.shm.share("out_indices", csr.indices)
            self.shm.share("out_weights", csr.weights)
            self.shm.share("in_indptr", csr.in_indptr)
            self.shm.share("in_indices", csr.in_indices)
            self.shm.share("in_weights", csr.in_weights)
            self.handles = self.shm.handles()

    def close(self) -> None:
        self.shm.close()


#: Cache of shared-memory graphs keyed by the id() of the CSRGraph; entries
#: are dropped automatically when the CSRGraph is garbage collected.
_GRAPH_CACHE: Dict[int, _SharedGraph] = {}


def evict_shared_graph(csr: CSRGraph) -> None:
    """Drop the shared-memory copy of ``csr``'s adjacency, if one exists.

    Needed when a long-lived CSR is mutated in place
    (``Graph.invalidate_cache`` calls this): the cache is keyed by object
    identity, so without eviction the fork workers would keep reading the
    pre-mutation shared copy.
    """
    stale = _GRAPH_CACHE.pop(id(csr), None)
    if stale is not None:
        stale.close()


class _SharedFused:
    """Shared-memory copy of one plan's fused-layout incidence arrays."""

    def __init__(self, fused) -> None:
        with trace("shm.ship", what="fused-layout"):
            self.shm = SharedArraySet()
            self.shm.share("f_owner_flat", fused.owner_flat)
            self.shm.share("f_partner", fused.partner)
            if fused.weights is not None:
                self.shm.share("f_weights", fused.weights)
            self.handles = self.shm.handles()

    def close(self) -> None:
        self.shm.close()


#: Cache of shared-memory fused layouts keyed by id() of the FusedLayout;
#: entries drop automatically when the layout is garbage collected (the
#: layout lives on its EmbedPlan, which the Graph's plan cache owns).
_FUSED_CACHE: Dict[int, _SharedFused] = {}


def _shared_fused_for(fused) -> _SharedFused:
    key = id(fused)
    cached = _FUSED_CACHE.get(key)
    if cached is not None:
        return cached
    entry = _SharedFused(fused)
    _FUSED_CACHE[key] = entry

    def _evict(_ref, key=key) -> None:
        stale = _FUSED_CACHE.pop(key, None)
        if stale is not None:
            stale.close()

    weakref.finalize(fused, _evict, None)
    return entry


def _fused_pool_task(
    _context: dict,
    handles: Dict[str, SharedArrayHandle],
    row_lo: int,
    row_hi: int,
    n_classes: int,
    rows_per_block: int,
    fully_labelled: bool,
) -> None:
    """Worker task for the fused (sorted-layout) path: fill owned rows.

    Locates its row range in the shared sorted incidence arrays with two
    binary searches, runs the block-local segment sums into its slice of
    the shared ``Z``, and applies the per-column ``1/n_c`` rescale (written
    once by the parent into the shared ``inv`` vector) to its own rows — no
    two tasks ever write the same row, and the O(nK) rescale multiply runs
    inside the row partition instead of serially in the parent.
    """
    from .gee_vectorized import accumulate_fused_rows_sorted

    views = _attach_cached(handles)
    labels = views["labels"]
    owner_flat = views["f_owner_flat"]
    y_idx = labels.astype(owner_flat.dtype, copy=False)
    Z = views["Z"]
    accumulate_fused_rows_sorted(
        Z.reshape(-1),
        owner_flat,
        views["f_partner"],
        views.get("f_weights"),
        y_idx,
        n_classes,
        rows_per_block,
        row_lo,
        row_hi,
        fully_labelled=fully_labelled,
    )
    Z[row_lo:row_hi] *= views["inv"][None, :]


class _Workspace:
    """Reusable per-call shared buffers (labels, scales, embedding output).

    Reusing the same named segments across calls lets the pool workers keep
    their mappings warm (see ``_WORKER_ATTACHMENTS``); only the small label
    and scale vectors are rewritten per call.
    """

    def __init__(self, n: int, k: int) -> None:
        self.n, self.k = n, k
        self.shm = SharedArraySet()
        self.labels = self.shm.empty("labels", (n,), np.int64)
        self.scales = self.shm.empty("scales", (n,), np.float64)
        #: Per-column ``1/n_c`` rescale vector for the fused path (written
        #: once per call by the parent; workers multiply their row slices).
        self.inv = self.shm.empty("inv", (k,), np.float64)
        self.Z = self.shm.empty("Z", (n, k), np.float64)
        self.handles = self.shm.handles()

    def close(self) -> None:
        self.shm.close()


_WORKSPACE: Optional[_Workspace] = None


def _workspace_for(n: int, k: int) -> _Workspace:
    global _WORKSPACE
    if _WORKSPACE is None or _WORKSPACE.n != n or _WORKSPACE.k != k:
        if _WORKSPACE is not None:
            _WORKSPACE.close()
        _WORKSPACE = _Workspace(n, k)
    return _WORKSPACE


def _shared_graph_for(csr: CSRGraph) -> _SharedGraph:
    key = id(csr)
    cached = _GRAPH_CACHE.get(key)
    if cached is not None:
        return cached
    entry = _SharedGraph(csr)
    _GRAPH_CACHE[key] = entry

    def _evict(_ref, key=key) -> None:
        stale = _GRAPH_CACHE.pop(key, None)
        if stale is not None:
            stale.close()

    weakref.finalize(csr, _evict, None)
    return entry


def balanced_ranges_from_work(work: np.ndarray, n_parts: int) -> list:
    """Split ``len(work)`` rows into ranges with near-equal total work."""
    n = work.size
    cum = np.concatenate([[0], np.cumsum(work)])
    total = cum[-1]
    if total == 0:
        return block_ranges(n, n_parts)
    targets = np.linspace(0, total, n_parts + 1)
    cuts = np.searchsorted(cum, targets, side="left")
    cuts[0], cuts[-1] = 0, n
    cuts = np.maximum.accumulate(np.clip(cuts, 0, n))
    return [(int(cuts[i]), int(cuts[i + 1])) for i in range(n_parts)]


def _balanced_row_ranges(
    out_indptr: np.ndarray, in_indptr: np.ndarray, n_parts: int
) -> list:
    """Split vertices into ranges with near-equal total (in+out) edge work."""
    work = out_indptr[1:] - out_indptr[:-1] + in_indptr[1:] - in_indptr[:-1]
    return balanced_ranges_from_work(work, n_parts)


def gee_parallel(
    edges: Union[EdgeList, CSRGraph, Graph],
    labels: np.ndarray,
    n_classes: Optional[int] = None,
    *,
    n_workers: Optional[int] = None,
) -> EmbeddingResult:
    """One-Hot Graph Encoder Embedding, process-parallel over shared memory.

    Parameters
    ----------
    edges:
        The graph as a :class:`~repro.graph.facade.Graph`, an
        :class:`EdgeList`, a prebuilt :class:`CSRGraph`, or any other
        graph-like input (coerced through :meth:`Graph.coerce`).  Adjacency
        construction (the equivalent of Ligra loading its graph) is reported
        separately under the ``"preprocess"`` timing and is not part of the
        embedding time; passing a ``Graph`` reuses its cached CSR views.
    labels, n_classes:
        As in :func:`repro.core.gee_python.gee_python`.
    n_workers:
        Number of forked workers; ``None`` uses every available CPU, ``1``
        runs the kernel in-process (no fork) which is the serial anchor of
        the strong-scaling curve.  An explicit request is *honoured exactly*
        — it is never silently clamped or degraded; an impossible request
        (absurd oversubscription, or >1 workers on a platform without
        ``fork``) raises instead.
    """
    timings: Dict[str, float] = {}
    t_pre = time.perf_counter()
    if isinstance(edges, Graph):
        csr = edges.csr
    elif isinstance(edges, CSRGraph):
        csr = edges
    else:
        edges = validate_edges(edges)
        csr = edges.to_csr()
    n = csr.n_vertices
    # Force construction of the in-adjacency before timing the edge pass.
    in_indptr = csr.in_indptr
    in_indices = csr.in_indices
    in_weights = csr.in_weights
    timings["preprocess"] = time.perf_counter() - t_pre

    y, k = validate_labels(labels, n, n_classes)
    explicit = n_workers is not None and int(n_workers) > 0
    requested = resolve_worker_count(n_workers)
    if explicit and requested > 1 and not fork_available():
        raise RuntimeError(
            f"gee_parallel: n_workers={requested} requested but the 'fork' start "
            "method is unavailable on this platform; pass n_workers=1 (or None "
            "for the automatic fallback)"
        )

    t0 = time.perf_counter()
    # Algorithm 2 lines 3-6, in the compact per-vertex form: the scales are
    # O(n) to build and the dense W follows with one vectorised assignment.
    scales = projection_scales(y, k)
    W = projection_from_scales(y, scales, k)
    t1 = time.perf_counter()
    timings["projection"] = t1 - t0

    if requested == 1 or not fork_available() or csr.n_edges == 0 or n == 0:
        Z = owner_rows_accumulate(
            0,
            n,
            csr.indptr,
            csr.indices,
            csr.weights,
            in_indptr,
            in_indices,
            in_weights,
            y,
            scales,
            k,
        )
        t2 = time.perf_counter()
        timings["edge_pass"] = t2 - t1
        timings["total"] = t2 - t0
        return EmbeddingResult(
            embedding=Z, projection=W, timings=timings, method="gee-parallel", n_workers=1
        )

    ranges = _balanced_row_ranges(csr.indptr, in_indptr, requested)
    # Shared-memory plumbing: the adjacency copy is cached per graph (graph
    # loading, reported as preprocess); labels/scales/Z are per call.
    t_share = time.perf_counter()
    shared_graph = _shared_graph_for(csr)
    pool = _get_pool(requested)
    timings["preprocess"] += time.perf_counter() - t_share

    workspace, handles = _prepare_workspace(csr, shared_graph, y, scales, k)

    t_edge = time.perf_counter()
    Z = _run_ranges(pool, handles, ranges, k, workspace, out=None)
    t2 = time.perf_counter()
    timings["edge_pass"] = t2 - t_edge
    timings["total"] = t2 - t0

    return EmbeddingResult(
        embedding=Z, projection=W, timings=timings, method="gee-parallel", n_workers=requested
    )


def _prepare_workspace(
    csr: CSRGraph,
    shared_graph: "_SharedGraph",
    y: np.ndarray,
    scales: np.ndarray,
    k: int,
):
    """Stage one call's inputs in shared memory (outside the timed region).

    Only the label and scale vectors are rewritten per call — the adjacency
    arrays were shipped once when the shared graph was first cached.
    Returns ``(workspace, handles)`` for :func:`_run_ranges`.
    """
    workspace = _workspace_for(csr.n_vertices, k)
    workspace.labels[:] = y
    workspace.scales[:] = scales
    handles = dict(shared_graph.handles)
    handles.update(workspace.handles)
    return workspace, handles


def _run_ranges(
    pool: ForkWorkerPool,
    handles: Dict[str, SharedArrayHandle],
    ranges: list,
    k: int,
    workspace: "_Workspace",
    out: Optional[np.ndarray],
) -> np.ndarray:
    """The timed edge pass: dispatch row ranges and collect ``Z``."""
    with trace("parallel.dispatch", backend="parallel", n_tasks=len(ranges)):
        pool.map(
            _pool_task,
            [(handles, row_lo, row_hi, k) for row_lo, row_hi in ranges],
            labels=[
                f"backend=parallel rows[{row_lo}:{row_hi}]"
                for row_lo, row_hi in ranges
            ],
        )
    if out is None:
        return np.array(workspace.Z, dtype=np.float64, copy=True)
    np.copyto(out, workspace.Z)
    return out


def _chunked_pool_task(
    _context: dict,
    handles: Dict[str, SharedArrayHandle],
    source_token: dict,
    chunk_lo: int,
    chunk_hi: int,
    n_classes: int,
    slot: int,
) -> None:
    """Worker task for the out-of-core path: accumulate one chunk slab.

    Re-opens the edge source inside the worker — a file-backed store is
    memory-mapped independently (no edge data ever travels between
    processes); an in-memory source reads the shared-memory copy staged by
    the caller.  The slab's contributions go into this task's private row of
    the shared ``partials`` matrix; no two tasks write the same row, and
    the caller reduces with one sum.

    Attaches per call (chunked calls ship a fresh segment set, unlike the
    long-lived workspace of the dense path) and detaches before returning
    so per-call segments are never pinned by worker-side caches.
    """
    from ..graph.io import ChunkedEdgeSource
    from .gee_vectorized import accumulate_chunked_plan
    from .plan import ChunkedPlan

    views, segments = attach_many(handles)
    try:
        if source_token["kind"] == "file":
            source = ChunkedEdgeSource.open(
                source_token["path"], chunk_edges=source_token["chunk_edges"]
            )
        else:
            source = ChunkedEdgeSource(
                views["e_src"],
                views["e_dst"],
                views.get("e_weights"),
                source_token["n_vertices"],
                chunk_edges=source_token["chunk_edges"],
            )
        plan = ChunkedPlan(
            source, n_classes, layout=source_token.get("layout", "none")
        )
        accumulate_chunked_plan(
            views["partials"][slot],
            plan,
            views["labels"],
            views["scales"],
            chunk_lo,
            chunk_hi,
        )
    finally:
        del views
        for seg in segments:
            seg.close()


def gee_parallel_chunked(
    plan,
    labels: np.ndarray,
    *,
    n_workers: Optional[int] = None,
) -> EmbeddingResult:
    """Out-of-core process-parallel GEE on a :class:`~repro.core.plan.ChunkedPlan`.

    The source's chunks are split into contiguous slabs, one per worker;
    each worker streams its slab under the same per-chunk memory bound as
    the serial chunked kernel and accumulates into a private ``(n*K,)``
    partial in shared memory, which the caller reduces with one sum.  A
    file-backed source is re-opened (memory-mapped) inside each worker, so
    the only per-call interprocess traffic is the label/scale vectors and
    the partials — never edge data.  For an in-memory source the edge
    arrays are staged into shared memory once per call.

    Vertex-side state still has to fit: the reduction holds one ``n*K``
    partial per worker (out-of-core bounds the *edge*-side working set).
    Worker-count semantics follow :func:`gee_parallel` (an explicit request
    sizes the pool exactly or raises), with one structural cap: a call can
    run at most one worker per chunk, so the result's ``n_workers`` reports
    the slab count actually executed (``min(requested, n_chunks)``), never
    the nominal request.
    """
    from .gee_vectorized import accumulate_chunked_plan

    y = plan.validate_labels(labels)
    k = plan.n_classes
    n = plan.n_vertices
    timings: Dict[str, float] = {}

    explicit = n_workers is not None and int(n_workers) > 0
    requested = resolve_worker_count(n_workers)
    if explicit and requested > 1 and not fork_available():
        raise RuntimeError(
            f"gee_parallel: n_workers={requested} requested but the 'fork' start "
            "method is unavailable on this platform; pass n_workers=1 (or None "
            "for the automatic fallback)"
        )

    t0 = time.perf_counter()
    scales = projection_scales(y, k)
    t1 = time.perf_counter()
    timings["projection"] = t1 - t0

    layout = getattr(plan, "layout", "none")
    source = plan.source
    n_chunks = source.n_chunks
    if requested == 1 or not fork_available() or n_chunks <= 1:
        Z_flat = plan.zeroed_output()
        accumulate_chunked_plan(Z_flat, plan, y, scales)
        workers = 1
        Z = Z_flat.reshape(n, k)
        if layout == "sorted":
            from .gee_vectorized import class_rescale

            class_rescale(Z, y, k)
        t2 = time.perf_counter()
        timings["edge_pass"] = t2 - t1
    else:
        n_tasks = min(requested, n_chunks)
        workers = n_tasks
        cuts = np.linspace(0, n_chunks, n_tasks + 1).astype(np.int64)
        t_share = time.perf_counter()
        pool = _get_pool(requested)
        shm = SharedArraySet()
        try:
            shm.share("labels", y)
            shm.share("scales", scales)
            partials = shm.zeros("partials", (n_tasks, n * k), np.float64)
            if source.path is not None:
                token = {
                    "kind": "file",
                    "path": str(source.path),
                    "chunk_edges": source.chunk_edges,
                    "layout": layout,
                }
            else:
                shm.share("e_src", np.asarray(source.src, dtype=np.int64))
                shm.share("e_dst", np.asarray(source.dst, dtype=np.int64))
                if source.weights is not None:
                    shm.share(
                        "e_weights", np.asarray(source.weights, dtype=np.float64)
                    )
                token = {
                    "kind": "shm",
                    "n_vertices": n,
                    "chunk_edges": source.chunk_edges,
                    "layout": layout,
                }
            handles = shm.handles()
            timings["preprocess"] = time.perf_counter() - t_share
            t_edge = time.perf_counter()
            with trace(
                "parallel.dispatch", backend="parallel-chunked", n_tasks=n_tasks
            ):
                pool.map(
                    _chunked_pool_task,
                    [
                        (handles, token, int(cuts[i]), int(cuts[i + 1]), k, i)
                        for i in range(n_tasks)
                    ],
                    labels=[
                        f"backend=parallel-chunked chunks[{int(cuts[i])}:"
                        f"{int(cuts[i + 1])}) slot={i}"
                        for i in range(n_tasks)
                    ],
                )
            Z_flat = plan.zeroed_output()
            np.sum(partials, axis=0, out=Z_flat)
            Z = Z_flat.reshape(n, k)
            if layout == "sorted":
                from .gee_vectorized import class_rescale

                class_rescale(Z, y, k)
            t2 = time.perf_counter()
            timings["edge_pass"] = t2 - t_edge
        finally:
            shm.close()
    timings["total"] = t2 - t0

    return EmbeddingResult(
        embedding=Z,
        projection_builder=lambda: projection_from_scales(y, scales, k),
        timings=timings,
        method="gee-parallel",
        n_workers=workers,
        buffer_view=True,
        layout=layout,
    )


def _gee_parallel_fused(
    plan,
    labels: np.ndarray,
    *,
    n_workers: Optional[int] = None,
) -> EmbeddingResult:
    """Owner-computes parallel GEE over a plan's sorted fused layout.

    Same owner-computes guarantees as the classic path (every row
    single-writer, deterministic, no atomics), but the workers read the
    plan's sorted incidence arrays instead of CSR/CSC adjacency: each
    locates its degree-balanced row range with two binary searches and runs
    the block-local segment-sum kernel into its slice of the shared output,
    then rescales its own rows by ``diag(1/n_c)``.  Only the label vector
    travels per call; the incidence arrays ship through shared memory once
    per plan.
    """
    from .gee_vectorized import accumulate_fused_rows_sorted, class_rescale

    y = plan.validate_labels(labels)
    k = plan.n_classes
    n = plan.n_vertices
    timings: Dict[str, float] = {}

    t_pre = time.perf_counter()
    fused = plan.fused  # compiled once, cached on the plan
    timings["preprocess"] = time.perf_counter() - t_pre

    explicit = n_workers is not None and int(n_workers) > 0
    requested = resolve_worker_count(n_workers)
    if explicit and requested > 1 and not fork_available():
        raise RuntimeError(
            f"gee_parallel: n_workers={requested} requested but the 'fork' start "
            "method is unavailable on this platform; pass n_workers=1 (or None "
            "for the automatic fallback)"
        )

    t0 = time.perf_counter()
    fully = bool(y.size) and int(y.min()) != UNKNOWN_LABEL
    y_idx = y.astype(fused.index_dtype, copy=False)
    t1 = time.perf_counter()
    timings["projection"] = t1 - t0

    if requested == 1 or not fork_available() or plan.n_edges == 0:
        t_edge = time.perf_counter()
        Z = plan.output_matrix()
        accumulate_fused_rows_sorted(
            Z.reshape(-1),
            fused.owner_flat,
            fused.partner,
            fused.weights,
            y_idx,
            k,
            fused.rows_per_block,
            0,
            n,
            fully_labelled=fully,
        )
        class_rescale(Z, y, k)
        workers = 1
    else:
        from .validation import class_counts, inverse_class_counts

        ranges = plan.fused_row_ranges(requested)
        t_share = time.perf_counter()
        shared_fused = _shared_fused_for(fused)
        pool = _get_pool(requested)
        workspace = _workspace_for(n, k)
        workspace.labels[:] = y
        workspace.inv[:] = inverse_class_counts(class_counts(y, k))
        handles = dict(shared_fused.handles)
        handles.update(workspace.handles)
        timings["preprocess"] += time.perf_counter() - t_share
        t_edge = time.perf_counter()
        with trace(
            "parallel.dispatch", backend="parallel-fused", n_tasks=len(ranges)
        ):
            pool.map(
                _fused_pool_task,
                [
                    (handles, row_lo, row_hi, k, fused.rows_per_block, fully)
                    for row_lo, row_hi in ranges
                ],
                labels=[
                    f"backend=parallel-fused rows[{row_lo}:{row_hi}]"
                    for row_lo, row_hi in ranges
                ],
            )
        Z = plan.output_matrix()
        np.copyto(Z, workspace.Z)
        workers = requested
    t2 = time.perf_counter()
    timings["edge_pass"] = t2 - t_edge
    timings["total"] = t2 - t0

    return EmbeddingResult(
        embedding=Z,
        projection_builder=lambda: projection_from_scales(
            y, projection_scales(y, k), k
        ),
        timings=timings,
        method="gee-parallel",
        n_workers=workers,
        buffer_view=True,
        layout=plan.layout,
    )


def gee_parallel_with_plan(
    plan,
    labels: np.ndarray,
    *,
    n_workers: Optional[int] = None,
) -> EmbeddingResult:
    """Process-parallel GEE on a compiled :class:`~repro.core.plan.EmbedPlan`.

    The plan's CSR/CSC views were forced at compilation and its
    shared-memory copy is cached after the first call, so per call only the
    label and scale vectors travel to the worker pool; the degree-balanced
    row partition is cached on the plan per worker count (worker sweeps
    partition once per count).  The returned embedding is a view of the
    plan's reused output buffer.

    Sorted-layout plans route to the fused segment-sum kernel over the
    owner-computes worker partition (:func:`_gee_parallel_fused`).
    """
    if plan.layout == "sorted":
        return _gee_parallel_fused(plan, labels, n_workers=n_workers)
    y = plan.validate_labels(labels)
    k = plan.n_classes
    n = plan.n_vertices
    timings: Dict[str, float] = {}

    # Materialise the plan's adjacency views (cached after the first call)
    # before any timed region starts — same treatment as classic
    # gee_parallel's "preprocess" phase.
    t_pre = time.perf_counter()
    csr = plan.csr
    in_indptr = csr.in_indptr
    timings["preprocess"] = time.perf_counter() - t_pre

    explicit = n_workers is not None and int(n_workers) > 0
    requested = resolve_worker_count(n_workers)
    if explicit and requested > 1 and not fork_available():
        raise RuntimeError(
            f"gee_parallel: n_workers={requested} requested but the 'fork' start "
            "method is unavailable on this platform; pass n_workers=1 (or None "
            "for the automatic fallback)"
        )

    t0 = time.perf_counter()
    scales = projection_scales(y, k)
    t1 = time.perf_counter()
    timings["projection"] = t1 - t0

    if requested == 1 or not fork_available() or csr.n_edges == 0 or n == 0:
        t_edge = time.perf_counter()
        Z = owner_rows_accumulate(
            0,
            n,
            csr.indptr,
            csr.indices,
            csr.weights,
            in_indptr,
            csr.in_indices,
            csr.in_weights,
            y,
            scales,
            k,
            out=plan.zeroed_output(),
        )
        workers = 1
    else:
        ranges = plan.row_ranges(requested)
        t_share = time.perf_counter()
        shared_graph = _shared_graph_for(csr)
        pool = _get_pool(requested)
        timings["preprocess"] += time.perf_counter() - t_share
        workspace, handles = _prepare_workspace(csr, shared_graph, y, scales, k)
        t_edge = time.perf_counter()
        Z = _run_ranges(pool, handles, ranges, k, workspace, out=plan.output_matrix())
        workers = requested
    t2 = time.perf_counter()
    timings["edge_pass"] = t2 - t_edge
    # Same semantics as classic gee_parallel: total spans projection start
    # to edge-pass end, including the per-call O(n) label/scale staging
    # (after the first call the shared graph and row ranges are cache hits,
    # so the extra span over projection+edge_pass is the staging cost).
    timings["total"] = t2 - t0

    return EmbeddingResult(
        embedding=Z,
        projection_builder=lambda: projection_from_scales(y, scales, k),
        timings=timings,
        method="gee-parallel",
        n_workers=workers,
        buffer_view=True,
    )
