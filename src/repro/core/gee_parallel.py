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
to its limit with an **owner-computes row partition** over the plan's
owner-sorted incidence (:class:`~repro.core.plan.FusedLayout`, where every
edge appears twice, once per endpoint as owner):

* the embedding rows (vertices) are split into ``p`` ranges balanced by
  total (in + out) degree;
* worker ``j`` finds the incidences its rows own with two binary searches,
  runs the block-local segment sums
  (:func:`~repro.core.gee_vectorized.accumulate_fused_rows_sorted`) into
  its rows of the shared-memory ``Z`` and rescales those rows by
  ``diag(1/n_c)``.

No two workers ever write the same row, so there are no atomics, no locks
and no reduction — the CPython substitute for Ligra's lock-free writeAdd
that preserves the edge-parallel structure (every edge is still visited
exactly twice, once per endpoint) while sidestepping the GIL entirely.
Each output slot sums its incidences in array order whatever the split,
so every worker count reproduces the serial sorted pass bit for bit.
:func:`run_owner_ranges` is the one executor of such row ranges: the
``parallel`` backend hands it one range per worker, and
:class:`~repro.shard.ShardedGraph` hands it its shards.

Worker management mirrors how Ligra treats its thread pool: the workers are
a long-lived resource created once per session (``fork`` is two orders of
magnitude more expensive than dispatching a task to an already-forked
worker in this environment), and each embedding call only dispatches row
ranges to them.  All inputs and the output travel through named POSIX
shared memory; the incidence arrays are shipped once per plan, so
repeated runs (benchmark repeats, worker sweeps) send only the label
vector and the ``1/n_c`` column scales — the analogue of Ligra having
loaded the graph before the timed region starts.  Like Ligra's in-place
edge map, nothing is copied after the pass: the workers write a slot of a
small shared output ring (:class:`~repro.parallel.shm.OutputRing`), and the
caller keeps the array that views it.  The slot is reused only once no
array views it any more.
"""

from __future__ import annotations

import atexit
import time
import weakref
from typing import Dict, Optional, Sequence, Tuple, Union

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
from ..parallel.shm import OutputRing, SharedArrayHandle, SharedArraySet, attach_many
from .gee_vectorized import scatter_add
from .projection import projection_from_scales, projection_scales
from .result import EmbeddingResult
from .validation import (
    UNKNOWN_LABEL,
    class_counts,
    inverse_class_counts,
    validate_edges,
    validate_labels,
)

__all__ = [
    "gee_parallel",
    "gee_parallel_with_plan",
    "gee_parallel_chunked",
    "patch_sums_parallel",
    "run_owner_ranges",
    "shutdown_workers",
]

#: One owner range: rows ``[row_lo, row_hi)`` and the label its failure names.
OwnerRange = Tuple[int, int, str]


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


#: Worker-process cache of shared-memory attachments, keyed by segment name.
#: Re-mapping (and therefore re-faulting) hundreds of megabytes of incidence
#: on every task would dominate the runtime, so each worker attaches a
#: given segment once and keeps the mapping warm; the cache is LRU-bounded
#: so segments of evicted plans (whose parent-side finalizers already
#: unlinked them) don't pin O(E) pages per plan forever.
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


# --------------------------------------------------------------------------- #
# Long-lived worker pool, shared fused layouts and workspace
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
    """Terminate the session's GEE worker pool and its shared memory.

    Mostly useful in tests and at interpreter shutdown; a subsequent
    :func:`gee_parallel` call transparently recreates the pool.  Every
    segment is unlinked at once; a held result that views an output slot
    reads the same values afterwards, and its mapping closes when it dies.
    """
    global _POOL, _WORKSPACE
    if _POOL is not None:
        _POOL.close()
        _POOL = None
    for entry in list(_FUSED_CACHE.values()):
        entry.close()
    _FUSED_CACHE.clear()
    if _WORKSPACE is not None:
        _WORKSPACE.close()
        _WORKSPACE = None


atexit.register(shutdown_workers)


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


#: Output segments the shared ring of one workspace may hold.  Callers who
#: keep three pooled results at once get a private copy of the fourth.
_MAX_SHARED_OUTPUTS = 3


class _Workspace:
    """Reusable per-``(n, K)`` shared buffers: labels, column scales, outputs.

    Reusing the same named segments across calls lets the pool workers keep
    their mappings warm (see ``_WORKER_ATTACHMENTS``); only the label and
    column-scale vectors are rewritten per call.  The workers write one
    slot of the shared output ring, and the caller keeps the array that
    views it.
    """

    def __init__(self, n: int, k: int) -> None:
        self.n, self.k = n, k
        self.shm = SharedArraySet()
        self.labels = self.shm.empty("labels", (n,), np.int64)
        #: Per-column ``1/n_c`` rescale vector (written once per call by
        #: the parent; each task multiplies its own rows).
        self.inv = self.shm.empty("inv", (k,), np.float64)
        self.handles = self.shm.handles()
        self.outputs = OutputRing((n, k), shared=True, max_buffers=_MAX_SHARED_OUTPUTS)

    def fallback_output(self) -> Tuple[np.ndarray, SharedArrayHandle]:
        """The output segment of a run that finds every ring slot held,
        created on first need."""
        if "Z" not in self.shm:
            self.shm.empty("Z", (self.n, self.k), np.float64)
        return self.shm["Z"], self.shm.handles()["Z"]

    def close(self) -> None:
        self.outputs.close()
        self.shm.close()


_WORKSPACE: Optional[_Workspace] = None


def _workspace_for(n: int, k: int) -> _Workspace:
    global _WORKSPACE
    if _WORKSPACE is None or _WORKSPACE.n != n or _WORKSPACE.k != k:
        if _WORKSPACE is not None:
            _WORKSPACE.close()
        _WORKSPACE = _Workspace(n, k)
    return _WORKSPACE


# --------------------------------------------------------------------------- #
# The owner-range executor
# --------------------------------------------------------------------------- #
def _accumulate_ranges(
    Z: np.ndarray,
    owner_flat: np.ndarray,
    partner: np.ndarray,
    weights: Optional[np.ndarray],
    y_idx: np.ndarray,
    inv: np.ndarray,
    rows_per_block: int,
    ranges: Sequence[OwnerRange],
    fully_labelled: bool,
) -> None:
    """Fill the rows of each ``(row_lo, row_hi, label)`` range and rescale them.

    The one loop of the executor, run in-process and by every pool task.
    The sorted kernel assigns every slot of a range's rows, so ``Z`` (a
    C-contiguous ``(n, K)`` array) needs no zeroing; each range's rows are
    then multiplied by the column scales ``inv``.  A failing range raises a
    :class:`RuntimeError` naming its label.
    """
    # Looked up per call: this is the one place the executor reaches the
    # kernel, in the parent and in every forked worker.
    from .gee_vectorized import accumulate_fused_rows_sorted

    k = Z.shape[1]
    Z_flat = Z.reshape(-1)
    for row_lo, row_hi, label in ranges:
        try:
            accumulate_fused_rows_sorted(
                Z_flat,
                owner_flat,
                partner,
                weights,
                y_idx,
                k,
                rows_per_block,
                row_lo,
                row_hi,
                fully_labelled=fully_labelled,
            )
            Z[row_lo:row_hi] *= inv[None, :]
        except Exception as exc:
            raise RuntimeError(f"{label} failed: {exc}") from exc


def _owner_ranges_task(
    _context: dict,
    handles: Dict[str, SharedArrayHandle],
    ranges: Tuple[OwnerRange, ...],
    rows_per_block: int,
    fully_labelled: bool,
) -> None:
    """Pool task: run one task's ranges over the shared layout and workspace.

    All arrays are reached through the shared-memory handles, so the task
    payload is a few hundred bytes.
    """
    views = _attach_cached(handles)
    owner_flat = views["f_owner_flat"]
    _accumulate_ranges(
        views["Z"],
        owner_flat,
        views["f_partner"],
        views.get("f_weights"),
        views["labels"].astype(owner_flat.dtype, copy=False),
        views["inv"],
        rows_per_block,
        ranges,
        fully_labelled,
    )


def run_owner_ranges(
    fused,
    y: np.ndarray,
    inv: np.ndarray,
    tasks: Sequence[Sequence[OwnerRange]],
    out: Optional[np.ndarray] = None,
    *,
    backend: str,
) -> np.ndarray:
    """Compute the rows of every range from a sorted fused layout.

    The one owner-range executor behind ``parallel`` and ``sharded``.
    ``tasks`` is a list of tasks, each a sequence of
    ``(row_lo, row_hi, label)`` ranges; together the ranges must cover
    ``[0, n)`` exactly once.  Every slot of a range's rows is assigned (no
    output needs zeroing) and rescaled by the column scales ``inv``.
    Returns the ``(n, K)`` result.

    A single task runs in this process and writes ``out`` (a fresh array
    when ``out`` is ``None``).  Several run as one pool task each on the
    shared worker pool, over the plan's shared fused layout and the shared
    workspace, and ``out`` is not used: the workers write a free slot of
    the workspace's shared output ring, and the returned array views that
    slot, so nothing is copied.  When callers hold every slot, the workers
    write a fallback segment and the result is a private copy of it.  A
    caller bounds concurrency by its task count, whatever the pool size.
    A failing range raises an error naming its label, in-process or from a
    worker.
    """
    fully = bool(y.size) and int(y.min()) != UNKNOWN_LABEL
    if len(tasks) == 1:
        if out is None:
            out = np.empty((fused.n_vertices, fused.n_classes), dtype=np.float64)
        _accumulate_ranges(
            out,
            fused.owner_flat,
            fused.partner,
            fused.weights,
            y.astype(fused.index_dtype, copy=False),
            inv,
            fused.rows_per_block,
            tasks[0],
            fully,
        )
        return out
    shared_fused = _shared_fused_for(fused)
    pool = _get_pool(len(tasks))
    workspace = _workspace_for(fused.n_vertices, fused.n_classes)
    workspace.labels[:] = y
    workspace.inv[:] = inv
    slot = workspace.outputs.take()
    Z, z_handle = workspace.fallback_output() if slot is None else slot
    handles = dict(shared_fused.handles)
    handles.update(workspace.handles)
    handles["Z"] = z_handle
    with trace("parallel.dispatch", backend=backend, n_tasks=len(tasks)):
        pool.map(
            _owner_ranges_task,
            [(handles, tuple(task), fused.rows_per_block, fully) for task in tasks],
            labels=[", ".join(label for _, _, label in task) for task in tasks],
        )
    return Z.copy() if slot is None else Z


def _requested_workers(n_workers: Optional[int]) -> int:
    """Resolve a worker request: honoured exactly, or an error."""
    explicit = n_workers is not None and int(n_workers) > 0
    requested = resolve_worker_count(n_workers)
    if explicit and requested > 1 and not fork_available():
        raise RuntimeError(
            f"gee_parallel: n_workers={requested} requested but the 'fork' start "
            "method is unavailable on this platform; pass n_workers=1 (or None "
            "for the automatic fallback)"
        )
    return requested


def _gee_parallel_sorted(
    plan, labels: np.ndarray, n_workers: Optional[int]
) -> EmbeddingResult:
    """``parallel`` on ``plan``: one degree-balanced owner range per worker.

    Runs the sorted fused layout; a ``layout="none"`` plan uses its graph's
    cached sorted plan.  One worker writes an output array of ``plan``;
    several write a slot of the shared output ring.  Either way the result
    owns its embedding.
    """
    y = plan.validate_labels(labels)
    k = plan.n_classes
    timings: Dict[str, float] = {}
    t_pre = time.perf_counter()
    if plan.layout != "sorted":
        plan_sorted = plan.graph.plan(k, layout="sorted")
    else:
        plan_sorted = plan
    fused = plan_sorted.fused  # compiled once, cached on the plan
    timings["preprocess"] = time.perf_counter() - t_pre
    requested = _requested_workers(n_workers)

    t0 = time.perf_counter()
    inv = inverse_class_counts(class_counts(y, k))
    t1 = time.perf_counter()
    timings["projection"] = t1 - t0

    workers = requested if fork_available() and plan.n_edges > 0 else 1
    tasks = [
        ((row_lo, row_hi, f"backend=parallel rows[{row_lo}:{row_hi}]"),)
        for row_lo, row_hi in plan_sorted.fused_row_ranges(workers)
    ]
    out = plan.output_matrix() if len(tasks) == 1 else None
    Z = run_owner_ranges(fused, y, inv, tasks, out, backend="parallel")
    t2 = time.perf_counter()
    timings["edge_pass"] = t2 - t1
    timings["total"] = t2 - t0

    return EmbeddingResult(
        embedding=Z,
        projection_builder=lambda: projection_from_scales(
            y, projection_scales(y, k), k
        ),
        timings=timings,
        method="gee-parallel",
        n_workers=workers,
        layout="sorted",
    )


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
        graph-like input.  Compiling the sorted incidence (the equivalent
        of Ligra loading its graph) is reported separately under the
        ``"preprocess"`` timing and is not part of the embedding time;
        passing a ``Graph`` reuses its cached sorted plan.
    labels, n_classes:
        As in :func:`repro.core.gee_python.gee_python`.
    n_workers:
        Number of forked workers; ``None`` uses every available CPU, ``1``
        runs the kernel in-process (no fork) which is the serial anchor of
        the strong-scaling curve.  An explicit request is *honoured exactly*
        — it is never silently clamped or degraded; an impossible request
        (absurd oversubscription, or >1 workers on a platform without
        ``fork``) raises instead.

    The result owns its embedding.
    """
    t_pre = time.perf_counter()
    graph = edges if isinstance(edges, Graph) else Graph(validate_edges(edges))
    try:
        y, k = validate_labels(labels, graph.n_vertices, n_classes)
        plan = graph.plan(k, layout="sorted")
        plan.fused  # compile the sorted incidence inside "preprocess"
        preprocess = time.perf_counter() - t_pre
        result = _gee_parallel_sorted(plan, y, n_workers)
    finally:
        if graph is not edges:
            # A private facade and its plans reference each other: drop
            # them now, or the plan's shared-memory layout outlives the
            # call until the cyclic GC runs.
            graph.drop_plans()
    result.timings["preprocess"] += preprocess
    return result


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
    requested = _requested_workers(n_workers)

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
        layout=layout,
    )


def gee_parallel_with_plan(
    plan,
    labels: np.ndarray,
    *,
    n_workers: Optional[int] = None,
) -> EmbeddingResult:
    """Process-parallel GEE on a compiled :class:`~repro.core.plan.EmbedPlan`.

    Runs the owner-range executor over the plan's sorted fused layout; a
    ``layout="none"`` plan uses its graph's cached sorted plan, and the
    result reports ``layout == "sorted"`` either way.  The incidence
    arrays ship to the pool once per plan and the degree-balanced row
    partition is cached on the plan per worker count, so per call only the
    label vector and the column scales travel.  The result owns its
    embedding: the workers write it in place, and nothing is copied out.
    """
    return _gee_parallel_sorted(plan, labels, n_workers)
