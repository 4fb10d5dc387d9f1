"""Edge-parallel GEE over forked workers and shared memory.

This is the one process executor of the package: the ``parallel`` backend
(alias ``ligra-parallel``, Table I's "ligra-parallel" column), the pooled
pick of ``auto`` and the strong-scaling experiment (Figure 3) all run it.
It exposes the worker count explicitly, reports a per-phase timing
breakdown, and keeps the parallel machinery visible (row partitioning,
shared-memory output).  ``gee_ligra`` computes the same embedding up to
floating-point summation order, on the Ligra engine's serial, vectorized
or threads schedule.

Parallelisation strategy
------------------------
Ligra's ``edgeMapDense`` iterates over *destination* vertices and their
in-edges, which makes every embedding row single-writer; the atomics only
guard the much rarer source-row updates.  The kernel here takes that idea
to its limit with an **owner-computes row partition** over the plan's
symmetric CSR incidence (:class:`~repro.core.plan.FusedLayout`, where every
edge appears twice, once per endpoint as owner):

* the embedding rows (vertices) are split into ``p`` ranges balanced by
  total (in + out) degree;
* worker ``j`` reads the incidences its rows own off the row pointer,
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
``parallel`` backend hands it one range per worker, and each range is one
pool task.

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
from functools import partial
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.edgelist import EdgeList
from ..graph.facade import Graph
from ..parallel.pool import (
    ForkWorkerPool,
    effective_worker_count,
    fork_available,
    resolve_worker_count,
)
from ..obs import trace
from ..parallel.shm import OutputRing, SharedArrayHandle, SharedArraySet
from .plan import _embed_on_default_plan, _plan_in_layout, choose_label_dtype
from .projection import projection_from_scales, projection_scales
from .result import EmbeddingResult
from .validation import UNKNOWN_LABEL, class_counts, inverse_class_counts

__all__ = [
    "gee_parallel",
    "gee_parallel_with_plan",
    "run_owner_ranges",
    "shutdown_workers",
]

#: One owner range: rows ``[row_lo, row_hi)`` and the label its failure names.
OwnerRange = Tuple[int, int, str]


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

#: Names of this worker's cached mappings that are output segments.
_WORKER_OUTPUTS: set = set()


def _drop_attachment(shm_name: str) -> None:
    """Close this worker's cached mapping of one segment."""
    view, seg = _WORKER_ATTACHMENTS.pop(shm_name)
    del view  # release the exported buffer before closing the mapping
    try:
        seg.close()
    except BufferError:  # pragma: no cover - defensive
        pass


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
        _drop_attachment(stale_name)
    return views


def _drop_freed_outputs(live_outputs: frozenset) -> None:
    """Close this worker's mappings of output segments the parent freed.

    The parent unlinks a ring slot once no array views it, but the pages
    stay allocated while a worker maps them; a refit loop never fills the
    LRU enough to evict them.
    """
    for shm_name in _WORKER_OUTPUTS - live_outputs:
        _WORKER_OUTPUTS.discard(shm_name)
        if shm_name in _WORKER_ATTACHMENTS:
            _drop_attachment(shm_name)


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
            self.shm.share("f_indptr", fused.indptr)
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
        #: Labels as ``choose_label_dtype(K)``: the parent's copy casts once.
        self.labels = self.shm.empty("labels", (n,), choose_label_dtype(k))
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

    def live_output_names(self) -> frozenset:
        """Names of the output segments that exist: the ring's slots, handed
        out or idle, and the fallback once it exists."""
        names = set(self.outputs.segment_names())
        if "Z" in self.shm:
            names.add(self.shm.handles()["Z"].shm_name)
        return frozenset(names)

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
def _accumulate_range(
    Z: np.ndarray,
    indptr: np.ndarray,
    partner: np.ndarray,
    weights: Optional[np.ndarray],
    y_lab: np.ndarray,
    inv: np.ndarray,
    rows_per_block: int,
    owner_range: OwnerRange,
    fully_labelled: bool,
) -> None:
    """Fill the rows of one ``(row_lo, row_hi, label)`` range and rescale them.

    The one step of the executor, run in-process and by every pool task.
    The sorted kernel assigns every slot of the range's rows, so ``Z`` (a
    C-contiguous ``(n, K)`` array) needs no zeroing; the rows are then
    multiplied by the column scales ``inv``.  A failure raises a
    :class:`RuntimeError` naming the range's label.
    """
    # Looked up per call: this is the one place the executor reaches the
    # kernel, in the parent and in every forked worker.
    from .gee_vectorized import accumulate_fused_rows_sorted

    row_lo, row_hi, label = owner_range
    try:
        accumulate_fused_rows_sorted(
            Z.reshape(-1),
            indptr,
            partner,
            weights,
            y_lab,
            Z.shape[1],
            rows_per_block,
            row_lo,
            row_hi,
            fully_labelled=fully_labelled,
        )
        Z[row_lo:row_hi] *= inv[None, :]
    except Exception as exc:
        raise RuntimeError(f"{label} failed: {exc}") from exc


def _owner_range_task(
    handles: Dict[str, SharedArrayHandle],
    live_outputs: frozenset,
    owner_range: OwnerRange,
    rows_per_block: int,
    fully_labelled: bool,
) -> None:
    """Pool task: run one range over the shared layout and workspace.

    All arrays are reached through the shared-memory handles, so the task
    payload is a few hundred bytes.  ``live_outputs`` names the output
    segments that still exist; mappings of any other are closed first.
    """
    _drop_freed_outputs(live_outputs)
    views = _attach_cached(handles)
    _WORKER_OUTPUTS.add(handles["Z"].shm_name)
    _accumulate_range(
        views["Z"],
        views["f_indptr"],
        views["f_partner"],
        views.get("f_weights"),
        views["labels"],
        views["inv"],
        rows_per_block,
        owner_range,
        fully_labelled,
    )


def run_owner_ranges(
    fused,
    y: np.ndarray,
    inv: np.ndarray,
    ranges: Sequence[OwnerRange],
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Compute the rows of every range from a sorted fused layout.

    The owner-range executor behind ``parallel``.  ``ranges`` is a list of
    ``(row_lo, row_hi, label)`` ranges that together cover ``[0, n)``
    exactly once.  Every slot of a range's rows is assigned (no output
    needs zeroing) and rescaled by the column scales ``inv``.  Returns the
    ``(n, K)`` result.

    A single range runs in this process and writes ``out`` (a fresh array
    when ``out`` is ``None``).  Several run as one pool task each on the
    shared worker pool, over the plan's shared fused layout and the shared
    workspace, and ``out`` is not used: the workers write a free slot of
    the workspace's shared output ring, and the returned array views that
    slot, so nothing is copied.  When callers hold every slot, the workers
    write a fallback segment and the result is a private copy of it.  The
    range count bounds concurrency, whatever the pool size.  A failing
    range raises an error naming its label, in-process or from a worker.
    """
    fully = bool(y.size) and int(y.min()) != UNKNOWN_LABEL
    if len(ranges) == 1:
        if out is None:
            out = np.empty((fused.n_vertices, fused.n_classes), dtype=np.float64)
        _accumulate_range(
            out,
            fused.indptr,
            fused.partner,
            fused.weights,
            y.astype(choose_label_dtype(fused.n_classes)),
            inv,
            fused.rows_per_block,
            ranges[0],
            fully,
        )
        return out
    shared_fused = _shared_fused_for(fused)
    pool = _get_pool(len(ranges))
    workspace = _workspace_for(fused.n_vertices, fused.n_classes)
    workspace.labels[:] = y
    workspace.inv[:] = inv
    slot = workspace.outputs.take()
    Z, z_handle = workspace.fallback_output() if slot is None else slot
    handles = dict(shared_fused.handles)
    handles.update(workspace.handles)
    handles["Z"] = z_handle
    live_outputs = workspace.live_output_names()
    with trace("parallel.dispatch", backend="parallel", n_tasks=len(ranges)):
        pool.map(
            _owner_range_task,
            [
                (handles, live_outputs, r, fused.rows_per_block, fully)
                for r in ranges
            ],
            labels=[label for _, _, label in ranges],
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


def gee_parallel(
    edges: Union[EdgeList, CSRGraph, Graph],
    labels: np.ndarray,
    n_classes: Optional[int] = None,
    *,
    n_workers: Optional[int] = None,
) -> EmbeddingResult:
    """One-Hot Graph Encoder Embedding, process-parallel over shared memory.

    Runs :func:`gee_parallel_with_plan` on the input's default plan.

    Parameters
    ----------
    edges:
        The graph as a :class:`~repro.graph.facade.Graph`, an
        :class:`EdgeList`, a prebuilt :class:`CSRGraph`, or any other
        graph-like input.  Compiling the sorted incidence (the equivalent
        of Ligra loading its graph) is reported separately under the
        ``"preprocess"`` timing and is not part of the embedding time;
        passing a ``Graph`` reuses its cached sorted plan.  Any other input
        gets a private facade, whose plans and shared memory go with the
        call.
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
    kernel = partial(gee_parallel_with_plan, n_workers=n_workers)
    return _embed_on_default_plan(edges, labels, n_classes, kernel)


def gee_parallel_with_plan(
    plan,
    labels: np.ndarray,
    *,
    n_workers: Optional[int] = None,
) -> EmbeddingResult:
    """Process-parallel GEE on a compiled :class:`~repro.core.plan.EmbedPlan`.

    Runs the owner-range executor over the plan's sorted fused layout, one
    degree-balanced owner range per worker; a ``layout="none"`` plan uses
    its graph's cached sorted plan, and the result reports
    ``layout == "sorted"`` either way.  The incidence arrays ship to the
    pool once per plan and the degree-balanced row partition is cached on
    the plan per worker count, so per call only the label vector and the
    column scales travel.  One worker writes an output array of ``plan``;
    several write a slot of the shared output ring, in place, and nothing
    is copied out.  Either way the result owns its embedding.
    """
    y = plan.validate_labels(labels)
    k = plan.n_classes
    timings: Dict[str, float] = {}
    t_pre = time.perf_counter()
    plan_sorted = _plan_in_layout(plan, "sorted")
    fused = plan_sorted.fused  # compiled once, cached on the plan
    timings["preprocess"] = time.perf_counter() - t_pre
    requested = _requested_workers(n_workers)

    t0 = time.perf_counter()
    inv = inverse_class_counts(class_counts(y, k))
    t1 = time.perf_counter()
    timings["projection"] = t1 - t0

    workers = requested if fork_available() and plan.n_edges > 0 else 1
    ranges = [
        (row_lo, row_hi, f"backend=parallel rows[{row_lo}:{row_hi}]")
        for row_lo, row_hi in plan_sorted.fused_row_ranges(workers)
    ]
    out = plan.output_matrix() if len(ranges) == 1 else None
    Z = run_owner_ranges(fused, y, inv, ranges, out)
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
