"""Process-based dense backend (true shared-memory parallelism).

CPython threads cannot run the edge pass concurrently, so the measured
parallel configuration forks worker processes instead:

* Read-only inputs (the CSR arrays, the projection matrix, labels) are
  inherited by the forked children via copy-on-write — no copies, no
  pickling, the same "all workers see one graph" model as Ligra.
* Each worker accumulates its edge range into a *private* partial of the
  function's output arrays, then adds the partial into a shared-memory
  result under a lock.  For accumulating functions (GEE's ``updateEmb``,
  degree counts) this is the same result as lock-free atomic adds, up to
  floating-point summation order, and costs ``O(n·K)`` extra per worker —
  negligible next to the ``O(s)`` edge pass whenever ``s >> n·K`` (the
  paper's regime).
* A worker that exits non-zero (it may have died holding the merge lock,
  which would leave the others waiting forever) makes the parent terminate
  the rest and raise; the shared segments are unlinked either way.

Only :class:`~repro.ligra.backends.base.AccumulatingEdgeMapFunction`
subclasses can run on this backend; anything else falls back to the serial
traversal (documented, and warned once).
"""

from __future__ import annotations

import multiprocessing as mp
import warnings
from multiprocessing.connection import wait
from typing import Dict, List, Tuple

import numpy as np

from ...graph.csr import CSRGraph
from ...parallel.partition import block_ranges
from ...parallel.pool import fork_available, resolve_worker_count
from ...parallel.shm import SharedArraySet, attach_many
from ..edge_map import EdgeMapFunction, edge_map_dense_serial
from ..vertex_subset import VertexSubset
from .base import AccumulatingEdgeMapFunction, DenseBackend, frontier_edges

__all__ = ["ProcessBackend"]


def _worker_accumulate(
    fn: AccumulatingEdgeMapFunction,
    srcs: np.ndarray,
    dsts: np.ndarray,
    ws: np.ndarray,
    edge_ranges: List[Tuple[int, int]],
    handles: Dict,
    lock,
    worker_id: int,
) -> None:
    """Run in a forked child: accumulate private partials, merge under lock."""
    views, segments = attach_many(handles)
    try:
        templates = fn.output_arrays()
        partial = {name: np.zeros_like(arr) for name, arr in templates.items()}
        fired_local = np.zeros(views["__fired__"].shape, dtype=bool)
        for lo, hi in edge_ranges:
            if hi <= lo:
                continue
            fired = fn.update_batch_into(partial, srcs[lo:hi], dsts[lo:hi], ws[lo:hi])
            if fired is None:
                fired_local[dsts[lo:hi]] = True
            else:
                fired_local[dsts[lo:hi][np.asarray(fired, dtype=bool)]] = True
        with lock:
            for name, arr in partial.items():
                views[name] += arr
            np.logical_or(views["__fired__"], fired_local, out=views["__fired__"])
    finally:
        for seg in segments:
            seg.close()


def _join_workers(procs: List) -> None:
    """Join every worker; at the first non-zero exit, stop the rest and raise.

    The parent waits on all sentinels at once rather than joining workers in
    turn: a worker killed while it holds the merge lock leaves the others
    blocked on that lock, so a plain ``join`` would never return.
    """
    pending = dict(enumerate(procs))
    while pending:
        ready = set(wait([p.sentinel for p in pending.values()]))
        for wid in [w for w, p in pending.items() if p.sentinel in ready]:
            p = pending.pop(wid)
            p.join()
            if p.exitcode == 0:
                continue
            for other in pending.values():
                other.terminate()
            for other in pending.values():
                other.join(timeout=5)
                # A forked worker inherits the caller's signal handlers, so
                # SIGTERM alone may not end it.
                if other.is_alive():
                    other.kill()
                    other.join()
            raise RuntimeError(
                f"ProcessBackend: worker {wid} exited with status {p.exitcode}; "
                f"terminated the {len(pending)} other worker(s)"
            )


class ProcessBackend(DenseBackend):
    """Edge-parallel dense backend over forked worker processes."""

    name = "processes"

    def __init__(self, n_workers: int | None = None) -> None:
        self._explicit_workers = n_workers is not None and int(n_workers) > 0
        self.n_workers = resolve_worker_count(n_workers)
        self._warned_fallback = False

    def _fallback(self, graph, frontier, fn, reason: str) -> VertexSubset:
        if not self._warned_fallback:
            warnings.warn(
                f"ProcessBackend falling back to serial execution: {reason}",
                RuntimeWarning,
                stacklevel=3,
            )
            self._warned_fallback = True
        return edge_map_dense_serial(graph, frontier, fn)

    def dense_edge_map(
        self, graph: CSRGraph, frontier: VertexSubset, fn: EdgeMapFunction
    ) -> VertexSubset:
        if not isinstance(fn, AccumulatingEdgeMapFunction):
            return self._fallback(
                graph, frontier, fn, "function is not an AccumulatingEdgeMapFunction"
            )
        if not fork_available():
            if self._explicit_workers and self.n_workers > 1:
                # An explicit multi-worker request must never degrade silently.
                raise RuntimeError(
                    f"ProcessBackend: n_workers={self.n_workers} requested but the "
                    "'fork' start method is unavailable on this platform; pass "
                    "n_workers=1 (or None for the automatic fallback)"
                )
            return self._fallback(graph, frontier, fn, "fork start method unavailable")

        srcs, dsts, ws = frontier_edges(graph, frontier)
        outputs = fn.output_arrays()
        n_workers = min(self.n_workers, max(1, srcs.size))
        if n_workers == 1 or srcs.size == 0:
            # One worker: accumulate directly into the real outputs.
            fired = fn.update_batch_into(outputs, srcs, dsts, ws)
            mask = np.zeros(graph.n_vertices, dtype=bool)
            if srcs.size:
                if fired is None:
                    mask[dsts] = True
                else:
                    mask[dsts[np.asarray(fired, dtype=bool)]] = True
            return VertexSubset(graph.n_vertices, mask=mask)

        ranges = block_ranges(srcs.size, n_workers)
        ctx = mp.get_context("fork")
        lock = ctx.Lock()
        with SharedArraySet() as shm:
            for name, arr in outputs.items():
                shm.zeros(name, arr.shape, arr.dtype)
            shm.zeros("__fired__", (graph.n_vertices,), np.bool_)
            handles = shm.handles()
            procs = []
            for wid, rng in enumerate(ranges):
                p = ctx.Process(
                    target=_worker_accumulate,
                    args=(fn, srcs, dsts, ws, [rng], handles, lock, wid),
                    daemon=True,
                )
                p.start()
                procs.append(p)
            _join_workers(procs)
            # Fold the shared accumulators into the function's real outputs.
            for name, arr in outputs.items():
                arr += shm[name]
            mask = np.array(shm["__fired__"], dtype=bool, copy=True)
        return VertexSubset(graph.n_vertices, mask=mask)
