"""Thread-based dense backend.

This backend reproduces Ligra's scheduling structure most literally: the
vertex set is partitioned into degree-balanced ranges and one Python thread
walks each range's edge lists, using the function's atomic update hook
(``update_atomic`` / an :class:`~repro.ligra.atomics.AtomicArray`) so that
concurrent updates to the same destination are race-free — the situation of
the paper's Figure 1.

Because of CPython's GIL, threads only overlap where NumPy releases the GIL
(large per-vertex blocks); for interpreter-bound scalar updates this backend
demonstrates *correctness* of the concurrent formulation rather than
speedup.  The measured-speedup path is the process backend; the roofline
model in :mod:`repro.eval.machine_model` covers the hardware the paper used.
"""

from __future__ import annotations

import threading
from typing import List

import numpy as np

from ...graph.csr import CSRGraph
from ...parallel.partition import balanced_ranges_from_work
from ...parallel.pool import resolve_worker_count
from ..edge_map import EdgeMapFunction
from ..vertex_subset import VertexSubset
from .base import DenseBackend

__all__ = ["ThreadBackend"]


class ThreadBackend(DenseBackend):
    """Dense edge map over degree-balanced vertex ranges, one thread each."""

    name = "threads"

    def __init__(self, n_workers: int | None = None) -> None:
        self.n_workers = resolve_worker_count(n_workers)

    def dense_edge_map(
        self, graph: CSRGraph, frontier: VertexSubset, fn: EdgeMapFunction
    ) -> VertexSubset:
        n = graph.n_vertices
        out_mask = np.zeros(n, dtype=bool)
        fmask = frontier.mask()
        full = len(frontier) == n
        ranges = balanced_ranges_from_work(np.diff(graph.indptr), self.n_workers)
        indptr, indices, weights = graph.indptr, graph.indices, graph.weights
        errors: List[BaseException] = []

        def work(v_lo: int, v_hi: int) -> None:
            try:
                for u in range(v_lo, v_hi):
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
                        if fn.cond(v) and fn.update_atomic(u, v, float(ws[j])):
                            out_mask[v] = True
            except BaseException as exc:  # pragma: no cover - re-raised below
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(lo, hi), daemon=True)
            for lo, hi in ranges
            if hi > lo
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        return VertexSubset(n, mask=out_mask)
