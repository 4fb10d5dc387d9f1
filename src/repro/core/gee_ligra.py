"""GEE-Ligra: Algorithm 2 of the paper, on the Ligra-like engine.

The embedding update is expressed as an edge-map function (``updateEmb`` in
the paper) and handed to :class:`repro.ligra.engine.LigraEngine` with the
frontier set to the whole vertex set, so the engine's dense traversal visits
every edge exactly once.  The execution backend decides how that traversal
runs:

* ``backend="serial"`` — one vertex edge list at a time, in the calling
  thread (the paper's "GEE-Ligra Serial" schedule).
* ``backend="vectorized"`` — the whole edge set as NumPy slabs on one core.
* ``backend="threads"`` — degree-balanced vertex ranges on Python threads
  with lock-striped atomic adds (the literal writeAdd formulation; GIL-bound,
  kept for semantics and the atomics ablation).
* ``backend="processes"`` — forked workers over shared memory, private
  partials + reduction (the measured parallel configuration).

All backends produce the same embedding up to floating-point summation
order; the equivalence tests assert this against the reference loop.
"""

from __future__ import annotations

import time
from typing import Optional, Union

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.edgelist import EdgeList
from ..graph.facade import Graph
from ..ligra.atomics import make_accumulator
from ..ligra.backends.base import AccumulatingEdgeMapFunction
from ..ligra.engine import LigraEngine
from .gee_vectorized import accumulate_edges_vectorized
from .projection import projection_from_scales, projection_scales
from .result import EmbeddingResult
from .validation import UNKNOWN_LABEL, validate_edges, validate_labels

__all__ = ["UpdateEmbedding", "gee_ligra", "gee_ligra_with_plan"]


class UpdateEmbedding(AccumulatingEdgeMapFunction):
    """The paper's ``updateEmb`` (Algorithm 2, lines 9–12).

    For an edge ``(u, v, w)``::

        writeAdd(Z[u, Y[v]], W[v, Y[v]] * w)
        writeAdd(Z[v, Y[u]], W[u, Y[u]] * w)

    with the convention that an unknown label contributes nothing.  The
    scalar path goes through an atomic accumulator (``writeAdd``); the block
    and batch paths use the shared vectorised kernel so every backend
    computes identical contributions.
    """

    def __init__(
        self,
        Z: np.ndarray,
        labels: np.ndarray,
        scales: np.ndarray,
        n_classes: int,
        *,
        atomic: bool = True,
    ) -> None:
        self.Z = Z
        self.labels = labels
        self.scales = scales
        self.n_classes = int(n_classes)
        self.atomic = bool(atomic)
        self._accumulator = make_accumulator(Z, atomic=atomic)

    # ------------------------------------------------------------------ #
    # Scalar path (serial / threads backends without block hook use)
    # ------------------------------------------------------------------ #
    def update(self, u: int, v: int, w: float) -> bool:
        yv = int(self.labels[v])
        yu = int(self.labels[u])
        fired = False
        if yv != UNKNOWN_LABEL:
            self._accumulator.write_add((u, yv), self.scales[v] * w)
            fired = True
        if yu != UNKNOWN_LABEL:
            self._accumulator.write_add((v, yu), self.scales[u] * w)
            fired = True
        return fired

    update_atomic = update

    # ------------------------------------------------------------------ #
    # Block path: one source vertex's whole edge list (edgeMapDense unit)
    # ------------------------------------------------------------------ #
    def update_block(self, u: int, dsts: np.ndarray, weights: np.ndarray):
        y_dst = self.labels[dsts]
        known_dst = y_dst != UNKNOWN_LABEL
        if np.any(known_dst):
            # Contributions into the source row, grouped by destination class.
            contrib = np.bincount(
                y_dst[known_dst],
                weights=self.scales[dsts[known_dst]] * weights[known_dst],
                minlength=self.n_classes,
            )
            row_idx = np.flatnonzero(contrib)
            if row_idx.size:
                self._accumulator.add_at(
                    (np.full(row_idx.size, u, dtype=np.int64), row_idx),
                    contrib[row_idx],
                )
        yu = int(self.labels[u])
        if yu != UNKNOWN_LABEL:
            # Contribution of the source's class into every destination row.
            self._accumulator.add_at(
                (dsts, np.full(dsts.size, yu, dtype=np.int64)),
                self.scales[u] * weights,
            )
        return np.ones(dsts.size, dtype=bool)

    # ------------------------------------------------------------------ #
    # Accumulating protocol (vectorized / processes backends)
    # ------------------------------------------------------------------ #
    def output_arrays(self):
        return {"Z": self.Z}

    def update_batch_into(self, outputs, srcs, dsts, weights):
        Z = outputs["Z"]
        accumulate_edges_vectorized(
            Z.reshape(-1), srcs, dsts, weights, self.labels, self.scales, self.n_classes
        )
        return None


def gee_ligra(
    edges: Union[EdgeList, CSRGraph, Graph],
    labels: np.ndarray,
    n_classes: Optional[int] = None,
    *,
    backend: str = "vectorized",
    n_workers: Optional[int] = None,
    atomic: bool = True,
) -> EmbeddingResult:
    """One-Hot Graph Encoder Embedding via the Ligra-like engine.

    Parameters
    ----------
    edges:
        The graph as a :class:`~repro.graph.facade.Graph` (its cached CSR
        view is reused), an :class:`EdgeList`, a prebuilt :class:`CSRGraph`,
        or any other graph-like input (building CSR is graph loading, not
        embedding, so it is excluded from the reported timings either way).
    labels, n_classes:
        As in :func:`repro.core.gee_python.gee_python`.
    backend:
        Engine backend name (``serial`` / ``vectorized`` / ``threads`` /
        ``processes``).
    n_workers:
        Worker count for the parallel backends.
    atomic:
        Use lock-striped atomic adds (True, the paper's default) or plain
        unsafe adds (False, the paper's "atomics off" ablation).  Only
        affects backends that issue concurrent scalar/block updates.
    """
    if isinstance(edges, Graph):
        csr = edges.csr
    elif isinstance(edges, CSRGraph):
        csr = edges
    else:
        edges = validate_edges(edges)
        csr = edges.to_csr()
    n = csr.n_vertices
    y, k = validate_labels(labels, n, n_classes)

    engine = LigraEngine(csr, backend=backend, n_workers=n_workers)

    t0 = time.perf_counter()
    # Algorithm 2, lines 3-6: the projection initialisation.  The compact
    # per-vertex scales are built first; the dense W follows with one
    # vectorised scatter (the class-parallel loop of the paper is available
    # as build_projection_parallel and benchmarked in the init ablation).
    scales = projection_scales(y, k)
    W = projection_from_scales(y, scales, k)
    t1 = time.perf_counter()

    Z = np.zeros((n, k), dtype=np.float64)
    fn = UpdateEmbedding(Z, y, scales, k, atomic=atomic)
    # Algorithm 2, line 7: EdgeMap over the full frontier.
    engine.edge_map(engine.full_frontier(), fn)
    t2 = time.perf_counter()
    engine.close()

    workers = getattr(engine.backend, "n_workers", 1)
    return EmbeddingResult(
        embedding=Z,
        projection=W,
        timings={"projection": t1 - t0, "edge_pass": t2 - t1, "total": t2 - t0},
        method=f"gee-ligra[{engine.backend.name}]",
        n_workers=int(workers),
    )


def gee_ligra_with_plan(
    plan,
    labels: np.ndarray,
    *,
    backend: str = "vectorized",
    n_workers: Optional[int] = None,
    atomic: bool = True,
) -> EmbeddingResult:
    """GEE via the Ligra engine on a compiled :class:`~repro.core.plan.EmbedPlan`.

    The plan's CSR view was forced at compilation, the output comes from
    the plan's output ring and the dense ``W`` is built lazily — the
    engine's dense traversal is the only O(s) work per call.  The result
    owns its embedding.
    """
    y = plan.validate_labels(labels)
    k = plan.n_classes

    # Serial/vectorized engines take no worker count, so they are cached on
    # the plan and reused across calls; the thread/process schedules start
    # their workers on every call anyway and are built per call with the
    # caller's worker count.
    cacheable = backend in ("serial", "vectorized")
    engine = plan._ligra_engines.get(backend) if cacheable else None
    if engine is None:
        engine = LigraEngine(plan.csr, backend=backend, n_workers=n_workers)
        if cacheable:
            plan._ligra_engines[backend] = engine

    t0 = time.perf_counter()
    scales = projection_scales(y, k)
    t1 = time.perf_counter()

    Z = plan.zeroed_output().reshape(plan.n_vertices, k)
    fn = UpdateEmbedding(Z, y, scales, k, atomic=atomic)
    engine.edge_map(engine.full_frontier(), fn)
    t2 = time.perf_counter()

    if not cacheable:
        engine.close()

    workers = getattr(engine.backend, "n_workers", 1)
    return EmbeddingResult(
        embedding=Z,
        projection_builder=lambda: projection_from_scales(y, scales, k),
        timings={"projection": t1 - t0, "edge_pass": t2 - t1, "total": t2 - t0},
        method=f"gee-ligra[{engine.backend.name}]",
        n_workers=int(workers),
    )
