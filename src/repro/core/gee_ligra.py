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

All backends produce the same embedding up to floating-point summation
order; the equivalence tests assert this against the reference loop.  The
parallel GEE that Table I's "ligra-parallel" column times is not an engine
schedule: it is the owner-range kernel of :mod:`repro.core.gee_parallel`.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Optional, Union

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.edgelist import EdgeList
from ..graph.facade import Graph
from ..ligra.atomics import make_accumulator
from ..ligra.edge_map import EdgeMapFunction
from ..ligra.engine import LigraEngine
from .gee_vectorized import accumulate_edges_vectorized
from .plan import _embed_on_default_plan
from .projection import projection_from_scales, projection_scales
from .result import EmbeddingResult
from .validation import UNKNOWN_LABEL

__all__ = ["UpdateEmbedding", "gee_ligra", "gee_ligra_with_plan"]


class UpdateEmbedding(EdgeMapFunction):
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
    # Batch path: a flat slab of edges (vectorized backend)
    # ------------------------------------------------------------------ #
    def update_batch(self, srcs, dsts, weights):
        accumulate_edges_vectorized(
            self.Z.reshape(-1), srcs, dsts, weights, self.labels, self.scales, self.n_classes
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

    Runs :func:`gee_ligra_with_plan` on the input's default plan.

    Parameters
    ----------
    edges:
        The graph as a :class:`~repro.graph.facade.Graph` (its cached plan
        and CSR view are reused), an :class:`EdgeList`, a
        prebuilt :class:`CSRGraph` (adopted as the CSR view), or any other
        graph-like input.
    labels, n_classes:
        As in :func:`repro.core.gee_python.gee_python`.
    backend:
        Engine backend name (``serial`` / ``vectorized`` / ``threads``).
    n_workers:
        Worker count for the ``threads`` backend.
    atomic:
        Use lock-striped atomic adds (True, the paper's default) or plain
        unsafe adds (False, the paper's "atomics off" ablation).  Only
        affects backends that issue concurrent scalar/block updates.
    """
    kernel = partial(
        gee_ligra_with_plan, backend=backend, n_workers=n_workers, atomic=atomic
    )
    return _embed_on_default_plan(edges, labels, n_classes, kernel)


def gee_ligra_with_plan(
    plan,
    labels: np.ndarray,
    *,
    backend: str = "vectorized",
    n_workers: Optional[int] = None,
    atomic: bool = True,
) -> EmbeddingResult:
    """GEE via the Ligra engine on a compiled :class:`~repro.core.plan.EmbedPlan`.

    The graph's CSR view is built once and cached, the output comes from
    the plan's output ring and the dense ``W`` is built lazily — the
    engine's dense traversal is the only O(s) work per call.  The engine
    holds no resource and is built per call.  The result owns its
    embedding.
    """
    y = plan.validate_labels(labels)
    k = plan.n_classes
    engine = LigraEngine(plan.csr, backend=backend, n_workers=n_workers)

    t0 = time.perf_counter()
    # Algorithm 2, lines 3-6: the projection initialisation, as per-vertex
    # scales (the dense W is built only when the result's projection is read).
    scales = projection_scales(y, k)
    t1 = time.perf_counter()

    Z = plan.zeroed_output().reshape(plan.n_vertices, k)
    fn = UpdateEmbedding(Z, y, scales, k, atomic=atomic)
    # Algorithm 2, line 7: EdgeMap over the full frontier.
    engine.edge_map(engine.full_frontier(), fn)
    t2 = time.perf_counter()

    workers = getattr(engine.backend, "n_workers", 1)
    return EmbeddingResult(
        embedding=Z,
        projection_builder=lambda: projection_from_scales(y, scales, k),
        timings={"projection": t1 - t0, "edge_pass": t2 - t1, "total": t2 - t0},
        method=f"gee-ligra[{engine.backend.name}]",
        n_workers=int(workers),
    )
