"""GEE as a sparse-matrix product: the SciPy C-speed serial reference.

The whole GEE edge pass is one linear operation.  For an edge ``(u, v, w)``
Algorithm 1 performs ``Z[u, Y[v]] += W[v, Y[v]]·w`` and
``Z[v, Y[u]] += W[u, Y[u]]·w``; since ``W``'s only non-zero per row is
``W[v, Y[v]]``, both updates together are exactly::

    Z = (A + Aᵀ) · W

with ``A`` the (directed) adjacency matrix and ``W`` the scaled one-hot
projection (rows of unlabelled vertices are all-zero, so they contribute
nothing — the same convention every other implementation uses).  ``A + Aᵀ``
is the symmetric CSR a sorted plan already holds
(:class:`~repro.core.plan.FusedLayout`), so the product is one matmul.

Computing that product with ``scipy.sparse`` CSR matmul gives a serial
implementation whose inner loop is compiled C — a second "compiled serial"
reference point for Table I, independent of our own NumPy scatter
formulation.  It is exact (same sums, different association order), and its
runtime is what a generic sparse-linear-algebra stack achieves without any
of the paper's structural insight.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from .plan import _embed_on_default_plan, _plan_in_layout
from .projection import projection_from_scales, projection_scales
from .result import EmbeddingResult

__all__ = [
    "gee_sparse",
    "gee_sparse_with_plan",
]


def gee_sparse(
    edges,
    labels: np.ndarray,
    n_classes: Optional[int] = None,
) -> EmbeddingResult:
    """One-Hot Graph Encoder Embedding via ``scipy.sparse`` matmul.

    Parameters are as in :func:`repro.core.gee_python.gee_python`; any
    graph-like input is accepted (a :class:`~repro.graph.facade.Graph`
    reuses its cached sorted plan and its matrix).  Runs
    :func:`gee_sparse_with_plan` on the input's default plan.
    """
    return _embed_on_default_plan(edges, labels, n_classes, gee_sparse_with_plan)


def gee_sparse_with_plan(plan, labels: np.ndarray) -> EmbeddingResult:
    """Sparse-matmul GEE on a compiled :class:`~repro.core.plan.EmbedPlan`.

    The matmul reads ``A + Aᵀ`` as the scipy matrix over the symmetric CSR
    of the graph's sorted plan (a default plan uses its graph's cached
    sorted plan), built once per graph; per call only the projection and
    the matmul run.  (The matmul allocates its own output — scipy offers no
    ``out=`` — so this path does not reuse the plan's output buffer.)
    """
    y = plan.validate_labels(labels)
    k = plan.n_classes

    A_sym = _plan_in_layout(plan, "sorted").scipy_adjacency()

    t0 = time.perf_counter()
    scales = projection_scales(y, k)
    W = projection_from_scales(y, scales, k)
    t1 = time.perf_counter()

    Z = A_sym.dot(W)
    t2 = time.perf_counter()

    return EmbeddingResult(
        embedding=Z,
        projection=W,
        timings={"projection": t1 - t0, "edge_pass": t2 - t1, "total": t2 - t0},
        method="gee-sparse",
        n_workers=1,
    )
