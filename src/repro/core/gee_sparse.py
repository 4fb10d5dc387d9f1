"""GEE as a sparse-matrix product: the SciPy C-speed serial reference.

The whole GEE edge pass is one linear operation.  For an edge ``(u, v, w)``
Algorithm 1 performs ``Z[u, Y[v]] += W[v, Y[v]]·w`` and
``Z[v, Y[u]] += W[u, Y[u]]·w``; since ``W``'s only non-zero per row is
``W[v, Y[v]]``, both updates together are exactly::

    Z = (A + Aᵀ) · W

with ``A`` the (directed) adjacency matrix and ``W`` the scaled one-hot
projection (rows of unlabelled vertices are all-zero, so they contribute
nothing — the same convention every other implementation uses).

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

from ..analysis.annotations import hot_path
from ..graph.facade import Graph
from .projection import projection_from_scales, projection_scales
from .result import EmbeddingResult
from .validation import validate_labels

__all__ = [
    "gee_sparse",
    "gee_sparse_with_plan",
    "gee_sparse_chunked",
    "patch_sums_sparse",
]


def _product(A, A_T, W: np.ndarray) -> np.ndarray:
    """``(A + Aᵀ)·W`` without materialising the summed matrix."""
    Z = A.dot(W)
    Z += A_T.dot(W)
    return Z


@hot_path(reason="sparse-native O(Δ) incremental patch kernel")
def patch_sums_sparse(
    S_flat: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    delta_w: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
) -> None:
    """Apply a signed edge delta to flat raw per-class sums, in place.

    The sparse-native O(Δ) patch kernel: the delta is a sparse adjacency
    ``D`` over the touched edges, and the raw-sum update is exactly
    ``S += (D + Dᵀ)·H`` with ``H`` the (unscaled) one-hot label matrix —
    the same linear formulation :func:`gee_sparse` uses for the full pass,
    restricted to the Δ non-zeros.  The product stays sparse end to end; its
    entries are scattered into ``S`` so the update is O(touched slots),
    never O(nK).
    """
    import scipy.sparse as sp

    from .validation import UNKNOWN_LABEL
    from .gee_vectorized import scatter_add

    k = int(n_classes)
    n = S_flat.size // k
    # The product only ever reads H rows of the delta's endpoints, so the
    # one-hot matrix is built over those O(Δ) vertices alone — a full-label
    # construction would make the patch O(n) per call.
    touched = np.unique(np.concatenate((src, dst)))  # repro: ignore[hot-path-alloc] O(Δ) endpoints, not O(E)
    known = touched[labels[touched] != UNKNOWN_LABEL]
    if known.size == 0:
        return
    H = sp.csr_matrix(
        (np.ones(known.size), (known, labels[known])), shape=(n, k)
    )
    D = sp.csr_matrix((delta_w, (src, dst)), shape=(n, n))
    patch = (D.dot(H) + D.T.dot(H)).tocoo()
    scatter_add(S_flat, patch.row * k + patch.col, patch.data)


def gee_sparse(
    edges,
    labels: np.ndarray,
    n_classes: Optional[int] = None,
) -> EmbeddingResult:
    """One-Hot Graph Encoder Embedding via ``scipy.sparse`` matmul.

    Parameters are as in :func:`repro.core.gee_python.gee_python`; any
    graph-like input is accepted (a :class:`~repro.graph.facade.Graph`
    reuses its cached CSR view to build the scipy adjacency).
    """
    graph = Graph.coerce(edges)
    n = graph.n_vertices
    if n == 0:
        raise ValueError("GEE requires at least one vertex")
    y, k = validate_labels(labels, n, n_classes)

    A = graph.csr.to_scipy()
    A_T = A.T.tocsr()

    t0 = time.perf_counter()
    scales = projection_scales(y, k)
    W = projection_from_scales(y, scales, k)
    t1 = time.perf_counter()

    Z = _product(A, A_T, W)
    t2 = time.perf_counter()

    return EmbeddingResult(
        embedding=Z,
        projection=W,
        timings={"projection": t1 - t0, "edge_pass": t2 - t1, "total": t2 - t0},
        method="gee-sparse",
        n_workers=1,
    )


def gee_sparse_chunked(plan, labels: np.ndarray) -> EmbeddingResult:
    """Out-of-core sparse-matmul GEE on a :class:`~repro.core.plan.ChunkedPlan`.

    ``Z = Σ_c (A_c + A_cᵀ)·W`` over per-chunk adjacency slices ``A_c`` —
    matrix multiplication distributes over the sum of the slices, so the
    result equals the one-shot product exactly (up to summation order).
    Each slice is a CSR matrix over at most ``chunk_edges`` non-zeros; the
    only O(n) state is the dense ``W`` and the output, both vertex-side.
    """
    import scipy.sparse as sp

    if getattr(plan, "layout", "none") != "none":
        raise ValueError(
            "the sparse backend cannot execute a sorted-incidence chunked "
            "plan (its blocks hold each edge twice, once per orientation, "
            "which the two-sided A + A^T update would double-count); "
            "re-plan with the default layout, or use a layout-capable "
            "chunked backend (vectorized, parallel)"
        )
    y = plan.validate_labels(labels)
    k = plan.n_classes
    n = plan.n_vertices

    t0 = time.perf_counter()
    scales = projection_scales(y, k)
    W = projection_from_scales(y, scales, k)
    t1 = time.perf_counter()

    Z_flat = plan.zeroed_output()
    Z = Z_flat.reshape(n, k)
    for src, dst, w in plan.source.iter_chunks():
        A_c = sp.csr_matrix((w, (src, dst)), shape=(n, n))
        Z += A_c.dot(W)
        Z += A_c.T.dot(W)
    t2 = time.perf_counter()

    return EmbeddingResult(
        embedding=Z,
        projection=W,
        timings={"projection": t1 - t0, "edge_pass": t2 - t1, "total": t2 - t0},
        method="gee-sparse",
        n_workers=1,
    )


def gee_sparse_with_plan(plan, labels: np.ndarray) -> EmbeddingResult:
    """Sparse-matmul GEE on a compiled :class:`~repro.core.plan.EmbedPlan`.

    The scipy CSR adjacency and its transpose are built once per plan and
    cached; per call only the projection and the matmul run.  (The matmul
    allocates its own output — scipy offers no ``out=`` — so this path
    reuses the plan's adjacency caches but not its output buffer.)
    """
    y = plan.validate_labels(labels)
    k = plan.n_classes

    A = plan.scipy_adjacency()
    A_T = plan.scipy_adjacency_T()

    t0 = time.perf_counter()
    scales = projection_scales(y, k)
    W = projection_from_scales(y, scales, k)
    t1 = time.perf_counter()

    Z = _product(A, A_T, W)
    t2 = time.perf_counter()

    return EmbeddingResult(
        embedding=Z,
        projection=W,
        timings={"projection": t1 - t0, "edge_pass": t2 - t1, "total": t2 - t0},
        method="gee-sparse",
        n_workers=1,
    )
