"""Reference GEE: Algorithm 1 of the paper, as a pure-Python edge loop.

This is the faithful re-implementation of the original interpreted
implementation the paper benchmarks as "GEE-Python": a ``for`` loop over
the edge list performing two scalar updates per edge.  It is intentionally
*not* optimised — it is the baseline every other implementation is compared
against (Table I column 1) and the oracle the equivalence tests trust.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ..graph.edgelist import EdgeList
from .projection import build_projection, projection_from_scales, projection_scales
from .result import EmbeddingResult
from .validation import UNKNOWN_LABEL, validate_edges, validate_labels

__all__ = ["gee_python", "gee_python_with_plan"]


def gee_python(
    edges: EdgeList,
    labels: np.ndarray,
    n_classes: Optional[int] = None,
) -> EmbeddingResult:
    """One-Hot Graph Encoder Embedding, reference implementation.

    Parameters
    ----------
    edges:
        Directed, optionally weighted edge list (``E ∈ R^{s×3}``).  For an
        undirected graph pass both edge directions (see
        :func:`repro.graph.builders.symmetrize`).
    labels:
        Per-vertex class labels; ``-1`` marks an unknown label (the paper's
        ``Y = 0``).  At least one vertex must be labelled unless
        ``n_classes`` is given.
    n_classes:
        Number of classes ``K``; inferred from the labels when omitted.

    Returns
    -------
    EmbeddingResult
        with ``Z ∈ R^{n×K}``, ``W ∈ R^{n×K}`` and phase timings.
    """
    edges = validate_edges(edges)
    y, k = validate_labels(labels, edges.n_vertices, n_classes)
    n = edges.n_vertices

    t0 = time.perf_counter()
    W = build_projection(y, k)
    t1 = time.perf_counter()

    Z = np.zeros((n, k), dtype=np.float64)
    src = edges.src
    dst = edges.dst
    weights = edges.effective_weights()
    # Algorithm 1, lines 7-12: single pass over the edges.
    for i in range(edges.n_edges):
        u = int(src[i])
        v = int(dst[i])
        w = float(weights[i])
        yv = int(y[v])
        yu = int(y[u])
        if yv != UNKNOWN_LABEL:
            Z[u, yv] += W[v, yv] * w
        if yu != UNKNOWN_LABEL:
            Z[v, yu] += W[u, yu] * w
    t2 = time.perf_counter()

    return EmbeddingResult(
        embedding=Z,
        projection=W,
        timings={"projection": t1 - t0, "edge_pass": t2 - t1, "total": t2 - t0},
        method="gee-python",
        n_workers=1,
    )


def gee_python_with_plan(plan, labels: np.ndarray) -> EmbeddingResult:
    """Reference loop on a compiled :class:`~repro.core.plan.EmbedPlan`.

    Skips edge validation and the output allocation (both done at plan
    compilation) and reads the per-vertex scales instead of the dense ``W``
    — the per-edge loop itself is unchanged, it *is* the baseline.  The
    output comes from the plan's output ring; the result owns it.
    """
    y = plan.validate_labels(labels)
    k = plan.n_classes

    t0 = time.perf_counter()
    scales = projection_scales(y, k)
    t1 = time.perf_counter()

    Z = plan.zeroed_output().reshape(plan.n_vertices, k)
    src, dst, weights = plan.src, plan.dst, plan.weights
    for i in range(plan.n_edges):
        u = int(src[i])
        v = int(dst[i])
        w = float(weights[i])
        yv = int(y[v])
        yu = int(y[u])
        if yv != UNKNOWN_LABEL:
            Z[u, yv] += scales[v] * w
        if yu != UNKNOWN_LABEL:
            Z[v, yu] += scales[u] * w
    t2 = time.perf_counter()

    return EmbeddingResult(
        embedding=Z,
        projection_builder=lambda: projection_from_scales(y, scales, k),
        timings={"projection": t1 - t0, "edge_pass": t2 - t1, "total": t2 - t0},
        method="gee-python",
        n_workers=1,
    )
