"""Input validation and label conventions for the GEE implementations.

Every implementation (pure Python, vectorized, Ligra, process-parallel)
funnels its inputs through these helpers so that they agree exactly on what
a valid input is and on the label encoding:

* internally, labels are ``int64`` with ``-1`` meaning "unknown" and classes
  numbered ``0..K-1``;
* the paper's convention (``Y ∈ {0..K}`` with ``0`` = unknown, classes
  ``1..K``) is accepted via :func:`labels_from_paper_convention`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..graph.edgelist import EdgeList

__all__ = [
    "UNKNOWN_LABEL",
    "validate_labels",
    "labels_from_paper_convention",
    "labels_to_paper_convention",
    "infer_n_classes",
    "class_counts",
    "inverse_class_counts",
    "validate_edges",
]

#: Sentinel for "class unknown" in the internal convention.
UNKNOWN_LABEL: int = -1


def validate_edges(edges) -> EdgeList:
    """Coerce a graph-like input to an :class:`EdgeList` usable by GEE.

    Accepts everything :meth:`repro.graph.facade.Graph.coerce` accepts
    (``Graph``, ``EdgeList``, ``CSRGraph``, ``(s, 2|3)`` arrays,
    ``scipy.sparse`` matrices, ``(src, dst[, weights])`` tuples) and checks
    the vertex set is non-empty.
    """
    if not isinstance(edges, EdgeList):
        from ..graph.facade import as_edgelist

        try:
            edges = as_edgelist(edges)
        except TypeError as exc:
            raise TypeError(f"expected a graph-like input: {exc}") from None
    if edges.n_vertices == 0:
        raise ValueError("GEE requires at least one vertex")
    return edges


def validate_labels(
    labels: np.ndarray,
    n_vertices: int,
    n_classes: Optional[int] = None,
) -> Tuple[np.ndarray, int]:
    """Validate a label vector and return ``(labels, K)``.

    ``labels`` must have one entry per vertex; entries are either ``-1``
    (unknown) or in ``0..K-1``.  If ``n_classes`` is not given it is
    inferred as ``max(labels) + 1``.
    """
    y = np.asarray(labels)
    if y.ndim != 1 or y.shape[0] != n_vertices:
        raise ValueError(
            f"labels must be a 1-D array of length {n_vertices}, got shape {y.shape}"
        )
    if not np.issubdtype(y.dtype, np.integer):
        if np.any(y != np.round(y)):
            raise ValueError("labels must be integers")
    y = y.astype(np.int64)
    if y.size and y.min() < UNKNOWN_LABEL:
        raise ValueError("labels must be >= -1 (-1 means unknown)")
    k = _resolve_n_classes(y, n_classes)
    if y.size and y.max() >= k:
        raise ValueError(f"label {int(y.max())} out of range for K={k} classes")
    return y, k


def infer_n_classes(labels: np.ndarray) -> int:
    """``max(label) + 1`` over known labels (0 when everything is unknown)."""
    y = np.asarray(labels)
    known = y[y != UNKNOWN_LABEL]
    if known.size == 0:
        return 0
    return int(known.max()) + 1


def _resolve_n_classes(labels: np.ndarray, n_classes: Optional[int]) -> int:
    """``K``: ``n_classes`` if given, else :func:`infer_n_classes`; must be positive."""
    k = infer_n_classes(labels) if n_classes is None else int(n_classes)
    if k <= 0:
        raise ValueError(
            "could not infer a positive number of classes; provide n_classes "
            "or at least one labelled vertex"
        )
    return k


def class_counts(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Number of vertices with each known class label (shape ``(K,)``)."""
    y = np.asarray(labels, dtype=np.int64)
    known = y[y != UNKNOWN_LABEL]
    return np.bincount(known, minlength=n_classes).astype(np.int64)


def inverse_class_counts(counts: np.ndarray) -> np.ndarray:
    """``1 / n_c`` per class, with empty classes mapped to 0 (shape ``(K,)``).

    The single definition of the ``Z = S·diag(1/n_c)`` rescale factor used
    by the raw-sum paths (streaming estimator, delta refinement,
    incremental maintenance, the fused layout kernels) — one place to
    change the empty-class convention, so those paths stay bit-compatible
    with each other.
    """
    counts = np.asarray(counts, dtype=np.float64)
    return np.where(counts > 0, 1.0 / np.maximum(counts, 1.0), 0.0)


def labels_from_paper_convention(y_paper: np.ndarray) -> np.ndarray:
    """Convert the paper's ``{0..K}`` labels (0 = unknown) to internal form."""
    y = np.asarray(y_paper, dtype=np.int64)
    if y.size and y.min() < 0:
        raise ValueError("paper-convention labels must be non-negative")
    return y - 1


def labels_to_paper_convention(labels: np.ndarray) -> np.ndarray:
    """Convert internal labels (``-1`` = unknown) to the paper's ``{0..K}``."""
    y = np.asarray(labels, dtype=np.int64)
    if y.size and y.min() < UNKNOWN_LABEL:
        raise ValueError("internal labels must be >= -1")
    return y + 1
