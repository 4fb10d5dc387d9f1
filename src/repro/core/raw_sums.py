"""Streamed raw per-class sums: the one state of a live embedding.

The GEE edge pass is linear in the edges: ``Z = S·diag(1/n_c)``, where
``S[u, c] = Σ w`` runs over the incidences of ``u`` whose partner has
label ``c``.  A signed edge batch therefore moves only the slots
``S[u, Y[v]]`` and ``S[v, Y[u]]`` it scatters into, at most two per edge.
:class:`RawSums` holds ``S``, the live ``Z``, the labels, their class
counts and which vertices an applied edge has read, and moves all of them
in O(Δ).  The estimator's
:meth:`~repro.core.api.GraphEncoderEmbedding.partial_fit` and
:class:`~repro.stream.IncrementalEmbedding` keep their state in one.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..analysis.annotations import hot_path
from ..obs import metrics as obs_metrics
from .gee_vectorized import patch_sums_vectorized
from .validation import UNKNOWN_LABEL, class_counts, inverse_class_counts

__all__ = ["RawSums"]


class RawSums:
    """Raw sums ``S`` and the live ``Z = S·diag(1/n_c)`` of ``K`` classes.

    Attributes
    ----------
    S, Z:
        ``(n, K)`` float64.  ``Z`` is updated in place, so a caller holding
        it sees every later batch; growing the vertex set replaces both.
    labels:
        ``(n,)`` int64 labels (``-1`` = unknown), never modified in place.
    counts:
        ``(K,)`` class sizes of :attr:`labels`.
    read:
        ``(n,)`` bool: vertices whose label an applied edge has read.  Their
        contributions sit in ``S`` under that label, so it may not change
        (the one freeze rule); an unread vertex may be labelled freely.
    """

    def __init__(self, n_classes: int) -> None:
        self.n_classes = int(n_classes)
        self.reset(np.empty(0, dtype=np.int64))

    def reset(self, labels: np.ndarray, Z: Optional[np.ndarray] = None) -> None:
        """Start over at validated ``labels``, from the exact ``Z`` or from zero.

        ``Z`` (for exactly these labels) is adopted, not copied, unless it
        is not C-contiguous (:meth:`apply` writes through its flat view).
        Every vertex then counts as read, since the edges behind it are
        unknown.  Without ``Z`` the sums start at zero and no vertex is read.
        """
        k = self.n_classes
        n = labels.shape[0]
        self.labels = labels
        self.counts = class_counts(labels, k)
        self.read = np.full(n, Z is not None)
        if Z is None:
            self.Z = np.zeros((n, k))
            self.S = np.zeros((n, k))
        else:
            # The old Z goes before the new S is allocated, so S can reuse
            # its memory.  Z·n_c inverts the kernel's 1/n_c scale up to one
            # rounding.
            self.Z = np.ascontiguousarray(Z)
            self.S = self.Z * self.counts

    def set_labels(self, labels: np.ndarray) -> None:
        """Replace the labels with validated ``labels``, which extend them.

        Raises if ``labels`` is shorter than the state or changes the label
        of a read vertex.  Grows the state to the new length, and rescales
        only the columns of ``Z`` whose class count moved.
        """
        old = self.labels
        if labels.shape[0] < old.shape[0]:
            raise ValueError(
                f"labels may only be extended: got {labels.shape[0]} labels "
                f"for {old.shape[0]} vertices"
            )
        frozen = np.flatnonzero(self.read & (labels[: old.shape[0]] != old))
        if frozen.size:
            raise ValueError(
                "labels of vertices an applied edge has read must not change "
                "(their sums hold the old label); offending vertices: "
                f"{frozen[:10].tolist()}"
            )
        self.grow(labels.shape[0])
        counts = class_counts(labels, self.n_classes)
        inv = inverse_class_counts(counts)
        for c in np.flatnonzero(counts != self.counts):
            self.Z[:, c] = self.S[:, c] * inv[c]
        self.labels, self.counts = labels, counts

    def grow(self, n: int) -> None:
        """Append unlabelled, unread vertices up to ``n`` (never shrinks)."""
        extra = n - self.labels.shape[0]
        if extra <= 0:
            return
        pad = np.zeros((extra, self.n_classes))
        unknown = np.full(extra, UNKNOWN_LABEL, dtype=np.int64)
        self.labels = np.concatenate((self.labels, unknown))
        self.read = np.concatenate((self.read, np.zeros(extra, dtype=bool)))
        self.S = np.concatenate((self.S, pad))
        self.Z = np.concatenate((self.Z, pad))

    @hot_path(reason="the O(Δ) step of a live embedding: patch, then rescale the slots it wrote")
    def apply(self, src: np.ndarray, dst: np.ndarray, dw: np.ndarray) -> None:
        """Add the signed edge batch ``(src, dst, Δw)`` and rescale what it wrote.

        Additions pass ``+w``, removals ``-w`` and weight updates
        ``new − old``; endpoints must lie in the state (:meth:`grow` first).
        The patch returns the flat slots ``u·K + c`` it scattered into, and
        only those slots of ``Z`` are rewritten, as ``S[s]·(1/n_c)``; every
        other slot keeps its bits, in a touched row or not.  Both endpoints
        of every edge are marked read.
        """
        if src.size == 0:
            return
        obs_metrics.count("edges_patched", int(src.size))
        k = self.n_classes
        S, Z = self.S.reshape(-1), self.Z.reshape(-1)
        inv = inverse_class_counts(self.counts)
        for slots in patch_sums_vectorized(S, src, dst, dw, self.labels, k):
            Z[slots] = S.take(slots) * inv.take(slots % k)
        self.read[src] = True
        self.read[dst] = True
