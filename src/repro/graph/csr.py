"""Compressed sparse row (CSR) graph structure.

Ligra stores graphs as per-vertex adjacency arrays so that ``edgeMapDense``
can hand each vertex's edge list to one worker (paper §III).  This module
provides the equivalent structure: ``indptr`` / ``indices`` / ``weights``
arrays in the usual CSR layout (the out-adjacency), and the ragged row
gather shared by its readers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .edgelist import EdgeList, unit_weights_as_none

__all__ = ["CSRGraph", "owner_sort"]


def owner_sort(owner: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The stable sorting permutation of ``owner``, and the sorted owners.

    Sorts one packed int64 key per incidence, ``owner << b | i`` with ``b``
    the bit length of the incidence count.  The keys are unique, so any
    sort yields the stable order, and an int64 sort runs several times
    faster than the stable argsort: ``key >> b`` is the sorted owners and
    ``key & (2**b - 1)`` the permutation.  Owners too large to pack into 63
    bits take the stable argsort.  ``owner`` must be non-negative.
    """
    m = int(owner.size)
    bits = m.bit_length()
    if m == 0 or int(owner.max()).bit_length() + bits > 63:
        order = np.argsort(owner, kind="stable")
        return order, owner[order]
    key = np.left_shift(owner, bits, dtype=np.int64)
    key |= np.arange(m, dtype=np.int64)
    key.sort()
    sorted_owner = np.empty_like(owner)
    np.right_shift(key, bits, out=sorted_owner, casting="unsafe")
    key &= (1 << bits) - 1
    return key, sorted_owner


def _row_slots(indptr: np.ndarray, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The entry slots of ``rows`` in a CSR with row pointer ``indptr``.

    Returns ``(owners, slots)``, one item per slot: ``slots`` lists
    ``indptr[r]:indptr[r+1]`` for every ``r`` in ``rows``, in order, and
    ``owners`` the ``r`` that owns each slot.  The ragged gather is one
    ``arange`` and two ``repeat``s, with no Python loop.
    """
    starts = indptr[rows]
    degrees = indptr[rows + 1] - starts
    owners = np.repeat(rows, degrees)
    # A row's slots run on from its start, offset by where the row begins
    # in the gather.
    offsets = np.repeat(starts - (np.cumsum(degrees) - degrees), degrees)
    return owners, np.arange(owners.size, dtype=np.int64) + offsets


@dataclass
class CSRGraph:
    """Directed graph in CSR form.

    Attributes
    ----------
    indptr:
        ``(n+1,)`` int64 array; out-edges of vertex ``u`` occupy slots
        ``indptr[u]:indptr[u+1]`` of ``indices`` / ``weights``.
    indices:
        ``(s,)`` int64 array of destination vertices.
    weights:
        ``(s,)`` float64 array of edge weights (unit weights if the source
        edge list was unweighted).
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        self.indptr = np.ascontiguousarray(np.asarray(self.indptr, dtype=np.int64))
        self.indices = np.ascontiguousarray(np.asarray(self.indices, dtype=np.int64))
        self.weights = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        if self.indptr.ndim != 1 or self.indptr.size == 0:
            raise ValueError("indptr must be a 1-D array of length n+1")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr must start at 0 and end at the number of edges")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.weights.size != self.indices.size:
            raise ValueError("weights and indices must have the same length")
        if self.indices.size and self.indices.min() < 0:
            raise ValueError("vertex ids must be non-negative")
        if self.indices.size and self.indices.max() >= self.n_vertices:
            raise ValueError(
                f"n_vertices={self.n_vertices} (from indptr) is smaller than the "
                f"largest index + 1 ({int(self.indices.max()) + 1})"
            )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edgelist(cls, edges: EdgeList) -> "CSRGraph":
        """Build a CSR graph from an :class:`EdgeList` (stable edge order
        within each vertex's adjacency list)."""
        n = edges.n_vertices
        w = edges.effective_weights()
        order, src_sorted = owner_sort(edges.src)
        indices = edges.dst[order]
        weights = w[order]
        counts = np.bincount(src_sorted, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr=indptr, indices=indices, weights=weights)

    @classmethod
    def from_arrays(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        weights: Optional[np.ndarray] = None,
        n_vertices: Optional[int] = None,
    ) -> "CSRGraph":
        """Convenience constructor from raw src/dst/weight arrays."""
        return cls.from_edgelist(EdgeList(src, dst, weights, n_vertices))

    # ------------------------------------------------------------------ #
    # Basic protocol
    # ------------------------------------------------------------------ #
    @property
    def n_vertices(self) -> int:
        """Number of vertices ``n``."""
        return int(self.indptr.size - 1)

    @property
    def n_edges(self) -> int:
        """Number of directed edges ``s``."""
        return int(self.indices.size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRGraph(n={self.n_vertices}, s={self.n_edges})"

    # ------------------------------------------------------------------ #
    # Adjacency access
    # ------------------------------------------------------------------ #
    def out_degree(self, u: int) -> int:
        """Out-degree of vertex ``u``."""
        return int(self.indptr[u + 1] - self.indptr[u])

    def out_degrees(self) -> np.ndarray:
        """Out-degrees of all vertices."""
        return np.diff(self.indptr)

    def neighbors(self, u: int) -> np.ndarray:
        """Destinations of out-edges of ``u`` (a view, do not mutate)."""
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def neighbor_weights(self, u: int) -> np.ndarray:
        """Weights of out-edges of ``u`` (a view, do not mutate)."""
        return self.weights[self.indptr[u] : self.indptr[u + 1]]

    def edge_slice(self, u: int) -> Tuple[int, int]:
        """Half-open slice ``(lo, hi)`` of vertex ``u``'s out-edges."""
        return int(self.indptr[u]), int(self.indptr[u + 1])

    def edge_sources(self) -> np.ndarray:
        """Expand ``indptr`` back to a per-edge source array."""
        return np.repeat(np.arange(self.n_vertices, dtype=np.int64), self.out_degrees())

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def to_edgelist(self) -> EdgeList:
        """Convert back to an :class:`EdgeList` (grouped by source vertex).

        An all-unit weight column becomes no weight array, as in an
        unweighted edge list, so plans compile the unit-weight layout.
        """
        weights = unit_weights_as_none(self.weights)
        return EdgeList(
            src=self.edge_sources(),
            dst=self.indices.copy(),
            weights=None if weights is None else weights.copy(),
            n_vertices=self.n_vertices,
        )

    def to_scipy(self):
        """Return the adjacency matrix as a ``scipy.sparse.csr_matrix``."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.weights, self.indices, self.indptr),
            shape=(self.n_vertices, self.n_vertices),
        )
