"""Vertex subsets (frontiers) in sparse and dense form.

Ligra's central data type is the ``vertexSubset``: the set of "active"
vertices whose out-edges the next ``edgeMap`` will traverse.  Ligra keeps
the subset either as a sparse list of ids or as a dense boolean array; this
class accepts either form and caches the other once it is asked for.  Every
schedule of the dense ``edgeMap`` takes a frontier and returns the
destinations whose update fired as another one.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

__all__ = ["VertexSubset"]


class VertexSubset:
    """A subset of the vertices ``0 .. n-1``.

    Construct with either a sparse index array or a dense boolean mask; both
    representations are cached once computed.
    """

    def __init__(
        self,
        n_vertices: int,
        *,
        indices: Optional[np.ndarray] = None,
        mask: Optional[np.ndarray] = None,
    ) -> None:
        if n_vertices < 0:
            raise ValueError("n_vertices must be non-negative")
        self.n_vertices = int(n_vertices)
        self._indices: Optional[np.ndarray] = None
        self._mask: Optional[np.ndarray] = None
        if indices is not None and mask is not None:
            raise ValueError("pass either indices or mask, not both")
        if indices is not None:
            idx = np.unique(np.asarray(indices, dtype=np.int64))
            if idx.size and (idx[0] < 0 or idx[-1] >= n_vertices):
                raise ValueError("vertex ids out of range")
            self._indices = idx
        elif mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (n_vertices,):
                raise ValueError(f"mask must have shape ({n_vertices},)")
            self._mask = mask.copy()
        else:
            self._indices = np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls, n_vertices: int) -> "VertexSubset":
        """The empty frontier."""
        return cls(n_vertices, indices=np.empty(0, dtype=np.int64))

    @classmethod
    def full(cls, n_vertices: int) -> "VertexSubset":
        """The frontier containing every vertex (GEE-Ligra's frontier)."""
        return cls(n_vertices, mask=np.ones(n_vertices, dtype=bool))

    # ------------------------------------------------------------------ #
    # Representations
    # ------------------------------------------------------------------ #
    def indices(self) -> np.ndarray:
        """Sorted sparse index representation."""
        if self._indices is None:
            self._indices = np.flatnonzero(self._mask).astype(np.int64)
        return self._indices

    def mask(self) -> np.ndarray:
        """Dense boolean representation."""
        if self._mask is None:
            m = np.zeros(self.n_vertices, dtype=bool)
            m[self._indices] = True
            self._mask = m
        return self._mask

    # ------------------------------------------------------------------ #
    # Set protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        if self._indices is not None:
            return int(self._indices.size)
        return int(np.count_nonzero(self._mask))

    def __bool__(self) -> bool:
        return len(self) > 0

    def __contains__(self, vertex: int) -> bool:
        if not 0 <= vertex < self.n_vertices:
            return False
        return bool(self.mask()[vertex])

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices().tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VertexSubset):
            return NotImplemented
        return self.n_vertices == other.n_vertices and np.array_equal(
            self.indices(), other.indices()
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VertexSubset({len(self)}/{self.n_vertices})"
