"""Edge-list graph representation.

The edge list is the representation GEE (Algorithm 1 of the paper) consumes
directly: an ``(s, 3)`` array of ``(source, destination, weight)`` triples.
It is deliberately minimal — a thin, validated wrapper around three NumPy
arrays — because the single-pass GEE kernel only ever streams over edges.

The heavier :class:`repro.graph.csr.CSRGraph` structure (used by the
Ligra-like engine, which walks per-vertex adjacency lists) is built from an
:class:`EdgeList` via :meth:`EdgeList.to_csr`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

__all__ = ["EdgeList"]


def unit_weights_as_none(weights: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """``None`` when every weight is 1.0 (or none are given), else ``weights``.

    A graph-like input whose weight column is all ones then attaches no
    weight array, as an unweighted edge list does, so its plans compile the
    unit-weight layout.
    """
    if weights is None or np.all(weights == 1.0):
        return None
    return weights


@dataclass
class EdgeList:
    """A weighted, directed edge list over vertices ``0 .. n_vertices-1``.

    Parameters
    ----------
    src:
        Integer array of edge sources, shape ``(s,)``.
    dst:
        Integer array of edge destinations, shape ``(s,)``.
    weights:
        Optional float array of edge weights, shape ``(s,)``.  ``None``
        means an unweighted graph (all weights treated as ``1.0``), matching
        the paper's "unweighted graphs have unit weights".
    n_vertices:
        Number of vertices.  If omitted it is inferred as
        ``max(src, dst) + 1`` (0 for an empty edge set).

    Notes
    -----
    * The structure is *directed*.  The paper treats an undirected graph as
      two symmetric directed graphs; use
      :func:`repro.graph.builders.symmetrize` for that.
    * Arrays are converted to contiguous ``int64`` / ``float64`` on
      construction so downstream kernels never pay conversion costs inside
      timed regions.
    """

    src: np.ndarray
    dst: np.ndarray
    weights: Optional[np.ndarray] = None
    n_vertices: Optional[int] = None

    def __post_init__(self) -> None:
        self.src = np.ascontiguousarray(np.asarray(self.src, dtype=np.int64).ravel())
        self.dst = np.ascontiguousarray(np.asarray(self.dst, dtype=np.int64).ravel())
        if self.src.shape != self.dst.shape:
            raise ValueError(
                f"src and dst must have the same length, got {self.src.size} and {self.dst.size}"
            )
        if self.weights is not None:
            self.weights = np.ascontiguousarray(
                np.asarray(self.weights, dtype=np.float64).ravel()
            )
            if self.weights.shape != self.src.shape:
                raise ValueError(
                    f"weights length {self.weights.size} does not match edge count {self.src.size}"
                )
        inferred = 0
        negative = False
        if self.src.size:
            # Read unsigned, a negative id is >= 2**63: one max finds both faults.
            top = max(int(self.src.view(np.uint64).max()), int(self.dst.view(np.uint64).max()))
            negative = top >= 2**63
            inferred = int(max(self.src.max(), self.dst.max())) + 1 if negative else top + 1
        if self.n_vertices is None:
            self.n_vertices = inferred
        else:
            self.n_vertices = int(self.n_vertices)
            if self.n_vertices < inferred:
                raise ValueError(
                    f"n_vertices={self.n_vertices} is smaller than the largest "
                    f"endpoint + 1 ({inferred})"
                )
        if negative:
            raise ValueError("vertex ids must be non-negative")

    @classmethod
    def _of_valid_arrays(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        weights: Optional[np.ndarray],
        n_vertices: int,
    ) -> "EdgeList":
        """An edge list over arrays already in normal form, with no scan.

        For arrays cut and joined from validated edge lists (a
        :class:`~repro.stream.dynamic.DynamicGraph` version build): ``src``
        and ``dst`` contiguous ``int64`` of one length with every id in
        ``[0, n_vertices)``, ``weights`` contiguous ``float64`` of that
        length or ``None``.  Nothing is checked; the public constructor
        checks everything.
        """
        edges = cls.__new__(cls)
        edges.src, edges.dst, edges.weights = src, dst, weights
        edges.n_vertices = int(n_vertices)
        return edges

    # ------------------------------------------------------------------ #
    # Basic protocol
    # ------------------------------------------------------------------ #
    @property
    def n_edges(self) -> int:
        """Number of directed edges ``s``."""
        return int(self.src.size)

    @property
    def is_weighted(self) -> bool:
        """Whether an explicit weight array is attached."""
        return self.weights is not None

    def __len__(self) -> int:
        return self.n_edges

    def __iter__(self) -> Iterator[Tuple[int, int, float]]:
        w = self.effective_weights()
        for i in range(self.n_edges):
            yield int(self.src[i]), int(self.dst[i]), float(w[i])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeList):
            return NotImplemented
        return (
            self.n_vertices == other.n_vertices
            and np.array_equal(self.src, other.src)
            and np.array_equal(self.dst, other.dst)
            and np.array_equal(self.effective_weights(), other.effective_weights())
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "weighted" if self.is_weighted else "unweighted"
        return f"EdgeList(n={self.n_vertices}, s={self.n_edges}, {kind})"

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    def effective_weights(self) -> np.ndarray:
        """Return the weight array, materialising unit weights if needed."""
        if self.weights is not None:
            return self.weights
        return np.ones(self.n_edges, dtype=np.float64)

    def as_array(self) -> np.ndarray:
        """Return the paper's ``E ∈ R^{s×3}`` matrix ``[src, dst, weight]``."""
        out = np.empty((self.n_edges, 3), dtype=np.float64)
        out[:, 0] = self.src
        out[:, 1] = self.dst
        out[:, 2] = self.effective_weights()
        return out

    @classmethod
    def from_array(cls, E: np.ndarray, n_vertices: Optional[int] = None) -> "EdgeList":
        """Build an edge list from an ``(s, 2)`` or ``(s, 3)`` array.

        A two-column array, or a third column of all ones, is interpreted
        as an unweighted edge list.
        """
        E = np.asarray(E)
        if E.ndim != 2 or E.shape[1] not in (2, 3):
            raise ValueError(f"expected an (s, 2) or (s, 3) array, got shape {E.shape}")
        weights = E[:, 2].astype(np.float64) if E.shape[1] == 3 else None
        return cls(
            src=E[:, 0].astype(np.int64),
            dst=E[:, 1].astype(np.int64),
            weights=unit_weights_as_none(weights),
            n_vertices=n_vertices,
        )

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def copy(self) -> "EdgeList":
        """Deep copy of the edge list."""
        return EdgeList(
            src=self.src.copy(),
            dst=self.dst.copy(),
            weights=None if self.weights is None else self.weights.copy(),
            n_vertices=self.n_vertices,
        )

    def with_weights(self, weights: np.ndarray) -> "EdgeList":
        """Return a new edge list sharing topology but with new weights."""
        return EdgeList(self.src, self.dst, weights, self.n_vertices)

    def permute_edges(self, order: np.ndarray) -> "EdgeList":
        """Return a new edge list with edges reordered by ``order``.

        Edge order does not change GEE's output (addition is commutative up
        to floating-point rounding); tests use this to check order
        independence.
        """
        order = np.asarray(order, dtype=np.int64)
        if order.shape != (self.n_edges,):
            raise ValueError("order must be a permutation of range(n_edges)")
        return EdgeList(
            self.src[order],
            self.dst[order],
            None if self.weights is None else self.weights[order],
            self.n_vertices,
        )

    def reverse(self) -> "EdgeList":
        """Return the edge list with every edge direction flipped."""
        return EdgeList(
            self.dst.copy(),
            self.src.copy(),
            None if self.weights is None else self.weights.copy(),
            self.n_vertices,
        )

    def to_csr(self):
        """Convert to a :class:`repro.graph.csr.CSRGraph`."""
        from .csr import CSRGraph

        return CSRGraph.from_edgelist(self)

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex."""
        return np.bincount(self.src, minlength=self.n_vertices).astype(np.int64)

    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex."""
        return np.bincount(self.dst, minlength=self.n_vertices).astype(np.int64)

    def has_self_loops(self) -> bool:
        """Whether any edge starts and ends at the same vertex."""
        return bool(np.any(self.src == self.dst))

    def total_weight(self) -> float:
        """Sum of all edge weights."""
        return float(self.effective_weights().sum())
