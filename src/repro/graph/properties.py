"""Structural graph properties computed directly on edge lists.

These helpers are used by the builders, the dataset registry (to report the
shape of the stand-in graphs) and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .edgelist import EdgeList

__all__ = [
    "degree_statistics",
    "connected_components",
    "n_connected_components",
    "density",
    "is_symmetric",
    "GraphSummary",
    "summarize",
]


def degree_statistics(edges: EdgeList) -> Dict[str, float]:
    """Return min/mean/max/std of the out-degree distribution."""
    deg = edges.out_degrees()
    if deg.size == 0:
        return {"min": 0.0, "mean": 0.0, "max": 0.0, "std": 0.0}
    return {
        "min": float(deg.min()),
        "mean": float(deg.mean()),
        "max": float(deg.max()),
        "std": float(deg.std()),
    }


def connected_components(edges: EdgeList) -> np.ndarray:
    """Weakly connected component label of each vertex.

    Implemented with union-find (path halving + union by size) so it works
    on an edge list without materialising adjacency.  Labels are renumbered
    to ``0..c-1`` in order of first appearance.
    """
    n = edges.n_vertices
    parent = np.arange(n, dtype=np.int64)
    size = np.ones(n, dtype=np.int64)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in zip(edges.src.tolist(), edges.dst.tolist()):
        ru, rv = find(u), find(v)
        if ru == rv:
            continue
        if size[ru] < size[rv]:
            ru, rv = rv, ru
        parent[rv] = ru
        size[ru] += size[rv]

    roots = np.array([find(i) for i in range(n)], dtype=np.int64)
    _, labels = np.unique(roots, return_inverse=True)
    return labels.astype(np.int64)


def n_connected_components(edges: EdgeList) -> int:
    """Number of weakly connected components (isolated vertices count)."""
    if edges.n_vertices == 0:
        return 0
    return int(connected_components(edges).max()) + 1


def density(edges: EdgeList) -> float:
    """Directed edge density ``s / (n * (n - 1))``."""
    n = edges.n_vertices
    if n <= 1:
        return 0.0
    return edges.n_edges / (n * (n - 1))


def is_symmetric(edges: EdgeList) -> bool:
    """Whether every directed edge has a reciprocal edge (ignoring weights)."""
    if edges.n_edges == 0:
        return True
    n = edges.n_vertices
    fwd = np.unique(edges.src * n + edges.dst)
    rev = np.unique(edges.dst * n + edges.src)
    return fwd.size == rev.size and bool(np.array_equal(fwd, rev))


@dataclass(frozen=True)
class GraphSummary:
    """Compact structural description of a graph, used in reports."""

    n_vertices: int
    n_edges: int
    mean_degree: float
    max_degree: int
    n_components: int
    density: float

    def as_dict(self) -> Dict[str, float]:
        """Dictionary form for CSV / markdown emitters."""
        return {
            "n_vertices": self.n_vertices,
            "n_edges": self.n_edges,
            "mean_degree": self.mean_degree,
            "max_degree": self.max_degree,
            "n_components": self.n_components,
            "density": self.density,
        }


def summarize(edges: EdgeList, *, components: bool = True) -> GraphSummary:
    """Build a :class:`GraphSummary` for ``edges``.

    Component counting is O(s α(n)) but still the slowest part for large
    graphs; pass ``components=False`` to skip it (reported as ``-1``).
    """
    stats = degree_statistics(edges)
    ncomp = n_connected_components(edges) if components else -1
    return GraphSummary(
        n_vertices=edges.n_vertices,
        n_edges=edges.n_edges,
        mean_degree=stats["mean"],
        max_degree=int(stats["max"]),
        n_components=ncomp,
        density=density(edges),
    )
