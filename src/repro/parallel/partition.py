"""Work partitioning strategies.

GEE-Ligra's parallel pass distributes the edge set over workers.  Ligra's
``edgeMapDense`` hands each vertex's adjacency list to one worker, which
implicitly load-balances by vertex; when parallelising directly over a flat
edge list the analogous choices are contiguous blocks or degree-balanced
vertex ranges.  Both are implemented here.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

__all__ = ["block_ranges", "balanced_ranges_from_work"]


def block_ranges(n_items: int, n_parts: int) -> List[Tuple[int, int]]:
    """Split ``range(n_items)`` into ``n_parts`` contiguous, near-equal blocks.

    Parts differ in size by at most one; empty parts are returned as empty
    ranges so the result always has exactly ``n_parts`` entries.
    """
    if n_parts <= 0:
        raise ValueError("n_parts must be positive")
    if n_items < 0:
        raise ValueError("n_items must be non-negative")
    base = n_items // n_parts
    rem = n_items % n_parts
    ranges = []
    start = 0
    for i in range(n_parts):
        size = base + (1 if i < rem else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


def balanced_ranges_from_work(work: np.ndarray, n_parts: int) -> List[Tuple[int, int]]:
    """Split ``len(work)`` rows into ``n_parts`` ranges of near-equal total work.

    ``work[i]`` is the cost of row ``i`` — a vertex's degree for the
    owner-computes executors, ``np.diff(indptr)`` for a CSR walk.  Each
    range ``(lo, hi)`` owns roughly ``sum(work) / n_parts``: the standard
    remedy for skewed social-network degree distributions, where naive
    vertex blocks leave one worker holding all the hubs.  The ranges are
    contiguous and cover every row; with no work at all they are even
    blocks (:func:`block_ranges`).
    """
    if n_parts <= 0:
        raise ValueError("n_parts must be positive")
    n = work.size
    cum = np.concatenate([[0], np.cumsum(work)])
    total = cum[-1]
    if total == 0:
        return block_ranges(n, n_parts)
    targets = np.linspace(0, total, n_parts + 1)
    cuts = np.searchsorted(cum, targets, side="left")
    cuts[0], cuts[-1] = 0, n
    cuts = np.maximum.accumulate(np.clip(cuts, 0, n))
    return [(int(cuts[i]), int(cuts[i + 1])) for i in range(n_parts)]
