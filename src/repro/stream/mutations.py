"""Mutation primitives of the dynamic-graph subsystem.

A :class:`~repro.stream.dynamic.DynamicGraph` turns every committed batch of
staged operations into one immutable :class:`MutationDelta` — the normal
form the rest of the subsystem consumes:

* the *graph layer* applies it to produce the next copy-on-write version;
* the *embedding layer* (:class:`~repro.stream.incremental.IncrementalEmbedding`,
  ``GraphEncoderEmbedding.update``) reads :meth:`MutationDelta.patch_edges`,
  a signed ``(src, dst, Δw)`` triple whose scatter into the raw per-class
  sums is the whole O(Δ) maintenance step;
* the :class:`MutationLog` keeps the recent deltas so late readers can
  catch up from the version they last saw (or learn that history was
  truncated and a full refresh is needed).

Instance matching
-----------------
Removals and weight updates address edge *instances*, not ``(src, dst)``
keys: the edge lists are directed multigraphs (Erdős–Rényi sampling with
replacement, symmetrised unions, ...), so one pair may occur many times.
:func:`match_edge_instances` resolves each requested occurrence to a
*distinct* edge position — requesting ``(u, v)`` once on a graph holding the
edge twice matches exactly one instance (the earliest by edge position), and
requesting it twice matches both.  This is what makes the removal patch
subtract exactly the requested multiplicity instead of every duplicate at
once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

__all__ = [
    "MutationDelta",
    "MutationLog",
    "MissingEdgeError",
    "match_edge_instances",
]


class MissingEdgeError(ValueError):
    """A removal / weight update addressed more instances than the graph holds."""


def _as_vertex_array(values, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(np.asarray(values, dtype=np.int64).ravel())
    if arr.size and arr.min() < 0:
        raise ValueError(f"{name} vertex ids must be non-negative")
    return arr


def match_edge_instances(
    src: np.ndarray,
    dst: np.ndarray,
    req_src: np.ndarray,
    req_dst: np.ndarray,
    n_vertices: int,
) -> np.ndarray:
    """Resolve requested ``(src, dst)`` occurrences to distinct edge positions.

    Returns an array of edge positions, aligned with the request order: the
    ``i``-th requested occurrence maps to position ``out[i]``.  The ``r``-th
    occurrence of a pair in the request matches the ``r``-th instance of that
    pair in the edge arrays (instances ordered by edge position), so each
    requested occurrence consumes exactly one distinct instance — a
    multigraph with a duplicated edge loses one copy per request, never both.

    Raises :class:`MissingEdgeError` when a requested pair does not exist or
    its requested multiplicity exceeds the stored multiplicity, and
    :class:`ValueError` when a requested endpoint lies outside
    ``[0, n_vertices)`` (the stored edges must lie inside it too).

    Cost: one streaming O(E) pass over the edges with O(1) work and 2 bytes
    of scratch per edge, plus O(C log C + R log R) for the ``C`` candidate
    edges that join a requested source to a requested destination and the
    ``R`` requests.
    """
    if req_src.shape != req_dst.shape:
        raise ValueError("request src and dst must have the same length")
    if req_src.size == 0:
        return np.empty(0, dtype=np.int64)
    if req_src.size and (
        max(req_src.max(), req_dst.max()) >= n_vertices
        or min(req_src.min(), req_dst.min()) < 0
    ):
        raise ValueError(
            f"requested endpoints must lie in [0, {n_vertices}); got ids up to "
            f"{int(max(req_src.max(), req_dst.max()))}"
        )
    n = int(n_vertices)
    rkey = req_src * n + req_dst
    # Candidate edges are those whose source and destination were both
    # requested: two n-byte bitmaps gathered in one streaming pass, with no
    # per-edge key or search.  A candidate may still form a pair nobody
    # asked for; such keys sort in among the rest but never fall inside a
    # requested key's [lo, hi) run.
    want_src = np.zeros(n, dtype=bool)
    want_src[req_src] = True
    want_dst = np.zeros(n, dtype=bool)
    want_dst[req_dst] = True
    hit = want_src[src]
    hit &= want_dst[dst]
    candidates = np.flatnonzero(hit)
    del hit
    ckey = src[candidates] * n + dst[candidates]
    order = np.argsort(ckey, kind="stable")  # stable: instances stay position-ordered
    sorted_keys = ckey[order]
    rorder = np.argsort(rkey, kind="stable")
    rsorted = rkey[rorder]
    # Occurrence rank of each request within its run of equal keys.
    run_start = np.searchsorted(rsorted, rsorted, side="left")
    occurrence = np.arange(rsorted.size, dtype=np.int64) - run_start
    lo = np.searchsorted(sorted_keys, rsorted, side="left")
    hi = np.searchsorted(sorted_keys, rsorted, side="right")
    available = hi - lo
    short = occurrence >= available
    if np.any(short):
        bad = int(np.flatnonzero(short)[0])
        pair = (int(rsorted[bad] // n), int(rsorted[bad] % n))
        raise MissingEdgeError(
            f"edge {pair} requested with multiplicity "
            f"{int(np.sum(rsorted == rsorted[bad]))} but the graph holds "
            f"{int(available[bad])} instance(s); removals/updates must not "
            "exceed the stored multiplicity"
        )
    positions = candidates[order[lo + occurrence]]
    out = np.empty(rkey.size, dtype=np.int64)
    out[rorder] = positions
    return out


@dataclass(frozen=True)
class MutationDelta:
    """One committed batch of graph mutations, in normal form.

    ``version`` is the graph version *after* the batch applied.  The removed
    and updated arrays record the exact instances touched (with the weights
    they carried), so the delta is self-contained: consumers never need the
    pre-mutation graph to compute their patch.
    """

    version: int
    n_vertices_before: int
    n_vertices_after: int
    added_src: np.ndarray
    added_dst: np.ndarray
    added_weights: np.ndarray
    removed_src: np.ndarray
    removed_dst: np.ndarray
    removed_weights: np.ndarray
    updated_src: np.ndarray
    updated_dst: np.ndarray
    updated_old_weights: np.ndarray
    updated_new_weights: np.ndarray

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def n_added(self) -> int:
        return int(self.added_src.size)

    @property
    def n_removed(self) -> int:
        return int(self.removed_src.size)

    @property
    def n_updated(self) -> int:
        return int(self.updated_src.size)

    @property
    def n_new_vertices(self) -> int:
        return self.n_vertices_after - self.n_vertices_before

    @property
    def append_only(self) -> bool:
        """Whether the batch only appended edges over the existing vertex set.

        Append-only batches are the fast path everywhere: each cached
        :class:`~repro.core.plan.EmbedPlan` is extended copy-on-write into
        the next version's cache (the old plan stays untouched for its
        snapshot readers) instead of recompiled, and segmented on-disk
        stores gain one new segment instead of a rewrite.
        """
        return (
            self.n_removed == 0 and self.n_updated == 0 and self.n_new_vertices == 0
        )

    @property
    def n_patch_edges(self) -> int:
        """Number of signed edges in :meth:`patch_edges` (the O(Δ) work)."""
        return self.n_added + self.n_removed + self.n_updated

    def patch_edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The batch as one signed edge set ``(src, dst, Δw)``.

        Scattering ``Δw`` with the GEE edge-pass kernel updates the raw
        per-class sums exactly: additions contribute ``+w``, removals ``-w``
        (the weight the removed instance actually carried) and weight
        updates ``new − old``.
        """
        src = np.concatenate((self.added_src, self.removed_src, self.updated_src))
        dst = np.concatenate((self.added_dst, self.removed_dst, self.updated_dst))
        dw = np.concatenate(
            (
                self.added_weights,
                -self.removed_weights,
                self.updated_new_weights - self.updated_old_weights,
            )
        )
        return src, dst, dw

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MutationDelta(v{self.version}: +{self.n_added} edges, "
            f"-{self.n_removed}, ~{self.n_updated}, "
            f"+{self.n_new_vertices} vertices)"
        )


@dataclass
class MutationLog:
    """Bounded history of committed :class:`MutationDelta` batches.

    The log is how late readers catch up: :meth:`since` returns the
    contiguous run of deltas after a version, or ``None`` when the requested
    history has been truncated (the reader must then fall back to a full
    refresh against the current snapshot).  ``max_entries`` bounds the
    memory the log pins; ``None`` keeps everything.
    """

    max_entries: Optional[int] = None
    _entries: List[MutationDelta] = field(default_factory=list, repr=False)

    def append(self, delta: MutationDelta) -> None:
        if self._entries and delta.version != self._entries[-1].version + 1:
            raise ValueError(
                f"non-consecutive delta version {delta.version} appended after "
                f"{self._entries[-1].version}"
            )
        self._entries.append(delta)
        if self.max_entries is not None and len(self._entries) > self.max_entries:
            del self._entries[: len(self._entries) - self.max_entries]

    def since(self, version: int) -> Optional[List[MutationDelta]]:
        """Deltas with ``delta.version > version``, oldest first.

        Returns ``None`` when the log no longer covers that range (entries
        were truncated) — the caller cannot replay and must refresh.
        """
        if not self._entries or version >= self._entries[-1].version:
            return []
        wanted_first = version + 1
        if self._entries[0].version > wanted_first:
            return None
        offset = wanted_first - self._entries[0].version
        return list(self._entries[offset:])

    @property
    def latest_version(self) -> Optional[int]:
        return self._entries[-1].version if self._entries else None

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)


def normalise_weight_array(
    weights, n_edges: int, name: str = "weights"
) -> Optional[np.ndarray]:
    """Coerce an optional weight argument to a float64 array of ``n_edges``."""
    if weights is None:
        return None
    arr = np.ascontiguousarray(np.asarray(weights, dtype=np.float64).ravel())
    if arr.size != n_edges:
        raise ValueError(f"{name} length {arr.size} does not match edge count {n_edges}")
    return arr


def as_endpoint_arrays(src, dst) -> Tuple[np.ndarray, np.ndarray]:
    """Coerce paired endpoint arguments to equal-length int64 arrays."""
    s = _as_vertex_array(src, "src")
    d = _as_vertex_array(dst, "dst")
    if s.shape != d.shape:
        raise ValueError(
            f"src and dst must have the same length, got {s.size} and {d.size}"
        )
    return s, d
