"""Append-only segmented edge store: out-of-core persistence for dynamic graphs.

The chunked store of :mod:`repro.graph.io` is immutable — ideal for a
frozen graph, wrong for one that grows every few seconds.  The segmented
store keeps the immutability *per segment*: a directory of chunked stores
(``seg-00000/``, ``seg-00001/``, ...) whose concatenation is the edge set.
An append-only :meth:`~repro.stream.dynamic.DynamicGraph.commit` then costs
one new segment of Δ edges (the existing segments' bytes are never
rewritten), while structural mutations (removals, weight updates) fall back
to a rewrite into one fresh segment.  Segment names are never reused.

:class:`SegmentedEdgeSource` exposes the whole store through the standard
:class:`~repro.graph.io.ChunkedEdgeSource` contract — every chunk-capable
backend, :class:`~repro.core.plan.ChunkedPlan` and ``save_chunked`` consume
it unchanged — with each segment's columns memory-mapped read-only, so a
refresh over a larger-than-RAM mutated graph streams from disk exactly like
the static out-of-core path does.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from ..graph.edgelist import EdgeList
from ..graph.io import ChunkedEdgeSource, PathLike, save_chunked

__all__ = ["SegmentedEdgeStore", "SegmentedEdgeSource"]

_META_FILENAME = "meta.json"
_STORE_FORMAT = "repro-edges-segmented-v1"


class SegmentedEdgeStore:
    """A directory of immutable edge segments with an append-only fast path."""

    def __init__(
        self,
        path: Path,
        n_vertices: int,
        weighted: bool,
        segments: List[str],
    ) -> None:
        self.path = Path(path)
        self.n_vertices = int(n_vertices)
        self.weighted = bool(weighted)
        self._segments = list(segments)
        #: Index of the next segment written.  Names are never reused, so a
        #: segment name always denotes one set of edges: whatever reopens a
        #: segment by name after a rewrite fails instead of reading another
        #: version's edges.
        self._next_segment = len(self._segments)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def create(cls, path: PathLike, edges: EdgeList) -> "SegmentedEdgeStore":
        """Create a store at ``path`` holding ``edges`` as its first segment."""
        path = Path(path)
        if (path / _META_FILENAME).exists():
            raise FileExistsError(f"{path} already holds a segmented edge store")
        path.mkdir(parents=True, exist_ok=True)
        store = cls(path, edges.n_vertices, edges.is_weighted, [])
        store._write_segment(edges)
        store._write_meta()
        return store

    @classmethod
    def open(cls, path: PathLike) -> "SegmentedEdgeStore":
        """Open an existing segmented store."""
        path = Path(path)
        meta_path = path / _META_FILENAME
        if not meta_path.is_file():
            raise FileNotFoundError(
                f"{path} is not a segmented edge store (missing {_META_FILENAME})"
            )
        with meta_path.open("r", encoding="utf-8") as fh:
            meta = json.load(fh)
        if meta.get("format") != _STORE_FORMAT:
            raise ValueError(
                f"{path}: unsupported store format {meta.get('format')!r} "
                f"(expected {_STORE_FORMAT!r})"
            )
        store = cls(path, meta["n_vertices"], meta["weighted"], meta["segments"])
        # A store written before the index was kept starts at its count.
        store._next_segment = meta.get("next_segment", store.n_segments)
        return store

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def n_segments(self) -> int:
        return len(self._segments)

    @property
    def n_edges(self) -> int:
        return sum(np.load(self.path / seg / "src.npy", mmap_mode="r").size
                   for seg in self._segments)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SegmentedEdgeStore(path={str(self.path)!r}, n={self.n_vertices}, "
            f"segments={self.n_segments}, "
            f"{'weighted' if self.weighted else 'unweighted'})"
        )

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def append(self, edges: EdgeList) -> None:
        """Append one immutable segment of new edges (the fast path).

        ``edges.n_vertices`` may exceed the store's current count (vertex
        growth); the weightedness must match — a weighted batch landing on
        an unweighted store needs :meth:`rewrite` (the existing segments
        would otherwise disagree on the weight column).
        """
        if edges.is_weighted != self.weighted:
            raise ValueError(
                "segment weightedness must match the store "
                f"(store {'weighted' if self.weighted else 'unweighted'}, "
                f"segment {'weighted' if edges.is_weighted else 'unweighted'}); "
                "use rewrite() to change the store's weight column"
            )
        self.n_vertices = max(self.n_vertices, int(edges.n_vertices))
        self._write_segment(edges)
        self._write_meta()

    def rewrite(self, edges: EdgeList) -> None:
        """Replace the whole store with one fresh segment (structural commits)."""
        for seg in self._segments:
            shutil.rmtree(self.path / seg, ignore_errors=True)
        self._segments = []
        self.n_vertices = int(edges.n_vertices)
        self.weighted = edges.is_weighted
        self._write_segment(edges)
        self._write_meta()

    def _write_segment(self, edges: EdgeList) -> None:
        name = f"seg-{self._next_segment:05d}"
        save_chunked(edges, self.path / name)
        self._segments.append(name)
        self._next_segment += 1

    def _write_meta(self) -> None:
        meta = {
            "format": _STORE_FORMAT,
            "n_vertices": int(self.n_vertices),
            "weighted": bool(self.weighted),
            "segments": list(self._segments),
            "next_segment": self._next_segment,
        }
        with (self.path / _META_FILENAME).open("w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2)
            fh.write("\n")

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def source(
        self,
        *,
        chunk_edges: Optional[int] = None,
        memory_budget_bytes: Optional[int] = None,
    ) -> "SegmentedEdgeSource":
        """Memory-map every segment as one bounded-memory edge stream."""
        parts = []
        for seg in self._segments:
            seg_path = self.path / seg
            src = np.load(seg_path / "src.npy", mmap_mode="r")
            dst = np.load(seg_path / "dst.npy", mmap_mode="r")
            w = (
                np.load(seg_path / "weights.npy", mmap_mode="r")
                if self.weighted
                else None
            )
            parts.append((src, dst, w))
        return SegmentedEdgeSource(
            parts,
            self.n_vertices,
            weighted=self.weighted,
            chunk_edges=chunk_edges,
            memory_budget_bytes=memory_budget_bytes,
            path=self.path,
        )


class SegmentedEdgeSource(ChunkedEdgeSource):
    """A :class:`ChunkedEdgeSource` over the virtual concatenation of segments.

    Chunks are addressed in global edge coordinates; a chunk spanning a
    segment boundary is assembled from the pieces (an O(chunk) copy).  The
    backing columns stay memory-mapped per segment; nothing is ever
    materialised whole.
    """

    def __init__(
        self,
        parts: List[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]],
        n_vertices: int,
        *,
        weighted: bool,
        chunk_edges: Optional[int] = None,
        memory_budget_bytes: Optional[int] = None,
        path: Optional[Path] = None,
    ) -> None:
        # Deliberately skip ChunkedEdgeSource.__init__: there is no single
        # (src, dst, w) triple — the columns live per segment.
        self._parts = parts
        self._weighted = bool(weighted)
        self._sizes = np.array([p[0].size for p in parts], dtype=np.int64)
        self._offsets = np.concatenate(([0], np.cumsum(self._sizes)))
        self.n_vertices = int(n_vertices)
        if self.n_vertices <= 0:
            raise ValueError("SegmentedEdgeSource requires at least one vertex")
        self.path = path
        self.memory_budget_bytes = (
            None if memory_budget_bytes is None else int(memory_budget_bytes)
        )
        self.chunk_edges = self._resolve_chunk_edges(
            self.memory_budget_bytes, chunk_edges
        )

    # ------------------------------------------------------------------ #
    # Basic protocol overrides
    # ------------------------------------------------------------------ #
    @property
    def n_edges(self) -> int:
        return int(self._offsets[-1])

    @property
    def is_weighted(self) -> bool:
        return self._weighted

    def reblocked(
        self,
        *,
        memory_budget_bytes: Optional[int] = None,
        chunk_edges: Optional[int] = None,
    ) -> "SegmentedEdgeSource":
        return SegmentedEdgeSource(
            self._parts,
            self.n_vertices,
            weighted=self._weighted,
            memory_budget_bytes=memory_budget_bytes,
            chunk_edges=chunk_edges,
            path=self.path,
        )

    # ------------------------------------------------------------------ #
    # Iteration
    # ------------------------------------------------------------------ #
    def _gather(self, lo: int, hi: int, column: int) -> np.ndarray:
        """Assemble the global ``[lo, hi)`` slice of one column."""
        dtype = np.float64 if column == 2 else np.int64
        first = int(np.searchsorted(self._offsets, lo, side="right") - 1)
        pieces = []
        pos = lo
        for i in range(first, len(self._parts)):
            if pos >= hi:
                break
            seg_lo = pos - int(self._offsets[i])
            seg_hi = min(hi, int(self._offsets[i + 1])) - int(self._offsets[i])
            arr = self._parts[i][column]
            if arr is None:  # unweighted segment
                pieces.append(np.ones(seg_hi - seg_lo, dtype=np.float64))
            else:
                pieces.append(np.asarray(arr[seg_lo:seg_hi], dtype=dtype))
            pos = int(self._offsets[i]) + seg_hi
        if not pieces:
            return np.empty(0, dtype=dtype)
        if len(pieces) == 1:
            return pieces[0]
        return np.concatenate(pieces)

    def iter_chunks(self):
        n = self.n_vertices
        for lo, hi in self.chunk_bounds():
            src = self._gather(lo, hi, 0)
            dst = self._gather(lo, hi, 1)
            if src.size and (
                min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n
            ):
                raise ValueError(
                    f"edge chunk [{lo}:{hi}) holds endpoint ids outside "
                    f"[0, {n}); the store's meta.json n_vertices is wrong "
                    "or the edge data is corrupt"
                )
            # An unweighted store yields None; a weighted one gathers ones
            # for its unweighted segments.
            yield src, dst, self._gather(lo, hi, 2) if self._weighted else None

    # ------------------------------------------------------------------ #
    # Materialisation
    # ------------------------------------------------------------------ #
    def to_edgelist(self) -> EdgeList:
        s = self.n_edges
        return EdgeList(
            self._gather(0, s, 0).copy(),
            self._gather(0, s, 1).copy(),
            self._gather(0, s, 2).copy() if self._weighted else None,
            self.n_vertices,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SegmentedEdgeSource(n={self.n_vertices}, s={self.n_edges}, "
            f"segments={len(self._parts)}, chunk_edges={self.chunk_edges})"
        )
