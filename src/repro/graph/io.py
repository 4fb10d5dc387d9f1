"""Graph input/output.

Three interchange formats are supported:

* SNAP-style whitespace-separated text edge lists (``# comment`` lines are
  skipped), the format of the repository the paper draws its graphs from.
* A compact ``.npz`` binary format for round-tripping generated graphs,
  which is what the benchmark harness caches its stand-in datasets in.
* A chunk-friendly on-disk store (a directory of plain ``.npy`` column
  files plus ``meta.json``) that :class:`ChunkedEdgeSource` memory-maps, so
  edge lists larger than RAM can feed the out-of-core embedding path
  without ever being materialised (see :func:`save_chunked`).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from .edgelist import EdgeList

__all__ = [
    "read_snap_edgelist",
    "write_snap_edgelist",
    "save_npz",
    "load_npz",
    "save_chunked",
    "ChunkedEdgeSource",
    "CHUNK_BYTES_PER_EDGE",
]

PathLike = Union[str, os.PathLike]


def read_snap_edgelist(
    path: PathLike,
    *,
    weighted: bool = False,
    comments: str = "#",
    n_vertices: Optional[int] = None,
) -> EdgeList:
    """Read a SNAP-style text edge list.

    Each non-comment line holds ``src dst`` or ``src dst weight`` separated
    by whitespace.  Lines starting with ``comments`` are ignored.
    """
    path = Path(path)
    srcs, dsts, weights = [], [], []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith(comments):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"{path}:{lineno}: expected at least two columns, got {line!r}")
            srcs.append(int(parts[0]))
            dsts.append(int(parts[1]))
            if weighted:
                if len(parts) < 3:
                    raise ValueError(f"{path}:{lineno}: weighted=True but no weight column")
                weights.append(float(parts[2]))
    w = np.asarray(weights, dtype=np.float64) if weighted else None
    return EdgeList(
        np.asarray(srcs, dtype=np.int64),
        np.asarray(dsts, dtype=np.int64),
        w,
        n_vertices,
    )


def write_snap_edgelist(edges: EdgeList, path: PathLike, *, header: bool = True) -> None:
    """Write an edge list in SNAP text format.

    Weights are written as a third column only when the edge list is
    weighted, so an unweighted graph round-trips byte-compatibly with SNAP
    downloads.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# Nodes: {edges.n_vertices} Edges: {edges.n_edges}\n")
            fh.write("# FromNodeId\tToNodeId" + ("\tWeight" if edges.is_weighted else "") + "\n")
        if edges.is_weighted:
            for u, v, w in zip(edges.src, edges.dst, edges.weights):
                fh.write(f"{u}\t{v}\t{w:.10g}\n")
        else:
            for u, v in zip(edges.src, edges.dst):
                fh.write(f"{u}\t{v}\n")


def save_npz(edges: EdgeList, path: PathLike) -> None:
    """Save an edge list to a compressed ``.npz`` file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "src": edges.src,
        "dst": edges.dst,
        "n_vertices": np.asarray([edges.n_vertices], dtype=np.int64),
    }
    if edges.weights is not None:
        payload["weights"] = edges.weights
    np.savez_compressed(path, **payload)


def load_npz(path: PathLike) -> EdgeList:
    """Load an edge list previously written by :func:`save_npz`."""
    with np.load(Path(path)) as data:
        weights = data["weights"] if "weights" in data.files else None
        return EdgeList(
            data["src"],
            data["dst"],
            weights,
            int(data["n_vertices"][0]),
        )


# --------------------------------------------------------------------------- #
# Out-of-core chunked edge store
# --------------------------------------------------------------------------- #

#: Conservative per-edge working-set estimate for one chunked edge pass, in
#: bytes: the chunk triple itself (src + dst + weights, 24 B) and one
#: half's temporaries at a time (the gathered labels, the keep index, the
#: kept owners, labels and weights, and the flat index: at most ~34 B),
#: rounded up to absorb allocator slack.  ``memory_budget_bytes`` divided by
#: this is the largest chunk the budget admits.
CHUNK_BYTES_PER_EDGE = 128

_META_FILENAME = "meta.json"
_STORE_FORMAT = "repro-edges-v1"


def save_chunked(edges, path: PathLike, *, chunk_edges: int = 1 << 20) -> Path:
    """Write an edge list to the memory-mappable chunked store format.

    The store is a directory holding one plain ``.npy`` file per column
    (``src.npy``, ``dst.npy`` and, for weighted graphs, ``weights.npy``)
    plus a ``meta.json`` with the vertex/edge counts.  Plain ``.npy`` is
    what ``np.load(..., mmap_mode="r")`` maps without any decompression, so
    readers touch only the pages of the chunks they stream.

    ``edges`` may be an :class:`EdgeList` or another
    :class:`ChunkedEdgeSource` — the latter is copied chunk-by-chunk
    (``chunk_edges`` rows at a time), so converting a larger-than-RAM store
    never materialises it.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    if isinstance(edges, EdgeList):
        edges = ChunkedEdgeSource.from_edgelist(edges, chunk_edges=chunk_edges)
    elif isinstance(edges, ChunkedEdgeSource):
        # Copy at the *requested* granularity, not the source's own.
        edges = edges.reblocked(chunk_edges=chunk_edges)
    else:
        raise TypeError(
            f"save_chunked expects an EdgeList or ChunkedEdgeSource, got {type(edges)!r}"
        )
    s = edges.n_edges
    columns = [("src.npy", np.int64), ("dst.npy", np.int64)]
    if edges.is_weighted:
        columns.append(("weights.npy", np.float64))
    mmaps = [
        np.lib.format.open_memmap(path / name, mode="w+", dtype=dtype, shape=(s,))
        for name, dtype in columns
    ]
    lo = 0
    for src, dst, w in edges.iter_chunks():
        hi = lo + src.size
        mmaps[0][lo:hi] = src
        mmaps[1][lo:hi] = dst
        if edges.is_weighted:
            mmaps[2][lo:hi] = w
        lo = hi
    for mm in mmaps:
        mm.flush()
        del mm
    meta = {
        "format": _STORE_FORMAT,
        "n_vertices": int(edges.n_vertices),
        "n_edges": int(s),
        "weighted": bool(edges.is_weighted),
    }
    with (path / _META_FILENAME).open("w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
    return path


class ChunkedEdgeSource:
    """A bounded-memory, restartable stream of ``(src, dst, w)`` edge blocks.

    The source abstracts *where the edges live* — a memory-mapped on-disk
    store (:meth:`open`, nothing resident beyond the pages of the current
    chunk) or in-memory arrays (:meth:`from_edgelist`) — behind one
    iteration contract: :meth:`iter_chunks` yields consecutive blocks of at
    most :attr:`chunk_edges` edges, each a ``(src, dst, weights)`` triple of
    ``int64``/``int64``/``float64`` arrays (``weights`` is ``None`` for an
    unweighted source).  The chunked edge pass
    (:func:`~repro.core.gee_vectorized.gee_vectorized_chunked`) adds each
    block's known incidences into one output, so it computes the sums of
    the one-shot pass (exactly so on unit weights).

    The chunk size comes from exactly one of two knobs:

    * ``memory_budget_bytes`` — a cap on the per-chunk working set of the
      embedding kernels; the chunk size is the budget divided by the
      conservative :data:`CHUNK_BYTES_PER_EDGE` estimate (at least 1);
    * ``chunk_edges`` — the block length, directly.

    Neither given defaults to a 64 MiB budget.
    """

    def __init__(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        weights: Optional[np.ndarray],
        n_vertices: int,
        *,
        memory_budget_bytes: Optional[int] = None,
        chunk_edges: Optional[int] = None,
        path: Optional[Path] = None,
    ) -> None:
        if src.ndim != 1 or dst.ndim != 1 or src.shape != dst.shape:
            raise ValueError("src and dst must be 1-D arrays of equal length")
        if weights is not None and weights.shape != src.shape:
            raise ValueError(
                f"weights length {weights.size} does not match edge count {src.size}"
            )
        self._src = src
        self._dst = dst
        self._weights = weights
        self.n_vertices = int(n_vertices)
        if self.n_vertices <= 0:
            raise ValueError("ChunkedEdgeSource requires at least one vertex")
        #: Path of the backing on-disk store (None for in-memory sources).
        self.path = path
        self.memory_budget_bytes = (
            None if memory_budget_bytes is None else int(memory_budget_bytes)
        )
        self.chunk_edges = self._resolve_chunk_edges(
            self.memory_budget_bytes, chunk_edges
        )

    @staticmethod
    def _resolve_chunk_edges(
        memory_budget_bytes: Optional[int], chunk_edges: Optional[int]
    ) -> int:
        if memory_budget_bytes is not None and chunk_edges is not None:
            raise ValueError(
                "pass either memory_budget_bytes or chunk_edges, not both"
            )
        if chunk_edges is not None:
            if chunk_edges <= 0:
                raise ValueError("chunk_edges must be positive")
            return int(chunk_edges)
        budget = 64 << 20 if memory_budget_bytes is None else memory_budget_bytes
        if budget <= 0:
            raise ValueError("memory_budget_bytes must be positive")
        return max(1, budget // CHUNK_BYTES_PER_EDGE)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def open(
        cls,
        path: PathLike,
        *,
        memory_budget_bytes: Optional[int] = None,
        chunk_edges: Optional[int] = None,
    ) -> "ChunkedEdgeSource":
        """Memory-map a store written by :func:`save_chunked`.

        The column files are mapped read-only (``np.load`` with
        ``mmap_mode="r"``); no edge data is read until chunks are iterated,
        and the OS page cache — not this process — owns residency.
        """
        path = Path(path)
        meta_path = path / _META_FILENAME
        if not meta_path.is_file():
            raise FileNotFoundError(
                f"{path} is not a chunked edge store (missing {_META_FILENAME})"
            )
        with meta_path.open("r", encoding="utf-8") as fh:
            meta = json.load(fh)
        if meta.get("format") != _STORE_FORMAT:
            raise ValueError(
                f"{path}: unsupported store format {meta.get('format')!r} "
                f"(expected {_STORE_FORMAT!r})"
            )
        src = np.load(path / "src.npy", mmap_mode="r")
        dst = np.load(path / "dst.npy", mmap_mode="r")
        weights = (
            np.load(path / "weights.npy", mmap_mode="r") if meta["weighted"] else None
        )
        if src.size != meta["n_edges"]:
            raise ValueError(
                f"{path}: src.npy holds {src.size} edges but meta.json says "
                f"{meta['n_edges']}"
            )
        return cls(
            src,
            dst,
            weights,
            meta["n_vertices"],
            memory_budget_bytes=memory_budget_bytes,
            chunk_edges=chunk_edges,
            path=path,
        )

    @classmethod
    def from_edgelist(
        cls,
        edges: EdgeList,
        *,
        memory_budget_bytes: Optional[int] = None,
        chunk_edges: Optional[int] = None,
    ) -> "ChunkedEdgeSource":
        """Wrap an in-memory :class:`EdgeList` (no copy) as a chunked source.

        Useful to bound the *temporary* working set of an embed on a graph
        that itself fits in RAM, and as the uniform input the conformance
        tests drive every chunk consumer with.
        """
        return cls(
            edges.src,
            edges.dst,
            edges.weights,
            edges.n_vertices,
            memory_budget_bytes=memory_budget_bytes,
            chunk_edges=chunk_edges,
        )

    def reblocked(
        self,
        *,
        memory_budget_bytes: Optional[int] = None,
        chunk_edges: Optional[int] = None,
    ) -> "ChunkedEdgeSource":
        """The same source re-blocked by either sizing knob (no copy)."""
        return ChunkedEdgeSource(
            self._src,
            self._dst,
            self._weights,
            self.n_vertices,
            memory_budget_bytes=memory_budget_bytes,
            chunk_edges=chunk_edges,
            path=self.path,
        )

    # ------------------------------------------------------------------ #
    # Basic protocol
    # ------------------------------------------------------------------ #
    @property
    def n_edges(self) -> int:
        """Number of directed edges ``s``."""
        return int(self._src.size)

    @property
    def is_weighted(self) -> bool:
        """Whether an explicit weight column is attached."""
        return self._weights is not None

    @property
    def n_chunks(self) -> int:
        """Number of blocks :meth:`iter_chunks` yields."""
        return -(-self.n_edges // self.chunk_edges) if self.n_edges else 0

    def chunk_bounds(self) -> List[Tuple[int, int]]:
        """The ``[lo, hi)`` edge range of every chunk, in order."""
        step = self.chunk_edges
        return [
            (lo, min(lo + step, self.n_edges)) for lo in range(0, self.n_edges, step)
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "weighted" if self.is_weighted else "unweighted"
        where = f", path={str(self.path)!r}" if self.path is not None else ""
        return (
            f"ChunkedEdgeSource(n={self.n_vertices}, s={self.n_edges}, {kind}, "
            f"chunk_edges={self.chunk_edges}{where})"
        )

    # ------------------------------------------------------------------ #
    # Iteration
    # ------------------------------------------------------------------ #
    def iter_chunks(
        self,
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]]:
        """Yield ``(src, dst, weights)`` blocks of at most ``chunk_edges`` edges.

        Endpoint ids are validated per block — O(chunk) work, never O(E).
        ``weights`` is a ``float64`` block, or ``None`` for an unweighted
        source (unit weights).
        """
        n = self.n_vertices
        for lo, hi in self.chunk_bounds():
            src = np.asarray(self._src[lo:hi], dtype=np.int64)
            dst = np.asarray(self._dst[lo:hi], dtype=np.int64)
            if src.size and (
                min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n
            ):
                raise ValueError(
                    f"edge chunk [{lo}:{hi}) holds endpoint ids outside "
                    f"[0, {n}); the store's meta.json n_vertices is wrong "
                    "or the edge data is corrupt"
                )
            w = None
            if self._weights is not None:
                w = np.asarray(self._weights[lo:hi], dtype=np.float64)
            yield src, dst, w

    # ------------------------------------------------------------------ #
    # Materialisation (requires the edges to fit in RAM)
    # ------------------------------------------------------------------ #
    def to_edgelist(self) -> EdgeList:
        """Materialise the whole source as an in-memory :class:`EdgeList`.

        Only sensible when the edge set fits in memory — this is the escape
        hatch tests and non-chunked consumers use, never the embedding path.
        """
        return EdgeList(
            np.asarray(self._src, dtype=np.int64).copy(),
            np.asarray(self._dst, dtype=np.int64).copy(),
            None
            if self._weights is None
            else np.asarray(self._weights, dtype=np.float64).copy(),
            self.n_vertices,
        )
