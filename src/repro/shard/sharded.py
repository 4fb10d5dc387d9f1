"""Owner-range sharded execution into one class-sum buffer.

The fused owner-sorted incidence layout makes contiguous owner ranges
*independent*: every incidence ``(owner, partner, w)`` contributes only to
row ``owner`` of the raw sums
``S[u, c] = Σ w over incidences with Y[partner] = c``, and the incidence
array is sorted by owner — so cutting it at any row boundaries partitions
the work into shards whose sums occupy disjoint rows.  This is the
partitioned-aggregation shape of Ligra's vertex ranges and GraphChi's
shards/intervals, applied to the GEE edge pass.

:class:`ShardedGraph` is ``N`` degree-balanced contiguous owner row cuts
over its graph's sorted plan (``graph.plan(K, layout="sorted")``), each
shard with

* a pinned worker slot (shard ``i`` runs in task ``i mod workers``), so
  repeated embeds group the same shards into the same task in the same
  order — deterministic results;
* optionally, its own :class:`~repro.stream.segments.SegmentedEdgeStore`
  segment set (:meth:`ShardedGraph.persist`), so each shard can stream its
  incidences from disk for out-of-core execution.

The shards run on the one owner-range executor
(:func:`~repro.core.gee_parallel.run_owner_ranges`) that also runs the
``parallel`` backend: the same session pool, shared workspace and shared
fused layout.  Every shard writes the rescaled rows of its own range of one
``n×K`` output, so no per-shard partial and no reduction is needed.
Because ``np.bincount`` sums each output slot in input-traversal order and
row cuts preserve the global incidence order, the sharded result is
bitwise identical to the single-pool sorted pass for any shard count.

Exactly like :func:`~repro.core.gee_parallel.gee_parallel`, explicit
worker requests are honoured or rejected loudly, and the pooled path
requires the ``fork`` start method.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from ..core.gee_parallel import run_owner_ranges
from ..core.gee_vectorized import class_rescale, scatter_add
from ..core.plan import sorted_incidence
from ..core.projection import projection_from_scales, projection_scales
from ..core.result import EmbeddingResult
from ..core.validation import (
    UNKNOWN_LABEL,
    class_counts,
    inverse_class_counts,
    validate_edges,
    validate_labels,
)
from ..graph.edgelist import EdgeList
from ..obs import trace
from ..parallel import (
    balanced_ranges_from_work,
    effective_worker_count,
    fork_available,
    resolve_worker_count,
)

__all__ = ["Shard", "ShardSpec", "ShardedGraph", "patch_sums_sharded"]

#: Minimum routed incidences before the shard patch fans out to threads
#: (below this the dispatch overhead dwarfs the scatter work).
_PATCH_THREAD_THRESHOLD = 4096


@dataclass(frozen=True)
class ShardSpec:
    """Immutable identity of one owner-range shard.

    ``worker_affinity`` pins the shard to a worker slot: at embed time the
    shard runs in the task of slot ``worker_affinity mod n_workers``, so the
    shard → slot assignment is deterministic, stable across calls, and
    balanced for any pool size.
    """

    shard_id: int
    row_lo: int
    row_hi: int
    n_incidences: int
    worker_affinity: int

    @property
    def n_rows(self) -> int:
        return self.row_hi - self.row_lo


class Shard:
    """One contiguous owner range of a :class:`ShardedGraph`.

    The shard holds no arrays: its incidences are the slice of the graph's
    sorted incidence that rows ``[row_lo, row_hi)`` own.
    """

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec

    @property
    def n_incidences(self) -> int:
        return self.spec.n_incidences

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.spec
        return (
            f"Shard(id={s.shard_id}, rows=[{s.row_lo}, {s.row_hi}), "
            f"incidences={s.n_incidences}, affinity={s.worker_affinity})"
        )


def _patch_shard_rows(
    S_flat: np.ndarray,
    row_lo: int,
    row_hi: int,
    owner: np.ndarray,
    partner_labels: np.ndarray,
    delta_w: np.ndarray,
    n_classes: int,
) -> None:
    """Apply one shard's routed one-sided patches to its own row slice.

    Operates on the ``[row_lo*K, row_hi*K)`` slice with shard-local flat
    indices, so concurrent shard patches touch disjoint memory — the dense
    ``bincount`` path of :func:`scatter_add` stays thread-safe.
    """
    k = int(n_classes)
    view = S_flat[row_lo * k : row_hi * k]
    flat = (owner - row_lo) * k + partner_labels
    scatter_add(view, flat, delta_w)


def patch_sums_sharded(
    S_flat: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    delta_w: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    *,
    row_cuts: Optional[np.ndarray] = None,
    n_shards: Optional[int] = None,
    n_workers: Optional[int] = None,
) -> None:
    """Shard-routed O(Δ) patch of flat raw per-class sums, in place.

    The incremental counterpart of the sharded embed: each signed edge
    ``(u, v, Δw)`` becomes two one-sided incidences (``S[u, Y[v]] += Δw``
    owned by the shard of ``u``, ``S[v, Y[u]] += Δw`` owned by the shard
    of ``v``), routed to owning shards by binary search on the row cuts.
    Shards patch disjoint row slices, so large deltas run shard-parallel
    on threads; the result is independent of thread timing.

    ``row_cuts`` are a :class:`ShardedGraph`'s real owner-range boundaries
    when called through one; standalone calls (the backend's incremental
    protocol has no graph in scope) use even row cuts — routing is a
    performance choice, never a correctness one.
    """
    k = int(n_classes)
    if src.size == 0 or S_flat.size == 0:
        return
    n = S_flat.size // k
    y = np.asarray(labels)
    owner = np.concatenate((src, dst))
    partner = np.concatenate((dst, src))
    dw = np.concatenate((delta_w, delta_w))
    yp = y[partner]
    known = yp != UNKNOWN_LABEL
    if not np.all(known):
        owner, yp, dw = owner[known], yp[known], dw[known]
    if owner.size == 0:
        return
    if row_cuts is None:
        shards = max(1, min(int(n_shards or effective_worker_count(None)), n))
        row_cuts = np.linspace(0, n, shards + 1).astype(np.int64)
    else:
        # Route over every row of S_flat: it may hold rows at or past the
        # last cut (vertices added since the cuts were made), and the last
        # shard owns them.
        row_cuts = np.append(np.minimum(row_cuts[:-1], n), n)
    shard_of = np.searchsorted(row_cuts, owner, side="right") - 1
    order = np.argsort(shard_of, kind="stable")
    owner, yp, dw, shard_of = owner[order], yp[order], dw[order], shard_of[order]
    bounds = np.searchsorted(shard_of, np.arange(len(row_cuts) - 1 + 1))
    tasks = []
    for i in range(len(row_cuts) - 1):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        if lo == hi:
            continue
        tasks.append(
            (int(row_cuts[i]), int(row_cuts[i + 1]), owner[lo:hi], yp[lo:hi], dw[lo:hi])
        )
    workers = effective_worker_count(n_workers)
    if len(tasks) <= 1 or workers <= 1 or owner.size < _PATCH_THREAD_THRESHOLD:
        for row_lo, row_hi, o, p, w in tasks:
            _patch_shard_rows(S_flat, row_lo, row_hi, o, p, w, k)
        return
    with ThreadPoolExecutor(max_workers=min(workers, len(tasks))) as ex:
        futures = [
            ex.submit(_patch_shard_rows, S_flat, row_lo, row_hi, o, p, w, k)
            for row_lo, row_hi, o, p, w in tasks
        ]
        for fut in futures:
            fut.result()


# --------------------------------------------------------------------------- #
# The sharded graph
# --------------------------------------------------------------------------- #
class ShardedGraph:
    """N contiguous owner-range shards over a graph's sorted plan.

    Construction counts every vertex's total degree (one O(E) pass, no
    sort and no copy of the incidence) and degree-balances the requested
    shard count over the owner rows (empty ranges allowed — a shard with
    no rows contributes nothing).  ``n_shards`` is clamped to the vertex
    count; requesting fewer than one shard raises.

    Lifecycle: the shards run on the session pool and shared memory of
    :mod:`repro.core.gee_parallel` (released by
    :func:`~repro.core.gee_parallel.shutdown_workers`), so :meth:`close`
    (or use as a context manager) releases nothing; it only marks the view
    closed.  A closed sharded graph still runs serially and refuses the
    pool.
    """

    def __init__(self, graph, n_shards: int) -> None:
        from ..graph.facade import Graph

        requested = int(n_shards)
        if requested < 1:
            raise ValueError(f"n_shards={requested} must be at least 1")
        graph = Graph.coerce(graph)
        self.graph = graph
        edges = validate_edges(graph.edges)
        n = edges.n_vertices
        self.n_vertices = n
        self.n_edges = edges.n_edges
        self.n_shards = max(1, min(requested, n)) if n else 1
        degrees = np.bincount(edges.src, minlength=n) + np.bincount(
            edges.dst, minlength=n
        )
        ranges = balanced_ranges_from_work(degrees, self.n_shards)
        #: Owner-range boundaries: shard ``i`` owns rows
        #: ``[row_cuts[i], row_cuts[i+1])``.
        self.row_cuts = np.array([lo for lo, _ in ranges] + [n], dtype=np.int64)
        #: Incidence offsets of the cuts in the sorted incidence.
        self._incidence_cuts = np.concatenate(([0], np.cumsum(degrees)))[self.row_cuts]
        self._shards: List[Shard] = [
            Shard(
                ShardSpec(
                    shard_id=i,
                    row_lo=int(row_lo),
                    row_hi=int(row_hi),
                    n_incidences=int(
                        self._incidence_cuts[i + 1] - self._incidence_cuts[i]
                    ),
                    worker_affinity=i,
                )
            )
            for i, (row_lo, row_hi) in enumerate(ranges)
        ]
        self._persist_root: Optional[Path] = None
        self._closed = False

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def shards(self) -> Tuple[Shard, ...]:
        return tuple(self._shards)

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        return self.n_shards

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedGraph(n={self.n_vertices}, E={self.n_edges}, "
            f"n_shards={self.n_shards})"
        )

    # ------------------------------------------------------------------ #
    # Embedding
    # ------------------------------------------------------------------ #
    def _tasks(self, workers: int) -> List[Tuple[Tuple[int, int, str], ...]]:
        """One executor task per worker slot: shard ``i`` runs in task
        ``i mod workers``, the shards of a task in id order."""
        specs = [shard.spec for shard in self._shards]
        return [
            tuple(
                (
                    s.row_lo,
                    s.row_hi,
                    f"shard {s.shard_id} (rows [{s.row_lo}, {s.row_hi}), backend=sharded)",
                )
                for s in specs
                if s.worker_affinity % workers == slot
            )
            for slot in range(workers)
        ]

    def embed(
        self,
        labels: np.ndarray,
        n_classes: Optional[int] = None,
        *,
        n_workers: Optional[int] = None,
    ) -> EmbeddingResult:
        """GEE over the shards, all writing one fresh output array.

        ``n_workers=None`` auto-sizes (never more workers than shards or
        CPUs); an explicit positive request is honoured up to the shard
        count and requires ``fork`` when above one, exactly like
        :func:`~repro.core.gee_parallel.gee_parallel`.  The shards run in
        at most that many pool tasks, so the request bounds concurrency
        even when the session pool is larger.
        """
        y, k = validate_labels(labels, self.n_vertices, n_classes)
        t0 = time.perf_counter()
        explicit = n_workers is not None and int(n_workers) > 0
        requested = resolve_worker_count(n_workers)
        if explicit and requested > 1 and not fork_available():
            raise RuntimeError(
                f"ShardedGraph: n_workers={requested} requested but the 'fork' "
                "start method is unavailable on this platform; pass n_workers=1 "
                "(or None for the automatic fallback)"
            )
        workers = min(requested, self.n_shards)
        if not explicit:
            workers = min(workers, effective_worker_count(None))
        if workers <= 1 or not fork_available() or self.n_edges == 0:
            workers = 1
        elif self._closed:
            raise RuntimeError("ShardedGraph is closed")
        inv = inverse_class_counts(class_counts(y, k))
        t1 = time.perf_counter()
        fused = self.graph.plan(k, layout="sorted").fused
        Z = np.empty((self.n_vertices, k), dtype=np.float64)
        run_owner_ranges(fused, y, inv, self._tasks(workers), Z, backend="sharded")
        t2 = time.perf_counter()
        return EmbeddingResult(
            embedding=Z,
            projection_builder=lambda: projection_from_scales(
                y, projection_scales(y, k), k
            ),
            timings={"projection": t1 - t0, "edge_pass": t2 - t1, "total": t2 - t0},
            method=f"gee-sharded[{self.n_shards}]",
            n_workers=workers,
            layout="sorted",
        )

    def raw_sums(self, labels: np.ndarray, n_classes: int) -> np.ndarray:
        """Raw per-class sums ``S`` (serial path), shape (n, K)."""
        y, k = validate_labels(labels, self.n_vertices, int(n_classes))
        fused = self.graph.plan(k, layout="sorted").fused
        S = np.empty((self.n_vertices, k), dtype=np.float64)
        # Column scales of one: the executor leaves the raw sums.
        run_owner_ranges(fused, y, np.ones(k), self._tasks(1), S, backend="sharded")
        return S

    # ------------------------------------------------------------------ #
    # Incremental patches
    # ------------------------------------------------------------------ #
    def patch_sums(
        self,
        S_flat: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        delta_w: np.ndarray,
        labels: np.ndarray,
        n_classes: int,
        *,
        n_workers: Optional[int] = None,
    ) -> None:
        """Route a signed edge delta to owning shards (O(Δ), in place)."""
        patch_sums_sharded(
            S_flat,
            np.asarray(src),
            np.asarray(dst),
            np.asarray(delta_w),
            labels,
            n_classes,
            row_cuts=self.row_cuts,
            n_workers=n_workers,
        )

    # ------------------------------------------------------------------ #
    # Out-of-core: per-shard segment stores
    # ------------------------------------------------------------------ #
    def persist(self, root) -> List[Path]:
        """Write each shard's incidence slice to its own segment store.

        Sorts the incidence once (:func:`~repro.core.plan.sorted_incidence`)
        and creates ``root/shard-00000/``, ``root/shard-00001/``, ... — one
        :class:`~repro.stream.segments.SegmentedEdgeStore` per shard,
        holding the half-edges ``owner → partner`` its rows own — and
        remembers ``root`` for :meth:`embed_outofcore`.
        """
        from ..stream.segments import SegmentedEdgeStore

        root = Path(root)
        edges = validate_edges(self.graph.edges)
        owner, partner, w = sorted_incidence(edges.src, edges.dst, edges.weights)
        cuts = self._incidence_cuts
        paths = []
        for i, shard in enumerate(self._shards):
            lo, hi = int(cuts[i]), int(cuts[i + 1])
            path = root / f"shard-{shard.spec.shard_id:05d}"
            SegmentedEdgeStore.create(
                path,
                EdgeList(
                    owner[lo:hi],
                    partner[lo:hi],
                    None if w is None else w[lo:hi],
                    n_vertices=self.n_vertices,
                ),
            )
            paths.append(path)
        self._persist_root = root
        return paths

    def embed_outofcore(
        self,
        labels: np.ndarray,
        n_classes: Optional[int] = None,
        *,
        root=None,
        chunk_edges: Optional[int] = None,
    ) -> EmbeddingResult:
        """Stream each shard's segment store chunk-wise into one sum buffer.

        Bounded memory on the edge side: per chunk only O(chunk) incidence
        temporaries are materialised (the stores stay memory-mapped).  The
        per-slot summation order can differ from the in-memory fused path
        (chunk-accumulate vs single block pass), so results agree to
        floating-point reduction order — well inside the 1e-10 gate.
        """
        from ..stream.segments import SegmentedEdgeStore

        root = Path(root) if root is not None else self._persist_root
        if root is None:
            raise ValueError(
                "no segment stores: call persist(root) first or pass root="
            )
        y, k = validate_labels(labels, self.n_vertices, n_classes)
        t0 = time.perf_counter()
        S = np.zeros(self.n_vertices * k, dtype=np.float64)
        for shard in self._shards:
            store = SegmentedEdgeStore.open(root / f"shard-{shard.spec.shard_id:05d}")
            source = store.source(chunk_edges=chunk_edges)
            with trace(
                "shard.stream",
                shard=shard.spec.shard_id,
                incidences=shard.spec.n_incidences,
            ):
                for owner, partner, w in source.iter_chunks():
                    yp = y[partner]
                    known = yp != UNKNOWN_LABEL
                    scatter_add(S, owner[known] * k + yp[known], w[known])
        Z = S.reshape(self.n_vertices, k)
        class_rescale(Z, y, k)
        t1 = time.perf_counter()
        return EmbeddingResult(
            embedding=Z,
            projection_builder=lambda: projection_from_scales(
                y, projection_scales(y, k), k
            ),
            timings={"projection": 0.0, "edge_pass": t1 - t0, "total": t1 - t0},
            method=f"gee-sharded-outofcore[{self.n_shards}]",
            n_workers=1,
            layout="sorted",
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Mark the view closed: later embeds run serially only.

        Holds no pool and no shared memory of its own, so nothing is
        released here.
        """
        self._closed = True

    def __enter__(self) -> "ShardedGraph":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
