"""Owner-range sharded execution into one shared class-sum buffer.

The fused owner-sorted incidence layout (PR 5) makes contiguous owner
ranges *independent*: every incidence ``(owner, partner, w)`` contributes
only to row ``owner`` of the raw sums
``S[u, c] = Σ w over incidences with Y[partner] = c``, and the incidence
array is sorted by owner — so slicing it at any row boundaries partitions
the work into shards whose partial sums occupy disjoint rows.  This is the
partitioned-aggregation shape of Ligra's vertex ranges and GraphChi's
shards/intervals, applied to the GEE edge pass.

:class:`ShardedGraph` compiles a graph into ``N`` contiguous owner-range
shards, each holding

* its own contiguous slice of the owner-sorted incidence triple, wrapped
  in a per-shard :class:`~repro.graph.facade.Graph` whose compiled
  :class:`~repro.core.plan.EmbedPlan` feeds the owner-computes segment-sum
  kernel directly;
* a pinned worker slot (``shard_id mod machine workers``), so repeated
  embeds group the same shards into the same slot's task in the same
  order — deterministic results;
* optionally, its own :class:`~repro.stream.segments.SegmentedEdgeStore`
  segment set (:meth:`ShardedGraph.persist`), so each shard can stream its
  incidences from disk for out-of-core execution.

Every shard writes the raw sums of its own rows into one ``n×K`` buffer (a
plain array on the serial path, one shared-memory array on the pooled
path), which is then rescaled once by ``diag(1/n_c)``.  Shard rows are
disjoint and the segment-sum kernel assigns every slot of its rows, so no
per-shard partial and no reduction is needed.  Because ``np.bincount``
sums each output slot in input-traversal order and shard slices preserve
the global incidence order, the sharded raw sums are bitwise identical to
the single-pool fused pass for any shard count.

Exactly like :func:`~repro.core.gee_parallel.gee_parallel`, explicit
worker requests are honoured or rejected loudly, and the pooled path
requires the ``fork`` start method.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.gee_vectorized import (
    accumulate_fused_rows_sorted,
    class_rescale,
    scatter_add,
)
from ..core.plan import _LAYOUT_BLOCK_BYTES, sorted_incidence
from ..core.projection import projection_from_scales, projection_scales
from ..core.result import EmbeddingResult
from ..core.validation import UNKNOWN_LABEL, validate_edges, validate_labels
from ..graph.edgelist import EdgeList
from ..obs import trace
from ..parallel import (
    ForkWorkerPool,
    SharedArraySet,
    attach,
    effective_worker_count,
    fork_available,
    resolve_worker_count,
)

__all__ = ["Shard", "ShardSpec", "ShardedGraph", "patch_sums_sharded"]

#: Minimum routed incidences before the shard patch fans out to threads
#: (below this the dispatch overhead dwarfs the scatter work).
_PATCH_THREAD_THRESHOLD = 4096

def _rows_per_block(n_classes: int) -> int:
    """Rows per L2-sized block for the segment-sum kernel (same budget as
    :func:`~repro.core.plan.compile_fused_layout`)."""
    return max(1, _LAYOUT_BLOCK_BYTES // (int(n_classes) * 8))


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
    """One contiguous owner range with its own incidence slice and plans.

    The incidence slice is wrapped in a :class:`~repro.graph.facade.Graph`
    over the half-edges ``owner → partner`` so each shard owns a real
    compiled :class:`~repro.core.plan.EmbedPlan` (cached per K on the
    facade): ``plan.src_flat`` *is* the sorted ``owner*K`` flat-index array
    the owner-computes kernel consumes, and ``plan.dst`` the partner ids.
    """

    def __init__(self, spec: ShardSpec, incidence_graph) -> None:
        self.spec = spec
        self.graph = incidence_graph

    @property
    def n_incidences(self) -> int:
        return self.spec.n_incidences

    def plan(self, n_classes: int):
        """The shard's compiled per-K embed plan (facade-cached)."""
        return self.graph.plan(int(n_classes))

    def accumulate_into(
        self,
        out_flat: np.ndarray,
        y: np.ndarray,
        n_classes: int,
        *,
        fully_labelled: bool,
    ) -> None:
        """Raw class sums of this shard's rows, written into ``out_flat``.

        ``out_flat`` is full ``(n*K,)`` shape; every slot of rows
        ``[row_lo, row_hi)`` is assigned and no other slot is touched, so
        all shards write into one buffer.  A shard's half-edge graph must
        **not** be recompiled into a fused layout (that would re-double the
        incidences), so the shard plan arrays feed the kernel directly.
        """
        spec = self.spec
        if spec.row_hi <= spec.row_lo:
            return
        plan = self.plan(n_classes)
        accumulate_fused_rows_sorted(
            out_flat,
            plan.src_flat,
            plan.dst,
            None if plan.unit_weights else plan.weights,
            y,
            int(n_classes),
            _rows_per_block(n_classes),
            spec.row_lo,
            spec.row_hi,
            fully_labelled=fully_labelled,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.spec
        return (
            f"Shard(id={s.shard_id}, rows=[{s.row_lo}, {s.row_hi}), "
            f"incidences={s.n_incidences}, affinity={s.worker_affinity})"
        )


# --------------------------------------------------------------------------- #
# Worker-side plumbing (module-level: shipped to forked workers)
# --------------------------------------------------------------------------- #
#: Worker-side attachment cache: shm segment name -> (view, SharedMemory).
#: Mirrors the parallel kernel's per-worker cache — segments are attached
#: once per worker process and stay mapped until the worker exits (the
#: creating ShardedGraph owns and unlinks them).
_WORKER_VIEWS: Dict[str, Tuple[np.ndarray, object]] = {}


def _attached_view(handle) -> np.ndarray:
    entry = _WORKER_VIEWS.get(handle.shm_name)
    if entry is None:
        entry = attach(handle)
        _WORKER_VIEWS[handle.shm_name] = entry
    return entry[0]


def _shard_embed_task(
    _context: dict,
    slot: int,
    handles: dict,
    shard_meta: tuple,
    n_classes: int,
    fully_labelled: bool,
    n_workers: int,
) -> None:
    """Pooled embed task: accumulate the shards pinned to worker ``slot``.

    The parent submits one task per logical slot ``0..n_workers-1``; the
    slot travels in the task arguments, so whichever process picks a task
    up runs that slot's shards.  A task selects its shards by affinity:
    shard ``i`` belongs to slot ``affinity mod n_workers`` and runs in
    shard-id order.  Every task writes into the one shared ``out`` buffer:
    rows of different shards are disjoint and each shard assigns every slot
    of its rows, so tasks never clobber each other and nothing is zeroed
    or reduced.
    """
    y = _attached_view(handles["labels"])
    out = _attached_view(handles["out"])
    k = int(n_classes)
    rows_per_block = _rows_per_block(k)
    for shard_id, row_lo, row_hi, affinity in shard_meta:
        if affinity % n_workers != slot or row_hi <= row_lo:
            continue
        try:
            with trace(
                "shard.accumulate", shard=shard_id, rows=row_hi - row_lo
            ):
                owner = _attached_view(handles[f"owner{shard_id}"])
                partner = _attached_view(handles[f"partner{shard_id}"])
                weights_handle = handles.get(f"weights{shard_id}")
                weights = (
                    None if weights_handle is None else _attached_view(weights_handle)
                )
                accumulate_fused_rows_sorted(
                    out,
                    owner * k,
                    partner,
                    weights,
                    y,
                    k,
                    rows_per_block,
                    row_lo,
                    row_hi,
                    fully_labelled=fully_labelled,
                )
        except BaseException as exc:
            raise RuntimeError(
                f"shard {shard_id} (rows [{row_lo}, {row_hi}), backend=sharded) "
                f"failed on worker slot {slot}: {exc}"
            ) from exc


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
    """N contiguous owner-range shards over the owner-sorted incidence.

    Construction sorts the ``2E`` incidences once, degree-balances the
    requested shard count over the owner rows (empty ranges allowed — a
    shard with no rows contributes exact zeros), and gives each shard a
    contiguous copy of its slice.  ``n_shards`` is clamped to the vertex
    count; requesting fewer than one shard raises.

    Lifecycle: the pooled path lazily creates a private
    :class:`~repro.parallel.ForkWorkerPool` and shared-memory segments for
    the incidence slices and the shared output; :meth:`close` (or use as
    a context manager) releases them.  A closed sharded graph can still
    run the serial path.
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
        owner, partner, w = sorted_incidence(edges.src, edges.dst, edges.weights)
        self.n_shards = max(1, min(requested, n)) if n else 1
        degrees = np.bincount(owner, minlength=n)
        ranges = _balanced_ranges(degrees, self.n_shards)
        #: Owner-range boundaries: shard ``i`` owns rows
        #: ``[row_cuts[i], row_cuts[i+1])``.
        self.row_cuts = np.array([lo for lo, _ in ranges] + [n], dtype=np.int64)
        inc_cuts = np.searchsorted(owner, self.row_cuts)
        self._shards: List[Shard] = []
        for i, (row_lo, row_hi) in enumerate(ranges):
            lo, hi = int(inc_cuts[i]), int(inc_cuts[i + 1])
            shard_edges = EdgeList(
                owner[lo:hi].copy(),
                partner[lo:hi].copy(),
                None if w is None else w[lo:hi].copy(),
                n_vertices=n,
            )
            spec = ShardSpec(
                shard_id=i,
                row_lo=int(row_lo),
                row_hi=int(row_hi),
                n_incidences=hi - lo,
                worker_affinity=i,
            )
            self._shards.append(Shard(spec, Graph.coerce(shard_edges)))
        self._pool: Optional[ForkWorkerPool] = None
        self._incidence_shm: Optional[SharedArraySet] = None
        self._workspaces: Dict[int, Tuple[SharedArraySet, np.ndarray, np.ndarray]] = {}
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
    def embed(
        self,
        labels: np.ndarray,
        n_classes: Optional[int] = None,
        *,
        n_workers: Optional[int] = None,
    ) -> EmbeddingResult:
        """GEE over the shards, all writing into one class-sum buffer.

        ``n_workers=None`` auto-sizes (never more workers than shards or
        CPUs); an explicit positive request is honoured up to the shard
        count and requires ``fork`` when above one, exactly like
        :func:`~repro.core.gee_parallel.gee_parallel`.
        """
        y, k = validate_labels(labels, self.n_vertices, n_classes)
        t0 = time.perf_counter()
        fully = bool(y.size) and int(y.min()) != UNKNOWN_LABEL
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
        t1 = time.perf_counter()
        if workers <= 1 or not fork_available() or self.n_edges == 0:
            S_flat = self._raw_sums_serial(y, k, fully)
            workers = 1
        else:
            S_flat = self._raw_sums_pooled(y, k, fully, workers)
        Z = S_flat.reshape(self.n_vertices, k)
        class_rescale(Z, y, k)
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
        fully = bool(y.size) and int(y.min()) != UNKNOWN_LABEL
        return self._raw_sums_serial(y, k, fully).reshape(self.n_vertices, k)

    def _raw_sums_serial(self, y: np.ndarray, k: int, fully: bool) -> np.ndarray:
        S_flat = np.zeros(self.n_vertices * k, dtype=np.float64)
        for shard in self._shards:
            spec = shard.spec
            try:
                with trace(
                    "shard.accumulate",
                    shard=spec.shard_id,
                    rows=spec.row_hi - spec.row_lo,
                ):
                    shard.accumulate_into(S_flat, y, k, fully_labelled=fully)
            except BaseException as exc:
                # Same failure context the pooled task attaches, so callers
                # see one shape of error regardless of execution path.
                raise RuntimeError(
                    f"shard {spec.shard_id} (rows [{spec.row_lo}, {spec.row_hi}), "
                    f"backend=sharded) failed: {exc}"
                ) from exc
        return S_flat

    def _raw_sums_pooled(self, y: np.ndarray, k: int, fully: bool, workers: int) -> np.ndarray:
        pool = self._ensure_pool(workers)
        incidence = self._ensure_incidence_shm()
        shm, labels_view, out = self._ensure_workspace(k)
        labels_view[:] = y
        handles = incidence.handles()
        handles.update(shm.handles())
        meta = tuple(
            (s.spec.shard_id, s.spec.row_lo, s.spec.row_hi, s.spec.worker_affinity)
            for s in self._shards
        )
        with trace(
            "shard.dispatch", n_shards=self.n_shards, n_workers=workers
        ):
            pool.map(
                _shard_embed_task,
                [(slot, handles, meta, k, fully, workers) for slot in range(workers)],
                labels=[
                    f"backend=sharded slot={slot} "
                    f"shards={[s.spec.shard_id for s in self._shards if s.spec.worker_affinity % workers == slot]}"
                    for slot in range(workers)
                ],
            )
        # The shared buffer is overwritten by the next pooled embed, so the
        # result owns a copy.
        return out.copy()

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

        Creates ``root/shard-00000/``, ``root/shard-00001/``, ... — one
        :class:`~repro.stream.segments.SegmentedEdgeStore` per shard — and
        remembers ``root`` for :meth:`embed_outofcore`.
        """
        from ..stream.segments import SegmentedEdgeStore

        root = Path(root)
        paths = []
        for shard in self._shards:
            path = root / f"shard-{shard.spec.shard_id:05d}"
            SegmentedEdgeStore.create(path, shard.graph.edges)
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
    # Pool / shared-memory lifecycle
    # ------------------------------------------------------------------ #
    def _ensure_pool(self, workers: int) -> ForkWorkerPool:
        if self._closed:
            raise RuntimeError("ShardedGraph is closed")
        if self._pool is not None and self._pool.n_workers != workers:
            self._pool.close()
            self._pool = None
        if self._pool is None:
            self._pool = ForkWorkerPool(workers)
        return self._pool

    def _ensure_incidence_shm(self) -> SharedArraySet:
        if self._incidence_shm is None:
            shm = SharedArraySet()
            try:
                for shard in self._shards:
                    i = shard.spec.shard_id
                    edges = shard.graph.edges
                    shm.share(f"owner{i}", edges.src)
                    shm.share(f"partner{i}", edges.dst)
                    if edges.weights is not None:
                        shm.share(f"weights{i}", edges.weights)
            except BaseException:
                shm.close()
                raise
            self._incidence_shm = shm
        return self._incidence_shm

    def _ensure_workspace(self, k: int):
        ws = self._workspaces.get(k)
        if ws is None:
            shm = SharedArraySet()
            try:
                labels_view = shm.empty("labels", (self.n_vertices,), np.int64)
                out = shm.zeros("out", (self.n_vertices * k,), np.float64)
            except BaseException:
                shm.close()
                raise
            ws = (shm, labels_view, out)
            self._workspaces[k] = ws
        return ws

    def close(self) -> None:
        """Release the worker pool and every shared-memory segment."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        if self._incidence_shm is not None:
            self._incidence_shm.close()
            self._incidence_shm = None
        for shm, _, _ in self._workspaces.values():
            shm.close()
        self._workspaces.clear()

    def __enter__(self) -> "ShardedGraph":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _balanced_ranges(degrees: np.ndarray, n_parts: int) -> List[Tuple[int, int]]:
    from ..core.gee_parallel import balanced_ranges_from_work

    return balanced_ranges_from_work(degrees, n_parts)
