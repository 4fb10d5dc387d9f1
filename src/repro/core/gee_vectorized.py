"""Vectorised GEE: the compiled-serial baseline (the paper's Numba column).

The paper's second baseline compiles the edge loop with Numba, obtaining a
30–50× speedup over interpreted Python by removing per-edge interpreter
overhead while staying on one core.  Numba is not available offline, so the
same role is filled by a fully vectorised NumPy formulation:

The two updates per edge (Algorithm 1, lines 10–11)::

    Z[u, Y[v]] += W[v, Y[v]] * w      (for edges with Y[v] known)
    Z[v, Y[u]] += W[u, Y[u]] * w      (for edges with Y[u] known)

are scatter-adds into the flattened ``n×K`` embedding at flat indices
``u*K + Y[v]`` and ``v*K + Y[u]``; ``numpy.bincount`` with weights performs
the whole pass in two calls with no Python-level loop.  The result is
bit-wise reproducible and (like Numba) single-threaded, so it slots into
Table I's "Numba Serial" column.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ..analysis.annotations import hot_path
from ..graph.edgelist import EdgeList
from .plan import choose_label_dtype
from .projection import projection_from_scales, projection_scales
from .result import EmbeddingResult
from .validation import UNKNOWN_LABEL, class_counts, inverse_class_counts
from .validation import validate_edges, validate_labels

__all__ = [
    "gee_vectorized",
    "gee_vectorized_with_plan",
    "gee_vectorized_chunked",
    "accumulate_edges_vectorized",
    "accumulate_chunked_plan",
    "accumulate_fused_rows_sorted",
    "class_rescale",
    "known_incidence_sums",
    "patch_sums_vectorized",
    "scatter_add",
]

#: Below this fill ratio (updates per output slot) the sparse scatter path
#: is cheaper than a dense ``bincount`` over the whole output.  Tuned with
#: ``benchmarks/bench_ablation_scatter.py``: on a 2M-slot output the
#: ``np.unique`` path wins only below ~2–3 % fill (0.3 ms vs 2.0 ms at
#: 0.5 %, break-even near 3 %, 3× *slower* by 10 %); the previous 0.25
#: threshold sent the common 5–25 % regime down the slow sorting path.  A
#: sort-free "compact the touched slots, bincount the compacted indices"
#: variant was benchmarked as the replacement candidate and lost to dense
#: ``bincount`` at every fill ratio (the O(out) mask/cumsum pass costs more
#: than bincount's single O(out+m) sweep), so the unique path stays for the
#: very-sparse regime.
_SPARSE_THRESHOLD = 0.03


@hot_path(reason="the scatter primitive every embed/patch call funnels through")
def scatter_add(out_flat: np.ndarray, flat_idx: np.ndarray, weights: np.ndarray) -> None:
    """``out_flat[flat_idx] += weights`` with duplicate indices summed.

    Two strategies, chosen by fill ratio:

    * dense — one ``np.bincount`` over the whole output; best when more
      than ~3 % of output slots receive updates (see ``_SPARSE_THRESHOLD``);
    * sparse — aggregate duplicates with ``np.unique`` and update only the
      touched slots; best when very few slots are hit.

    Both are exact; only the summation order (and hence the last bits of
    floating-point rounding) can differ.
    """
    if flat_idx.size == 0:
        return
    if flat_idx.size >= _SPARSE_THRESHOLD * out_flat.size:
        out_flat += np.bincount(flat_idx, weights=weights, minlength=out_flat.size)
    else:
        uniq, inverse = np.unique(flat_idx, return_inverse=True)
        sums = np.bincount(inverse, weights=weights)
        out_flat[uniq] += sums


@hot_path(reason="shared per-edge accumulation kernel (vectorised/Ligra/parallel)")
def accumulate_edges_vectorized(
    Z_flat: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray,
    labels: np.ndarray,
    scales: Optional[np.ndarray],
    n_classes: int,
) -> None:
    """Accumulate the GEE contribution of a batch of edges into ``Z_flat``.

    ``Z_flat`` is the flattened ``(n*K,)`` view of the embedding.  This is
    the single kernel shared by the vectorised implementation, the
    Ligra batch function and the parallel workers, so all of them compute
    exactly the same per-edge contributions.

    ``scales=None`` means unit scales (the O(Δ) patch kernel's regime):
    contributions are the raw edge weights, with no per-vertex gather and
    no materialised ones vector.
    """
    y_dst = labels[dst]
    known = y_dst != UNKNOWN_LABEL
    if np.any(known):
        flat = src[known] * n_classes + y_dst[known]
        contrib = weights[known] if scales is None else scales[dst[known]] * weights[known]
        scatter_add(Z_flat, flat, contrib)
    y_src = labels[src]
    known = y_src != UNKNOWN_LABEL
    if np.any(known):
        flat = dst[known] * n_classes + y_src[known]
        contrib = weights[known] if scales is None else scales[src[known]] * weights[known]
        scatter_add(Z_flat, flat, contrib)


@hot_path(reason="O(Δ) incremental patch kernel")
def patch_sums_vectorized(
    S_flat: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    delta_w: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
) -> None:
    """Apply a signed edge delta to flat raw per-class sums, in place.

    The vectorised O(Δ) patch kernel behind the ``supports_incremental``
    capability: raw sums are the unit-scale special case of the shared edge
    pass (``S[u, Y[v]] += Δw`` is ``accumulate_edges_vectorized`` with
    ``scales=None``), so the patch reuses the exact kernel the full embeds
    run and the incremental trajectory stays bit-compatible with it — and
    allocates nothing of size n (the old unit-scale ones vector cost an
    O(n) allocation per O(Δ) patch).
    """
    accumulate_edges_vectorized(S_flat, src, dst, delta_w, labels, None, n_classes)


# --------------------------------------------------------------------------- #
# Locality-optimized segment-sum kernels (FusedLayout consumers)
# --------------------------------------------------------------------------- #
@hot_path(reason="block-local segment-sum scatter of the chunked incidence")
def _block_scatter(
    out_flat: np.ndarray,
    flat: np.ndarray,
    weights: Optional[np.ndarray],
    flat_bounds: np.ndarray,
    cuts: np.ndarray,
) -> None:
    """Add ``flat``/``weights`` into ``out_flat`` one row block at a time.

    ``flat_bounds[i]:flat_bounds[i+1]`` is block ``i``'s output slice (sized
    to stay L2-resident) and ``cuts[i]:cuts[i+1]`` its incidence slice; each
    block runs one *local* ``np.bincount`` whose output is block-sized, so
    the scatter never allocates an ``(n*K,)`` temporary and its writes stay
    inside the cache-resident slice.
    """
    for i in range(len(cuts) - 1):
        lo, hi = int(cuts[i]), int(cuts[i + 1])
        if lo == hi:
            continue
        base, top = int(flat_bounds[i]), int(flat_bounds[i + 1])
        out_flat[base:top] += np.bincount(
            flat[lo:hi] - base,
            weights=None if weights is None else weights[lo:hi],
            minlength=top - base,
        )


@hot_path(reason="the sorted-layout kernel: the serial pass and parallel row ranges")
def accumulate_fused_rows_sorted(
    out_flat: np.ndarray,
    indptr: np.ndarray,
    partner: np.ndarray,
    weights: Optional[np.ndarray],
    y_lab: np.ndarray,
    n_classes: int,
    rows_per_block: int,
    row_lo: int,
    row_hi: int,
    *,
    fully_labelled: bool,
) -> None:
    """Raw sums for rows ``row_lo:row_hi`` of a sorted fused layout.

    The one fused kernel: the serial pass runs it over ``[0, n)``, the
    ``parallel`` workers over their own row ranges.  The row
    pointer locates the range's incidences, so a call reads only what its
    rows own and writes only their slice of ``out_flat`` — no atomics, no
    reduction.  Per L2-sized block of rows it gathers ``Y[partner]``,
    builds the local flat index ``row*K + label`` in cache and assigns one
    local ``np.bincount`` to the block's slice.  The projection scale is
    applied by the caller afterwards (:func:`class_rescale`), which is
    exact because ``scale[v]`` depends only on ``Y[v]``, the very column
    the contribution lands in.

    ``y_lab`` should be cast once per call to
    :func:`~repro.core.plan.choose_label_dtype` ``(K)``, so the gather
    reads one byte per label for ``K <= 128``; a dtype that cannot hold
    ``K - 1`` and ``-1`` raises :class:`TypeError`.  Each output slot sums
    its incidences in array order whatever the range and block boundaries,
    so any split of ``[0, n)`` gives bitwise the same sums.
    """
    k = int(n_classes)
    if not np.can_cast(choose_label_dtype(k), y_lab.dtype):
        raise TypeError(f"labels of dtype {y_lab.dtype} cannot hold K={k} classes")
    for r0 in range(row_lo, row_hi, rows_per_block):
        r1 = min(r0 + rows_per_block, row_hi)
        bounds = indptr[r0 : r1 + 1]
        lo, hi = int(bounds[0]), int(bounds[-1])
        # Widen the block's ids in cache first: NumPy gathers through int32
        # indices at half the speed of intp ones.
        labels = y_lab.take(partner[lo:hi].astype(np.intp, copy=False))
        flat = np.repeat(np.arange(0, (r1 - r0) * k, k), np.diff(bounds))
        flat += labels
        wts = None if weights is None else weights[lo:hi]
        if not fully_labelled:
            keep = labels != UNKNOWN_LABEL
            flat = flat[keep]
            wts = None if wts is None else wts[keep]
        out_flat[r0 * k : r1 * k] = np.bincount(flat, weights=wts, minlength=(r1 - r0) * k)


@hot_path(reason="the default plan's pass: one bincount over the known incidences")
def known_incidence_sums(
    src: np.ndarray,
    dst: np.ndarray,
    weights: Optional[np.ndarray],
    y_lab: np.ndarray,
    n_classes: int,
    *,
    fully_labelled: bool,
) -> np.ndarray:
    """Raw sums ``S`` (flat ``(n*K,)``) of an edge list's known incidences.

    The default plan's pass: gather ``Y`` (``y_lab``, cast to
    :func:`~repro.core.plan.choose_label_dtype`) at both endpoints, keep
    the incidences whose partner is labelled, form ``owner*K + label`` for
    those alone and run one ``np.bincount`` (weightless if ``weights`` is
    ``None``), the pass's one ``(n*K,)`` temporary.  The source-owned half
    precedes the destination-owned half, each in arrival order: the order
    of a weighted row of the sorted layout (a unit-weight row sums exact
    integers), so every slot is bitwise :func:`accumulate_fused_rows_sorted`'s.
    """
    k = int(n_classes)
    halves = []
    for owner, partner in ((src, dst), (dst, src)):
        labels = y_lab.take(partner)
        wts = weights
        if not fully_labelled:
            # One index array, then gathers: cheaper than boolean masks.
            keep = np.flatnonzero(labels != UNKNOWN_LABEL)
            owner, labels = owner.take(keep), labels.take(keep)
            wts = None if weights is None else weights.take(keep)
        halves.append((owner, labels, wts))
    n_incidences = halves[0][0].size + halves[1][0].size
    # repro: ignore[hot-path-alloc] the pass's index: one slot per known incidence, built in place of a compiled src*K/dst*K pair
    flat = np.empty(n_incidences, dtype=np.intp)
    lo = 0
    for owner, labels, _ in halves:
        part = flat[lo : lo + owner.size]
        np.multiply(owner, k, out=part)
        part += labels
        lo += owner.size
    wts = None if weights is None else np.concatenate([w for _, _, w in halves])
    return np.bincount(flat, weights=wts, minlength=y_lab.size * k)


def class_rescale(Z: np.ndarray, labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Apply ``Z = S · diag(1/n_c)`` in place; returns the inverse counts.

    The column-wise counterpart of the per-vertex projection scales: column
    ``c`` of the raw sums is divided by the size of class ``c`` (columns of
    empty classes receive no contributions and stay zero).
    """
    inv = inverse_class_counts(class_counts(labels, n_classes))
    Z *= inv[None, :]
    return inv


def gee_vectorized(
    edges: EdgeList,
    labels: np.ndarray,
    n_classes: Optional[int] = None,
    *,
    chunk_edges: Optional[int] = None,
) -> EmbeddingResult:
    """One-Hot Graph Encoder Embedding, vectorised single-core implementation.

    Parameters
    ----------
    edges, labels, n_classes:
        As in :func:`repro.core.gee_python.gee_python`.
    chunk_edges:
        Process the edge list in chunks of this many edges (bounds the size
        of the temporary index arrays; ``None`` processes everything in one
        shot).  Results are identical either way.
    """
    edges = validate_edges(edges)
    y, k = validate_labels(labels, edges.n_vertices, n_classes)
    n = edges.n_vertices

    t0 = time.perf_counter()
    scales = projection_scales(y, k)
    W = projection_from_scales(y, scales, k)
    t1 = time.perf_counter()

    Z_flat = np.zeros(n * k, dtype=np.float64)
    src, dst, w = edges.src, edges.dst, edges.effective_weights()
    if chunk_edges is None or chunk_edges >= edges.n_edges:
        accumulate_edges_vectorized(Z_flat, src, dst, w, y, scales, k)
    else:
        if chunk_edges <= 0:
            raise ValueError("chunk_edges must be positive")
        for lo in range(0, edges.n_edges, chunk_edges):
            hi = min(lo + chunk_edges, edges.n_edges)
            accumulate_edges_vectorized(
                Z_flat, src[lo:hi], dst[lo:hi], w[lo:hi], y, scales, k
            )
    Z = Z_flat.reshape(n, k)
    t2 = time.perf_counter()

    return EmbeddingResult(
        embedding=Z,
        projection=W,
        timings={"projection": t1 - t0, "edge_pass": t2 - t1, "total": t2 - t0},
        method="gee-vectorized",
        n_workers=1,
    )


@hot_path(reason="bounded-memory chunked edge pass")
def accumulate_chunked_plan(
    Z_flat: np.ndarray,
    plan,
    y: np.ndarray,
    scales: np.ndarray,
    chunk_lo: int = 0,
    chunk_hi: Optional[int] = None,
) -> None:
    """The edge pass of a :class:`~repro.core.plan.ChunkedPlan`.

    Streams the plan's source block by block; every temporary (the chunk
    triple, the lazily-compiled ``src*K``/``dst*K`` components, the gathered
    labels and contributions) is O(chunk_edges), so the pass's working set
    beyond ``Z_flat`` is bounded by the source's memory budget no matter how
    large E is.  Shared by the serial chunked kernel and the parallel
    chunked workers (each streaming its own ``chunk_lo:chunk_hi`` slab), so
    all of them accumulate identical per-block contributions.

    Sorted-layout chunked plans (``plan.layout == "sorted"``) stream an
    owner-sorted *incidence* source instead and run the one-sided
    segment-sum update per block — the accumulated values are then raw
    per-class sums, and the **caller** must apply :func:`class_rescale`
    once after the last chunk (``scales`` is ignored on that path).
    """
    if getattr(plan, "layout", "none") == "sorted":
        _accumulate_chunked_incidence(Z_flat, plan, y, chunk_lo, chunk_hi)
        return
    if y.size == 0 or y.min() != UNKNOWN_LABEL:
        # Fully labelled (the refinement loop's regime): use each block's
        # precompiled flat-index components with no masking.
        for src, dst, w, src_flat, dst_flat in plan.iter_compiled(chunk_lo, chunk_hi):
            scatter_add(Z_flat, src_flat + y[dst], scales[dst] * w)
            scatter_add(Z_flat, dst_flat + y[src], scales[src] * w)
        return
    # Partially labelled: the shared masked kernel indexes only the known
    # subset of each block, so it does strictly less work than compiling
    # flat indices for edges the masks then drop.
    k = plan.n_classes
    for src, dst, w in plan.source.iter_chunks(chunk_lo, chunk_hi):
        accumulate_edges_vectorized(Z_flat, src, dst, w, y, scales, k)


@hot_path(reason="sorted-incidence chunked segment-sum pass")
def _accumulate_chunked_incidence(
    Z_flat: np.ndarray,
    plan,
    y: np.ndarray,
    chunk_lo: int = 0,
    chunk_hi: Optional[int] = None,
) -> None:
    """Segment-sum edge pass over a sorted-incidence chunked source.

    Each streamed block is ``(owner, partner, w)`` with owner globally
    non-decreasing, so within a block the scatter targets are monotone and
    the block-local bincounts write into L2-resident row-block slices.
    Accumulates *raw* sums into ``Z_flat`` (``+=`` — a row may straddle a
    chunk boundary); the caller rescales columns once at the end.
    """
    from .plan import _LAYOUT_BLOCK_BYTES

    k = plan.n_classes
    n = plan.n_vertices
    rows_per_block = max(1, _LAYOUT_BLOCK_BYTES // (k * 8))
    row_bounds = np.arange(0, n, rows_per_block, dtype=np.int64)
    row_bounds = np.append(row_bounds, n)
    flat_bounds = row_bounds * k
    fully = bool(y.size) and int(y.min()) != UNKNOWN_LABEL
    for owner, partner, w in plan.source.iter_chunks(chunk_lo, chunk_hi):
        yp = y[partner]
        if fully:
            flat = owner * k + yp
            wts = w
        else:
            known = yp != UNKNOWN_LABEL
            flat = owner[known] * k + yp[known]
            wts = w[known]
        if flat.size == 0:
            continue
        # Restrict the block loop to the rows this chunk actually touches.
        first = int(np.searchsorted(flat_bounds, flat[0], side="right")) - 1
        last = int(np.searchsorted(flat_bounds, flat[-1], side="right"))
        bounds = flat_bounds[first : last + 1]
        cuts = np.searchsorted(flat, bounds)
        _block_scatter(Z_flat, flat, wts, bounds, cuts)


def gee_vectorized_chunked(plan, labels: np.ndarray) -> EmbeddingResult:
    """Out-of-core vectorised GEE on a :class:`~repro.core.plan.ChunkedPlan`.

    Identical sums to :func:`gee_vectorized` (scatter-add is associative;
    only floating-point summation order differs), with peak temporary
    allocation bounded by the source's chunk size instead of O(E).  The
    output comes from the plan's output ring; the result owns it.
    """
    y = plan.validate_labels(labels)
    k = plan.n_classes

    t0 = time.perf_counter()
    scales = projection_scales(y, k)
    t1 = time.perf_counter()

    Z_flat = plan.zeroed_output()
    accumulate_chunked_plan(Z_flat, plan, y, scales)
    Z = Z_flat.reshape(plan.n_vertices, k)
    if getattr(plan, "layout", "none") == "sorted":
        class_rescale(Z, y, k)
    t2 = time.perf_counter()

    return EmbeddingResult(
        embedding=Z,
        projection_builder=lambda: projection_from_scales(y, scales, k),
        timings={"projection": t1 - t0, "edge_pass": t2 - t1, "total": t2 - t0},
        method="gee-vectorized",
        n_workers=1,
        layout=getattr(plan, "layout", "none"),
    )


def gee_vectorized_with_plan(plan, labels: np.ndarray) -> EmbeddingResult:
    """Vectorised GEE on a compiled :class:`~repro.core.plan.EmbedPlan`.

    Both layouts compute the raw sums ``S`` and write ``S·diag(1/n_c)``
    into an output array from the plan's ring:

    * a default plan (``layout="none"``) runs
      :func:`known_incidence_sums` straight from the validated edge
      arrays: it compiles nothing, and its one ``(n*K,)`` temporary is the
      ``bincount`` result;
    * a sorted plan (``graph.plan(K, layout="sorted")``) runs the
      block-local segment-sum kernel over the compiled
      :class:`~repro.core.plan.FusedLayout`, with only the narrow label
      table and one L2-sized block at a time as temporaries.

    Both sum every output slot in the same order, so the two layouts, and
    ``parallel`` (the sorted kernel over row ranges), return bitwise the
    same embedding.  The dense projection ``W`` is built lazily on first
    access of ``result.projection``.  The result owns its embedding: a
    later call on the plan never overwrites it.
    """
    y = plan.validate_labels(labels)
    k = plan.n_classes

    t0 = time.perf_counter()
    fully = bool(y.size) and int(y.min()) != UNKNOWN_LABEL
    y_lab = y.astype(choose_label_dtype(k))
    t1 = time.perf_counter()

    Z = plan.output_matrix()
    if plan.layout == "none":
        S = known_incidence_sums(
            plan.src,
            plan.dst,
            None if plan.unit_weights else plan.weights,
            y_lab,
            k,
            fully_labelled=fully,
        )
        np.multiply(S.reshape(Z.shape), inverse_class_counts(class_counts(y, k)), out=Z)
    else:
        fused = plan.fused
        accumulate_fused_rows_sorted(
            Z.reshape(-1),
            fused.indptr,
            fused.partner,
            fused.weights,
            y_lab,
            k,
            fused.rows_per_block,
            0,
            plan.n_vertices,
            fully_labelled=fully,
        )
        class_rescale(Z, y, k)
    t2 = time.perf_counter()

    return EmbeddingResult(
        embedding=Z,
        projection_builder=lambda: projection_from_scales(
            y, projection_scales(y, k), k
        ),
        timings={"projection": t1 - t0, "edge_pass": t2 - t1, "total": t2 - t0},
        method="gee-vectorized",
        n_workers=1,
        layout=plan.layout,
    )
