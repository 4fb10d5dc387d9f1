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
from .projection import projection_from_scales, projection_scales
from .result import EmbeddingResult
from .validation import UNKNOWN_LABEL, validate_edges, validate_labels

__all__ = [
    "gee_vectorized",
    "gee_vectorized_with_plan",
    "gee_vectorized_chunked",
    "gee_fused_with_plan",
    "accumulate_edges_vectorized",
    "accumulate_chunked_plan",
    "accumulate_fused_rows_sorted",
    "class_rescale",
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
@hot_path(reason="block-local segment-sum scatter of the fused layouts")
def _block_scatter(
    out_flat: np.ndarray,
    flat: np.ndarray,
    weights: Optional[np.ndarray],
    flat_bounds: np.ndarray,
    cuts: np.ndarray,
    accumulate: bool,
) -> None:
    """Scatter ``flat``/``weights`` into ``out_flat`` one row block at a time.

    ``flat_bounds[i]:flat_bounds[i+1]`` is block ``i``'s output slice (sized
    to stay L2-resident) and ``cuts[i]:cuts[i+1]`` its incidence slice; each
    block runs one *local* ``np.bincount`` whose output is block-sized, so
    the scatter never allocates an ``(n*K,)`` temporary and its writes stay
    inside the cache-resident slice.  ``accumulate=False`` assigns the block
    sums into ``out_flat`` directly (zeroing empty blocks), which also skips
    the full-output zero-fill and read-modify-write passes a global
    ``out += bincount(...)`` would cost.
    """
    for i in range(len(cuts) - 1):
        lo, hi = int(cuts[i]), int(cuts[i + 1])
        base, top = int(flat_bounds[i]), int(flat_bounds[i + 1])
        if lo == hi:
            if not accumulate:
                out_flat[base:top] = 0.0
            continue
        block = np.bincount(
            flat[lo:hi] - base,
            weights=None if weights is None else weights[lo:hi],
            minlength=top - base,
        )
        if accumulate:
            out_flat[base:top] += block
        else:
            out_flat[base:top] = block


@hot_path(reason="the sorted-layout kernel: serial, parallel and sharded row ranges")
def accumulate_fused_rows_sorted(
    out_flat: np.ndarray,
    owner_flat: np.ndarray,
    partner: np.ndarray,
    weights: Optional[np.ndarray],
    y_idx: np.ndarray,
    n_classes: int,
    rows_per_block: int,
    row_lo: int,
    row_hi: int,
    *,
    fully_labelled: bool,
) -> None:
    """Raw sums for rows ``row_lo:row_hi`` of a sorted fused layout.

    The one fused kernel: the serial pass runs it over ``[0, n)``, the
    parallel and sharded workers over their own row ranges.  It gathers
    ``Y[partner]``, adds it to the precompiled ``owner*K`` flat components
    and runs the block-local segment sums (:func:`_block_scatter`).  The
    per-edge projection scale is *not* applied here — the caller rescales
    columns once afterwards (:func:`class_rescale`), which is exact because
    ``scale[v]`` depends only on ``Y[v]``, the very column the contribution
    lands in.  ``y_idx`` must already be cast to the layout's index dtype
    so the flat-index arithmetic stays in the narrowed dtype.  The sorted
    incidence arrays locate any row range with two binary searches, so a
    call processes exactly the incidences owned by its rows and writes only
    its slice of ``out_flat`` — no atomics, no reduction.  Every search key
    is cast to the incidence dtype first: a wider key makes
    ``np.searchsorted`` convert the whole searched array, which would cost
    each range an O(2E) int64 copy instead of its own share.  Each output
    slot sums its incidences in array order whatever the range and block
    boundaries, so any split of ``[0, n)`` gives bitwise the same sums.
    Works on raw arrays (shared-memory views included) rather than a
    :class:`FusedLayout` object.
    """
    k = int(n_classes)
    if row_hi <= row_lo:
        return
    key = owner_flat.dtype.type
    lo = int(np.searchsorted(owner_flat, key(row_lo * k)))
    hi = int(np.searchsorted(owner_flat, key(row_hi * k)))
    row_bounds = np.arange(row_lo, row_hi, int(rows_per_block), dtype=np.int64)
    row_bounds = np.append(row_bounds, row_hi)
    flat_bounds = row_bounds * k
    of = owner_flat[lo:hi]
    flat = y_idx[partner[lo:hi]]
    w2 = None if weights is None else weights[lo:hi]
    if fully_labelled:
        wts = w2
    else:
        known = flat != UNKNOWN_LABEL
        flat = flat[known]
        of = of[known]
        wts = None if w2 is None else w2[known]
    # ``flat`` is a fresh gather, so the owner components go in in place
    # (saving an O(range) temporary); "safe" refuses a label dtype too
    # narrow for the flat indices instead of wrapping them.
    np.add(flat, of, out=flat, casting="safe")
    cuts = np.searchsorted(flat, flat_bounds.astype(flat.dtype))
    _block_scatter(out_flat, flat, wts, flat_bounds, cuts, accumulate=False)


def class_rescale(Z: np.ndarray, labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Apply ``Z = S · diag(1/n_c)`` in place; returns the inverse counts.

    The column-wise counterpart of the per-vertex projection scales: column
    ``c`` of the raw sums is divided by the size of class ``c`` (columns of
    empty classes receive no contributions and stay zero).
    """
    from .validation import class_counts, inverse_class_counts

    inv = inverse_class_counts(class_counts(labels, n_classes))
    Z *= inv[None, :]
    return inv


def gee_fused_with_plan(plan, labels: np.ndarray) -> EmbeddingResult:
    """Vectorised GEE through a plan's locality-optimized fused layout.

    The layout-plan counterpart of :func:`gee_vectorized_with_plan`
    (dispatched when ``plan.layout == "sorted"``): the scatter runs the
    block-local segment-sum kernel over the compiled incidence arrays and
    writes straight into an output array from the plan's ring — per call
    the only temporaries are the O(2E) gathered/compacted index and weight
    arrays plus one L2-sized block at a time, never a fresh ``(n*K,)``
    output while no earlier result holds the plan's buffer.  The result
    owns its embedding, like every plan kernel's.
    """
    y = plan.validate_labels(labels)
    k = plan.n_classes
    fused = plan.fused

    t0 = time.perf_counter()
    fully = bool(y.size) and int(y.min()) != UNKNOWN_LABEL
    y_idx = y.astype(fused.index_dtype, copy=False)
    t1 = time.perf_counter()

    Z = plan.output_matrix()
    accumulate_fused_rows_sorted(
        Z.reshape(-1),
        fused.owner_flat,
        fused.partner,
        fused.weights,
        y_idx,
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


@hot_path(reason="plan-reuse edge pass (the per-call path of embed_with_plan)")
def _accumulate_with_plan(
    Z_flat: np.ndarray, plan, y: np.ndarray, scales: np.ndarray
) -> None:
    """The edge pass using a plan's precomputed flat-index components.

    ``flat = src*K + Y[dst]`` becomes one add on the precompiled ``src*K``
    array; when every vertex is labelled (the refinement loop's regime) the
    known-label masks are skipped entirely, saving six O(s) boolean-gather
    copies per call.
    """
    y_dst = y[plan.dst]
    y_src = y[plan.src]
    if y.size == 0 or y.min() != UNKNOWN_LABEL:
        # Fully labelled: no masking, use the precompiled components as-is.
        scatter_add(Z_flat, plan.src_flat + y_dst, scales[plan.dst] * plan.weights)
        scatter_add(Z_flat, plan.dst_flat + y_src, scales[plan.src] * plan.weights)
        return
    known = y_dst != UNKNOWN_LABEL
    if np.any(known):
        scatter_add(
            Z_flat,
            plan.src_flat[known] + y_dst[known],
            scales[plan.dst[known]] * plan.weights[known],
        )
    known = y_src != UNKNOWN_LABEL
    if np.any(known):
        scatter_add(
            Z_flat,
            plan.dst_flat[known] + y_src[known],
            scales[plan.src[known]] * plan.weights[known],
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
        _block_scatter(Z_flat, flat, wts, bounds, cuts, accumulate=True)


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

    The label-independent work (edge validation, flat scatter-index
    components, the output allocation) was done when the plan was compiled;
    this call only computes scales, zeroes the plan's reusable buffer and
    runs the scatter-adds.  The dense projection ``W`` is built lazily on
    first access of ``result.projection``.

    The output comes from the plan's output ring: the result owns it, and
    a later call on the plan never overwrites it.

    Plans compiled with the locality-optimized layout
    (``graph.plan(K, layout="sorted")``) dispatch to the fused segment-sum
    kernel (:func:`gee_fused_with_plan`) instead.
    """
    if plan.layout != "none":
        return gee_fused_with_plan(plan, labels)
    y = plan.validate_labels(labels)
    k = plan.n_classes

    t0 = time.perf_counter()
    scales = projection_scales(y, k)
    t1 = time.perf_counter()

    Z_flat = plan.zeroed_output()
    _accumulate_with_plan(Z_flat, plan, y, scales)
    t2 = time.perf_counter()

    return EmbeddingResult(
        embedding=Z_flat.reshape(plan.n_vertices, k),
        projection_builder=lambda: projection_from_scales(y, scales, k),
        timings={"projection": t1 - t0, "edge_pass": t2 - t1, "total": t2 - t0},
        method="gee-vectorized",
        n_workers=1,
    )
