"""Vectorised GEE: the compiled-serial baseline (the paper's Numba column).

The paper's second baseline compiles the edge loop with Numba, obtaining a
30–50× speedup over interpreted Python by removing per-edge interpreter
overhead while staying on one core.  Numba is not available offline, so the
same role is filled by a fully vectorised NumPy formulation:

The two updates per edge (Algorithm 1, lines 10–11)::

    Z[u, Y[v]] += W[v, Y[v]] * w      (for edges with Y[v] known)
    Z[v, Y[u]] += W[u, Y[u]] * w      (for edges with Y[u] known)

are scatter-adds into the flattened ``n×K`` embedding at flat indices
``u*K + Y[v]`` and ``v*K + Y[u]``; the Ligra engine's batches run them as
written (:func:`accumulate_edges_vectorized`).  ``W[v, Y[v]]`` depends
only on the column the contribution lands in, so the plan kernels scatter
*raw* weights and rescale each column by ``1/n_c`` once
(``Z = S·diag(1/n_c)``):

* the default plan's pass (:func:`known_incidence_sums`) sums every known
  incidence with one ``np.bincount``;
* the sorted layout's kernel (:func:`accumulate_fused_rows_sorted`) runs
  one block-local ``bincount`` per L2 row block of the owner-sorted
  incidence;
* every chunked plan and every O(Δ) patch runs one compile-free step,
  :func:`add_known_incidences`: the same known incidences, ``np.add.at``
  into an output that persists across the chunks or versions.

All of them are single-threaded and bit-wise reproducible, so they slot
into Table I's "Numba Serial" column.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

import numpy as np

from ..analysis.annotations import hot_path
from ..graph.edgelist import EdgeList
from .plan import _embed_on_default_plan, choose_label_dtype
from .projection import projection_from_scales, projection_scales
from .result import EmbeddingResult
from .validation import UNKNOWN_LABEL, class_counts, inverse_class_counts

__all__ = [
    "gee_vectorized",
    "gee_vectorized_with_plan",
    "gee_vectorized_chunked",
    "accumulate_edges_vectorized",
    "accumulate_fused_rows_sorted",
    "add_known_incidences",
    "class_rescale",
    "known_incidence_sums",
    "patch_sums_vectorized",
    "scatter_add",
]


@hot_path(reason="the scatter primitive every unsorted embed/patch call funnels through")
def scatter_add(out_flat: np.ndarray, flat_idx: np.ndarray, weights) -> None:
    """``out_flat[flat_idx] += weights`` with duplicate indices summed.

    ``np.add.at``: NumPy's unbuffered scatter-add, which since NumPy 1.25
    runs a fast loop for 1-D ``intp`` indices.  It touches only the slots
    it adds to, so it allocates nothing of the output's size, and it adds
    in index order, so the sums are bitwise reproducible.  ``weights`` may
    be a scalar (``1.0`` for unit weights).
    """
    # repro: ignore[no-add-at] the one scatter primitive; faster than a dense bincount on NumPy >= 1.25
    np.add.at(out_flat, flat_idx, weights)


@hot_path(reason="scaled per-edge pass: the Ligra engine's batches")
def accumulate_edges_vectorized(
    Z_flat: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray,
    labels: np.ndarray,
    scales: np.ndarray,
    n_classes: int,
) -> None:
    """Accumulate the GEE contribution of a batch of edges into ``Z_flat``.

    ``Z_flat`` is the flattened ``(n*K,)`` view of the embedding, and each
    contribution is scaled by its partner's projection scale ``scales``:
    the paper's per-edge form, run by the Ligra batch function
    (:meth:`~repro.core.gee_ligra.UpdateEmbedding.update_batch_into`).
    """
    y_dst = labels[dst]
    known = y_dst != UNKNOWN_LABEL
    if np.any(known):
        flat = src[known] * n_classes + y_dst[known]
        scatter_add(Z_flat, flat, scales[dst[known]] * weights[known])
    y_src = labels[src]
    known = y_src != UNKNOWN_LABEL
    if np.any(known):
        flat = dst[known] * n_classes + y_src[known]
        scatter_add(Z_flat, flat, scales[src[known]] * weights[known])


def _known_incidences(
    owner: np.ndarray,
    partner: np.ndarray,
    weights: Optional[np.ndarray],
    y_lab: np.ndarray,
    fully_labelled: bool,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """``(owner, label, weight)`` of the incidences whose partner is labelled.

    One half of an edge batch: the incidences owned by ``owner``, in
    arrival order.  ``weights=None`` (unit weights) stays ``None``.
    """
    labels = y_lab.take(partner)
    if not fully_labelled:
        # One index array, then gathers: cheaper than boolean masks.
        keep = np.flatnonzero(labels != UNKNOWN_LABEL)
        owner, labels = owner.take(keep), labels.take(keep)
        weights = None if weights is None else weights.take(keep)
    return owner, labels, weights


@hot_path(reason="the one out-of-core and O(Δ) step: a compile-free scatter of the known incidences")
def add_known_incidences(
    out_flat: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    weights: Optional[np.ndarray],
    y_lab: np.ndarray,
    n_classes: int,
    *,
    fully_labelled: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Add the raw sums of an edge batch's known incidences into ``out_flat``.

    The step every chunked plan runs chunk by chunk, and every O(Δ) patch
    runs on its signed delta.  For the source-owned half, then the
    destination-owned half, it gathers the label table ``y_lab`` at the
    partners, keeps the labelled incidences with one index array and
    scatter-adds their raw weights into ``out_flat[owner*K + label]``
    (:func:`scatter_add`; ``weights=None`` adds a scalar ``1.0``).  It
    compiles nothing and allocates O(batch), never O(n·K).

    Returns the flat slots it added to, one ``intp`` array per half
    (source-owned first), repeats included: the only slots of
    ``out_flat`` that changed.

    ``y_lab`` is any signed integer label table; the chunked pass casts it
    once to :func:`~repro.core.plan.choose_label_dtype` ``(K)``.  Set
    ``fully_labelled`` when no label is unknown, to skip the keep step.
    Each slot sums its incidences in batch order, source-owned half first,
    so one batch into a zeroed output equals :func:`known_incidence_sums`
    bit for bit.
    """
    k = int(n_classes)
    slots = []
    for owner, partner in ((src, dst), (dst, src)):
        owner, labels, wts = _known_incidences(
            owner, partner, weights, y_lab, fully_labelled
        )
        flat = np.multiply(owner, k, dtype=np.intp)
        flat += labels
        scatter_add(out_flat, flat, 1.0 if wts is None else wts)
        slots.append(flat)
    return slots[0], slots[1]


@hot_path(reason="O(Δ) incremental patch kernel")
def patch_sums_vectorized(
    S_flat: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    delta_w: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Apply a signed edge delta to flat raw per-class sums, in place.

    The one O(Δ) patch step, run by
    :meth:`~repro.core.raw_sums.RawSums.apply` and by the estimator's
    ``transform``: raw sums move by exactly ``S[u, Y[v]] += Δw``, which is
    :func:`add_known_incidences` on the signed delta.  It gathers
    ``labels`` as given, so nothing of size n is cast or allocated per
    patch.  Returns the flat slots it wrote, one array per half (see
    :func:`add_known_incidences`).
    """
    return add_known_incidences(S_flat, src, dst, delta_w, labels, n_classes)


# --------------------------------------------------------------------------- #
# Locality-optimized segment-sum kernels (FusedLayout consumers)
# --------------------------------------------------------------------------- #
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
    halves = [
        _known_incidences(owner, partner, weights, y_lab, fully_labelled)
        for owner, partner in ((src, dst), (dst, src))
    ]
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
) -> EmbeddingResult:
    """One-Hot Graph Encoder Embedding, vectorised single-core implementation.

    Parameters are as in :func:`repro.core.gee_python.gee_python`; any
    graph-like input is accepted.  Runs :func:`gee_vectorized_with_plan` on
    the input's default plan, as ``get_backend("vectorized").embed`` does.
    """
    return _embed_on_default_plan(edges, labels, n_classes, gee_vectorized_with_plan)


def gee_vectorized_chunked(plan, labels: np.ndarray) -> EmbeddingResult:
    """Out-of-core vectorised GEE on a :class:`~repro.core.plan.ChunkedPlan`.

    The one chunked pass of every chunk-capable backend: it streams the
    plan's source block by block through :func:`add_known_incidences` into
    one zeroed buffer of the plan's output ring, then rescales the columns
    once (:func:`class_rescale`).  Every temporary is O(chunk_edges), so
    the working set beyond the ``(n*K,)`` output is bounded by the
    source's memory budget however large E is.  A unit-weight embedding is
    bitwise the default plan's at any chunk size; a weighted one is
    bitwise with one chunk and otherwise differs only in summation order.
    The result owns its embedding.
    """
    y = plan.validate_labels(labels)
    k = plan.n_classes

    t0 = time.perf_counter()
    fully = bool(y.size) and int(y.min()) != UNKNOWN_LABEL
    y_lab = y.astype(choose_label_dtype(k))
    t1 = time.perf_counter()

    Z_flat = plan.zeroed_output()
    for src, dst, w in plan.source.iter_chunks():
        add_known_incidences(Z_flat, src, dst, w, y_lab, k, fully_labelled=fully)
    Z = Z_flat.reshape(plan.n_vertices, k)
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
        layout="none",
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
