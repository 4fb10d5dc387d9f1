"""Unsupervised GEE: the embed → cluster → re-embed refinement loop.

When no labels are available, the original GEE paper bootstraps them: start
from a random assignment into ``K`` classes, embed, cluster the embedding
with k-means, use the clusters as the next label vector, and repeat until
the assignment stabilises.  Because each iteration is a single GEE pass plus
a k-means on an ``n×K`` matrix, the whole loop stays linear in the number of
edges — and every iteration can use any of the GEE implementations,
including the parallel one.

Delta-driven iterations
-----------------------
After the first couple of rounds the label assignment is nearly stable —
typically well under 5 % of vertices change per iteration — yet the classic
loop re-embeds the *entire* graph every round.  The delta path (enabled
automatically for implementations known to compute the standard raw-weight
embedding) exploits that the embedding is linear in per-class *raw* edge
sums::

    S[u, c] = Σ_{(u,v) or (v,u) incident, Y[v]=c} w        Z = S · diag(1/n_c)

``S`` depends on the labels only through class membership, so when a vertex
``v`` moves from class ``a`` to class ``b`` just the rows of ``v``'s
neighbours change: ``S[nbr, a] -= w`` and ``S[nbr, b] += w`` for each
incident edge.  The sorted plan's symmetric CSR lists every incident edge
of ``v``, in either direction, in ``v``'s own row.  One iteration therefore
costs ``O(E_changed)`` scatter work plus the ``O(nK)`` rescale (already
paid by k-means anyway) instead of ``O(E)``.  To bound floating-point drift
from repeated add/subtract, a full re-embed runs every
``full_refresh_every`` iterations (and on the first); the equivalence test
asserts the delta path tracks a from-scratch embed to 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Union

import numpy as np

from ..graph.csr import _row_slots
from ..graph.facade import Graph, GraphLike
from ..labels.kmeans import kmeans
from ..obs import trace
from .gee_vectorized import scatter_add
from .result import EmbeddingResult
from .validation import class_counts, inverse_class_counts

__all__ = ["RefinementResult", "gee_unsupervised"]

SeedLike = Union[None, int, np.random.Generator]


@dataclass
class RefinementResult:
    """Output of the unsupervised refinement loop."""

    embedding: np.ndarray
    labels: np.ndarray
    n_iterations: int
    converged: bool
    history: List[float] = field(default_factory=list)
    final: Optional[EmbeddingResult] = None
    #: How many iterations ran the full O(E) embed vs. the O(E_changed)
    #: delta update (introspection for tests and benchmarks).
    n_full_passes: int = 0
    n_delta_passes: int = 0


def _align_labels(reference: np.ndarray, new: np.ndarray, n_classes: int) -> np.ndarray:
    """Permute ``new``'s cluster ids to best match ``reference``.

    k-means assigns arbitrary cluster ids each round; without alignment the
    loop would never register convergence even when the partition is stable.
    Alignment uses the Hungarian algorithm on the confusion matrix, which is
    built with a single ``bincount`` over the fused index
    ``new·K + reference`` (``np.add.at`` on a 2-D table goes through the
    buffered-ufunc path and is an order of magnitude slower).
    """
    from scipy.optimize import linear_sum_assignment

    table = np.bincount(
        new * n_classes + reference, minlength=n_classes * n_classes
    ).reshape(n_classes, n_classes)
    rows, cols = linear_sum_assignment(-table)
    mapping = np.arange(n_classes, dtype=np.int64)
    mapping[rows] = cols
    return mapping[new]


def _agreement(a: np.ndarray, b: np.ndarray) -> float:
    """Fraction of vertices whose label did not change between iterations."""
    if a.size == 0:
        return 1.0
    return float(np.mean(a == b))


def _is_standard_kernel(fn) -> bool:
    """Whether ``fn`` is one of the raw-weight GEE kernels.

    The delta update scatters the graph's *raw* edge weights, which is only
    exact for implementations computing the standard ``Z = S·diag(1/n_c)``
    embedding of the given graph.  Anything that reweights internally
    (e.g. :func:`~repro.core.laplacian.gee_laplacian`) or is an unknown
    callable must not be mixed with raw-weight deltas.
    """
    from .gee_ligra import gee_ligra
    from .gee_parallel import gee_parallel
    from .gee_python import gee_python
    from .gee_sparse import gee_sparse
    from .gee_vectorized import gee_vectorized

    return fn in (gee_python, gee_vectorized, gee_sparse, gee_ligra, gee_parallel)


def _resolve_implementation(implementation, impl_kwargs: dict):
    """Normalise ``implementation`` to ``(full_pass, plan_pass, standard)``.

    ``full_pass(graph, y, k)`` always works; ``plan_pass(plan, y)`` is
    non-None for registry backends (which all implement the compiled-plan
    path) and None for bare callables, which keep the historical
    ``(edges, labels, k, **kwargs)`` contract.  ``standard`` reports
    whether the implementation computes the raw-weight GEE embedding the
    delta path is exact for (every registry backend does; bare callables
    only if they are one of the exported standard kernels).
    """
    from ..backends import GEEBackend, get_backend

    if isinstance(implementation, str):
        backend = get_backend(implementation, **impl_kwargs)
        return backend.embed, backend.embed_with_plan, True
    if isinstance(implementation, GEEBackend):
        if impl_kwargs:
            raise TypeError(
                "implementation kwargs cannot be combined with a constructed "
                "backend instance; construct the backend with them instead"
            )
        return implementation.embed, implementation.embed_with_plan, True
    # Bare callables receive the EdgeList, per the historical contract.
    return (
        (lambda graph, y, k: implementation(graph.edges, y, k, **impl_kwargs)),
        None,
        _is_standard_kernel(implementation),
    )


def _apply_label_delta(
    S_flat: np.ndarray, fused, y_old: np.ndarray, y_new: np.ndarray
) -> int:
    """Update raw class sums ``S`` for the vertices whose label changed.

    For every changed vertex ``c`` and every edge between ``c`` and a
    neighbour ``nbr``, in either direction, with weight ``w``:
    ``S[nbr, y_old[c]] -= w`` and ``S[nbr, y_new[c]] += w``.  Those edges are
    the incidences of ``c``'s row in ``fused``, the graph's sorted layout
    (:class:`~repro.core.plan.FusedLayout`, a symmetric CSR), so one ragged
    gather over the changed rows finds them all.  Returns the number of
    incidences touched (the ``O(E_changed)`` work actually done).

    Assumes fully-known labels (the refinement loop's invariant — k-means
    assigns every vertex a class).
    """
    changed = np.flatnonzero(y_new != y_old)
    if changed.size == 0:
        return 0
    owners, slots = _row_slots(fused.indptr, changed)
    base = fused.partner[slots].astype(np.int64) * fused.n_classes
    w = 1.0 if fused.weights is None else fused.weights[slots]
    scatter_add(S_flat, base + y_old[owners], -w)
    scatter_add(S_flat, base + y_new[owners], w)
    return int(slots.size)


def gee_unsupervised(
    edges: GraphLike,
    n_classes: int,
    *,
    max_iterations: int = 20,
    convergence_fraction: float = 0.999,
    implementation: Union[str, Callable[..., EmbeddingResult]] = "vectorized",
    seed: SeedLike = 0,
    initial_labels: Optional[np.ndarray] = None,
    normalize: bool = True,
    delta: Union[bool, str] = "auto",
    full_refresh_every: int = 10,
    delta_threshold: float = 0.5,
    chunk_edges: Optional[int] = None,
    **impl_kwargs,
) -> RefinementResult:
    """Iteratively refine labels and embedding without supervision.

    Parameters
    ----------
    edges:
        The graph (symmetrised for undirected data), as any graph-like
        input.  The facade's cached views — and, for registry backends, its
        compiled :class:`~repro.core.plan.EmbedPlan` — are shared by every
        iteration, so no per-round validation or adjacency rebuilding
        happens.  A :class:`~repro.stream.dynamic.DynamicGraph` is also
        accepted: the loop runs on its current snapshot and *carries its
        state across versions* — the converged labels are stored on the
        dynamic graph, and the next ``gee_unsupervised`` call on it (after
        more commits) warm-starts from them instead of a random
        assignment, so refinement over a drifting graph converges in a
        couple of iterations per version instead of starting cold.
    n_classes:
        Number of clusters / embedding dimensions ``K``.
    max_iterations:
        Cap on the number of embed-cluster rounds.
    convergence_fraction:
        Stop when at least this fraction of vertices keeps its label between
        consecutive rounds.
    implementation:
        Which GEE implementation performs the *full* embedding passes: a
        registered backend name (``"vectorized"``, ``"parallel"``, ...), a
        :class:`~repro.backends.GEEBackend` instance, or a bare callable
        with the ``(edges, labels, n_classes, **kwargs)`` signature.
    initial_labels:
        Optional warm start (e.g. from
        :func:`repro.labels.leiden.leiden_communities`); random otherwise.
    normalize:
        Row-normalise the embedding before clustering (recommended by the
        original GEE paper; keeps hubs from dominating the k-means).
    delta:
        Use the incremental O(E_changed) update for iterations after the
        first (see the module docstring).  The default ``"auto"`` enables
        it only for implementations known to compute the standard
        raw-weight GEE embedding (every registry backend, and the exported
        ``gee_*`` kernels) — the delta scatter replays raw edge weights,
        so mixing it with an internally-reweighting implementation (e.g.
        ``gee_laplacian``) or an arbitrary callable would corrupt the
        embedding.  ``True`` forces it on (you assert compatibility);
        ``False`` restores the classic full re-embed per round.
    full_refresh_every:
        With ``delta=True``, run an exact full re-embed every this many
        iterations to cancel accumulated floating-point drift.
    delta_threshold:
        With ``delta=True``, fall back to a full re-embed for any iteration
        in which more than this fraction of vertices changed label — the
        delta scatter walks every incident edge twice (subtract + add), so
        above roughly half the vertices it does more memory traffic than
        the full pass.  The early chaotic rounds of a random start
        therefore run full; the delta path takes over once the assignment
        settles.
    chunk_edges:
        Run the *full* embedding passes (the first iteration, periodic
        refreshes and threshold fallbacks) through the out-of-core chunked
        plan with this block size, bounding their temporary working set;
        the delta passes already touch only the edges of changed vertices.
        Requires a registry-backend ``implementation`` whose capabilities
        declare ``supports_chunked``.  Note the delta path still compiles
        the graph's in-memory sorted layout (its symmetric CSR) — combine
        ``chunk_edges`` with ``delta=False`` when that layout must not be
        materialised.
    """
    from ..stream.dynamic import DynamicGraph

    dynamic: Optional[DynamicGraph] = None
    if isinstance(edges, DynamicGraph):
        dynamic = edges
        graph = dynamic.graph
        if initial_labels is None and dynamic.refinement_state is not None:
            _, carried = dynamic.refinement_state
            if carried.shape[0] <= graph.n_vertices:
                # Warm start from the previous version's converged labels;
                # vertices added since arrive as -1 (randomised below).
                initial_labels = np.full(graph.n_vertices, -1, dtype=np.int64)
                initial_labels[: carried.shape[0]] = carried
    else:
        graph = Graph.coerce(edges)
    if graph.n_vertices == 0:
        raise ValueError("GEE requires at least one vertex")
    if n_classes <= 0:
        raise ValueError("n_classes must be positive")
    if not 0 < convergence_fraction <= 1:
        raise ValueError("convergence_fraction must be in (0, 1]")
    if full_refresh_every <= 0:
        raise ValueError("full_refresh_every must be positive")
    if not 0 < delta_threshold <= 1:
        raise ValueError("delta_threshold must be in (0, 1]")
    full_pass, plan_pass, standard = _resolve_implementation(implementation, impl_kwargs)
    if delta == "auto":
        delta = standard
    elif delta not in (True, False):
        raise ValueError('delta must be True, False or "auto"')
    delta = bool(delta)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n = graph.n_vertices
    k = int(n_classes)

    if initial_labels is not None:
        labels = np.asarray(initial_labels, dtype=np.int64).copy()
        if labels.shape[0] != n:
            raise ValueError("initial_labels must have one entry per vertex")
        labels = np.where(labels < 0, rng.integers(0, k, size=n), labels)
        labels = np.minimum(labels, k - 1)
    else:
        labels = rng.integers(0, k, size=n).astype(np.int64)

    # The delta scatter walks the sorted plan's symmetric CSR, and registry
    # backends run their zero-validation full passes on a plan.
    delta_plan = graph.plan(k, layout="sorted") if delta else None
    full_plan = None
    if chunk_edges is not None:
        if plan_pass is None:
            raise ValueError(
                "chunk_edges requires a registry-backend implementation "
                "(a name or GEEBackend instance), not a bare callable"
            )
        # Full passes stream in bounded blocks.
        full_plan = graph.plan(k, chunk_edges=chunk_edges)
    elif plan_pass is not None:
        full_plan = graph.plan(k)

    def run_full(y: np.ndarray) -> EmbeddingResult:
        if plan_pass is not None and full_plan is not None:
            return plan_pass(full_plan, y)
        return full_pass(graph, y, k)

    history: List[float] = []
    converged = False
    result: Optional[EmbeddingResult] = None
    n_full = n_delta = 0
    #: Raw class sums S (flat) and the labels they were computed under.
    S_flat: Optional[np.ndarray] = None
    labels_of_S: Optional[np.ndarray] = None
    counts = np.empty(0)
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        refresh_due = (iteration - 1) % full_refresh_every == 0
        too_many_changed = (
            S_flat is not None
            and labels_of_S is not None
            and float(np.mean(labels != labels_of_S)) > delta_threshold
        )
        if not delta or S_flat is None or refresh_due or too_many_changed:
            reason = (
                "cold"
                if S_flat is None
                else ("threshold" if too_many_changed else "scheduled")
            )
            with trace("refinement.full_pass", iteration=iteration, reason=reason):
                result = run_full(labels)
            n_full += 1
            if delta:
                counts = class_counts(labels, k).astype(np.float64)
                # Recover raw sums from the scaled embedding: Z = S/n_c.
                S_flat = (result.embedding * counts[None, :]).ravel()
                labels_of_S = labels.copy()
            Z = result.embedding
        else:
            assert labels_of_S is not None and delta_plan is not None
            with trace(
                "refinement.delta_pass",
                iteration=iteration,
                changed=int(np.count_nonzero(labels != labels_of_S)),
            ):
                _apply_label_delta(S_flat, delta_plan.fused, labels_of_S, labels)
            labels_of_S = labels.copy()
            n_delta += 1
            inv = inverse_class_counts(class_counts(labels, k))
            Z = S_flat.reshape(n, k) * inv[None, :]
            result = EmbeddingResult(
                embedding=Z,
                projection_builder=lambda y=labels.copy(): _projection_for(y, k),
                timings={},
                method="gee-delta",
                n_workers=1,
            )
        X = result.normalized() if normalize else Z
        km = kmeans(X, k, seed=rng)
        new_labels = _align_labels(labels, km.labels, k)
        agreement = _agreement(labels, new_labels)
        history.append(agreement)
        labels = new_labels
        if agreement >= convergence_fraction:
            converged = True
            break

    assert result is not None
    if dynamic is not None:
        dynamic.refinement_state = (dynamic.version, labels.copy())
    return RefinementResult(
        embedding=result.embedding,
        labels=labels,
        n_iterations=iteration,
        converged=converged,
        history=history,
        final=result,
        n_full_passes=n_full,
        n_delta_passes=n_delta,
    )


def _projection_for(labels: np.ndarray, n_classes: int) -> np.ndarray:
    from .projection import projection_from_scales, projection_scales

    scales = projection_scales(labels, n_classes)
    return projection_from_scales(labels, scales, n_classes)
