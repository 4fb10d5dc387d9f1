"""High-level user-facing API: the :class:`GraphEncoderEmbedding` estimator.

The estimator is built on two subsystems introduced by the API redesign:

* **the backend registry** (:mod:`repro.backends`) — every execution
  strategy (``python``, ``vectorized``, ``ligra-serial``,
  ``ligra-vectorized``, ``ligra-threads``, ``ligra-processes``,
  ``parallel``) is a registered :class:`~repro.backends.GEEBackend` with
  declared capabilities; ``method=`` accepts a canonical name, a legacy
  alias (``"ligra"``, ``"ligra-parallel"``) or a constructed backend
  instance, and unsupported options are rejected at construction;
* **the graph facade** (:class:`repro.graph.facade.Graph`) — ``fit`` and
  friends accept any graph-like input (``EdgeList``, ``CSRGraph``,
  ``(s, 2|3)`` arrays, ``scipy.sparse`` adjacencies) and reuse the facade's
  cached CSR / Laplacian views instead of recomputing them per call.

Beyond the batch ``fit`` of the paper, the estimator supports two online
scenarios the batch algorithm doesn't cover:

* :meth:`~GraphEncoderEmbedding.transform` — embed *out-of-sample* vertices
  from their incident edges alone, with one edge pass that touches only the
  new edges (the fitted vertices' rows and class counts are unchanged);
* :meth:`~GraphEncoderEmbedding.partial_fit` — *streaming* ingestion of
  edge batches with incremental class-count/projection updates; the
  embedding after streaming the whole edge set equals a full-batch ``fit``
  up to floating-point summation order.

Examples
--------
>>> from repro.graph import planted_partition
>>> from repro.labels import mask_labels
>>> edges, truth = planted_partition(300, 3, 0.1, 0.01, seed=1)
>>> y = mask_labels(truth, 0.2, seed=1)
>>> model = GraphEncoderEmbedding(method="vectorized").fit(edges, y)
>>> model.embedding_.shape
(300, 3)
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Union

import numpy as np

from ..backends import GEEBackend, get_backend, list_backends, resolve_backend_name
from ..graph.facade import Graph, GraphLike, as_edgelist
from .gee_vectorized import accumulate_edges_vectorized
from .refinement import gee_unsupervised
from .result import EmbeddingResult
from .validation import (
    UNKNOWN_LABEL,
    class_counts,
    inverse_class_counts,
    validate_labels,
)
from .projection import projection_from_scales, projection_scales

__all__ = ["GraphEncoderEmbedding"]


class GraphEncoderEmbedding:
    """One-Hot Graph Encoder Embedding estimator.

    Parameters
    ----------
    n_classes:
        Embedding dimensionality ``K``.  May be omitted for supervised fits
        (inferred from the labels) but is required for unsupervised fits.
    method:
        A registered backend name (see
        :func:`repro.backends.list_backends`), a legacy alias (``"ligra"``,
        ``"ligra-parallel"``) or a constructed
        :class:`~repro.backends.GEEBackend` instance.
    laplacian:
        Use the normalised-Laplacian edge weights instead of raw adjacency
        (reuses the graph facade's cached reweighted view).
    n_workers:
        Worker count, only valid for backends whose capabilities declare
        ``supports_n_workers`` — otherwise construction raises.
    normalize:
        Row-normalise the embedding exposed via :attr:`embedding_` (and the
        rows returned by :meth:`transform`).
    layout:
        Memory layout for the compiled embed plan: ``None`` (the default —
        layout-preserving; ``parallel`` still runs the sorted kernel, which
        matches its earlier arrival-order output to 1e-10, not bitwise),
        ``"sorted"`` (the locality-optimized fused kernel on
        ``supports_layout`` backends), or ``"auto"`` (the calibrated cost
        model picks; see :mod:`repro.tune`).  With ``method="auto"``, the
        default ``None`` leaves the layout to the cost model, while an
        explicit ``"sorted"`` pins it (auto then picks only among backends
        executing that layout).
    **backend_options:
        Extra options forwarded to the backend constructor (for example
        ``chunk_edges`` for ``"vectorized"`` or ``atomic`` for the Ligra
        family).  Unknown options raise immediately.

    Examples
    --------
    >>> from repro.graph import planted_partition
    >>> from repro.labels import mask_labels
    >>> edges, truth = planted_partition(300, 3, 0.1, 0.01, seed=1)
    >>> y = mask_labels(truth, 0.2, seed=1)
    >>> model = GraphEncoderEmbedding(method="vectorized").fit(edges, y)
    >>> model.embedding_.shape
    (300, 3)
    """

    def __init__(
        self,
        n_classes: Optional[int] = None,
        *,
        method: Union[str, GEEBackend] = "vectorized",
        laplacian: bool = False,
        n_workers: Optional[int] = None,
        normalize: bool = False,
        layout: Optional[str] = None,
        **backend_options,
    ) -> None:
        if isinstance(method, GEEBackend):
            if n_workers is not None or backend_options:
                raise TypeError(
                    "n_workers / backend options cannot be combined with an "
                    "already-constructed backend instance; construct the "
                    "backend with those options instead"
                )
            self._backend = method
            self.method = type(method).name
        else:
            try:
                canonical = resolve_backend_name(method)
            except ValueError:
                raise ValueError(
                    f"unknown method {method!r}; available: {list_backends()}"
                ) from None
            self._backend = get_backend(canonical, n_workers=n_workers, **backend_options)
            self.method = canonical
        self.n_classes = n_classes
        self.laplacian = laplacian
        self.n_workers = n_workers
        self.normalize = normalize
        self.layout = layout
        # Fitted state
        self.result_: Optional[EmbeddingResult] = None
        self.labels_: Optional[np.ndarray] = None
        self.is_fitted_: bool = False
        self._scales_: Optional[np.ndarray] = None
        # Streaming (partial_fit) state: raw, un-scaled class sums, plus a
        # per-vertex "touched by an ingested edge" mask guarding label edits.
        self._stream_sums_: Optional[np.ndarray] = None
        self._stream_labels_: Optional[np.ndarray] = None
        self._stream_touched_: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def _prepare_graph(self, graph: GraphLike) -> Graph:
        g = Graph.coerce(graph)
        return g.laplacian if self.laplacian else g

    def _reset_stream(self) -> None:
        self._stream_sums_ = None
        self._stream_labels_ = None
        self._stream_touched_ = None

    def fit(
        self,
        graph: GraphLike,
        labels: np.ndarray,
        *,
        chunk_edges: Optional[int] = None,
        memory_budget_bytes: Optional[int] = None,
    ) -> "GraphEncoderEmbedding":
        """Semi-supervised fit: embed using the given (partial) labels.

        ``graph`` is any graph-like input; passing a
        :class:`~repro.graph.facade.Graph` lets repeated fits reuse its
        cached views *and* its compiled :class:`~repro.core.plan.EmbedPlan`
        — fits after the first on the same ``(graph, K)`` skip edge
        validation, index building and output allocation entirely.

        Out-of-core fits: pass a
        :class:`~repro.graph.io.ChunkedEdgeSource` as ``graph`` (the edges
        are streamed from their memory-mapped store, never materialised), or
        set ``chunk_edges`` / ``memory_budget_bytes`` on an in-memory input
        to bound the edge pass's temporary working set.  Both require a
        backend whose capabilities declare ``supports_chunked``
        (``vectorized``, ``sparse``, ``parallel``).
        """
        from ..graph.io import ChunkedEdgeSource

        if isinstance(graph, ChunkedEdgeSource):
            if self.laplacian:
                raise ValueError(
                    "laplacian=True is not supported with a ChunkedEdgeSource: "
                    "the reweighting needs a degree pass over the whole graph"
                )
            if self.layout not in (None, "none", "auto"):
                raise ValueError(
                    f"layout={self.layout!r} is not available for a standalone "
                    "ChunkedEdgeSource (it streams in stored order and may be "
                    "larger than RAM, so it cannot be re-permuted); pass an "
                    "in-memory graph, or drop the layout request"
                )
            source = graph
            if chunk_edges is not None or memory_budget_bytes is not None:
                source = source.reblocked(
                    chunk_edges=chunk_edges, memory_budget_bytes=memory_budget_bytes
                )
            y, k = validate_labels(labels, source.n_vertices, self.n_classes)
            from .plan import ChunkedPlan

            result = self._backend.embed_with_plan(ChunkedPlan(source, k), y)
        else:
            g = Graph.coerce(graph)
            if g.n_vertices == 0:
                raise ValueError("GEE requires at least one vertex")
            work = g.laplacian if self.laplacian else g
            y, k = validate_labels(labels, g.n_vertices, self.n_classes)
            layout = self.layout
            if layout == "auto" and not type(self._backend).capabilities.supports_layout:
                # "Pick for me" must resolve to a layout this backend can
                # execute; backends without the fused kernels run their
                # classic arrival-order paths.
                layout = None
            plan = work.plan(
                k,
                chunk_edges=chunk_edges,
                memory_budget_bytes=memory_budget_bytes,
                layout=layout,
            )
            result = self._backend.embed_with_plan(plan, y)
        self.result_ = result
        self.labels_ = y
        self.n_classes = k
        self._scales_ = projection_scales(y, k)
        self._reset_stream()
        self.is_fitted_ = True
        return self

    def fit_transform(self, graph: GraphLike, labels: np.ndarray) -> np.ndarray:
        """Fit on ``graph`` and return the ``(n, K)`` embedding."""
        return self.fit(graph, labels).embedding_

    def fit_unsupervised(
        self,
        graph: GraphLike,
        *,
        max_iterations: int = 20,
        seed: Optional[int] = 0,
        chunk_edges: Optional[int] = None,
    ) -> "GraphEncoderEmbedding":
        """Unsupervised fit via the embed → cluster → re-embed loop.

        ``chunk_edges`` bounds the temporary working set of the loop's full
        embedding passes (see :func:`~repro.core.refinement.gee_unsupervised`);
        the delta passes already touch only changed edges.
        """
        if self.n_classes is None:
            raise ValueError("n_classes must be set for unsupervised fitting")
        work = self._prepare_graph(graph)
        refinement = gee_unsupervised(
            work,
            self.n_classes,
            max_iterations=max_iterations,
            implementation=self._backend,
            seed=seed,
            chunk_edges=chunk_edges,
        )
        self.result_ = refinement.final
        self.labels_ = refinement.labels
        self._scales_ = projection_scales(refinement.labels, self.n_classes)
        self._reset_stream()
        self.is_fitted_ = True
        return self

    # ------------------------------------------------------------------ #
    # Out-of-sample transform
    # ------------------------------------------------------------------ #
    def transform(
        self,
        edges: GraphLike,
        vertices: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Embed out-of-sample vertices from their incident edges.

        Runs one GEE edge pass over *only* the given edges, using the
        fitted labels and projection scales.  New vertices are any vertex
        ids at or beyond the fitted vertex count; they are treated as
        unlabelled, so the fitted vertices' class counts (and therefore
        their embedding rows) are untouched — exactly what a full-batch
        refit with the new vertices unlabelled would produce.

        Parameters
        ----------
        edges:
            Graph-like set of edges incident to the new vertices.  Edge
            weights are used as given (no Laplacian reweighting is applied:
            out-of-sample degrees are unknown, so ``laplacian=True`` models
            reject ``transform``).
        vertices:
            Vertex ids whose embedding rows to return.  Defaults to every
            out-of-sample id (``n_fitted .. max_endpoint``) in order.

        Returns
        -------
        ``(len(vertices), K)`` embedding rows (row-normalised if the
        estimator was configured with ``normalize=True``).
        """
        self._check_fitted()
        if self.laplacian:
            raise ValueError(
                "transform is not supported with laplacian=True: Laplacian "
                "reweighting needs the degrees of the combined graph, which "
                "out-of-sample edges change"
            )
        assert self.labels_ is not None and self._scales_ is not None
        new = as_edgelist(edges)
        k = int(self.n_classes)  # type: ignore[arg-type]
        n_fit = int(self.labels_.shape[0])
        n_total = max(new.n_vertices, n_fit)

        y_ext = np.full(n_total, UNKNOWN_LABEL, dtype=np.int64)
        y_ext[:n_fit] = self.labels_
        scales_ext = np.zeros(n_total, dtype=np.float64)
        scales_ext[:n_fit] = self._scales_

        Z_flat = np.zeros(n_total * k, dtype=np.float64)
        accumulate_edges_vectorized(
            Z_flat, new.src, new.dst, new.effective_weights(), y_ext, scales_ext, k
        )
        Z = Z_flat.reshape(n_total, k)
        if self.normalize:
            norms = np.linalg.norm(Z, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            Z = Z / norms
        if vertices is None:
            vertices = np.arange(n_fit, n_total, dtype=np.int64)
        vertices = np.asarray(vertices, dtype=np.int64)
        return Z[vertices]

    # ------------------------------------------------------------------ #
    # Streaming ingestion
    # ------------------------------------------------------------------ #
    def _ensure_stream_state(self) -> None:
        """Initialise the streaming sums (from a batch fit when present)."""
        if self._stream_sums_ is None:
            if self.is_fitted_ and self.result_ is not None and self.labels_ is not None:
                # Continue streaming from a batch fit: recover raw sums.
                k = int(self.n_classes)  # type: ignore[arg-type]
                counts = class_counts(self.labels_, k).astype(np.float64)
                self._stream_sums_ = self.result_.embedding * counts[None, :]
                self._stream_labels_ = np.asarray(self.labels_, dtype=np.int64).copy()
                # The fitted graph's edges are gone; conservatively freeze
                # every fitted vertex's label.
                self._stream_touched_ = np.ones(self._stream_labels_.shape[0], dtype=bool)
            else:
                # With an explicit n_classes (or labels arriving with this
                # call), streaming may start unlabelled.
                self._stream_labels_ = np.empty(0, dtype=np.int64)
                self._stream_sums_ = np.zeros((0, 0), dtype=np.float64)
                self._stream_touched_ = np.zeros(0, dtype=bool)

    def _merge_stream_labels(self, labels: Optional[np.ndarray]) -> None:
        """Merge a (possibly extended) label vector into the stream state."""
        if labels is not None:
            y_new = np.asarray(labels)
            y_new, k = validate_labels(y_new, y_new.shape[0], self.n_classes)
            old = self._stream_labels_
            touched = self._stream_touched_
            assert old is not None and touched is not None
            if y_new.shape[0] < old.shape[0]:
                raise ValueError(
                    f"labels may only be extended: got {y_new.shape[0]} labels for "
                    f"{old.shape[0]} already-ingested vertices"
                )
            # Only vertices that an ingested edge has touched are frozen:
            # their past contributions were accumulated under the old label.
            # Padding vertices no edge has reached may be (re)labelled freely.
            frozen = touched & (y_new[: old.shape[0]] != old)
            if np.any(frozen):
                raise ValueError(
                    "labels of already-ingested vertices must not change between "
                    "partial_fit calls (their edges were accumulated under the "
                    f"previous labels); offending vertices: "
                    f"{np.flatnonzero(frozen)[:10].tolist()}"
                )
            self._stream_labels_ = y_new
            self.n_classes = k
        if self.n_classes is None:
            raise ValueError(
                "n_classes could not be determined; pass labels or set n_classes"
            )

    def _grow_stream_state(self, n_needed: int) -> None:
        """Grow labels / touched mask / sums to cover ``n_needed`` vertices."""
        assert self._stream_labels_ is not None and self._stream_sums_ is not None
        assert self._stream_touched_ is not None
        k = int(self.n_classes)  # type: ignore[arg-type]
        if self._stream_labels_.shape[0] < n_needed:
            grown = np.full(n_needed, UNKNOWN_LABEL, dtype=np.int64)
            grown[: self._stream_labels_.shape[0]] = self._stream_labels_
            self._stream_labels_ = grown
        if self._stream_touched_.shape[0] < n_needed:
            grown_touched = np.zeros(n_needed, dtype=bool)
            grown_touched[: self._stream_touched_.shape[0]] = self._stream_touched_
            self._stream_touched_ = grown_touched
        if self._stream_sums_.shape != (n_needed, k):
            grown_sums = np.zeros((n_needed, k), dtype=np.float64)
            rows, cols = self._stream_sums_.shape
            grown_sums[:rows, :cols] = self._stream_sums_
            self._stream_sums_ = grown_sums

    def _finalise_stream(self, t0: float) -> "GraphEncoderEmbedding":
        """Divide the raw sums by current class counts and rebuild W."""
        assert self._stream_labels_ is not None and self._stream_sums_ is not None
        k = int(self.n_classes)  # type: ignore[arg-type]
        counts = class_counts(self._stream_labels_, k).astype(np.float64)
        inv = inverse_class_counts(counts)
        Z = self._stream_sums_ * inv[None, :]
        scales = projection_scales(self._stream_labels_, k)
        W = projection_from_scales(self._stream_labels_, scales, k)
        self.result_ = EmbeddingResult(
            embedding=Z,
            projection=W,
            timings={"total": time.perf_counter() - t0},
            method="gee-streaming",
            n_workers=1,
        )
        self.labels_ = self._stream_labels_
        self._scales_ = scales
        self.is_fitted_ = True
        return self

    def partial_fit(
        self,
        edges: GraphLike,
        labels: Optional[np.ndarray] = None,
        *,
        remove: bool = False,
    ) -> "GraphEncoderEmbedding":
        """Ingest (or retract) one batch of edges, updating incrementally.

        The estimator accumulates the *raw* per-class weight sums
        ``S[u, c] = Σ w`` over ingested edges and keeps class counts
        separate, so the embedding ``Z[:, c] = S[:, c] / count_c`` after any
        number of batches equals a full-batch :meth:`fit` on the union of
        the batches (up to floating-point summation order).

        Parameters
        ----------
        edges:
            Graph-like batch of edges.  New vertex ids grow the embedding.
        labels:
            Full label vector covering every vertex seen so far (may extend
            the previous vector for newly arrived vertices; ``-1`` =
            unknown).  Required on the first call unless the estimator was
            batch-fitted first, in which case streaming continues from the
            fitted state.  Labels of already-ingested vertices must not
            change — their edges were accumulated under the old label.
        remove:
            Retract the batch instead of ingesting it: each edge's
            contribution is *subtracted* from the raw sums — the inverse of
            a previous ingestion of the same edges (with the same weights).
            The caller asserts the edges were previously streamed in; the
            estimator has no edge store to verify against (use
            :class:`repro.stream.DynamicGraph` +
            :meth:`update` for checked removals).

        Notes
        -----
        A vertex must carry its final label before the first batch
        containing its incident edges: contributions of an edge are
        accumulated under the labels known at ingestion time.
        """
        if self.laplacian:
            raise ValueError(
                "partial_fit is not supported with laplacian=True: streamed "
                "edges change the degrees the reweighting depends on"
            )
        t0 = time.perf_counter()
        batch = as_edgelist(edges)
        if (
            self._stream_sums_ is None
            and not self.is_fitted_
            and labels is None
            and self.n_classes is None
        ):
            raise ValueError(
                "the first partial_fit call must provide labels or the "
                "estimator must be constructed with n_classes (or follow "
                "a batch fit to continue streaming from it)"
            )
        self._ensure_stream_state()
        self._merge_stream_labels(labels)
        k = int(self.n_classes)  # type: ignore[arg-type]
        n_needed = max(batch.n_vertices, self._stream_labels_.shape[0])
        self._grow_stream_state(n_needed)

        # Accumulate the batch's raw (un-scaled) class sums: the shared
        # vectorised kernel with scales=None computes S[u, Y[v]] += w
        # (negated weights retract a previously-ingested batch).
        w = batch.effective_weights()
        accumulate_edges_vectorized(
            self._stream_sums_.reshape(-1),
            batch.src,
            batch.dst,
            -w if remove else w,
            self._stream_labels_,
            None,
            k,
        )
        self._stream_touched_[batch.src] = True
        self._stream_touched_[batch.dst] = True
        return self._finalise_stream(t0)

    def update(
        self,
        delta,
        labels: Optional[np.ndarray] = None,
    ) -> "GraphEncoderEmbedding":
        """Apply a committed mutation batch to the streamed embedding.

        ``delta`` is a :class:`~repro.stream.mutations.MutationDelta` (what
        :meth:`repro.stream.DynamicGraph.commit` returns): additions are
        ingested, removals retracted with the weights the removed instances
        actually carried, and weight updates applied as ``new − old`` — one
        O(Δ) patch through the backend's ``patch_sums`` kernel when its
        capabilities declare ``supports_incremental`` (the shared vectorised
        kernel otherwise).  ``labels`` may extend the vector for vertices
        the delta added.

        Requires streaming state (a previous :meth:`fit` /
        :meth:`partial_fit`); for a fully-managed live embedding use
        :class:`repro.stream.IncrementalEmbedding`.
        """
        from ..stream.mutations import MutationDelta

        if not isinstance(delta, MutationDelta):
            raise TypeError(
                f"update applies a MutationDelta (from DynamicGraph.commit), "
                f"got {type(delta)!r}; use partial_fit for plain edge batches"
            )
        if self.laplacian:
            raise ValueError(
                "update is not supported with laplacian=True: mutations "
                "change the degrees the reweighting depends on"
            )
        if self._stream_sums_ is None and not self.is_fitted_:
            raise RuntimeError(
                "update requires a fitted or streaming estimator; call fit "
                "or partial_fit first"
            )
        t0 = time.perf_counter()
        self._ensure_stream_state()
        self._merge_stream_labels(labels)
        k = int(self.n_classes)  # type: ignore[arg-type]
        n_needed = max(delta.n_vertices_after, self._stream_labels_.shape[0])
        self._grow_stream_state(n_needed)

        src, dst, dw = delta.patch_edges()
        if src.size:
            if type(self._backend).capabilities.supports_incremental:
                self._backend.patch_sums(
                    self._stream_sums_.reshape(-1), src, dst, dw,
                    self._stream_labels_, k,
                )
            else:
                accumulate_edges_vectorized(
                    self._stream_sums_.reshape(-1), src, dst, dw,
                    self._stream_labels_, None, k,
                )
            self._stream_touched_[src] = True
            self._stream_touched_[dst] = True
        return self._finalise_stream(t0)

    # ------------------------------------------------------------------ #
    # Fitted attributes
    # ------------------------------------------------------------------ #
    def _check_fitted(self) -> EmbeddingResult:
        if not self.is_fitted_ or self.result_ is None:
            raise RuntimeError("this GraphEncoderEmbedding instance is not fitted yet")
        return self.result_

    @property
    def backend_(self) -> GEEBackend:
        """The resolved execution backend instance."""
        return self._backend

    @property
    def embedding_(self) -> np.ndarray:
        """The fitted ``(n, K)`` embedding (row-normalised if configured)."""
        result = self._check_fitted()
        return result.normalized() if self.normalize else result.embedding

    @property
    def projection_(self) -> np.ndarray:
        """The fitted projection matrix ``W``."""
        return self._check_fitted().projection

    @property
    def timings_(self) -> Dict[str, float]:
        """Phase timings of the fit."""
        return dict(self._check_fitted().timings)

    # ------------------------------------------------------------------ #
    # Downstream helpers
    # ------------------------------------------------------------------ #
    def class_centroids(self) -> np.ndarray:
        """Mean embedding of the labelled vertices of each class."""
        result = self._check_fitted()
        assert self.labels_ is not None and self.n_classes is not None
        Z = result.normalized() if self.normalize else result.embedding
        centroids = np.zeros((self.n_classes, Z.shape[1]), dtype=np.float64)
        for k in range(self.n_classes):
            members = np.flatnonzero(self.labels_ == k)
            if members.size:
                centroids[k] = Z[members].mean(axis=0)
        return centroids

    def predict(self, vertices: Optional[np.ndarray] = None) -> np.ndarray:
        """Nearest-centroid class prediction for the given vertices.

        Labelled vertices keep their given label; unlabelled ones are
        assigned the class whose centroid is nearest in the embedding.
        ``vertices=None`` predicts for every vertex.
        """
        result = self._check_fitted()
        assert self.labels_ is not None
        Z = result.normalized() if self.normalize else result.embedding
        if vertices is None:
            vertices = np.arange(Z.shape[0])
        vertices = np.asarray(vertices, dtype=np.int64)
        centroids = self.class_centroids()
        dists = (
            np.sum(Z[vertices] ** 2, axis=1, keepdims=True)
            - 2.0 * Z[vertices] @ centroids.T
            + np.sum(centroids**2, axis=1)[None, :]
        )
        pred = np.argmin(dists, axis=1).astype(np.int64)
        known = self.labels_[vertices] != UNKNOWN_LABEL
        pred[known] = self.labels_[vertices][known]
        return pred
