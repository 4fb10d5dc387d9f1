"""High-level user-facing API: the :class:`GraphEncoderEmbedding` estimator.

The estimator is built on two subsystems introduced by the API redesign:

* **the backend registry** (:mod:`repro.backends`) — every execution
  strategy (``python``, ``vectorized``, ``sparse``, ``ligra-serial``,
  ``ligra-vectorized``, ``ligra-threads``, ``parallel`` and ``auto``) is a
  registered :class:`~repro.backends.GEEBackend` with declared
  capabilities; ``method=`` accepts a canonical name, a paper-column
  alias (``"ligra"`` for ``ligra-vectorized``, ``"ligra-parallel"`` for
  ``parallel``) or a constructed backend instance, and unsupported
  options are rejected at construction;
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
  edge batches into raw per-class sums (:class:`~repro.core.raw_sums.RawSums`)
  that move in O(batch); the embedding after streaming the whole edge set
  equals a full-batch ``fit`` up to floating-point summation order.

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
from .gee_vectorized import patch_sums_vectorized
from .raw_sums import RawSums
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
        A registered backend name (``python``, ``vectorized``, ``sparse``,
        ``ligra-serial``, ``ligra-vectorized``, ``ligra-threads``,
        ``parallel``, ``auto``; see :func:`repro.backends.list_backends`),
        a paper-column alias (``"ligra"`` for ``ligra-vectorized``,
        ``"ligra-parallel"`` for ``parallel``) or a constructed
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
        nothing compiled beyond the validated edges; ``parallel`` still
        runs the sorted kernel), or ``"sorted"`` (the locality-optimized
        fused kernel on ``supports_layout`` backends).  Both embed bitwise
        the same (older arrival-order results differ in the last bits).
        With ``method="auto"`` an in-memory graph runs the sorted layout
        either way.
    **backend_options:
        Extra options forwarded to the backend constructor (for example
        ``atomic=False`` for the Ligra family).  Unknown options raise
        immediately.

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
        # Streaming (partial_fit) state, created by the first batch.
        self._sums: Optional[RawSums] = None

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def _prepare_graph(self, graph: GraphLike) -> Graph:
        g = Graph.coerce(graph)
        return g.laplacian if self.laplacian else g

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
        (``vectorized``, ``parallel``, ``auto``), and all of them run the
        one serial chunked pass.
        """
        from ..graph.io import ChunkedEdgeSource

        if isinstance(graph, ChunkedEdgeSource):
            if self.laplacian:
                raise ValueError(
                    "laplacian=True is not supported with a ChunkedEdgeSource: "
                    "the reweighting needs a degree pass over the whole graph"
                )
            if self.layout not in (None, "none"):
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
            plan = work.plan(
                k,
                chunk_edges=chunk_edges,
                memory_budget_bytes=memory_budget_bytes,
                layout=self.layout,
            )
            result = self._backend.embed_with_plan(plan, y)
        self.result_ = result
        self.labels_ = y
        self.n_classes = k
        self._sums = None
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
        self._sums = None
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

        Runs the raw-sum step over *only* the given edges, with the fitted
        labels, then scales by the fitted ``1/n_c``.  New vertices are any
        vertex ids at or beyond the fitted vertex count; they are treated as
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
        assert self.labels_ is not None
        new = as_edgelist(edges)
        k = int(self.n_classes)  # type: ignore[arg-type]
        n_fit = int(self.labels_.shape[0])
        n_total = max(new.n_vertices, n_fit)

        y_ext = np.full(n_total, UNKNOWN_LABEL, dtype=np.int64)
        y_ext[:n_fit] = self.labels_
        Z = np.zeros((n_total, k), dtype=np.float64)
        patch_sums_vectorized(
            Z.reshape(-1), new.src, new.dst, new.effective_weights(), y_ext, k
        )
        Z *= inverse_class_counts(class_counts(self.labels_, k))
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
    def partial_fit(
        self,
        edges: GraphLike,
        labels: Optional[np.ndarray] = None,
        *,
        remove: bool = False,
    ) -> "GraphEncoderEmbedding":
        """Ingest (or retract) one batch of edges, updating incrementally.

        The estimator keeps the *raw* per-class weight sums
        ``S[u, c] = Σ w`` over ingested edges, with the class counts, in one
        :class:`~repro.core.raw_sums.RawSums`, so the embedding
        ``Z[:, c] = S[:, c] / count_c`` after any number of batches equals a
        full-batch :meth:`fit` on the union of the batches (up to
        floating-point summation order).  A batch costs O(batch), plus O(n)
        when ``labels`` are passed: it rescales only the slots of the
        embedding its scatter wrote, and the dense projection ``W`` is
        built on first access of :attr:`projection_`.

        :attr:`embedding_` is live: every batch updates it in place (copy
        it to keep a version), as
        :attr:`repro.stream.IncrementalEmbedding.embedding` is.  Streaming
        after :meth:`fit` copies the fit's embedding once, so the fit's own
        array is never modified.

        Parameters
        ----------
        edges:
            Graph-like batch of edges.  New vertex ids grow the embedding.
        labels:
            Full label vector covering every vertex seen so far (may extend
            the previous vector for newly arrived vertices; ``-1`` =
            unknown).  Required on the first call unless the estimator was
            batch-fitted first, in which case streaming continues from the
            fitted state.  The label of a vertex an ingested edge has
            touched must not change — its edges were accumulated under the
            old label; every fitted vertex counts as touched.
        remove:
            Retract the batch instead of ingesting it: each edge's
            contribution is *subtracted* from the raw sums — the inverse of
            a previous ingestion of the same edges (with the same weights).
            The caller asserts the edges were previously streamed in; the
            estimator has no edge store to verify against (use
            :class:`repro.stream.DynamicGraph` with
            :class:`repro.stream.IncrementalEmbedding` for checked removals).

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
        y = None
        if labels is not None:
            y = np.asarray(labels)
            y, self.n_classes = validate_labels(y, y.shape[0], self.n_classes)
        elif self.n_classes is None:
            raise ValueError(
                "the first partial_fit call must provide labels or the "
                "estimator must be constructed with n_classes (or follow "
                "a batch fit to continue streaming from it)"
            )
        sums = self._sums
        if sums is None:
            sums = self._sums = RawSums(self.n_classes)
            if self.is_fitted_:
                assert self.result_ is not None and self.labels_ is not None
                sums.reset(self.labels_, self.result_.embedding.copy())
        if y is not None:
            sums.set_labels(y)
        sums.grow(batch.n_vertices)
        w = batch.effective_weights()
        sums.apply(batch.src, batch.dst, -w if remove else w)

        y, k = sums.labels, sums.n_classes
        self.result_ = EmbeddingResult(
            embedding=sums.Z,
            projection_builder=lambda: projection_from_scales(
                y, projection_scales(y, k), k
            ),
            timings={"total": time.perf_counter() - t0},
            method="gee-streaming",
            n_workers=1,
        )
        self.labels_ = y
        self.is_fitted_ = True
        return self

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
        """The fitted ``(n, K)`` embedding (row-normalised if configured).

        After :meth:`partial_fit` this is the live streamed array, which
        later batches update in place (``normalize=True`` returns a copy).
        """
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
