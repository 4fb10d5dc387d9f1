"""O(Δ) maintenance of a live GEE embedding under graph mutations.

The supervised embedding is linear in the *raw* per-class edge sums::

    S[u, c] = Σ_{(u,v) or (v,u) incident, Y[v]=c} w        Z = S · diag(1/n_c)

so a committed mutation batch only moves ``S`` by its signed edge delta:
every added edge scatter-adds ``+w`` into the rows of its endpoints, every
removed instance ``-w`` (the weight it actually carried) and every weight
update ``new − old``.  :class:`IncrementalEmbedding` persists ``S`` across
versions of a :class:`~repro.stream.dynamic.DynamicGraph` and, per
:meth:`update`, replays the mutation log through a backend patch kernel
(see :meth:`repro.backends.GEEBackend.patch_sums`) and renormalises only
the rows the batch touched — O(Δ) work per batch against the O(E) of a
re-fit.

Floating-point drift from long add/subtract chains is bounded by *exact
full refreshes*: a refresh re-embeds the current version through the
backend's compiled-plan path and replaces ``S`` wholesale.  Refreshes
trigger on an update-count schedule (``refresh_every``), on cumulative
churn (``churn_threshold``, the staleness accounting), when the mutation
log no longer covers the versions missed, or on demand — and because
append-only commits extend the cached :class:`~repro.core.plan.EmbedPlan`
copy-on-write into the next version, a refresh after a string of appends
pays no validation or index-compilation cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..analysis.annotations import hot_path
from ..obs import metrics as obs_metrics
from ..obs import record_event, trace
from ..core.validation import (
    UNKNOWN_LABEL,
    class_counts,
    inverse_class_counts,
    validate_labels,
)
from .dynamic import DynamicGraph

__all__ = ["IncrementalEmbedding", "UpdateReport"]


@dataclass(frozen=True)
class UpdateReport:
    """What one :meth:`IncrementalEmbedding.update` call actually did."""

    version_from: int
    version_to: int
    n_deltas: int
    patched_edges: int
    refreshed: bool
    refresh_reason: Optional[str] = None

    @property
    def incremental(self) -> bool:
        """Whether the update ran the O(Δ) patch path (no full re-embed)."""
        return not self.refreshed and self.n_deltas > 0


class IncrementalEmbedding:
    """A live GEE embedding maintained in O(Δ) per mutation batch.

    Parameters
    ----------
    dynamic:
        The :class:`~repro.stream.dynamic.DynamicGraph` to track.
    labels:
        Label vector over the current vertex set (``-1`` = unknown).  May be
        omitted with ``n_classes`` for a fully-unlabelled start.
    n_classes:
        Embedding dimensionality ``K`` (inferred from ``labels`` if omitted).
    backend:
        A backend name or instance whose capabilities declare
        ``supports_incremental`` (``vectorized``, ``sparse``, ``parallel``).
        Full refreshes and O(Δ) patches both run through it.
    refresh_every:
        Run an exact full re-embed every this many :meth:`update` calls
        (``None`` disables the schedule; churn can still trigger one).
    churn_threshold:
        Trigger a full refresh when the signed edges patched since the last
        refresh exceed this fraction of the current edge count — both a
        float-drift bound and a perf valve (beyond roughly half the edge
        count the patch does more memory traffic than a fresh pass).
    chunk_edges / memory_budget_bytes:
        Run full refreshes through the out-of-core chunked path with this
        blocking, streaming from the dynamic graph's segmented store when
        one is attached (the O(Δ) patches are unaffected — they only touch
        the delta).
    """

    def __init__(
        self,
        dynamic: DynamicGraph,
        labels: Optional[np.ndarray] = None,
        n_classes: Optional[int] = None,
        *,
        backend: Union[str, object] = "vectorized",
        refresh_every: Optional[int] = None,
        churn_threshold: float = 0.5,
        chunk_edges: Optional[int] = None,
        memory_budget_bytes: Optional[int] = None,
    ) -> None:
        from ..backends import get_backend

        if not isinstance(dynamic, DynamicGraph):
            raise TypeError(
                f"IncrementalEmbedding tracks a DynamicGraph, got {type(dynamic)!r}"
            )
        self._dynamic = dynamic
        self._backend = get_backend(backend)
        caps = type(self._backend).capabilities
        if not caps.supports_incremental:
            from ..backends import backend_capabilities, list_backends

            raise ValueError(
                f"backend {type(self._backend).name!r} does not support "
                "incremental maintenance; incremental-capable backends: "
                f"{[n for n in list_backends() if backend_capabilities(n).supports_incremental]}"
            )
        if refresh_every is not None and refresh_every <= 0:
            raise ValueError("refresh_every must be positive (or None)")
        if not 0 < churn_threshold:
            raise ValueError("churn_threshold must be positive")
        if (chunk_edges is not None or memory_budget_bytes is not None) and not (
            caps.supports_chunked
        ):  # pragma: no cover - every incremental backend is also chunk-capable
            raise ValueError(
                f"backend {type(self._backend).name!r} cannot run chunked refreshes"
            )
        self.refresh_every = refresh_every
        self.churn_threshold = float(churn_threshold)
        self._chunk_edges = chunk_edges
        self._memory_budget_bytes = memory_budget_bytes

        n = dynamic.n_vertices
        if labels is None:
            if n_classes is None:
                raise ValueError("provide labels and/or n_classes")
            self._y = np.full(n, UNKNOWN_LABEL, dtype=np.int64)
            self._k = int(n_classes)
            if self._k <= 0:
                raise ValueError("n_classes must be positive")
        else:
            self._y, self._k = validate_labels(labels, n, n_classes)
            self._y = self._y.copy()

        self.n_updates = 0
        self.n_patch_updates = 0
        self.n_refreshes = 0
        self._updates_since_refresh = 0
        self._churn_since_refresh = 0
        self._S: Optional[np.ndarray] = None
        self._Z: Optional[np.ndarray] = None
        self._counts = np.zeros(self._k, dtype=np.float64)
        self._version = dynamic.version
        self.refresh()

    # ------------------------------------------------------------------ #
    # Read side
    # ------------------------------------------------------------------ #
    @property
    def embedding(self) -> np.ndarray:
        """The maintained ``(n, K)`` embedding ``Z`` (a live buffer).

        The array is updated in place by :meth:`update` / :meth:`refresh`;
        copy it to keep a frozen version.
        """
        assert self._Z is not None
        return self._Z

    @property
    def raw_sums(self) -> np.ndarray:
        """The persisted raw per-class sums ``S`` (``Z = S·diag(1/n_c)``)."""
        assert self._S is not None
        return self._S

    @property
    def labels(self) -> np.ndarray:
        return self._y

    @property
    def n_classes(self) -> int:
        return self._k

    @property
    def version(self) -> int:
        """The :class:`DynamicGraph` version the embedding is current for."""
        return self._version

    @property
    def backend(self):
        return self._backend

    @property
    def stale(self) -> bool:
        """Whether the tracked graph has committed past this embedding."""
        return self._dynamic.version > self._version

    @property
    def churn_since_refresh(self) -> int:
        """Signed edges patched since the last exact full re-embed."""
        return self._churn_since_refresh

    @property
    def staleness(self) -> float:
        """Accumulated churn as a fraction of the current edge count."""
        return self._churn_since_refresh / max(1, self._dynamic.n_edges)

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def refresh(self) -> None:
        """Exact full re-embed of the current version (resets drift/churn).

        Runs through the backend's compiled-plan path — append-only commits
        extended the cached plan copy-on-write, so this pays no validation
        or index-building cost — or through a fresh chunked plan streaming the
        attached store when the embedding was configured out-of-core.
        """
        graph = self._dynamic.graph
        k = self._k
        if self._chunk_edges is not None or self._memory_budget_bytes is not None:
            from ..core.plan import ChunkedPlan

            source = self._dynamic.chunked_source(
                chunk_edges=self._chunk_edges,
                memory_budget_bytes=self._memory_budget_bytes,
            )
            plan = ChunkedPlan(source, k)
        else:
            plan = graph.plan(k)
        with trace(
            "incremental.refresh",
            version=self._dynamic.version,
            n_edges=self._dynamic.n_edges,
        ):
            result = self._backend.embed_with_plan(plan, self._y)
        counts = class_counts(self._y, k).astype(np.float64)
        # Z is exactly the fresh-fit embedding, and ours to patch: the plan
        # never reuses a buffer a live array views.  S recovers the raw sums
        # the subsequent patches maintain (Z·n_c inverts the kernel's 1/n_c
        # scale up to one rounding).
        self._Z = result.embedding
        self._S = self._Z * counts[None, :]
        self._counts = counts
        self._version = self._dynamic.version
        self.n_refreshes += 1
        self._updates_since_refresh = 0
        self._churn_since_refresh = 0

    @hot_path(reason="O(Δ) live-embedding maintenance; the dynamic-graph fast path")
    def update(
        self,
        labels: Optional[np.ndarray] = None,
        *,
        force_refresh: bool = False,
    ) -> UpdateReport:
        """Catch up with every batch committed since the last update.

        Replays the mutation log from :attr:`version` to the tracked
        graph's current version: one backend patch over the concatenated
        signed deltas, then renormalisation of only the touched rows
        (plus any class column whose member count changed).  Falls back to
        an exact full refresh when the refresh schedule or the churn
        threshold says so, when the log no longer covers the missed
        versions, or on ``force_refresh=True``.

        Parameters
        ----------
        labels:
            Full label vector for the *current* vertex set, required when
            vertices were added and should arrive labelled.  Labels of
            already-embedded vertices must not change (their edges were
            accumulated under the old labels); new vertices default to
            unknown.
        """
        version_from = self._version
        deltas = self._dynamic.log.since(version_from)
        # The log must account for every version committed since the last
        # update; fewer deltas than the version gap (including an empty or
        # fully-trimmed log) means history was truncated and the state can
        # only catch up through a full refresh.
        if deltas is None or len(deltas) < self._dynamic.version - version_from:
            deltas, truncated = [], True
        else:
            truncated = False
        if not deltas and labels is None and not force_refresh and not truncated:
            return UpdateReport(version_from, version_from, 0, 0, False)

        n_after = self._dynamic.n_vertices
        y_new = self._merge_labels(labels, n_after)
        patched = sum(d.n_patch_edges for d in deltas)

        reason = None
        if truncated:
            reason = "log-truncated"
        elif force_refresh:
            reason = "forced"
        elif (
            self.refresh_every is not None
            and self._updates_since_refresh + 1 >= self.refresh_every
        ):
            reason = "refresh-every"
        elif (
            self._churn_since_refresh + patched
            > self.churn_threshold * max(1, self._dynamic.n_edges)
        ):
            reason = "churn-threshold"

        old_counts = self._counts
        self._y = y_new

        if reason is not None:
            obs_metrics.count("incremental.refresh_triggers")
            obs_metrics.count(f"incremental.refresh_triggers.{reason}")
            record_event("incremental.refresh_decision", reason=reason)
            self.refresh()
            self.n_updates += 1
            return UpdateReport(
                version_from, self._version, len(deltas), patched, True, reason
            )

        self._grow_state(n_after)
        assert self._S is not None and self._Z is not None
        k = self._k
        counts = class_counts(y_new, k).astype(np.float64)
        if patched:
            parts = [d.patch_edges() for d in deltas]
            src = np.concatenate([p[0] for p in parts])
            dst = np.concatenate([p[1] for p in parts])
            dw = np.concatenate([p[2] for p in parts])
            with trace("incremental.patch", delta_edges=patched, n_deltas=len(deltas)):
                self._backend.patch_sums(self._S.reshape(-1), src, dst, dw, y_new, k)
            # Sorted touched rows through an n-byte bitmap: cheaper than
            # sorting the 2Δ endpoints, and below the O(n) class_counts above.
            touched = np.zeros(n_after, dtype=bool)
            touched[src] = True
            touched[dst] = True
            rows = np.flatnonzero(touched)
        else:
            rows = np.empty(0, dtype=np.int64)

        # Renormalise: Z = S·diag(1/n_c), recomputed only where it moved —
        # the rows the patch touched, plus any whole column whose class
        # count changed (newly-labelled vertices rescale their class).
        inv = inverse_class_counts(counts)
        if rows.size:
            self._Z[rows] = self._S[rows] * inv[None, :]
        changed_cols = np.flatnonzero(counts != old_counts)
        for c in changed_cols:
            self._Z[:, c] = self._S[:, c] * inv[c]
        self._counts = counts

        self._version = self._dynamic.version
        self.n_updates += 1
        self.n_patch_updates += 1
        self._updates_since_refresh += 1
        self._churn_since_refresh += patched
        return UpdateReport(
            version_from, self._version, len(deltas), patched, False, None
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _merge_labels(self, labels: Optional[np.ndarray], n_after: int) -> np.ndarray:
        n_old = self._y.shape[0]
        if labels is None:
            if n_after == n_old:
                return self._y
            grown = np.full(n_after, UNKNOWN_LABEL, dtype=np.int64)
            grown[:n_old] = self._y
            return grown
        y_new, k = validate_labels(labels, n_after, self._k)
        if k != self._k:  # pragma: no cover - validate_labels pins k
            raise ValueError("label vector implies a different n_classes")
        if np.any(y_new[:n_old] != self._y):
            offending = np.flatnonzero(y_new[:n_old] != self._y)
            raise ValueError(
                "labels of already-embedded vertices must not change (their "
                "edges were accumulated under the old labels); offending "
                f"vertices: {offending[:10].tolist()}"
            )
        return y_new.copy()

    def _grow_state(self, n_after: int) -> None:
        assert self._S is not None and self._Z is not None
        n_old = self._S.shape[0]
        if n_after == n_old:
            return
        grown_S = np.zeros((n_after, self._k), dtype=np.float64)
        grown_S[:n_old] = self._S
        grown_Z = np.zeros((n_after, self._k), dtype=np.float64)
        grown_Z[:n_old] = self._Z
        self._S = grown_S
        self._Z = grown_Z

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IncrementalEmbedding(v{self._version}, n={self._y.shape[0]}, "
            f"K={self._k}, backend={type(self._backend).name!r}, "
            f"updates={self.n_updates}, refreshes={self.n_refreshes})"
        )
