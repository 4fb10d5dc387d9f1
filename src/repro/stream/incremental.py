"""O(Δ) maintenance of a live GEE embedding under graph mutations.

The supervised embedding is linear in the *raw* per-class edge sums::

    S[u, c] = Σ_{(u,v) or (v,u) incident, Y[v]=c} w        Z = S · diag(1/n_c)

so a committed mutation batch only moves ``S`` by its signed edge delta:
every added edge scatter-adds ``+w`` into the rows of its endpoints, every
removed instance ``-w`` (the weight it actually carried) and every weight
update ``new − old``.  :class:`IncrementalEmbedding` keeps ``S`` across
versions of a :class:`~repro.stream.dynamic.DynamicGraph` in one
:class:`~repro.core.raw_sums.RawSums` and, per :meth:`update`, replays the
mutation log through its one O(Δ) step, which rescales only the slots of
``Z`` the batch's scatter wrote — O(Δ) work per batch against the O(E) of a
re-fit.

Floating-point drift from long add/subtract chains is bounded by *exact
full refreshes*: a refresh re-embeds the current version through the
backend's compiled-plan path and resets ``S`` from the fresh embedding.
Refreshes trigger on an update-count schedule (``refresh_every``), on
cumulative churn (``churn_threshold``, the staleness accounting), when the
mutation log no longer covers the versions missed, or on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..analysis.annotations import hot_path
from ..obs import metrics as obs_metrics
from ..obs import record_event, trace
from ..core.raw_sums import RawSums
from ..core.validation import UNKNOWN_LABEL, validate_labels
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
        A registered backend name or instance; full refreshes run through
        it.  The O(Δ) patches run one step whatever the backend.
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
        the delta).  The backend must also declare ``supports_chunked``
        (``vectorized``, ``parallel``, ``auto``; not ``sparse``).
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
        if refresh_every is not None and refresh_every <= 0:
            raise ValueError("refresh_every must be positive (or None)")
        if not 0 < churn_threshold:
            raise ValueError("churn_threshold must be positive")
        chunked = chunk_edges is not None or memory_budget_bytes is not None
        if chunked and not type(self._backend).capabilities.supports_chunked:
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
            labels = np.full(n, UNKNOWN_LABEL, dtype=np.int64)
        y, k = validate_labels(labels, n, n_classes)

        self.n_updates = 0
        self.n_patch_updates = 0
        self.n_refreshes = 0
        self._updates_since_refresh = 0
        self._churn_since_refresh = 0
        # S and Z are first allocated by the refresh below.
        self._sums = RawSums(k)
        self._refresh(y)

    # ------------------------------------------------------------------ #
    # Read side
    # ------------------------------------------------------------------ #
    @property
    def embedding(self) -> np.ndarray:
        """The maintained ``(n, K)`` embedding ``Z`` (a live buffer).

        The array is updated in place by :meth:`update`, and replaced by a
        refresh or when vertices are added; copy it to keep a frozen
        version.
        """
        return self._sums.Z

    @property
    def raw_sums(self) -> np.ndarray:
        """The persisted raw per-class sums ``S`` (``Z = S·diag(1/n_c)``)."""
        return self._sums.S

    @property
    def labels(self) -> np.ndarray:
        return self._sums.labels

    @property
    def n_classes(self) -> int:
        return self._sums.n_classes

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

        Runs through the backend's compiled-plan path, or through a fresh
        chunked plan streaming the attached store when the embedding was
        configured out-of-core.  Afterwards every vertex counts as read, so
        no current label may change.
        """
        self._refresh(self._sums.labels)

    def _refresh(self, y: np.ndarray) -> None:
        k = self._sums.n_classes
        if self._chunk_edges is not None or self._memory_budget_bytes is not None:
            from ..core.plan import ChunkedPlan

            source = self._dynamic.chunked_source(
                chunk_edges=self._chunk_edges,
                memory_budget_bytes=self._memory_budget_bytes,
            )
            plan = ChunkedPlan(source, k)
        else:
            plan = self._dynamic.plan(k)
        with trace(
            "incremental.refresh",
            version=self._dynamic.version,
            n_edges=self._dynamic.n_edges,
        ):
            result = self._backend.embed_with_plan(plan, y)
        # Z is exactly the fresh-fit embedding, and ours to patch: the plan
        # never reuses a buffer a live array views.
        self._sums.reset(y, result.embedding)
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
        graph's current version: one O(Δ) step over the concatenated signed
        deltas, which rescales only the slots of ``Z`` its scatter wrote
        (plus any class column whose member count changed).  Falls back to
        an exact full refresh when the refresh schedule or the churn
        threshold says so, when the log no longer covers the missed
        versions, or on ``force_refresh=True``.

        Parameters
        ----------
        labels:
            Full label vector for the *current* vertex set, required when
            vertices were added and should arrive labelled; new vertices
            default to unknown.  A label may not change once an applied edge
            has read it (its edges were accumulated under the old label);
            after a refresh every vertex counts as read, so only vertices
            added since that no edge has reached may be labelled later.
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
        if labels is None:
            self._sums.grow(n_after)
        else:
            self._sums.set_labels(validate_labels(labels, n_after, self.n_classes)[0])
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

        if reason is not None:
            obs_metrics.count("incremental.refresh_triggers")
            obs_metrics.count(f"incremental.refresh_triggers.{reason}")
            record_event("incremental.refresh_decision", reason=reason)
            self.refresh()
            self.n_updates += 1
            return UpdateReport(
                version_from, self._version, len(deltas), patched, True, reason
            )

        if patched:
            parts = [d.patch_edges() for d in deltas]
            src = np.concatenate([p[0] for p in parts])
            dst = np.concatenate([p[1] for p in parts])
            dw = np.concatenate([p[2] for p in parts])
            with trace("incremental.patch", delta_edges=patched, n_deltas=len(deltas)):
                self._sums.apply(src, dst, dw)

        self._version = self._dynamic.version
        self.n_updates += 1
        self.n_patch_updates += 1
        self._updates_since_refresh += 1
        self._churn_since_refresh += patched
        return UpdateReport(
            version_from, self._version, len(deltas), patched, False, None
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IncrementalEmbedding(v{self._version}, n={self.labels.shape[0]}, "
            f"K={self.n_classes}, backend={type(self._backend).name!r}, "
            f"updates={self.n_updates}, refreshes={self.n_refreshes})"
        )
