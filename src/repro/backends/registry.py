"""The execution-backend registry.

Every way of running the GEE edge pass (interpreted loop, vectorised NumPy,
the Ligra engine's serial / vectorized / threads / processes schedules, the
owner-computes process kernel) is wrapped in a :class:`GEEBackend` subclass
and registered under a canonical name with declared
:class:`BackendCapabilities`.  The registry is the single extension point
for execution strategies:

* :func:`register_backend` — class decorator that installs a backend (and
  optional legacy aliases) into the registry;
* :func:`get_backend` — instantiate a backend by name, with *validated*
  construction options (unsupported kwargs raise immediately instead of
  being silently ignored);
* :func:`list_backends` / :func:`backend_capabilities` — discovery.

Example
-------
>>> from repro.backends import get_backend, list_backends
>>> sorted(list_backends())  # doctest: +ELLIPSIS
['ligra-processes', 'ligra-serial', ...]
>>> backend = get_backend("parallel", n_workers=2)
>>> result = backend.embed(graph, labels, n_classes)  # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Type, Union

import numpy as np

from ..obs import core as _obs_core

__all__ = [
    "BackendCapabilities",
    "GEEBackend",
    "register_backend",
    "resolve_backend_name",
    "backend_class",
    "backend_capabilities",
    "backend_aliases",
    "get_backend",
    "list_backends",
]

#: Nesting level of observed dispatches (auto → delegate); see
#: :meth:`GEEBackend._run_observed`.
_DISPATCH_DEPTH = 0


@dataclass(frozen=True)
class BackendCapabilities:
    """Declared properties of an execution backend.

    Attributes
    ----------
    supports_weights:
        Whether weighted edge lists are handled (all current backends do).
    supports_n_workers:
        Whether the backend accepts an explicit worker count.  Passing
        ``n_workers`` to a backend without this capability raises at
        construction.
    parallel:
        Whether the edge pass can actually execute concurrently.
    deterministic:
        Whether repeated runs on identical inputs are bit-for-bit
        reproducible (concurrent accumulation reorders floating-point sums,
        so the threads/processes schedules are not).
    supports_chunked:
        Whether the backend executes the out-of-core chunked path: a
        :class:`~repro.graph.io.ChunkedEdgeSource` input to :meth:`embed`,
        or a :class:`~repro.core.plan.ChunkedPlan` to
        :meth:`embed_with_plan`.  Backends without this capability reject
        both instead of silently materialising the edges.
    supports_incremental:
        Whether the backend implements the O(Δ) patch kernel
        (:meth:`GEEBackend.patch_sums`) that maintains raw per-class sums
        under signed edge deltas — the engine room of the dynamic-graph
        subsystem (:class:`repro.stream.IncrementalEmbedding`).  Backends
        without it reject patch requests instead of silently re-embedding.
    supports_layout:
        Whether the backend executes the locality-optimized fused kernels
        of plans compiled with ``graph.plan(K, layout="sorted")``
        (see :class:`~repro.core.plan.FusedLayout`).  Backends without the
        capability still accept layout plans but run their classic
        arrival-order kernels over the plan's unpermuted edge arrays.
    supports_sharding:
        Whether the backend executes over owner-range shards
        (:class:`repro.shard.ShardedGraph`): each shard writes the raw
        class sums of its own rows into one shared output, with an
        ``n_shards`` construction option selecting the partition width.
    description:
        One-line human-readable summary shown by discovery helpers.
    """

    supports_weights: bool = True
    supports_n_workers: bool = False
    parallel: bool = False
    deterministic: bool = True
    supports_chunked: bool = False
    supports_incremental: bool = False
    supports_layout: bool = False
    supports_sharding: bool = False
    description: str = ""


class GEEBackend:
    """Base class for registered GEE execution backends.

    Subclasses implement :meth:`_embed` on a coerced
    :class:`~repro.graph.facade.Graph` and declare their construction
    options in ``_OPTIONS`` (name → default).  The base constructor
    validates every keyword: unknown options and ``n_workers`` on a backend
    without the ``supports_n_workers`` capability are rejected immediately,
    so misconfiguration fails at construction instead of being silently
    ignored at fit time.
    """

    #: Canonical registry name (set by :func:`register_backend`).
    name: str = "abstract"
    #: Declared capabilities (set/overridden by :func:`register_backend`).
    capabilities: BackendCapabilities = BackendCapabilities()
    #: Accepted constructor options and their defaults (``n_workers`` is
    #: handled separately through the capability flag).
    _OPTIONS: Dict[str, Any] = {}

    def __init__(self, *, n_workers: Optional[int] = None, **options: Any) -> None:
        cls = type(self)
        if n_workers is not None and not cls.capabilities.supports_n_workers:
            raise ValueError(
                f"backend {cls.name!r} does not support n_workers "
                f"(capabilities: parallel={cls.capabilities.parallel}); "
                "drop the argument or pick a parallel backend from "
                f"{[n for n in list_backends() if backend_capabilities(n).supports_n_workers]}"
            )
        unknown = sorted(set(options) - set(cls._OPTIONS))
        if unknown:
            supported = sorted(cls._OPTIONS)
            raise TypeError(
                f"backend {cls.name!r} got unsupported option(s) {unknown}; "
                f"supported options: {supported if supported else 'none'}"
            )
        self.n_workers = n_workers
        for key, default in cls._OPTIONS.items():
            setattr(self, key, options.get(key, default))

    # ------------------------------------------------------------------ #
    # Embedding protocol
    # ------------------------------------------------------------------ #
    def embed(self, graph, labels: np.ndarray, n_classes: Optional[int] = None):
        """Run the GEE edge pass on a graph-like input.

        Coerces ``graph`` through :meth:`Graph.coerce` (cached views are
        reused when a :class:`Graph` is passed) and returns an
        :class:`~repro.core.result.EmbeddingResult`.

        A :class:`~repro.graph.io.ChunkedEdgeSource` is accepted by
        backends declaring the ``supports_chunked`` capability and executes
        the bounded-memory chunked path (the source is never materialised);
        other backends reject it.
        """
        from ..graph.facade import Graph
        from ..graph.io import ChunkedEdgeSource

        if isinstance(graph, ChunkedEdgeSource):
            self._check_chunked_input(graph.is_weighted)
            from ..core.plan import ChunkedPlan
            from ..core.validation import infer_n_classes

            # Only K is needed to compile the plan; the full O(n) label
            # validation happens exactly once, inside the dispatched kernel
            # (the same contract as embed_with_plan).
            k = infer_n_classes(labels) if n_classes is None else int(n_classes)
            if k <= 0:
                raise ValueError(
                    "could not infer a positive number of classes; provide "
                    "n_classes or at least one labelled vertex"
                )
            chunked = ChunkedPlan(graph, k)
            return self._run_observed(
                "embed",
                lambda: self._embed_with_chunked_plan(chunked, labels),
                n_edges=getattr(graph, "n_edges", None),
            )
        g = Graph.coerce(graph)
        # Capability first: is_weighted can cost an O(s) scan on CSR-adopted
        # graphs, and every current backend supports weights.
        if not type(self).capabilities.supports_weights and g.is_weighted:
            raise ValueError(
                f"backend {type(self).name!r} does not support weighted graphs"
            )
        try:
            return self._run_observed(
                "embed", lambda: self._embed(g, labels, n_classes), n_edges=g.n_edges
            )
        finally:
            if g is not graph:
                # The facade is private to this call: release what the
                # backend cached on it (a pooled plan's shared memory) now.
                g.drop_plans()

    __call__ = embed

    def embed_with_plan(self, plan, labels: np.ndarray):
        """Run the edge pass on a compiled :class:`~repro.core.plan.EmbedPlan`.

        The plan (from :meth:`repro.graph.facade.Graph.plan`) already holds
        every label-independent artifact — validated edges, flat scatter
        indices, CSR/CSC views, output buffers — so repeated calls on the
        same graph do no validation, no index rebuilding and no large
        allocations.  The result owns its embedding: backends with a
        dedicated plan kernel write it in place into a buffer of the plan's
        output ring, which the plan reuses only once no array views it.

        Label validation (the only per-call O(n) check left) happens
        exactly once, inside the dispatched kernel.

        A :class:`~repro.core.plan.ChunkedPlan` (from
        ``graph.plan(K, chunk_edges=...)`` or a standalone
        :class:`~repro.graph.io.ChunkedEdgeSource`) routes to the
        bounded-memory chunked kernel; backends without the
        ``supports_chunked`` capability reject it.
        """
        if getattr(plan, "is_chunked", False):
            self._check_chunked_input(plan.source.is_weighted)
            return self._run_observed(
                "embed_with_plan",
                lambda: self._embed_with_chunked_plan(plan, labels),
                n_edges=plan.n_edges,
            )
        if not type(self).capabilities.supports_weights and plan.graph.is_weighted:
            raise ValueError(
                f"backend {type(self).name!r} does not support weighted graphs"
            )
        return self._run_observed(
            "embed_with_plan",
            lambda: self._embed_with_plan(plan, labels),
            n_edges=plan.n_edges,
        )

    def _embed_with_plan(self, plan, labels: np.ndarray):
        # Fallback for backends without a dedicated plan kernel: the plan's
        # graph still contributes its cached CSR views.
        y = plan.validate_labels(labels)
        return self._embed(plan.graph, y, plan.n_classes)

    def _check_chunked_input(self, is_weighted: bool) -> None:
        """Gate a chunked input (source or plan) on the declared capabilities."""
        caps = type(self).capabilities
        if not caps.supports_chunked:
            raise ValueError(
                f"backend {type(self).name!r} does not support chunked "
                "(out-of-core) execution; chunk-capable backends: "
                f"{[n for n in list_backends() if backend_capabilities(n).supports_chunked]}"
            )
        if not caps.supports_weights and is_weighted:
            raise ValueError(
                f"backend {type(self).name!r} does not support weighted graphs"
            )

    def _embed_with_chunked_plan(self, plan, labels: np.ndarray):
        # Only reachable for backends declaring supports_chunked; they must
        # provide the kernel.
        raise NotImplementedError(  # pragma: no cover - contract guard
            f"backend {type(self).name!r} declares supports_chunked but does "
            "not implement _embed_with_chunked_plan"
        )

    # ------------------------------------------------------------------ #
    # Incremental (O(Δ)) maintenance protocol
    # ------------------------------------------------------------------ #
    def patch_sums(
        self,
        S_flat: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        delta_w: np.ndarray,
        labels: np.ndarray,
        n_classes: int,
    ) -> None:
        """Apply a signed edge delta to flat raw per-class sums, in place.

        ``S_flat`` is the flattened ``(n*K,)`` raw-sum matrix
        ``S[u, c] = Σ_{(u,v) or (v,u) incident, Y[v]=c} w`` (the label-scaled
        embedding is ``Z = S·diag(1/n_c)``).  For every signed edge
        ``(u, v, Δw)`` the kernel performs ``S[u, Y[v]] += Δw`` and
        ``S[v, Y[u]] += Δw`` for known labels — additions pass ``+w``,
        removals ``-w`` and weight updates ``new − old``, so one call
        maintains the embedding under any committed mutation batch in
        O(Δ) instead of O(E).

        Only backends declaring the ``supports_incremental`` capability
        implement the kernel; others raise.
        """
        caps = type(self).capabilities
        if not caps.supports_incremental:
            raise ValueError(
                f"backend {type(self).name!r} does not support incremental "
                "(O(Δ) patch) execution; incremental-capable backends: "
                f"{[n for n in list_backends() if backend_capabilities(n).supports_incremental]}"
            )
        if src.size == 0:
            return
        if not _obs_core._ENABLED:
            self._patch_sums(S_flat, src, dst, delta_w, labels, int(n_classes))
            return
        from ..obs import metrics as obs_metrics

        obs_metrics.count("edges_patched", int(src.size))
        with _obs_core.Span(
            "backend.patch_sums",
            {"backend": type(self).name, "delta_edges": int(src.size)},
        ):
            self._patch_sums(S_flat, src, dst, delta_w, labels, int(n_classes))

    def _patch_sums(
        self,
        S_flat: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        delta_w: np.ndarray,
        labels: np.ndarray,
        n_classes: int,
    ) -> None:
        raise NotImplementedError(  # pragma: no cover - contract guard
            f"backend {type(self).name!r} declares supports_incremental but "
            "does not implement _patch_sums"
        )

    def _embed(self, graph, labels: np.ndarray, n_classes: Optional[int]):
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def _run_observed(self, kind: str, fn, *, n_edges: Optional[int] = None):
        """Dispatch ``fn`` under a ``backend.<kind>`` span when tracing is on.

        The disabled path is one flag check and a direct call — no span, no
        allocation.  Enabled, the wrapper records the dispatch span, counts
        the edges processed, synthesizes child phase spans from the result's
        timing breakdown (the kernels themselves stay span-free so the hot
        loops are untouched), and attaches a compact telemetry summary of
        everything recorded during the call to ``result.telemetry``.

        Dispatch may nest (the ``auto`` backend's embed delegates to another
        backend's ``embed_with_plan``): every level records its span, but
        only the outermost counts edges, synthesizes phases and attaches
        telemetry — otherwise one logical pass would double-count.
        """
        global _DISPATCH_DEPTH
        if not _obs_core._ENABLED:
            return fn()
        from ..obs import export as obs_export
        from ..obs import metrics as obs_metrics

        backend_name = type(self).name
        start = _obs_core.mark()
        span = _obs_core.Span(
            f"backend.{kind}", {"backend": backend_name, "n_edges": n_edges}
        ).begin()
        _DISPATCH_DEPTH += 1
        try:
            result = fn()
        except BaseException as exc:
            span.finish(error=type(exc).__name__)
            raise
        finally:
            _DISPATCH_DEPTH -= 1
        span.finish()
        if _DISPATCH_DEPTH:
            return result
        if n_edges:
            obs_metrics.count("edges_processed", int(n_edges))
        _synthesize_phase_spans(span, result, backend_name)
        try:
            result.telemetry = obs_export.telemetry(
                records=_obs_core.records_since(start)
            )
        except AttributeError:  # pragma: no cover - non-result return values
            pass
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        opts = {key: getattr(self, key) for key in type(self)._OPTIONS}
        if type(self).capabilities.supports_n_workers:
            opts["n_workers"] = self.n_workers
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(opts.items()))
        return f"<{type(self).__name__} name={type(self).name!r} {inner}>".replace(" >", ">")


def _synthesize_phase_spans(span, result, backend_name: str) -> None:
    """Turn a result's timing breakdown into child spans of the dispatch span.

    The kernels report per-phase wall times (``preprocess``, ``projection``,
    ``edge_pass``) but deliberately contain no span calls — instrumenting
    them would put clock reads inside the paths the overhead gate protects.
    The phases ran back-to-back, so laying them out sequentially from the
    dispatch span's start reconstructs the real sub-structure; phases whose
    sum would overrun the parent (a kernel that didn't follow the
    convention) are dropped rather than drawn wrong.
    """
    timings = getattr(result, "timings", None)
    if not timings:
        return
    t = span.t0
    end = span.t0 + span.duration + 1e-9
    for phase in ("preprocess", "projection", "edge_pass"):
        dur = timings.get(phase)
        if not dur or dur <= 0:
            continue
        if t + dur > end:
            break
        _obs_core.record_span(f"phase.{phase}", t, dur, {"backend": backend_name})
        t += dur


#: name -> backend class
_REGISTRY: Dict[str, Type[GEEBackend]] = {}
#: legacy/spelling alias -> canonical name
_ALIASES: Dict[str, str] = {}


def register_backend(
    name: str,
    *,
    capabilities: Optional[BackendCapabilities] = None,
    aliases: Tuple[str, ...] = (),
):
    """Class decorator: install a :class:`GEEBackend` subclass in the registry.

    ``capabilities`` overrides the class attribute; ``aliases`` are
    alternative names that resolve to the canonical one (used to keep the
    historical ``"ligra"`` / ``"ligra-parallel"`` method strings working).
    Re-registering an existing name raises — shadowing a backend silently
    would make experiment results ambiguous.
    """

    def decorator(cls: Type[GEEBackend]) -> Type[GEEBackend]:
        if not (isinstance(cls, type) and issubclass(cls, GEEBackend)):
            raise TypeError(f"@register_backend requires a GEEBackend subclass, got {cls!r}")
        for taken in (name, *aliases):
            if taken in _REGISTRY or taken in _ALIASES:
                raise ValueError(f"backend name {taken!r} is already registered")
        cls.name = name
        if capabilities is not None:
            cls.capabilities = capabilities
        _REGISTRY[name] = cls
        for alias in aliases:
            _ALIASES[alias] = name
        return cls

    return decorator


def resolve_backend_name(name: str) -> str:
    """Canonical registry name for ``name`` (resolving aliases), or raise."""
    if name in _REGISTRY:
        return name
    if name in _ALIASES:
        return _ALIASES[name]
    raise ValueError(
        f"unknown backend {name!r}; registered backends: {list_backends()} "
        f"(aliases: {sorted(_ALIASES)})"
    )


def backend_class(name: str) -> Type[GEEBackend]:
    """The backend class registered under ``name`` (aliases resolve)."""
    return _REGISTRY[resolve_backend_name(name)]


def backend_capabilities(name: str) -> BackendCapabilities:
    """Declared capabilities of the backend registered under ``name``."""
    return backend_class(name).capabilities


def backend_aliases() -> Dict[str, str]:
    """Copy of the alias → canonical-name mapping."""
    return dict(_ALIASES)


def get_backend(name: Union[str, GEEBackend], **options: Any) -> GEEBackend:
    """Instantiate a backend by name with validated construction options.

    An already-constructed :class:`GEEBackend` passes through unchanged
    (``options`` must then be empty).
    """
    if isinstance(name, GEEBackend):
        if options:
            raise TypeError(
                "options cannot be combined with an already-constructed backend "
                f"instance ({name!r}); construct it with the options instead"
            )
        return name
    return backend_class(name)(**options)


def list_backends() -> List[str]:
    """Sorted canonical names of every registered backend."""
    return sorted(_REGISTRY)
