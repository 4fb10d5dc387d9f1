"""The calibrated execution cost model behind ``backend="auto"``.

:class:`CostModel` holds per-``backend:layout`` cost coefficients (from the
machine calibration, :mod:`repro.tune.calibration`, or built-in defaults)
and answers the one question every embed entry point has been delegating to
the caller since PR 1: *which execution strategy is fastest for this graph
on this machine?*  :meth:`CostModel.choose` returns a full
:class:`ExecutionChoice` — backend, layout, worker count, chunking — and
the auto backend executes it; the choice is logged on the result
(``result.execution_choice``) for observability.

Degradation is deliberate and safe: a missing, corrupt, or stale
calibration cache produces a one-time :class:`RuntimeWarning` and the
built-in :data:`DEFAULT_CALIBRATION` coefficients — auto never errors for
lack of a cache.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .calibration import (
    calibration_staleness,
    load_calibration,
    tune_cache_path,
)

__all__ = [
    "CostModel",
    "ExecutionChoice",
    "DEFAULT_CALIBRATION",
    "auto_layout",
    "get_cost_model",
    "reset_cost_model",
]

#: Built-in fallback coefficients (seconds), fitted on the reference dev
#: container with the same procedure as :func:`repro.tune.calibrate`.  The
#: absolute numbers matter less than the *ratios* — random scatter vs.
#: segment-sum scatter vs. sparse matmul vs. interpreted loop — which are
#: stable across commodity x86.  A real per-machine calibration
#: (``python -m repro.tune``) always supersedes these.
DEFAULT_CALIBRATION: Dict = {
    "schema": 2,
    "cpu_count": None,
    "parallel_workers": 0,
    "coefficients": {
        "vectorized:none": {
            "fixed_s": 1.0e-05,
            "per_edge_s": 3.3e-08,
            "per_cell_s": 1.3e-09,
        },
        "vectorized:sorted": {
            "fixed_s": 1.5e-05,
            "per_edge_s": 1.1e-08,
            "per_cell_s": 1.6e-09,
        },
        "sparse:none": {
            "fixed_s": 2.0e-05,
            "per_edge_s": 1.3e-08,
            "per_cell_s": 6.3e-09,
        },
        "python:none": {
            "fixed_s": 0.0,
            "per_edge_s": 1.1e-06,
            "per_cell_s": 0.0,
        },
        # Per-shard cost of the owner-range sharded engine: fixed_s is paid
        # once per shard (plan dispatch), per_edge_s is the fused
        # segment-sum scatter (matches vectorized:sorted), per_cell_s
        # covers one output pass (_shard_cost adds the pooled path's
        # copy-out and pool dispatch).
        "sharded:sorted": {
            "fixed_s": 5.0e-05,
            "per_edge_s": 1.1e-08,
            "per_cell_s": 2.0e-09,
        },
    },
}

#: Configurations eligible for the chunked (out-of-core) path.
_CHUNK_CAPABLE = ("vectorized:sorted", "vectorized:none", "sparse:none")

#: The interpreted loop is only ever competitive on toy graphs; beyond this
#: edge count its candidacy is suppressed so a miscalibrated fixed term can
#: never select it at scale.
_PYTHON_MAX_EDGES = 50_000


@dataclass(frozen=True)
class ExecutionChoice:
    """A fully-resolved execution strategy for one embed.

    What ``backend="auto"`` decided and why: the concrete backend and
    layout to run, the worker count (``None`` = serial), the chunk size to
    keep (``None`` = in-memory), the predicted wall-clock, whether the
    prediction came from a real machine calibration or the built-in
    defaults, and the full per-candidate prediction table for
    observability.
    """

    backend: str
    layout: str
    n_workers: Optional[int] = None
    chunk_edges: Optional[int] = None
    n_shards: Optional[int] = None
    predicted_s: float = float("nan")
    source: str = "default"
    predictions: Dict[str, float] = field(default_factory=dict)

    @property
    def config(self) -> str:
        """The ``backend:layout`` key of the chosen configuration."""
        return f"{self.backend}:{self.layout}"

    def to_dict(self) -> Dict:
        """JSON-able summary (what the benchmarks record)."""
        return {
            "backend": self.backend,
            "layout": self.layout,
            "n_workers": self.n_workers,
            "chunk_edges": self.chunk_edges,
            "n_shards": self.n_shards,
            "predicted_s": self.predicted_s,
            "source": self.source,
        }

    def __str__(self) -> str:
        workers = f", n_workers={self.n_workers}" if self.n_workers else ""
        chunk = f", chunk_edges={self.chunk_edges}" if self.chunk_edges else ""
        shards = f", n_shards={self.n_shards}" if self.n_shards else ""
        return (
            f"{self.backend}:{self.layout}{workers}{chunk}{shards} "
            f"(predicted {self.predicted_s * 1e3:.2f} ms, {self.source})"
        )


class CostModel:
    """Per-machine execution cost predictions for the GEE edge pass.

    ``coefficients`` maps ``backend:layout`` to the three-term model fitted
    by the calibration (``fixed + per_edge·E + per_cell·n·K``); ``source``
    records whether they came from a real calibration or the defaults.
    """

    def __init__(
        self,
        coefficients: Dict[str, Dict[str, float]],
        *,
        parallel_workers: int = 0,
        source: str = "default",
    ) -> None:
        self.coefficients = dict(coefficients)
        #: Worker count the ``parallel:sorted`` coefficients were measured
        #: at (0 = parallel was not calibrated on this machine).
        self.parallel_workers = int(parallel_workers)
        self.source = source

    @classmethod
    def from_calibration(cls, data: Dict, *, source: str = "calibrated") -> "CostModel":
        return cls(
            data["coefficients"],
            parallel_workers=int(data.get("parallel_workers") or 0),
            source=source,
        )

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #
    def predict(self, config: str, n_vertices: int, n_edges: int, n_classes: int) -> float:
        """Predicted seconds for one warm plan-path embed, or ``inf``."""
        coeff = self.coefficients.get(config)
        if coeff is None:
            return float("inf")
        return (
            coeff["fixed_s"]
            + coeff["per_edge_s"] * n_edges
            + coeff["per_cell_s"] * n_vertices * n_classes
        )

    def _candidates(
        self,
        n_edges: int,
        n_workers_available: int,
        chunked: bool,
        fixed_layout: Optional[str],
    ) -> Tuple[str, ...]:
        names = []
        for config in self.coefficients:
            backend, _, layout = config.partition(":")
            if fixed_layout is not None and layout != fixed_layout:
                continue
            if chunked and config not in _CHUNK_CAPABLE:
                continue
            if backend == "python" and n_edges > _PYTHON_MAX_EDGES:
                continue
            if backend == "parallel":
                if chunked or n_workers_available < 2 or self.parallel_workers < 2:
                    continue
            if backend == "sharded" and (chunked or self.parallel_workers < 2):
                # The sharded backend rejects pre-chunked plans; its own
                # out-of-core path goes through ShardedGraph explicitly.
                # Its gain is the pooled run, whose dispatch cost is known
                # only once the pool is calibrated (as for parallel).
                continue
            names.append(config)
        return tuple(names)

    def choose(
        self,
        n_vertices: int,
        n_edges: int,
        n_classes: int,
        *,
        weighted: bool = False,
        n_workers_available: Optional[int] = None,
        chunked: bool = False,
        chunk_edges: Optional[int] = None,
        fixed_layout: Optional[str] = None,
    ) -> ExecutionChoice:
        """The predicted-fastest execution strategy for one graph.

        ``n_workers_available`` caps the parallel candidate (default: the
        machine's CPU count); ``chunked`` restricts to configurations that
        can stream an out-of-core source (``chunk_edges`` is then carried
        through to the choice); ``fixed_layout`` pins the layout and lets
        the model pick only among backends that execute it — used when the
        caller cannot (standalone chunked sources) or must not (an
        explicitly-requested layout) re-compile the plan.  All candidates
        compute the identical embedding (``weighted`` is accepted for
        signature stability — every candidate supports weights), so the
        choice is purely a performance call and a wrong prediction costs
        speed, never correctness.
        """
        # Reserved: every current candidate supports weights and their
        # costs don't depend on weightedness, so the argument is accepted
        # (per the stable signature) but not yet consulted.
        del weighted
        n, e, k = int(n_vertices), int(n_edges), int(n_classes)
        workers = (
            os.cpu_count() or 1
            if n_workers_available is None
            else int(n_workers_available)
        )
        predictions: Dict[str, float] = {}
        shard_counts: Dict[str, int] = {}
        for config in self._candidates(e, workers, chunked, fixed_layout):
            if config.startswith("sharded:"):
                cost, shards = self._shard_cost(config, n, e, k, workers)
                # One shard is the serial sorted kernel plus a fresh output,
                # never faster than vectorized:sorted.
                if shards > 1:
                    predictions[config], shard_counts[config] = cost, shards
                continue
            cost = self.predict(config, n, e, k)
            if config.startswith("parallel:") and workers < self.parallel_workers:
                # The parallel coefficients were measured at the full
                # calibrated worker count; with fewer workers each one owns
                # proportionally more rows, so scale the variable part
                # linearly (conservative — bandwidth saturation means the
                # true penalty is usually smaller, so this never makes a
                # capped parallel run look faster than it is).
                coeff = self.coefficients[config]
                variable = cost - coeff["fixed_s"]
                cost = coeff["fixed_s"] + variable * (self.parallel_workers / workers)
            predictions[config] = cost
        if not predictions:  # pragma: no cover - defensive (coeffs always present)
            fallback = f"vectorized:{fixed_layout or 'none'}"
            predictions = {fallback: self.predict(fallback, n, e, k)}
        best = min(predictions, key=predictions.get)
        backend, _, layout = best.partition(":")
        n_workers: Optional[int] = None
        n_shards: Optional[int] = None
        if backend == "parallel":
            n_workers = min(workers, self.parallel_workers)
        elif backend == "sharded":
            n_shards = shard_counts.get(best, 1)
            n_workers = min(workers, n_shards) if min(workers, n_shards) > 1 else None
        return ExecutionChoice(
            backend=backend,
            layout=layout,
            n_workers=n_workers,
            chunk_edges=chunk_edges,
            n_shards=n_shards,
            predicted_s=predictions[best],
            source=self.source,
            predictions=predictions,
        )

    def _shard_cost(
        self, config: str, n: int, e: int, k: int, workers: int
    ) -> Tuple[float, int]:
        """Best predicted cost and shard count for the sharded engine.

        The shard-count axis: ``fixed_s`` is paid once per shard, the edge
        pass splits across ``min(s, workers)`` workers, and the output term
        is one pass over the shared output.  More than one shard runs on the
        fork pool, which adds one output pass for the copy-out and the pool
        dispatch — the calibration measures the sharded engine at one shard
        only, so the dispatch is the fixed term of ``parallel:sorted``, the
        other pooled kernel (zero when the pool was not calibrated).  Shard
        counts are swept over powers of two up to the worker count — beyond
        that, extra shards only add dispatch cost.
        """
        coeff = self.coefficients[config]
        dispatch_s = self.coefficients.get("parallel:sorted", {}).get("fixed_s", 0.0)
        best_s, best_cost = 1, float("inf")
        s = 1
        while s <= max(1, workers):
            pooled = s > 1
            cost = (
                coeff["fixed_s"] * s
                + (dispatch_s if pooled else 0.0)
                + coeff["per_edge_s"] * e / min(s, max(1, workers))
                + coeff["per_cell_s"] * n * k * (2 if pooled else 1)
            )
            if cost < best_cost:
                best_s, best_cost = s, cost
            s *= 2
        return best_cost, best_s

    def choose_layout(self, n_vertices: int, n_edges: int, n_classes: int) -> str:
        """The best *layout* for the single-core vectorized kernel.

        What ``graph.plan(K, layout="auto")`` resolves through: the layout
        decision alone, independent of the backend choice.
        """
        from ..core.plan import LAYOUTS

        best, best_cost = "none", float("inf")
        for layout in LAYOUTS:
            cost = self.predict(f"vectorized:{layout}", n_vertices, n_edges, n_classes)
            if cost < best_cost:
                best, best_cost = layout, cost
        return best

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CostModel(source={self.source!r}, "
            f"configs={sorted(self.coefficients)})"
        )


# --------------------------------------------------------------------------- #
# Process-wide model (loaded once, warn-once fallback)
# --------------------------------------------------------------------------- #
_MODEL: Optional[CostModel] = None
_WARNED = False


def _fallback(reason: str) -> CostModel:
    global _WARNED
    if not _WARNED:
        _WARNED = True
        warnings.warn(
            f"repro.tune: {reason}; using built-in default cost coefficients. "
            "Run `python -m repro.tune` once to calibrate this machine "
            f"(cache: {tune_cache_path()}).",
            RuntimeWarning,
            stacklevel=3,
        )
    return CostModel.from_calibration(DEFAULT_CALIBRATION, source="default")


def get_cost_model(*, refresh: bool = False) -> CostModel:
    """The process-wide :class:`CostModel` (calibration cache or defaults).

    Loaded once and memoised; ``refresh=True`` re-reads the cache (after
    running a calibration in-process, for instance).  Absent or stale
    caches fall back to :data:`DEFAULT_CALIBRATION` with a single
    :class:`RuntimeWarning` — never an error.
    """
    global _MODEL
    if _MODEL is not None and not refresh:
        return _MODEL
    data = load_calibration()
    if data is None:
        _MODEL = _fallback(f"no calibration cache at {tune_cache_path()}")
        return _MODEL
    reason = calibration_staleness(data)
    if reason is not None:
        _MODEL = _fallback(f"calibration cache is stale ({reason})")
        return _MODEL
    _MODEL = CostModel.from_calibration(data)
    return _MODEL


def reset_cost_model(*, rearm_warning: bool = False) -> None:
    """Drop the memoised model so the next access re-reads the cache.

    The once-per-process fallback warning stays latched by default — a
    model *reload* (calibrating in-process, a test fixture swapping
    ``REPRO_TUNE_DIR``) must not make the "one-time" warning fire again.
    Pass ``rearm_warning=True`` to reset the latch too (tests that assert
    on the warning itself).
    """
    global _MODEL, _WARNED
    _MODEL = None
    if rearm_warning:
        _WARNED = False


def auto_layout(n_vertices: int, n_edges: int, n_classes: int) -> str:
    """Resolve ``layout="auto"`` for one ``(n, E, K)`` through the model."""
    return get_cost_model().choose_layout(n_vertices, n_edges, n_classes)
