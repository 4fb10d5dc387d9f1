"""Result container shared by all GEE implementations."""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

__all__ = ["EmbeddingResult"]


class EmbeddingResult:
    """Output of a GEE run.

    Attributes
    ----------
    embedding:
        ``Z ∈ R^{n×K}`` — the node embeddings (Algorithm 1/2 output).  The
        result owns it: a plan-based kernel writes it in place into a
        buffer of the plan's (or the worker pool's) output ring, and that
        buffer is reused only once no array views it any more, so a kept
        embedding never changes.
    projection:
        ``W ∈ R^{n×K}`` — the projection matrix built from the labels.  The
        fast plan-based paths construct it lazily on first access (the edge
        pass only ever reads the per-vertex scales, so materialising the
        dense ``W`` is pure reporting overhead); pass ``projection_builder``
        instead of ``projection`` for that behaviour.
    timings:
        Wall-clock seconds of the phases an implementation chooses to
        report.  All implementations report ``"total"``; most also report
        ``"projection"`` (the O(nK) initialisation) and ``"edge_pass"``
        (the O(s) loop), which is the split the paper discusses in §III.
    method:
        Name of the implementation that produced the result.
    n_workers:
        Worker count used (1 for the serial implementations).
    """

    def __init__(
        self,
        embedding: np.ndarray,
        projection: Optional[np.ndarray] = None,
        timings: Optional[Dict[str, float]] = None,
        method: str = "unknown",
        n_workers: int = 1,
        *,
        projection_builder: Optional[Callable[[], np.ndarray]] = None,
        layout: str = "none",
        execution_choice=None,
    ) -> None:
        if projection is None and projection_builder is None:
            raise TypeError("provide either projection or projection_builder")
        self.embedding = embedding
        self._projection = projection
        self._projection_builder = projection_builder
        self.timings: Dict[str, float] = {} if timings is None else timings
        self.method = method
        self.n_workers = n_workers
        #: Memory layout the edge pass executed with (``"none"`` = arrival
        #: order; ``"sorted"`` = the locality-optimized fused kernel) —
        #: observability for benchmarks and the auto backend.
        self.layout = layout
        #: The :class:`~repro.backends.auto.ExecutionChoice` behind a
        #: ``backend="auto"`` run (``None`` for explicitly-picked backends).
        self.execution_choice = execution_choice
        #: Compact telemetry summary of the run (top spans + counters),
        #: attached by the backend dispatch layer when ``repro.obs`` tracing
        #: is enabled; ``None`` otherwise.
        self.telemetry: Optional[Dict] = None

    @property
    def projection(self) -> np.ndarray:
        """The projection matrix ``W`` (built lazily for plan-based runs)."""
        if self._projection is None:
            assert self._projection_builder is not None
            self._projection = self._projection_builder()
        return self._projection

    @property
    def n_vertices(self) -> int:
        """Number of embedded vertices."""
        return int(self.embedding.shape[0])

    @property
    def n_classes(self) -> int:
        """Embedding dimensionality ``K``."""
        return int(self.embedding.shape[1])

    @property
    def total_seconds(self) -> float:
        """Total wall-clock time of the run."""
        return float(self.timings.get("total", float("nan")))

    def normalized(self) -> np.ndarray:
        """Row-normalised embedding (unit L2 norm; zero rows left at zero).

        The original GEE paper recommends row normalisation before
        clustering or classification; it does not change class structure,
        only scale.
        """
        norms = np.linalg.norm(self.embedding, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return self.embedding / norms

    def detached(self) -> "EmbeddingResult":
        """This result, unchanged: it already owns its embedding.

        A no-op, so code that stores results through ``detached()`` keeps
        working and pays no copy.
        """
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        n, k = self.embedding.shape
        return (
            f"EmbeddingResult(n={n}, K={k}, method={self.method!r}, "
            f"n_workers={self.n_workers})"
        )
