"""The ``"auto"`` backend: one size rule picks the execution per call.

Every other registry backend *is* an execution strategy; this one *picks*
one with :func:`choose`, delegates to it, and logs the pick on the result
(``result.execution_choice``).  GEE is one linear pass over the edges, so
the only decision is whether to run the sorted pass serially or to spread
its owner ranges over the fork pool:

* ``parallel`` on the sorted layout with
  ``effective_worker_count(n_workers)`` workers when the plan is in
  memory, ``fork`` is available, that worker count is at least 2 and the
  graph has at least :data:`POOLED_MIN_EDGES` edges;
* otherwise ``vectorized`` on the sorted layout;
* a chunked plan, in memory or on disk, runs as given on ``vectorized``:
  the one chunked pass streams in stored order (``layout == "none"``).

The embedding is bitwise what the chosen delegate returns on the same
plan, so the rule costs speed, never correctness.  It reads and writes no
file.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.plan import _plan_in_layout
from ..parallel.pool import effective_worker_count, fork_available
from .registry import BackendCapabilities, GEEBackend, get_backend, register_backend

__all__ = ["AutoGEEBackend", "ExecutionChoice", "POOLED_MIN_EDGES", "choose"]

#: Fewest edges at which ``auto`` runs the sorted pass on the fork pool.
#: Measured on a 2-CPU VM (friendster-sim, K = 50, warm sorted plan, serial
#: against 2 workers, full and 10% labels): two workers lost every run at
#: 0.28M edges (0.82-0.88x), lost 5 of 8 at 1.1M (0.86-1.75x), won 5 of 7
#: at 2.2M (0.93-1.91x) and won all 13 at 3.4M-8.9M (1.6-2.15x).  It is
#: above the largest graph a committed bench sweep hands to ``auto``
#: (friendster-sim at scale 1, E = 1.11M).
POOLED_MIN_EDGES = 2**21


@dataclass(frozen=True)
class ExecutionChoice:
    """What ``backend="auto"`` ran: a registered backend, the plan layout
    it ran on, and its worker count (``None`` = serial)."""

    backend: str
    layout: str
    n_workers: Optional[int] = None

    @property
    def config(self) -> str:
        """The ``backend:layout`` key of the choice."""
        return f"{self.backend}:{self.layout}"

    def to_dict(self) -> Dict:
        """JSON-able summary (what the benchmarks record)."""
        return asdict(self)


def choose(plan, n_workers: Optional[int] = None) -> ExecutionChoice:
    """The execution the rule picks for ``plan`` (see the module docstring).

    ``plan`` is an :class:`~repro.core.plan.EmbedPlan` or a
    :class:`~repro.core.plan.ChunkedPlan`; ``n_workers`` caps the pool
    (default: every CPU).
    """
    if plan.is_chunked:
        return ExecutionChoice("vectorized", "none")
    workers = effective_worker_count(n_workers)
    if workers >= 2 and plan.n_edges >= POOLED_MIN_EDGES and fork_available():
        return ExecutionChoice("parallel", "sorted", workers)
    return ExecutionChoice("vectorized", "sorted")


@register_backend(
    "auto",
    capabilities=BackendCapabilities(
        supports_n_workers=True,
        parallel=True,
        deterministic=True,
        supports_chunked=True,
        supports_layout=True,
        description="size rule: the sorted pass, pooled for large in-memory graphs",
    ),
)
class AutoGEEBackend(GEEBackend):
    """Delegate each embed to the backend :func:`choose` picks.

    ``n_workers`` caps the pooled run (default: the machine's CPU count).
    Capabilities are the union of the delegates': chunked plans run on
    ``vectorized``.
    """

    def __init__(self, *, n_workers: Optional[int] = None, **options) -> None:
        super().__init__(n_workers=n_workers, **options)
        self._delegates: Dict[Tuple[str, Optional[int]], GEEBackend] = {}

    def _delegate(self, choice: ExecutionChoice) -> GEEBackend:
        key = (choice.backend, choice.n_workers)
        backend = self._delegates.get(key)
        if backend is None:
            backend = get_backend(choice.backend, n_workers=choice.n_workers)
            self._delegates[key] = backend
        return backend

    def _embed_with_plan(self, plan, labels: np.ndarray):
        choice = choose(plan, self.n_workers)
        if not plan.is_chunked:
            plan = _plan_in_layout(plan, choice.layout)
        result = self._delegate(choice).embed_with_plan(plan, labels)
        result.execution_choice = choice
        return result

    _embed_with_chunked_plan = _embed_with_plan
