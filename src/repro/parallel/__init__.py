"""Shared-memory process parallelism substrate (pools and partitioning)."""

from .partition import (
    balanced_edge_ranges_by_vertex,
    block_ranges,
    chunk_ranges,
    interleaved_assignment,
)
from .pool import (
    ForkWorkerPool,
    effective_worker_count,
    fork_available,
    resolve_worker_count,
)
from .scheduling import SchedulePolicy, make_schedule
from .shm import SharedArrayHandle, SharedArraySet, attach, attach_many

__all__ = [
    "block_ranges",
    "balanced_edge_ranges_by_vertex",
    "chunk_ranges",
    "interleaved_assignment",
    "ForkWorkerPool",
    "effective_worker_count",
    "resolve_worker_count",
    "fork_available",
    "SchedulePolicy",
    "make_schedule",
    "SharedArrayHandle",
    "SharedArraySet",
    "attach",
    "attach_many",
]
