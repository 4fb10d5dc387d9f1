"""Shared-memory process parallelism substrate (pools and partitioning)."""

from .partition import balanced_ranges_from_work, block_ranges
from .pool import (
    ForkWorkerPool,
    effective_worker_count,
    fork_available,
    resolve_worker_count,
)
from .shm import SharedArrayHandle, SharedArraySet, attach

__all__ = [
    "block_ranges",
    "balanced_ranges_from_work",
    "ForkWorkerPool",
    "effective_worker_count",
    "resolve_worker_count",
    "fork_available",
    "SharedArrayHandle",
    "SharedArraySet",
    "attach",
]
