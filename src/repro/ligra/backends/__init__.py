"""Execution backends for the dense edge map."""

from .base import DenseBackend, frontier_edges
from .serial import SerialBackend
from .threads import ThreadBackend
from .vectorized import VectorizedBackend

__all__ = [
    "DenseBackend",
    "frontier_edges",
    "SerialBackend",
    "VectorizedBackend",
    "ThreadBackend",
    "make_backend",
]


def make_backend(name: str, n_workers: int | None = None) -> DenseBackend:
    """Create a backend by name: serial, vectorized or threads."""
    name = name.lower()
    if name == "serial":
        return SerialBackend()
    if name == "vectorized":
        return VectorizedBackend()
    if name in ("threads", "thread"):
        return ThreadBackend(n_workers)
    raise ValueError(f"unknown backend {name!r}; expected serial, vectorized or threads")
