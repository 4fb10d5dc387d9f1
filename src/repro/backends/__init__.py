"""Unified registry of GEE execution backends.

``repro.backends`` is the single extension point for execution strategies:
each backend wraps one way of running the GEE edge pass (interpreted,
vectorised, the Ligra engine's schedules, the owner-computes process
kernel) behind a common ``embed(graph, labels, n_classes)`` interface with
declared capabilities and validated construction options.

>>> from repro.backends import get_backend, list_backends
>>> len(list_backends()) >= 6
True
>>> get_backend("vectorized")            # canonical name      # doctest: +SKIP
>>> get_backend("ligra")                 # legacy alias        # doctest: +SKIP
>>> get_backend("python", n_workers=2)   # raises ValueError   # doctest: +SKIP
"""

from .registry import (
    BackendCapabilities,
    GEEBackend,
    backend_aliases,
    backend_capabilities,
    backend_class,
    get_backend,
    list_backends,
    register_backend,
    resolve_backend_name,
)

# Importing the modules registers the built-in backends.
from . import gee as _gee_backends  # noqa: F401  (import for side effects)
from .auto import AutoGEEBackend
from .gee import (
    LigraSerialGEEBackend,
    LigraThreadsGEEBackend,
    LigraVectorizedGEEBackend,
    ProcessParallelGEEBackend,
    PythonLoopBackend,
    VectorizedGEEBackend,
)

__all__ = [
    "AutoGEEBackend",
    "BackendCapabilities",
    "GEEBackend",
    "register_backend",
    "get_backend",
    "list_backends",
    "backend_class",
    "backend_capabilities",
    "backend_aliases",
    "resolve_backend_name",
    "PythonLoopBackend",
    "VectorizedGEEBackend",
    "LigraSerialGEEBackend",
    "LigraVectorizedGEEBackend",
    "LigraThreadsGEEBackend",
    "ProcessParallelGEEBackend",
]
