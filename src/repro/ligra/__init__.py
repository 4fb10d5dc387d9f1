"""A Ligra-like shared-memory graph processing engine in Python.

Implements the part of Shun & Blelloch's Ligra that the paper's GEE-Ligra
(Algorithm 2) runs: ``vertexSubset`` frontiers and the dense ``edgeMap``,
with three execution schedules and ``writeAdd`` atomics.  The schedules
are the paper baselines' (serial and vectorized for Table I's
"ligra-serial" column, threads for the atomics ablation); Table I's
"ligra-parallel" column runs the owner-range ``parallel`` backend.
"""

from .atomics import AtomicArray, UnsafeArray, make_accumulator
from .backends import (
    DenseBackend,
    SerialBackend,
    ThreadBackend,
    VectorizedBackend,
    make_backend,
)
from .edge_map import EdgeMapFunction, edge_map_dense_serial
from .engine import LigraEngine
from .vertex_subset import VertexSubset

__all__ = [
    "AtomicArray",
    "UnsafeArray",
    "make_accumulator",
    "EdgeMapFunction",
    "edge_map_dense_serial",
    "VertexSubset",
    "LigraEngine",
    "DenseBackend",
    "SerialBackend",
    "VectorizedBackend",
    "ThreadBackend",
    "make_backend",
]
