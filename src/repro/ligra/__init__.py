"""A Ligra-like shared-memory graph processing engine in Python.

Implements the part of Shun & Blelloch's Ligra that the paper's GEE-Ligra
(Algorithm 2) runs: ``vertexSubset`` frontiers and the dense ``edgeMap``,
with four execution schedules and ``writeAdd`` atomics.
"""

from .atomics import AtomicArray, UnsafeArray, make_accumulator
from .backends import (
    AccumulatingEdgeMapFunction,
    DenseBackend,
    ProcessBackend,
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
    "AccumulatingEdgeMapFunction",
    "edge_map_dense_serial",
    "VertexSubset",
    "LigraEngine",
    "DenseBackend",
    "SerialBackend",
    "VectorizedBackend",
    "ThreadBackend",
    "ProcessBackend",
    "make_backend",
]
