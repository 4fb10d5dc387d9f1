"""repro — Edge-Parallel Graph Encoder Embedding (GEE-Ligra), in Python.

A reproduction of "Edge-Parallel Graph Encoder Embedding" (IPPS 2024):
the One-Hot Graph Encoder Embedding algorithm, a Ligra-like shared-memory
graph engine, and the parallel GEE implementations built on top of it,
together with the substrates (graph generators, shared-memory process
parallelism, label sources, metrics) and the benchmark harness that
regenerates every table and figure of the paper's evaluation.

Quick start::

    from repro import GraphEncoderEmbedding
    from repro.graph import planted_partition
    from repro.labels import mask_labels

    edges, truth = planted_partition(1000, 5, 0.05, 0.005, seed=0)
    y = mask_labels(truth, 0.1, seed=0)
    model = GraphEncoderEmbedding(method="parallel", n_workers=4).fit(edges, y)
    Z = model.embedding_

Execution strategies live in the :mod:`repro.backends` registry
(``list_backends()`` / ``get_backend()``); graph inputs of any shape
(edge arrays, CSR, ``scipy.sparse``) are accepted everywhere through the
:class:`repro.graph.Graph` facade.
"""

from .backends import GEEBackend, get_backend, list_backends, register_backend
from .core import (
    EmbeddingResult,
    GraphEncoderEmbedding,
    gee_laplacian,
    gee_ligra,
    gee_parallel,
    gee_python,
    gee_unsupervised,
    gee_vectorized,
)
from .graph import ChunkedEdgeSource, CSRGraph, EdgeList, Graph, as_graph
from .ligra import LigraEngine, VertexSubset
from .stream import DynamicGraph, IncrementalEmbedding, MutationLog, SegmentedEdgeStore

# Importing repro.obs arms REPRO_TRACE=path tracing (a no-op otherwise).
from . import obs  # noqa: E402  (after the public API so obs can't shadow it)

__version__ = "1.4.0"

__all__ = [
    "GraphEncoderEmbedding",
    "EmbeddingResult",
    "gee_python",
    "gee_vectorized",
    "gee_ligra",
    "gee_parallel",
    "gee_laplacian",
    "gee_unsupervised",
    "EdgeList",
    "CSRGraph",
    "Graph",
    "as_graph",
    "ChunkedEdgeSource",
    "DynamicGraph",
    "IncrementalEmbedding",
    "MutationLog",
    "SegmentedEdgeStore",
    "GEEBackend",
    "get_backend",
    "list_backends",
    "register_backend",
    "LigraEngine",
    "VertexSubset",
    "__version__",
]
