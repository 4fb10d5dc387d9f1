"""Registered GEE execution backends.

Each class is a thin, capability-declaring wrapper over one of the
functional implementations in :mod:`repro.core`; the Ligra-family backends
reuse the :mod:`repro.ligra.backends` execution classes underneath (through
:func:`~repro.core.gee_ligra.gee_ligra` → ``LigraEngine`` →
``make_backend``) rather than duplicating their scheduling logic.

The canonical names, and the Table I columns they correspond to:

================== ============================================= ===========
name               implementation                                paper column
================== ============================================= ===========
python             interpreted reference loop (Algorithm 1)      GEE-Python
vectorized         NumPy scatter-add edge pass                   Numba serial
sparse             ``(A + Aᵀ)·W`` via scipy.sparse CSR matmul    Numba serial
                                                                 (C-speed ref)
ligra-serial       engine, one edge list at a time               GEE-Ligra S
ligra-vectorized   engine, flat NumPy slabs (alias: ``ligra``)   GEE-Ligra S
ligra-threads      engine, degree-balanced threads + atomics     —
ligra-processes    engine, forked workers + reduction            GEE-Ligra P
                   (alias: ``ligra-parallel``)
parallel           owner-computes rows over the sorted incidence GEE-Ligra P
================== ============================================= ===========

Every backend also implements the compiled-plan path
(``embed_with_plan``, see :mod:`repro.core.plan`): repeated embeds of one
``(graph, K)`` pair skip validation, index building and large allocations.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.gee_ligra import gee_ligra, gee_ligra_with_plan
from ..core.gee_parallel import (
    gee_parallel,
    gee_parallel_chunked,
    gee_parallel_with_plan,
    patch_sums_parallel,
)
from ..core.gee_python import gee_python, gee_python_with_plan
from ..core.gee_sparse import (
    gee_sparse,
    gee_sparse_chunked,
    gee_sparse_with_plan,
    patch_sums_sparse,
)
from ..core.gee_vectorized import (
    gee_vectorized,
    gee_vectorized_chunked,
    gee_vectorized_with_plan,
    patch_sums_vectorized,
)
from ..graph.facade import Graph
from .registry import BackendCapabilities, GEEBackend, register_backend

__all__ = [
    "PythonLoopBackend",
    "VectorizedGEEBackend",
    "SparseMatmulGEEBackend",
    "LigraSerialGEEBackend",
    "LigraVectorizedGEEBackend",
    "LigraThreadsGEEBackend",
    "LigraProcessesGEEBackend",
    "ProcessParallelGEEBackend",
]


@register_backend(
    "python",
    capabilities=BackendCapabilities(
        description="interpreted reference edge loop (Algorithm 1)",
    ),
)
class PythonLoopBackend(GEEBackend):
    """The paper's GEE-Python baseline: a pure-Python loop over edges."""

    def _embed(self, graph: Graph, labels: np.ndarray, n_classes: Optional[int]):
        return gee_python(graph.edges, labels, n_classes)

    def _embed_with_plan(self, plan, labels: np.ndarray):
        return gee_python_with_plan(plan, labels)


@register_backend(
    "vectorized",
    capabilities=BackendCapabilities(
        supports_chunked=True,
        supports_incremental=True,
        supports_layout=True,
        description="single-core NumPy scatter-add edge pass (compiled-serial stand-in)",
    ),
)
class VectorizedGEEBackend(GEEBackend):
    """Fully vectorised single-core edge pass (the Numba-serial stand-in)."""

    _OPTIONS = {"chunk_edges": None}

    def _patch_sums(self, S_flat, src, dst, delta_w, labels, n_classes):
        patch_sums_vectorized(S_flat, src, dst, delta_w, labels, n_classes)

    def _embed(self, graph: Graph, labels: np.ndarray, n_classes: Optional[int]):
        return gee_vectorized(
            graph.edges, labels, n_classes, chunk_edges=self.chunk_edges
        )

    def _embed_with_plan(self, plan, labels: np.ndarray):
        if self.chunk_edges is not None:
            # Chunked runs exist to bound temporary-array size; the plan's
            # precompiled full-length index components defeat that, so
            # re-plan the graph chunked (cached per chunk size) and stream.
            # A requested layout carries over (chunked plans stream sorted
            # incidence blocks).
            layout = None if plan.layout == "none" else plan.layout
            chunked = plan.graph.plan(
                plan.n_classes, chunk_edges=self.chunk_edges, layout=layout
            )
            return gee_vectorized_chunked(chunked, labels)
        return gee_vectorized_with_plan(plan, labels)

    def _embed_with_chunked_plan(self, plan, labels: np.ndarray):
        return gee_vectorized_chunked(plan, labels)


@register_backend(
    "sparse",
    capabilities=BackendCapabilities(
        supports_chunked=True,
        supports_incremental=True,
        description="scipy.sparse CSR matmul (A + A^T)W — C-speed serial reference",
    ),
)
class SparseMatmulGEEBackend(GEEBackend):
    """GEE as one sparse matrix product, ``Z = (A + Aᵀ)·W`` via SciPy.

    A serial reference point whose inner loop is compiled C: what a generic
    sparse-linear-algebra stack achieves on the same hardware without the
    paper's edge-pass formulation.
    """

    def _embed(self, graph: Graph, labels: np.ndarray, n_classes: Optional[int]):
        return gee_sparse(graph, labels, n_classes)

    def _embed_with_plan(self, plan, labels: np.ndarray):
        return gee_sparse_with_plan(plan, labels)

    def _embed_with_chunked_plan(self, plan, labels: np.ndarray):
        return gee_sparse_chunked(plan, labels)

    def _patch_sums(self, S_flat, src, dst, delta_w, labels, n_classes):
        patch_sums_sparse(S_flat, src, dst, delta_w, labels, n_classes)


class _LigraGEEBackend(GEEBackend):
    """Shared plumbing for the Ligra-engine family.

    ``engine_backend`` names the :mod:`repro.ligra.backends` execution class
    the engine schedules the dense edge map on; the graph's cached CSR view
    feeds the engine directly, so backend sweeps over one ``Graph`` build
    the adjacency once.
    """

    engine_backend = "serial"
    _OPTIONS = {"atomic": True}

    def _embed(self, graph: Graph, labels: np.ndarray, n_classes: Optional[int]):
        return gee_ligra(
            graph.csr,
            labels,
            n_classes,
            backend=self.engine_backend,
            n_workers=self.n_workers,
            atomic=self.atomic,
        )

    def _embed_with_plan(self, plan, labels: np.ndarray):
        return gee_ligra_with_plan(
            plan,
            labels,
            backend=self.engine_backend,
            n_workers=self.n_workers,
            atomic=self.atomic,
        )


@register_backend(
    "ligra-serial",
    capabilities=BackendCapabilities(
        description="Ligra engine, serial dense traversal (GEE-Ligra Serial)",
    ),
)
class LigraSerialGEEBackend(_LigraGEEBackend):
    engine_backend = "serial"


@register_backend(
    "ligra-vectorized",
    aliases=("ligra",),
    capabilities=BackendCapabilities(
        description="Ligra engine, vectorised dense traversal",
    ),
)
class LigraVectorizedGEEBackend(_LigraGEEBackend):
    engine_backend = "vectorized"


@register_backend(
    "ligra-threads",
    capabilities=BackendCapabilities(
        supports_n_workers=True,
        parallel=True,
        deterministic=False,
        description="Ligra engine, degree-balanced threads with lock-striped writeAdd",
    ),
)
class LigraThreadsGEEBackend(_LigraGEEBackend):
    engine_backend = "threads"


@register_backend(
    "ligra-processes",
    aliases=("ligra-parallel",),
    capabilities=BackendCapabilities(
        supports_n_workers=True,
        parallel=True,
        deterministic=False,
        description="Ligra engine, forked workers with private partials + reduction",
    ),
)
class LigraProcessesGEEBackend(_LigraGEEBackend):
    engine_backend = "processes"


@register_backend(
    "parallel",
    capabilities=BackendCapabilities(
        supports_n_workers=True,
        parallel=True,
        deterministic=True,
        supports_chunked=True,
        supports_incremental=True,
        supports_layout=True,
        description="owner-computes row partition over a persistent fork pool",
    ),
)
class ProcessParallelGEEBackend(GEEBackend):
    """The strong-scaling kernel: owner-computes rows, shared-memory output.

    Every plan runs the sorted fused layout (a ``layout="none"`` plan
    through its graph's cached sorted plan), one degree-balanced row range
    per worker on the one owner-range executor
    (:func:`~repro.core.gee_parallel.run_owner_ranges`).  Deterministic
    despite being parallel — every embedding row is computed start-to-finish
    by exactly one worker in a fixed traversal order, so any worker count
    gives bitwise the serial sorted pass.  Pooled runs return the slot of
    the shared output ring the workers wrote, with no copy; the result
    owns its embedding either way.  The chunked (out-of-core) path trades
    that row partition for per-worker chunk slabs with private partials and
    one reduction, keeping the bounded-memory guarantee on the edge side;
    it too is deterministic (fixed slab assignment, fixed reduction order).
    """

    def _embed(self, graph: Graph, labels: np.ndarray, n_classes: Optional[int]):
        return gee_parallel(graph, labels, n_classes, n_workers=self.n_workers)

    def _embed_with_plan(self, plan, labels: np.ndarray):
        return gee_parallel_with_plan(plan, labels, n_workers=self.n_workers)

    def _embed_with_chunked_plan(self, plan, labels: np.ndarray):
        return gee_parallel_chunked(plan, labels, n_workers=self.n_workers)

    def _patch_sums(self, S_flat, src, dst, delta_w, labels, n_classes):
        patch_sums_parallel(
            S_flat, src, dst, delta_w, labels, n_classes, n_workers=self.n_workers
        )
