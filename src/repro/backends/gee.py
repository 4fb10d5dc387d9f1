"""Registered GEE execution backends.

Each class is a thin, capability-declaring wrapper over one plan kernel
of :mod:`repro.core` (``_embed_with_plan``); the Ligra-family backends
reuse the :mod:`repro.ligra.backends` execution classes underneath (through
:func:`~repro.core.gee_ligra.gee_ligra_with_plan` → ``LigraEngine`` →
``make_backend``) rather than duplicating their scheduling logic.

``embed`` and ``embed_with_plan`` run the same kernel: ``embed`` on the
graph's default plan ``graph.plan(K)`` (see :mod:`repro.core.plan`), so
repeated embeds of one ``(graph, K)`` pair skip validation and index
building.  The canonical names, the pass each runs on a default plan, and
the Table I columns they correspond to:

================== ============================================= ===========
name               pass on a default plan                        paper column
================== ============================================= ===========
python             interpreted reference loop (Algorithm 1)      GEE-Python
vectorized         compile-free pass: one ``bincount`` of the    Numba serial
                   known incidences (a sorted plan: block-local
                   segment sums)
sparse             ``(A + Aᵀ)·W`` via scipy.sparse CSR matmul    Numba serial
                   over the sorted plan's symmetric CSR          (C-speed ref)
ligra-serial       engine, one edge list at a time               GEE-Ligra S
ligra-vectorized   engine, flat NumPy slabs (alias: ``ligra``)   GEE-Ligra S
ligra-threads      engine, degree-balanced threads + atomics     —
parallel           owner-computes rows over the sorted incidence GEE-Ligra P
                   (alias: ``ligra-parallel``)
================== ============================================= ===========

Each alias names the backend of the paper column it abbreviates.  The
``auto`` backend (:mod:`repro.backends.auto`) picks ``vectorized`` or
``parallel`` per call.
"""

from __future__ import annotations

import numpy as np

from ..core.gee_ligra import gee_ligra_with_plan
from ..core.gee_parallel import gee_parallel_with_plan
from ..core.gee_python import gee_python
from ..core.gee_sparse import gee_sparse_with_plan
from ..core.gee_vectorized import gee_vectorized_chunked, gee_vectorized_with_plan
from .registry import BackendCapabilities, GEEBackend, register_backend

__all__ = [
    "PythonLoopBackend",
    "VectorizedGEEBackend",
    "SparseMatmulGEEBackend",
    "LigraSerialGEEBackend",
    "LigraVectorizedGEEBackend",
    "LigraThreadsGEEBackend",
    "ProcessParallelGEEBackend",
]


@register_backend(
    "python",
    capabilities=BackendCapabilities(
        description="interpreted reference edge loop (Algorithm 1)",
    ),
)
class PythonLoopBackend(GEEBackend):
    """The paper's GEE-Python baseline: a pure-Python loop over edges.

    Its plan kernel is the oracle :func:`~repro.core.gee_python.gee_python`
    itself, on the plan's validated edges.
    """

    def _embed_with_plan(self, plan, labels: np.ndarray):
        return gee_python(plan.graph.edges, labels, plan.n_classes)


@register_backend(
    "vectorized",
    capabilities=BackendCapabilities(
        supports_chunked=True,
        supports_layout=True,
        description="single-core NumPy scatter-add edge pass (compiled-serial stand-in)",
    ),
)
class VectorizedGEEBackend(GEEBackend):
    """Fully vectorised single-core edge pass (the Numba-serial stand-in)."""

    def _embed_with_plan(self, plan, labels: np.ndarray):
        return gee_vectorized_with_plan(plan, labels)

    def _embed_with_chunked_plan(self, plan, labels: np.ndarray):
        return gee_vectorized_chunked(plan, labels)


@register_backend(
    "sparse",
    capabilities=BackendCapabilities(
        description="scipy.sparse CSR matmul (A + A^T)W — C-speed serial reference",
    ),
)
class SparseMatmulGEEBackend(GEEBackend):
    """GEE as one sparse matrix product, ``Z = (A + Aᵀ)·W`` via SciPy.

    A serial reference point whose inner loop is compiled C: what a generic
    sparse-linear-algebra stack achieves on the same hardware without the
    paper's edge-pass formulation.
    """

    def _embed_with_plan(self, plan, labels: np.ndarray):
        return gee_sparse_with_plan(plan, labels)


class _LigraGEEBackend(GEEBackend):
    """Shared plumbing for the Ligra-engine family.

    ``engine_backend`` names the :mod:`repro.ligra.backends` execution class
    the engine schedules the dense edge map on; the graph's cached CSR view
    feeds the engine directly, so backend sweeps over one ``Graph`` build
    the adjacency once.
    """

    engine_backend = "serial"
    _OPTIONS = {"atomic": True}

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
    "parallel",
    aliases=("ligra-parallel",),
    capabilities=BackendCapabilities(
        supports_n_workers=True,
        parallel=True,
        deterministic=True,
        supports_chunked=True,
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
    owns its embedding either way.  A chunked (out-of-core) plan runs the
    one serial chunked pass
    (:func:`~repro.core.gee_vectorized.gee_vectorized_chunked`) and
    reports ``n_workers == 1``.
    """

    def _embed_with_plan(self, plan, labels: np.ndarray):
        return gee_parallel_with_plan(plan, labels, n_workers=self.n_workers)

    def _embed_with_chunked_plan(self, plan, labels: np.ndarray):
        return gee_vectorized_chunked(plan, labels)
