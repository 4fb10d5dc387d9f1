"""The three closed-loop workloads: one op in flight, one client, one process.

Each workload makes its inputs from the seed at construction (untimed),
then the runner calls :meth:`Workload.setup` (timed, several times, each on
fresh program state) and runs ops until the run's time is up.  Between ops,
untimed, the runner calls :meth:`Workload.prepare` for the next op's inputs
and :meth:`Workload.check` for the last op's outputs.

* ``fit-cold`` — ``GraphEncoderEmbedding(method="vectorized").fit(EdgeList(
  src, dst, None, n), y)`` on raw arrays: coerce, validate, compile the
  default plan, arrival-order edge pass, detach.  No pool, no stream layer.
* ``refit-warm`` — ``fit(g, y_i)`` again and again on one loaded ``Graph``
  with a ``parallel``/``sorted`` model: label validation, owner-range fused
  edge pass on the fork pool, copy-out.  No plan compile per op.
* ``stream-churn`` — stage a churn batch, ``DynamicGraph.commit()``,
  ``IncrementalEmbedding.update()``, read the touched rows.  The kernel runs
  only on refresh ops.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from typing import Optional

import numpy as np

from . import checks
from .machine import nproc

#: Friendster's Table I stand-in; multiples of the repo's default shrink.
FRIENDSTER = "friendster-sim"


def _span(tracer, name: str):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def draw_labels(rng: np.random.Generator, n: int, k: int, fraction: float) -> np.ndarray:
    """``fraction`` of the vertices get a uniform class in ``0..k-1``; the rest ``-1``."""
    if fraction >= 1.0:
        return rng.integers(0, k, size=n, dtype=np.int64)
    y = np.full(n, -1, dtype=np.int64)
    chosen = rng.choice(n, size=int(round(fraction * n)), replace=False)
    y[chosen] = rng.integers(0, k, size=chosen.size)
    return y


def edge_pass_bytes(n: int, e: int, k: int, layout: str, weighted: bool, workers: int) -> int:
    """Bytes one edge pass must move, computed from array sizes.

    Counts each plan array the pass streams once, one label gather per
    incidence and each full pass over the ``n x K`` float64 output; cache
    misses beyond that are ignored.

    * arrival order: ``src``, ``dst``, ``src*K``, ``dst*K`` and the
      weights (int64/float64), a label and a scale gather per incidence,
      and the output zero-filled then scattered into;
    * sorted fused: ``owner*K`` and ``partner`` at the plan's index width,
      the weights if any, a label gather per incidence, and the output
      written, then read and written by the ``1/n_c`` rescale; the
      multi-worker path adds the copy-out (a read and a write).
    """
    out = n * k * 8
    if layout == "none":
        return e * 5 * 8 + 2 * e * (8 + 8) + 2 * out
    from repro.core.plan import choose_index_dtype

    idx = np.dtype(choose_index_dtype(n, k)).itemsize
    per_incidence = 2 * idx + (8 if weighted else 0) + idx
    passes = 3 + (2 if workers > 1 else 0)
    return 2 * e * per_incidence + passes * out


class Workload:
    """One workload: inputs from a seed, set-up, ops and output checks."""

    name = ""
    why = ""
    #: Ops per traced/untraced block in a traced run (see ``run.py``).
    trace_block = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def facts(self) -> dict:
        """Generated sizes and the reason the workload was chosen."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release the program state built by :meth:`setup`."""

    def has_op(self, i: int) -> bool:
        return True

    def prepare(self, i: int) -> None:
        """Make op ``i``'s inputs (untimed)."""

    def op(self, i: int, tracer) -> int:
        """Run op ``i``; return the edges it processed."""
        raise NotImplementedError

    def is_checkpoint(self, i: int) -> bool:
        """Whether op ``i`` also gets :meth:`full_check` (the last op always does)."""
        return i == 0

    def check(self, i: int) -> Optional[str]:
        """The O(nK) check of op ``i``: ``None`` if right, else what is wrong."""
        return checks.conservation(self.model.embedding_, self.y, self.wdeg, self.k)

    def full_check(self) -> Optional[str]:
        """Compare the latest op's embedding with the NumPy reference."""
        return checks.reference(self.model.embedding_, self.src, self.dst, None, self.y, self.k)

    def layer_facts(self) -> dict:
        """Per-layer metrics known from sizes and counts, not spans."""
        return {}

    def _labels(self, i: int) -> np.ndarray:
        # Op -1 is the set-up's warm-up fit.
        rng = np.random.default_rng([self.seed, 1, i + 1])
        return draw_labels(rng, self.n, self.k, self.labelled)


class FitCold(Workload):
    name = "fit-cold"
    why = (
        "default path from raw edges to Z: coerce, validate, compile the "
        "default plan, arrival-order pass, detach; no pool, no stream layer"
    )

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed)
        from repro.graph.datasets import DEFAULT_SCALE, load

        edges, _ = load(FRIENDSTER, scale=DEFAULT_SCALE * (1 / 16 if tiny else 8), seed=seed)
        self.src, self.dst, self.n = edges.src, edges.dst, int(edges.n_vertices)
        self.e = int(edges.n_edges)
        self.k, self.labelled = 50, 0.10
        self.wdeg = checks.weighted_degrees(self.src, self.dst, None, self.n)
        self.model = None
        self.y = None

    def facts(self) -> dict:
        return {"n": self.n, "E": self.e, "K": self.k, "labelled_fraction": self.labelled,
                "weighted": False, "why": self.why}

    def _fit(self, y: np.ndarray, tracer=None) -> None:
        from repro import GraphEncoderEmbedding
        from repro.graph import EdgeList

        with _span(tracer, "graph.coerce"):
            edges = EdgeList(self.src, self.dst, None, self.n)
        self.model = GraphEncoderEmbedding(method="vectorized").fit(edges, y)

    def setup(self) -> None:
        # One warm-up fit: ready means lazy imports and allocator growth done.
        self._fit(self._labels(-1))

    def teardown(self) -> None:
        self.model = None

    def prepare(self, i: int) -> None:
        self.model = None
        self.y = self._labels(i)

    def op(self, i: int, tracer) -> int:
        self._fit(self.y, tracer)
        return self.e

    def layer_facts(self) -> dict:
        return {
            "mem.output_mb": self.n * self.k * 8 / (1 << 20),
            # src*K, dst*K and the unit weights the arrival-order plan materialises.
            "mem.plan_mb": 3 * self.e * 8 / (1 << 20),
            "kernel.bytes_computed": edge_pass_bytes(self.n, self.e, self.k, "none", False, 1),
        }


class RefitWarm(Workload):
    name = "refit-warm"
    why = (
        "the paper's protocol: repeated embeds of a loaded graph on the "
        "fork-pool owner-range kernel; each op touches 2.5x the LLC"
    )

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed)
        from repro.graph.datasets import DEFAULT_SCALE, load

        edges, _ = load(FRIENDSTER, scale=DEFAULT_SCALE * (1 / 8 if tiny else 8), seed=seed)
        self.src, self.dst, self.n = edges.src, edges.dst, int(edges.n_vertices)
        self.e = int(edges.n_edges)
        self.k, self.labelled = 50, 1.0
        self.workers = min(2, nproc())
        self.wdeg = checks.weighted_degrees(self.src, self.dst, None, self.n)
        self.graph = self.model = self.y = None

    def facts(self) -> dict:
        return {"n": self.n, "E": self.e, "K": self.k, "labelled_fraction": self.labelled,
                "weighted": False, "n_workers": self.workers, "why": self.why}

    def setup(self) -> None:
        from repro import Graph, GraphEncoderEmbedding
        from repro.graph import EdgeList

        self.graph = Graph(EdgeList(self.src, self.dst, None, self.n))
        self.model = GraphEncoderEmbedding(
            method="parallel", n_workers=self.workers, layout="sorted"
        )
        # The first fit compiles the plan, forks the pool and ships the
        # incidence arrays to shared memory.
        self.model.fit(self.graph, self._labels(-1))

    def teardown(self) -> None:
        from repro.core.gee_parallel import shutdown_workers

        shutdown_workers()
        self.graph = self.model = None

    def prepare(self, i: int) -> None:
        self.y = self._labels(i)

    def op(self, i: int, tracer) -> int:
        self.model.fit(self.graph, self.y)
        return self.e

    def serial_baseline(self, repeats: int = 3) -> tuple:
        """Median wall time of a single-threaded ``vectorized`` embed on the same plan."""
        from repro.backends import get_backend

        plan = self.graph.plan(self.k, layout="sorted")
        backend = get_backend("vectorized")
        y = self._labels(-1)
        times = []
        problem = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = backend.embed_with_plan(plan, y)
            times.append(time.perf_counter() - t0)
            problem = problem or checks.conservation(result.embedding, y, self.wdeg, self.k)
        return statistics.median(times), problem

    def layer_facts(self) -> dict:
        fused = self.graph.plan(self.k, layout="sorted").fused
        return {
            "mem.output_mb": self.n * self.k * 8 / (1 << 20),
            "mem.plan_mb": fused.nbytes / (1 << 20),
            "kernel.bytes_computed": edge_pass_bytes(
                self.n, self.e, self.k, "sorted", False, self.workers
            ),
        }


class StreamChurn(Workload):
    name = "stream-churn"
    why = (
        "the write path next to reads: commit plus O(delta) update per "
        "batch, a full refresh every tenth; kernel and pool nearly idle"
    )

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed)
        from repro.graph import temporal_drift

        # friendster-sim at 4x the default shrink (the paper's n and E / 400).
        self.n, e0 = (2_000, 40_000) if tiny else (162_500, 4_500_000)
        self.k, self.labelled = 10, 1.0
        self.refresh_every = 3 if tiny else 10
        self.trace_block = self.refresh_every
        # Enough batches for a 20 s run at today's 0.6-1 s per op; a run of
        # a faster program ends when they are used up.
        self.scenario = temporal_drift(
            self.n,
            e0,
            self.k,
            n_batches=12 if tiny else 32,
            arrival_rate=0.004,
            removal_rate=0.004,
            drift_fraction=0.001,
            weighted=True,
            seed=seed,
        )
        init = self.scenario.initial
        self.e0 = int(init.n_edges)
        self.wdeg0 = checks.weighted_degrees(init.src, init.dst, init.weights, self.n)
        self.dyn = self.inc = None

    def facts(self) -> dict:
        return {"n": self.n, "E": self.e0, "K": self.k, "labelled_fraction": self.labelled,
                "weighted": True, "batches": len(self.scenario.batches),
                "refresh_every": self.refresh_every, "why": self.why}

    def setup(self) -> None:
        from repro.graph import EdgeList
        from repro.stream import DynamicGraph, IncrementalEmbedding

        init = self.scenario.initial
        self.dyn = DynamicGraph(EdgeList(init.src, init.dst, init.weights, self.n))
        self.inc = IncrementalEmbedding(
            self.dyn,
            self.scenario.labels,
            n_classes=self.k,
            backend="vectorized",
            refresh_every=self.refresh_every,
        )
        self.wdeg = self.wdeg0.copy()
        self.live = self.e0
        self.patched_edges = self.refreshes = 0

    def teardown(self) -> None:
        self.dyn = self.inc = None

    def has_op(self, i: int) -> bool:
        return i < len(self.scenario.batches)

    def prepare(self, i: int) -> None:
        b = self.scenario.batches[i]
        self.rows = np.unique(np.concatenate((b.add.src, b.add.dst, b.remove_src, b.remove_dst)))
        self.delta = self.report = self.read = None

    def op(self, i: int, tracer) -> int:
        b = self.scenario.batches[i]
        self.dyn.remove_edges(b.remove_src, b.remove_dst)
        self.dyn.add_edges(b.add.src, b.add.dst, b.add.weights)
        self.delta = self.dyn.commit()
        self.report = self.inc.update()
        with _span(tracer, "stream.read"):
            self.read = self.inc.embedding[self.rows]
        return b.n_added + b.n_removed

    def is_checkpoint(self, i: int) -> bool:
        return i == 0 or (i + 1) % self.refresh_every == 0

    def check(self, i: int) -> Optional[str]:
        b = self.scenario.batches[i]
        d, n = self.delta, self.n
        # Bookkeeping first, so one bad op does not fail every later check.
        self.live += b.n_added - b.n_removed
        self.wdeg += checks.weighted_degrees(b.add.src, b.add.dst, b.add.weights, n)
        self.wdeg -= checks.weighted_degrees(d.removed_src, d.removed_dst, d.removed_weights, n)
        if self.report.refreshed:
            self.refreshes += 1
        else:
            self.patched_edges += self.report.patched_edges
        if self.dyn.n_edges != self.live:
            return f"graph holds {self.dyn.n_edges} edges after the batch, expected {self.live}"
        if d.n_added != b.n_added or d.n_removed != b.n_removed:
            return f"commit applied +{d.n_added}/-{d.n_removed}, batch was +{b.n_added}/-{b.n_removed}"
        if not np.array_equal(self.read, self.inc.embedding[self.rows]):
            return "rows read differ from the maintained embedding"
        return checks.conservation(self.inc.embedding, self.scenario.labels, self.wdeg, self.k)

    def full_check(self) -> Optional[str]:
        e = self.dyn.graph.edges
        recount = checks.weighted_degrees(e.src, e.dst, e.weights, self.n)
        if not np.allclose(recount, self.wdeg, rtol=1e-9, atol=1e-9):
            row = int(np.abs(recount - self.wdeg).argmax())
            return f"removed weights reported by commit disagree with the edges; worst row {row}"
        return checks.reference(
            self.inc.embedding, e.src, e.dst, e.weights, self.scenario.labels, self.k
        )

    def layer_facts(self) -> dict:
        return {
            "mem.output_mb": self.n * self.k * 8 / (1 << 20),
            # src*K and dst*K of the arrival-order plan a refresh compiles.
            "mem.plan_mb": 2 * self.live * 8 / (1 << 20),
            "kernel.bytes_computed": edge_pass_bytes(self.n, self.live, self.k, "none", True, 1),
            "stream.patched_edges": self.patched_edges,
            "stream.refreshes": self.refreshes,
        }


WORKLOADS = {cls.name: cls for cls in (FitCold, RefitWarm, StreamChurn)}
