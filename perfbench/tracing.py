"""Spans recorded from the benchmark's side of the program's public calls.

The program under test carries no spans of its own that the benchmark
relies on.  Instead, for a traced op the :class:`Tracer` temporarily wraps
the public calls an op makes into each layer (a function, a method, a
classmethod or a property getter), records one span per call, and restores
the originals before the next untraced op.  Untraced ops therefore run the
unmodified program.

A span is ``[name, start, end, parent, op, extra]``; ``parent`` is the index
of the enclosing span (``-1`` for an op's root span).  Spans stay in memory
and are written out once, when the run ends.

:func:`op_layers` turns the spans of one op into per-layer *self* times
(a span's duration minus its children's), so the layers of an op add up to
the op's duration exactly; whatever no layer claims is ``op.unaccounted_s``.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from typing import Callable, Dict, List, Optional

#: Every per-layer time metric an op can contribute to, in report order.
LAYER_TIMES = (
    "graph.coerce_s",
    "validation.labels_s",
    "plan.validate_edges_s",
    "plan.index_s",
    "kernel.projection_s",
    "kernel.edge_pass_s",
    "parallel.preprocess_s",
    "backend.dispatch_s",
    "result.detach_s",
    "stream.stage_s",
    "stream.commit_s",
    "stream.update_s",
    "stream.refresh_s",
    "stream.read_s",
    "op.unaccounted_s",
)

#: Span name -> the layer metric its self time is charged to.
_SPAN_LAYER = {
    "op": "op.unaccounted_s",
    "graph.coerce": "graph.coerce_s",
    "validation.labels": "validation.labels_s",
    "plan.validate_edges": "plan.validate_edges_s",
    "plan.index": "plan.index_s",
    "backend.dispatch": "backend.dispatch_s",
    "result.detach": "result.detach_s",
    "stream.stage": "stream.stage_s",
    "stream.commit": "stream.commit_s",
    "stream.update": "stream.update_s",
    "stream.refresh": "stream.refresh_s",
    "stream.read": "stream.read_s",
}


class Tracer:
    """In-memory span recorder with install/uninstall of layer wrappers."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._restore: List[tuple] = []
        self.op_id: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def open(self, name: str, start: Optional[float] = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        t0 = time.perf_counter() if start is None else start
        self.spans.append([name, t0, None, parent, self.op_id, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, end: Optional[float] = None) -> None:
        self.spans[idx][2] = time.perf_counter() if end is None else end
        popped = self._stack.pop()
        if popped != idx:  # pragma: no cover - wrappers always nest
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the benchmark's own code."""
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        rename: Optional[Callable] = None,
        keep: Optional[Callable] = None,
    ) -> Callable:
        """A wrapper recording a span around every call of ``fn``.

        ``rename(result)`` may pick the span name from the call's result;
        ``keep(result)`` stores a small value on the span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if rename is not None:
                tracer.spans[idx][0] = rename(result)
            if keep is not None:
                tracer.spans[idx][5] = keep(result)
            return result

        return traced

    # ------------------------------------------------------------------ #
    # Installing wrappers
    # ------------------------------------------------------------------ #
    def patch_method(self, cls, attr: str, name: str, **kw) -> None:
        """Wrap a plain method, classmethod or property getter of ``cls``."""
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(original.__func__, name, **kw))
        elif isinstance(original, property):
            replacement = property(self.wrap(original.fget, name, **kw))
        else:
            replacement = self.wrap(original, name, **kw)
        setattr(cls, attr, replacement)
        self._restore.append((cls, attr, original))

    def patch_function(self, fn: Callable, name: str, package: str = "repro") -> None:
        """Wrap ``fn`` in every loaded module of ``package`` that imported it."""
        wrapper = self.wrap(fn, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, fn))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap the public calls an op makes into each layer of ``repro``."""
    from repro.backends.registry import GEEBackend
    from repro.core import validation
    from repro.core.plan import EmbedPlan
    from repro.core.result import EmbeddingResult
    from repro.graph.facade import Graph
    from repro.stream.dynamic import DynamicGraph
    from repro.stream.incremental import IncrementalEmbedding

    tracer.patch_method(Graph, "coerce", "graph.coerce")
    tracer.patch_function(validation.validate_labels, "validation.labels")
    for prop in ("src", "dst", "weights", "unit_weights"):
        tracer.patch_method(EmbedPlan, prop, "plan.validate_edges")
    for prop in ("src_flat", "dst_flat", "fused", "fused_row_ranges"):
        tracer.patch_method(EmbedPlan, prop, "plan.index")
    tracer.patch_method(
        GEEBackend,
        "embed_with_plan",
        "backend.dispatch",
        keep=lambda result: dict(result.timings),
    )
    tracer.patch_method(EmbeddingResult, "detached", "result.detach")
    tracer.patch_method(DynamicGraph, "add_edges", "stream.stage")
    tracer.patch_method(DynamicGraph, "remove_edges", "stream.stage")
    tracer.patch_method(DynamicGraph, "commit", "stream.commit")
    tracer.patch_method(
        IncrementalEmbedding,
        "update",
        "stream.update",
        rename=lambda report: "stream.refresh" if report.refreshed else "stream.update",
    )


# ---------------------------------------------------------------------- #
# Self times
# ---------------------------------------------------------------------- #
def _overlap(a0: float, a1: float, b0: float, b1: float) -> float:
    return max(0.0, min(a1, b1) - max(a0, b0))


def _op_tree(spans: List[list], root: int) -> Dict[int, List[int]]:
    """Each span of the op rooted at ``spans[root]`` -> its children, in order."""
    children: Dict[int, List[int]] = {root: []}
    for idx in range(root + 1, len(spans)):
        parent = spans[idx][3]
        if parent not in children:
            break
        children[parent].append(idx)
        children[idx] = []
    return children


def op_layers(spans: List[list], root: int) -> Dict[str, float]:
    """Per-layer self times of the op whose root span is ``spans[root]``.

    A ``backend.dispatch`` span is split further with the timings the
    kernel reports in ``result.timings``.  The kernel stamps them just
    before it returns, so its phases are placed back from the end of the
    dispatch span: ``edge_pass`` is ``[end - edge_pass, end]`` and the
    kernel starts at ``end - total``.  Child spans inside the edge-pass
    interval (a plan compiled lazily by the first pass) are taken out of
    ``kernel.edge_pass_s``; ``plan.*`` children before the kernel starts
    are taken out of ``preprocess``, which is where the parallel kernel
    reads the plan.  The dispatch keeps the rest of its self time, so the
    layers still add up to the op's duration.
    """
    out = dict.fromkeys(LAYER_TIMES, 0.0)
    for idx, kids in _op_tree(spans, root).items():
        name, t0, t1, _, _, extra = spans[idx]
        self_time = (t1 - t0) - sum(spans[k][2] - spans[k][1] for k in kids)
        if name == "backend.dispatch" and extra:
            ep = extra.get("edge_pass", 0.0)
            k0 = t1 - extra.get("total", 0.0)
            ep_self = ep - sum(
                _overlap(spans[k][1], spans[k][2], t1 - ep, t1) for k in kids
            )
            pre_self = 0.0
            if "preprocess" in extra:
                before = sum(
                    spans[k][2] - spans[k][1]
                    for k in kids
                    if spans[k][0].startswith("plan.") and spans[k][2] <= k0
                )
                pre_self = max(0.0, extra["preprocess"] - before)
            proj = extra.get("projection", 0.0)
            out["kernel.edge_pass_s"] += ep_self
            out["kernel.projection_s"] += proj
            out["parallel.preprocess_s"] += pre_self
            self_time -= ep_self + proj + pre_self
        out[_SPAN_LAYER[name]] += self_time
    return out


def dispatch_spans(spans: List[list], root: int) -> List[list]:
    """The ``backend.dispatch`` spans of the op rooted at ``spans[root]``."""
    return [spans[i] for i in _op_tree(spans, root) if spans[i][0] == "backend.dispatch"]


def spans_as_records(spans: List[list]) -> List[dict]:
    """JSON-ready span records (timings kept on dispatch spans)."""
    return [
        {
            "name": name,
            "start": t0,
            "end": t1,
            "parent": parent,
            "op": op,
            **({"timings": extra} if extra else {}),
        }
        for name, t0, t1, parent, op, extra in spans
    ]
