"""A persistent fork-based worker pool for shared-memory kernels.

``multiprocessing.Pool`` re-pickles every argument per call; for the GEE
edge pass we instead want workers that (a) are forked once, (b) attach to
the shared-memory graph buffers once, and (c) then receive only tiny task
descriptors (edge ranges) per call.  :class:`ForkWorkerPool` implements that
pattern with plain ``multiprocessing.Process`` + queues and degrades
gracefully to in-process execution when only one worker is requested or the
platform cannot fork.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..obs import core as _obs

__all__ = [
    "ForkWorkerPool",
    "WorkerTaskError",
    "effective_worker_count",
    "resolve_worker_count",
    "fork_available",
]


class WorkerTaskError(RuntimeError):
    """A task failed inside a pooled worker.

    Carries enough context to identify *which* piece of work failed —
    ``task_id`` (position in the submitted batch) and ``label`` (the
    caller-supplied description: shard index, chunk range, backend name) —
    on top of the worker-side traceback embedded in the message.
    Subclasses :class:`RuntimeError`, which is what :meth:`ForkWorkerPool.map`
    historically raised.
    """

    def __init__(self, task_id: int, label: Optional[str], worker_traceback: str):
        self.task_id = task_id
        self.label = label
        self.worker_traceback = worker_traceback
        where = f"worker task {task_id}"
        if label:
            where += f" ({label})"
        super().__init__(f"{where} failed:\n{worker_traceback}")


def fork_available() -> bool:
    """Whether the ``fork`` start method is usable on this platform."""
    try:
        return "fork" in mp.get_all_start_methods()
    except Exception:  # pragma: no cover - defensive
        return False


def effective_worker_count(requested: Optional[int] = None) -> int:
    """Clamp a requested worker count to the machine's CPU count.

    ``None`` or ``0`` means "use all CPUs".  This is the *auto-sizing*
    helper for defaults; explicit user requests go through
    :func:`resolve_worker_count`, which honours the request exactly instead
    of silently clamping it.
    """
    n_cpus = os.cpu_count() or 1
    if requested is None or requested <= 0:
        return n_cpus
    return max(1, min(int(requested), n_cpus))


def resolve_worker_count(
    requested: Optional[int] = None, *, max_oversubscription: int = 8
) -> int:
    """Resolve an explicit worker request: honour it exactly or raise.

    ``None`` or ``0`` means "use all CPUs".  A positive request is returned
    unchanged — never silently clamped to the CPU count; oversubscription is
    legitimate (e.g. reproducing a worker sweep on a smaller machine).
    A *negative* request is outside the documented None/0 contract and
    raises :class:`ValueError` (it used to be treated as "all CPUs", which
    let typos like ``n_workers=-3`` silently succeed).  Requests beyond
    ``max(16, max_oversubscription × CPUs)`` are almost certainly mistakes
    (they would fork thousands of processes) and raise
    :class:`ValueError` instead of degrading.
    """
    n_cpus = os.cpu_count() or 1
    if requested is None:
        return n_cpus
    requested = int(requested)
    if requested < 0:
        raise ValueError(
            f"n_workers={requested} is negative; pass a positive worker count, "
            "or None/0 to use every CPU"
        )
    if requested == 0:
        return n_cpus
    limit = max(16, n_cpus * max_oversubscription)
    if requested > limit:
        raise ValueError(
            f"n_workers={requested} exceeds the oversubscription limit of {limit} "
            f"on this machine ({n_cpus} CPUs); request at most {limit} workers or "
            "pass n_workers=None to use every CPU"
        )
    return requested


def _worker_main(
    worker_id: int,
    init_fn: Optional[Callable[..., Dict[str, Any]]],
    init_args: tuple,
    task_queue: "mp.Queue",
    result_queue: "mp.Queue",
) -> None:
    """Worker loop: run the initialiser once, then serve tasks until None."""
    # A forked worker inherits the parent's span buffer and tracing flag;
    # drop both so this process only ever ships spans it produced itself.
    _obs.clear()
    _obs.disable()
    try:
        context: Dict[str, Any] = {}
        if init_fn is not None:
            context = init_fn(worker_id, *init_args) or {}
    except BaseException:
        result_queue.put(("__init_error__", worker_id, traceback.format_exc()))
        return
    result_queue.put(("__ready__", worker_id, None))
    while True:
        item = task_queue.get()
        if item is None:
            break
        task_id, fn, args, trace_on, label = item
        # Mirror the parent's tracing flag for the duration of the task so
        # instrumented code inside ``fn`` records into this worker's buffer.
        if trace_on != _obs.enabled():
            _obs.enable() if trace_on else _obs.disable()
        span = None
        if trace_on:
            span = _obs.Span(
                "worker.task", {"worker": worker_id, "label": label}
            ).begin()
        try:
            result, err = fn(context, *args), None
        except BaseException:
            result, err = None, traceback.format_exc()
        if span is not None:
            span.finish(error=None if err is None else "task failed")
        payload = _obs.drain_for_ship() if trace_on else None
        result_queue.put((task_id, err, result, payload))


class ForkWorkerPool:
    """Pool of forked workers sharing a one-time initialised context.

    Parameters
    ----------
    n_workers:
        Number of worker processes.  ``1`` short-circuits to in-process
        execution (no fork), which keeps the code path identical for the
        serial baseline.
    initializer:
        ``initializer(worker_id, *initargs) -> dict`` run once in each
        worker; the returned dict is passed as the first argument to every
        task function.  This is where workers attach shared memory.
    """

    def __init__(
        self,
        n_workers: int,
        initializer: Optional[Callable[..., Dict[str, Any]]] = None,
        initargs: tuple = (),
    ) -> None:
        self.n_workers = max(1, int(n_workers))
        self._initializer = initializer
        self._initargs = initargs
        self._procs: List[mp.process.BaseProcess] = []
        self._task_queue: Optional[mp.Queue] = None
        self._result_queue: Optional[mp.Queue] = None
        self._closed = False
        self._inline = self.n_workers == 1 or not fork_available()
        self._inline_context: Optional[Dict[str, Any]] = None
        if not self._inline:
            self._start()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _start(self) -> None:
        ctx = mp.get_context("fork")
        self._task_queue = ctx.Queue()
        self._result_queue = ctx.Queue()
        for wid in range(self.n_workers):
            p = ctx.Process(
                target=_worker_main,
                args=(
                    wid,
                    self._initializer,
                    self._initargs,
                    self._task_queue,
                    self._result_queue,
                ),
                daemon=True,
            )
            p.start()
            self._procs.append(p)
        ready = 0
        while ready < self.n_workers:
            tag, wid, err = self._result_queue.get()
            if tag == "__init_error__":
                self.close()
                raise RuntimeError(f"worker {wid} failed to initialise:\n{err}")
            if tag == "__ready__":
                ready += 1

    @property
    def is_inline(self) -> bool:
        """True when tasks run in the calling process (no fork)."""
        return self._inline

    def close(self) -> None:
        """Shut down worker processes (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if not self._inline and self._task_queue is not None:
            for _ in self._procs:
                try:
                    self._task_queue.put(None)
                except Exception:  # pragma: no cover - defensive
                    pass
            for p in self._procs:
                p.join(timeout=5)
                if p.is_alive():  # pragma: no cover - defensive
                    p.terminate()
        self._procs.clear()
        self._inline_context = None

    def __enter__(self) -> "ForkWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _ensure_inline_context(self) -> Dict[str, Any]:
        if self._inline_context is None:
            if self._initializer is not None:
                self._inline_context = self._initializer(0, *self._initargs) or {}
            else:
                self._inline_context = {}
        return self._inline_context

    def map(
        self,
        fn: Callable[..., Any],
        task_args: Sequence[tuple],
        *,
        labels: Optional[Sequence[str]] = None,
    ) -> List[Any]:
        """Run ``fn(context, *args)`` for every argument tuple.

        Results are returned in task order.  Tasks are distributed to idle
        workers dynamically (a shared queue), so uneven task costs
        self-balance — the same behaviour as a work-stealing scheduler at
        the granularity of one task.

        ``labels`` (optional, same length as ``task_args``) describes each
        task for diagnostics: a failing forked task raises
        :class:`WorkerTaskError` carrying its label (shard index, chunk
        range, backend name) so the error identifies *which* piece of work
        failed, and the label lands on the worker's ``worker.task`` span.
        The map waits for every task; when several fail, it raises the
        failure with the lowest task id, whatever order they finished in.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        task_args = list(task_args)
        if labels is not None and len(labels) != len(task_args):
            raise ValueError(
                f"labels length {len(labels)} != task count {len(task_args)}"
            )
        if self._inline:
            context = self._ensure_inline_context()
            results = []
            for task_id, args in enumerate(task_args):
                try:
                    results.append(fn(context, *args))
                except BaseException:
                    # Inline tasks propagate the original exception unchanged
                    # (no wrapping); the failure event still identifies the task.
                    _obs.record_event(
                        "worker.task_failed",
                        task_id=task_id,
                        label=labels[task_id] if labels else None,
                        inline=True,
                    )
                    raise
            return results
        assert self._task_queue is not None and self._result_queue is not None
        trace_on = _obs.enabled()
        for task_id, args in enumerate(task_args):
            label = labels[task_id] if labels else None
            self._task_queue.put((task_id, fn, args, trace_on, label))
        results: List[Any] = [None] * len(task_args)
        received = 0
        failures: Dict[int, str] = {}
        while received < len(task_args):
            try:
                task_id, err, value, payload = self._result_queue.get(timeout=5.0)
            except queue.Empty:
                # No result in a while: make sure the workers are still alive,
                # otherwise this map would wait forever.
                dead = [p for p in self._procs if not p.is_alive()]
                if dead:
                    raise RuntimeError(
                        f"{len(dead)} worker process(es) died while running tasks "
                        f"(exit codes {[p.exitcode for p in dead]})"
                    )
                continue
            _obs.absorb(payload)
            if err is not None:
                failures[task_id] = err
            results[task_id] = value
            received += 1
        if failures:
            # Report the lowest failed task id, so the error does not depend
            # on which worker finished first.
            task_id = min(failures)
            label = labels[task_id] if labels else None
            _obs.record_event("worker.task_failed", task_id=task_id, label=label)
            raise WorkerTaskError(task_id, label, failures[task_id])
        return results
