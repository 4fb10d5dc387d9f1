"""Worker-failure propagation: errors carry task context, pools survive.

Regression suite for the failure paths of :class:`ForkWorkerPool` and the
execution layers above it: a failing task must (a) raise an error naming
*which* piece of work failed (task id, caller label: row range, chunk
range, backend name), (b) record a failure event when tracing, and (c)
leave the pool usable — the old implementation raised on the first error
and left stale results in the queue, corrupting the next ``map``.
"""

from __future__ import annotations

import importlib
import os
import time

import numpy as np
import pytest

from repro import obs
from repro.backends import get_backend
from repro.graph import Graph, erdos_renyi
from repro.parallel.pool import ForkWorkerPool, WorkerTaskError, fork_available

fork_only = pytest.mark.skipif(not fork_available(), reason="fork not available")


@pytest.fixture(autouse=True)
def clean_obs_state():
    obs.disable()
    obs.clear()
    obs.metrics.reset()
    yield
    obs.disable()
    obs.clear()
    obs.metrics.reset()


def _ok(x):
    return x * 2


def _fail_on_two(x):
    if x == 2:
        raise ValueError(f"task payload {x} rejected")
    return x * 2


def _exit_or_sleep(action):
    if action == "exit":
        os._exit(3)
    time.sleep(6.5)  # outlasts the map that lost the other worker
    return "stale-from-map-1"


def _echo(value):
    return value


def _fail_task_zero_last(x):
    if x == 0:
        time.sleep(0.2)
    raise ValueError(f"task payload {x} rejected")


@fork_only
def test_forked_failure_raises_worker_task_error_with_context():
    with ForkWorkerPool(2) as pool:
        with pytest.raises(WorkerTaskError) as exc_info:
            pool.map(
                _fail_on_two,
                [(1,), (2,), (3,)],
                labels=[f"backend=parallel rows[{i}:{i + 1}]" for i in range(3)],
            )
    err = exc_info.value
    assert err.task_id == 1
    assert err.label == "backend=parallel rows[1:2]"
    assert "ValueError" in err.worker_traceback
    assert "task payload 2 rejected" in err.worker_traceback
    message = str(err)
    assert "worker task 1" in message and "backend=parallel rows[1:2]" in message
    assert isinstance(err, RuntimeError)  # the historical contract


@fork_only
def test_forked_failures_report_the_lowest_task_id():
    """Task 1 fails first, task 0 later: the error names task 0 anyway."""
    with ForkWorkerPool(2) as pool:
        with pytest.raises(WorkerTaskError) as exc_info:
            pool.map(
                _fail_task_zero_last, [(0,), (1,)], labels=["rows[0:5]", "rows[5:9]"]
            )
    err = exc_info.value
    assert err.task_id == 0
    assert err.label == "rows[0:5]"
    assert "task payload 0 rejected" in err.worker_traceback


@fork_only
def test_pool_survives_a_failed_map():
    with ForkWorkerPool(2) as pool:
        with pytest.raises(WorkerTaskError):
            pool.map(_fail_on_two, [(1,), (2,), (3,), (4,)])
        # The failing map drained every result; the next map must see only
        # its own task ids.
        assert pool.map(_ok, [(5,), (6,)]) == [10, 12]


@fork_only
def test_forked_failure_records_failure_event_when_tracing():
    obs.enable()
    with ForkWorkerPool(2) as pool:
        with pytest.raises(WorkerTaskError):
            pool.map(_fail_on_two, [(2,)], labels=["chunk[0:100]"])
    obs.disable()
    records = obs.snapshot()
    events = [r for r in records if r[1] == "worker.task_failed"]
    assert len(events) == 1
    assert events[0][6] == {"task_id": 0, "label": "chunk[0:100]"}
    # The worker's span still shipped, marked failed.
    task_spans = [r for r in records if r[1] == "worker.task"]
    assert len(task_spans) == 1
    assert task_spans[0][6]["error"] == "task failed"


def test_inline_failure_propagates_original_exception():
    with ForkWorkerPool(1) as pool:
        assert pool.is_inline
        with pytest.raises(ValueError, match="task payload 2 rejected"):
            pool.map(_fail_on_two, [(1,), (2,)], labels=["t0", "t1"])


def test_inline_failure_records_event_when_tracing():
    obs.enable()
    with ForkWorkerPool(1) as pool:
        with pytest.raises(ValueError):
            pool.map(_fail_on_two, [(2,)], labels=["rows[3:4]"])
    obs.disable()
    events = [r for r in obs.snapshot() if r[1] == "worker.task_failed"]
    assert len(events) == 1
    assert events[0][6] == {"task_id": 0, "label": "rows[3:4]", "inline": True}


def test_labels_length_mismatch_rejected():
    with ForkWorkerPool(1) as pool:
        with pytest.raises(ValueError, match="labels length"):
            pool.map(_ok, [(1,), (2,)], labels=["only-one"])


@fork_only
def test_range_failure_names_rows_and_backend(monkeypatch):
    """A worker-side range failure identifies the backend and the rows.

    The kernel is patched where the owner-range executor looks it up, and
    *before* the embed forks the session pool, so the injected failure
    reaches the workers through fork inheritance.  Every range fails, and
    the error names the lowest task: the backend and the first range's
    rows.  The pool is shut down on both sides so no worker outlives the
    patch.
    """
    from repro.core import gee_parallel
    from repro.core.gee_parallel import shutdown_workers

    # The submodule itself (``repro.core.gee_vectorized`` the attribute is
    # the function of that name).
    kernel_mod = importlib.import_module("repro.core.gee_vectorized")

    graph = Graph.coerce(erdos_renyi(200, 1500, seed=3))
    labels = np.random.default_rng(0).integers(0, 4, size=200).astype(np.int64)

    def exploding(*args, **kwargs):
        raise ValueError("injected range failure")

    shutdown_workers()
    monkeypatch.setattr(kernel_mod, "accumulate_fused_rows_sorted", exploding)
    try:
        with pytest.raises(RuntimeError) as exc_info:
            gee_parallel(graph, labels, 4, n_workers=2)
    finally:
        shutdown_workers()
    message = str(exc_info.value)
    assert "backend=parallel rows[0:" in message
    assert "injected range failure" in message


@fork_only
def test_a_map_that_loses_a_worker_leaves_no_stale_result():
    """A worker dies while the other still runs a task of the same map.

    The map closes the pool before it raises, so the survivor's late result
    can never answer a later map.
    """
    pool = ForkWorkerPool(2)
    procs = list(pool._procs)
    try:
        with pytest.raises(RuntimeError, match="died"):
            pool.map(_exit_or_sleep, [("exit",), ("sleep",)])
        assert not any(p.is_alive() for p in procs)
        with pytest.raises(RuntimeError, match="pool is closed"):
            pool.map(_echo, [("a",), ("b",)])
    finally:
        pool.close()


@fork_only
def test_a_killed_worker_does_not_corrupt_the_next_embed(monkeypatch):
    """A worker dies mid-embed: the next ``parallel`` embed forks a fresh
    pool and equals the serial sorted pass bit for bit."""
    from repro.core.gee_parallel import shutdown_workers

    kernel_mod = importlib.import_module("repro.core.gee_vectorized")
    kernel = kernel_mod.accumulate_fused_rows_sorted
    graph = Graph.coerce(erdos_renyi(2000, 20000, seed=7))
    plan = graph.plan(4, layout="sorted")
    labels = np.random.default_rng(1).integers(0, 4, size=2000).astype(np.int64)
    expected = get_backend("vectorized").embed_with_plan(plan, labels).embedding

    def dies_on_the_first_rows(*args, **kwargs):
        if args[7] == 0:  # row_lo
            os._exit(3)
        return kernel(*args, **kwargs)

    backend = get_backend("parallel", n_workers=2)
    shutdown_workers()
    monkeypatch.setattr(
        kernel_mod, "accumulate_fused_rows_sorted", dies_on_the_first_rows
    )
    try:
        with pytest.raises(RuntimeError, match="died"):
            backend.embed_with_plan(plan, labels)
        monkeypatch.undo()
        result = backend.embed_with_plan(plan, labels)
        assert np.array_equal(result.embedding, expected)
    finally:
        shutdown_workers()
