"""Cross-process span shipping: worker buffers merge into one timeline."""

from __future__ import annotations

import os

import pytest

from repro import obs
from repro.obs import core
from repro.parallel.pool import ForkWorkerPool, fork_available

fork_only = pytest.mark.skipif(not fork_available(), reason="fork not available")


def _traced_task(tag):
    with obs.trace("worker.unit", tag=tag):
        pass
    obs.metrics.count("worker.units")
    return (os.getpid(), tag)


def _quiet_task(tag):
    return tag


@fork_only
def test_worker_spans_ship_and_merge_with_parent_timeline():
    obs.enable()
    parent_pid = os.getpid()
    t_before = core.CLOCK()
    with ForkWorkerPool(2) as pool:
        with obs.trace("parent.dispatch"):
            results = pool.map(
                _traced_task, [("a",), ("b",), ("c",)], labels=["a", "b", "c"]
            )
    t_after = core.CLOCK()
    obs.disable()

    worker_pids = {pid for pid, _ in results}
    assert parent_pid not in worker_pids

    records = obs.snapshot()
    by_name: dict = {}
    for rec in records:
        by_name.setdefault(rec[1], []).append(rec)

    # Every task produced its explicit span and the pool's worker.task span,
    # and they kept the worker's pid (own track in the exported timeline).
    assert len(by_name["worker.unit"]) == 3
    assert len(by_name["worker.task"]) == 3
    for rec in by_name["worker.unit"] + by_name["worker.task"]:
        assert rec[4] in worker_pids
    assert {rec[6]["tag"] for rec in by_name["worker.unit"]} == {"a", "b", "c"}
    assert {rec[6]["label"] for rec in by_name["worker.task"]} == {"a", "b", "c"}
    (dispatch,) = by_name["parent.dispatch"]
    assert dispatch[4] == parent_pid

    # One clock across fork: every cross-process timestamp is bracketed by
    # the parent's measurements, so sorting by t0 yields a sane merged
    # timeline without any offset arithmetic.
    for rec in records:
        assert t_before <= rec[2] <= t_after
    for rec in by_name["worker.unit"] + by_name["worker.task"]:
        assert dispatch[2] <= rec[2] <= dispatch[2] + dispatch[3] + 1e-3

    # Worker counters merged into the parent registry.
    assert obs.metrics.counters()["worker.units"] == 3


@fork_only
def test_workers_ship_nothing_while_tracing_is_off():
    with ForkWorkerPool(2) as pool:
        pool.map(_traced_task, [("a",), ("b",)])
    assert obs.snapshot() == []
    assert obs.metrics.counters() == {}


@fork_only
def test_fork_inherited_parent_buffer_is_not_reshipped():
    obs.enable()
    with obs.trace("parent.pre.fork"):
        pass
    # The pool forks *after* the parent recorded a span; workers must clear
    # the inherited buffer, or the parent span would come back duplicated.
    with ForkWorkerPool(2) as pool:
        pool.map(_traced_task, [("x",)])
    obs.disable()
    names = [rec[1] for rec in obs.snapshot()]
    assert names.count("parent.pre.fork") == 1
