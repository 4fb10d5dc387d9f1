"""Every plan-based embed returns an embedding its result owns.

Serial kernels write an array from the plan's private output ring; pooled
runs (``parallel`` with several workers, ``sharded``, ``gee_parallel``)
write a slot of the worker pool's shared output ring.  A buffer is reused only
once no array views it any more, so a held result never changes, a dropped
one hands its memory to the next embed, and a pooled result outlives the
pool that wrote it.
"""

import gc
import importlib
import os
import sys
import tracemalloc

import numpy as np
import pytest

from repro.backends import get_backend
from repro.core import gee_parallel
from repro.graph import Graph, erdos_renyi
from repro.labels import random_partial_labels
from repro.parallel import fork_available

parallel_module = importlib.import_module("repro.core.gee_parallel")

fork_only = pytest.mark.skipif(not fork_available(), reason="fork not available")

N = 400
K = 4

SERIAL = {
    "vectorized-default": lambda g, y: get_backend("vectorized").embed_with_plan(
        g.plan(K), y
    ),
    "vectorized-sorted": lambda g, y: get_backend("vectorized").embed_with_plan(
        g.plan(K, layout="sorted"), y
    ),
    "parallel-1-worker": lambda g, y: get_backend(
        "parallel", n_workers=1
    ).embed_with_plan(g.plan(K, layout="sorted"), y),
}
POOLED = {
    "parallel-2-workers": lambda g, y: get_backend(
        "parallel", n_workers=2
    ).embed_with_plan(g.plan(K), y),
    "sharded-2": lambda g, y: g.shard(2).embed(y, K, n_workers=2),
    "gee_parallel": lambda g, y: gee_parallel(g, y, K, n_workers=2),
}
EMBEDS = {**SERIAL, **POOLED}
EMBED_NAMES = list(SERIAL) + [pytest.param(name, marks=fork_only) for name in POOLED]


@pytest.fixture(autouse=True)
def fresh_pool():
    parallel_module.shutdown_workers()
    yield
    parallel_module.shutdown_workers()


def _graph():
    return Graph.coerce(erdos_renyi(N, 4000, seed=3, weighted=True))


def _labels(seed):
    return random_partial_labels(N, K, 0.5, seed=seed)


def _reference(g, y):
    """The serial sorted pass, which every embed here equals bit for bit
    (the default-plan arrival-order pass to rounding)."""
    plan = g.plan(K, layout="sorted")
    return get_backend("vectorized").embed_with_plan(plan, y).embedding


def _check(name, embedding, expected):
    if name == "vectorized-default":
        np.testing.assert_allclose(embedding, expected, atol=1e-12)
    else:
        assert np.array_equal(embedding, expected)


@pytest.mark.parametrize("name", EMBED_NAMES)
def test_held_results_never_change(name):
    g = _graph()
    embed = EMBEDS[name]
    held = []
    for seed in (1, 2, 3):
        result = embed(g, _labels(seed))
        held.append((result, result.embedding.copy(), seed))
    for seed in (4, 5, 6, 7, 8):
        _check(name, embed(g, _labels(seed)).embedding, _reference(g, _labels(seed)))
        for result, copy, _ in held:
            assert np.array_equal(result.embedding, copy)
    for result, _, seed in held:
        _check(name, result.embedding, _reference(g, _labels(seed)))


@pytest.mark.parametrize("name", EMBED_NAMES)
def test_a_slice_keeps_its_result_alive(name):
    g = _graph()
    embed = EMBEDS[name]
    result = embed(g, _labels(1))
    rows = result.embedding[10:20]
    copy = rows.copy()
    del result
    for seed in (2, 3, 4):
        embed(g, _labels(seed))
    assert np.array_equal(rows, copy)


def test_a_dropped_serial_result_hands_its_buffer_to_the_next_embed():
    rng = np.random.default_rng(3)
    n, k = 6000, 40
    g = Graph.coerce(erdos_renyi(n, 20000, seed=3))
    plan = g.plan(k, layout="sorted")
    backend = get_backend("vectorized")
    y = rng.integers(0, k, n)
    address = backend.embed_with_plan(plan, y).embedding.ctypes.data
    tracemalloc.start()
    result = backend.embed_with_plan(plan, y)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert result.embedding.ctypes.data == address
    assert peak < n * k * 8  # no second output buffer


@fork_only
def test_pooled_refits_use_at_most_two_output_segments():
    """Holding one result at a time, as a refit loop does, alternates two
    slots: the one the caller holds and the one the workers write."""
    g = _graph()
    backend = get_backend("parallel", n_workers=2)
    held = None
    addresses = set()
    for seed in range(10):
        held = backend.embed_with_plan(g.plan(K, layout="sorted"), _labels(seed))
        addresses.add(held.embedding.ctypes.data)
        workspace = parallel_module._WORKSPACE
        assert workspace.outputs.n_buffers <= 2
        assert "Z" not in workspace.shm  # no fallback segment
    assert len(addresses) == 2
    _check("parallel-2-workers", held.embedding, _reference(g, _labels(9)))


@fork_only
@pytest.mark.parametrize("name", list(POOLED))
def test_a_fourth_pooled_result_is_a_private_copy(name):
    g = _graph()
    embed = POOLED[name]
    held = [embed(g, _labels(seed)) for seed in (1, 2, 3)]
    workspace = parallel_module._WORKSPACE
    assert workspace.outputs.n_buffers == 3
    fourth = embed(g, _labels(4))
    fallback = workspace.shm["Z"]
    assert not np.shares_memory(fourth.embedding, fallback)
    assert not any(np.shares_memory(fourth.embedding, r.embedding) for r in held)
    copy = fourth.embedding.copy()
    embed(g, _labels(5))
    assert np.array_equal(fourth.embedding, copy)
    _check(name, fourth.embedding, _reference(g, _labels(4)))


def _other_shape_embed():
    """A pooled embed of another ``(n, K)``: it replaces the workspace."""
    other = Graph.coerce(erdos_renyi(300, 3000, seed=4))
    gee_parallel(other, random_partial_labels(300, 3, 0.5, seed=4), 3, n_workers=2)


@fork_only
@pytest.mark.parametrize(
    "release", [parallel_module.shutdown_workers, _other_shape_embed],
    ids=["shutdown_workers", "workspace-replaced"],
)
def test_a_pooled_result_outlives_its_workspace(release, monkeypatch):
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    g = _graph()
    result = get_backend("parallel", n_workers=2).embed(g, _labels(1), K)
    copy = result.embedding.copy()
    names = list(parallel_module._WORKSPACE.outputs._state.segments)
    assert names
    release()
    if os.path.isdir("/dev/shm"):
        assert not any(os.path.exists(os.path.join("/dev/shm", name)) for name in names)
    assert np.array_equal(result.embedding, copy)
    del result
    gc.collect()
    assert unraisable == []
