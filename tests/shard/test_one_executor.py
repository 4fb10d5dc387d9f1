"""One owner-range executor behind ``parallel`` and ``sharded``.

Both run their row ranges through ``repro.core.gee_parallel.run_owner_ranges``:
one session pool, one shared workspace, one shared fused layout per plan.
So sharded views fork no pool of their own and copy no incidence, every
result owns its array (one handed out by ``embed_with_plan`` survives the
embeds after it), and an embed of a non-``Graph`` input leaves no shared
layout behind.
"""

import gc
import multiprocessing
import tracemalloc

import numpy as np
import pytest

from repro.backends import get_backend
from repro.core import gee_parallel
from repro.core.gee_parallel import _FUSED_CACHE, shutdown_workers
from repro.graph import Graph, erdos_renyi
from repro.labels import random_partial_labels
from repro.parallel import fork_available

fork_only = pytest.mark.skipif(not fork_available(), reason="fork not available")

K = 4


@fork_only
def test_owned_results_leave_a_plan_view_alone():
    edges = erdos_renyi(400, 4000, seed=3, weighted=True)
    g = Graph.coerce(edges)
    y1 = random_partial_labels(400, K, 0.5, seed=1)
    y2 = random_partial_labels(400, K, 0.5, seed=2)
    view = get_backend("vectorized").embed_with_plan(g.plan(K, layout="sorted"), y1)
    kept = view.embedding.copy()
    results = [
        g.shard(2).embed(y2, K, n_workers=2),
        get_backend("parallel", n_workers=2).embed(g, y2, K),
        gee_parallel(g, y2, K),
    ]
    assert np.array_equal(view.embedding, kept)
    for result in results:
        np.testing.assert_allclose(result.embedding, results[0].embedding, atol=1e-10)


@fork_only
def test_sharded_views_share_the_session_pool():
    shutdown_workers()
    edges = erdos_renyi(300, 3000, seed=4)
    g = Graph.coerce(edges)
    y = random_partial_labels(300, K, 0.5, seed=4)
    get_backend("parallel", n_workers=2).embed(g, y, K)
    for n_shards in (2, 4, 8):
        g.shard(n_shards).embed(y, K, n_workers=2)
    assert len(multiprocessing.active_children()) <= 2


@fork_only
@pytest.mark.parametrize("entry", ["gee_parallel", "backend"])
@pytest.mark.parametrize("kind", ["edgelist", "csr", "array"])
def test_private_facades_release_their_layout(kind, entry):
    """A non-``Graph`` input gets a private facade; what the embed cached
    on it goes with the call, and the caller's CSR keeps its caches."""
    edges = erdos_renyi(300, 3000, seed=5, weighted=True)
    y = random_partial_labels(300, K, 0.5, seed=5)
    csr = edges.to_csr()
    in_indptr = csr.in_indptr  # the caller's cached in-adjacency
    inputs = {
        "edgelist": edges,
        "csr": csr,
        "array": np.column_stack([edges.src, edges.dst, edges.weights]),
    }
    gc.collect()
    shutdown_workers()
    gc.disable()
    try:
        for _ in range(3):
            if entry == "gee_parallel":
                result = gee_parallel(inputs[kind], y, K, n_workers=2)
            else:
                result = get_backend("parallel", n_workers=2).embed(inputs[kind], y, K)
            assert result.n_workers == 2
        assert len(_FUSED_CACHE) == 0
    finally:
        gc.enable()
    assert csr.in_indptr is in_indptr


def test_shard_view_keeps_no_incidence_copy():
    n, k = 20_000, 50
    g = Graph.coerce(erdos_renyi(n, 200_000, seed=6))
    g.plan(k, layout="sorted").fused  # the sorted plan the shards run over
    tracemalloc.start()
    sharded = g.shard(4)
    kept, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert sharded.n_shards == 4
    assert sum(s.n_incidences for s in sharded.shards) == 2 * g.n_edges
    assert kept < 1 << 20
