"""Property-style fuzz tests (seeded, deterministic — no hypothesis dep).

Two invariants that parametrised example tests cover thinly:

* ``scatter_add``, the scatter primitive behind every unsorted embed and
  patch, must equal a Python-loop oracle bit for bit on *any*
  index/weight profile: heavy duplication, an empty input, and a scalar
  weight;
* a cached :class:`~repro.core.plan.EmbedPlan` must be evicted when the
  underlying edge data is mutated in place (the sampled fingerprint covers
  every edge on graphs with ≤ 32 edges, so detection there is exact, not
  best-effort).

~200 random instances each, driven by one seeded ``np.random.Generator``
per test so failures reproduce exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gee_vectorized import scatter_add
from repro.core.plan import _FINGERPRINT_SAMPLES
from repro.graph.edgelist import EdgeList
from repro.graph.facade import Graph

N_CASES = 200


def test_scatter_add_matches_loop_oracle():
    """Duplicates sum in index order, exactly as the interpreted loop."""
    rng = np.random.default_rng(20260728)
    for case in range(N_CASES):
        size = int(rng.integers(1, 400))
        m = 0 if case == 0 else int(rng.integers(0, 600))
        idx = rng.integers(0, size, size=m).astype(np.intp)
        if m and rng.random() < 0.3:
            # Heavy duplication: all updates into very few slots.
            idx = idx % max(1, size // 10)
        scalar = rng.random() < 0.2
        w = 1.0 if scalar else rng.normal(size=m)
        base = rng.normal(size=size)

        out = base.copy()
        scatter_add(out, idx, w)
        oracle = base.copy()
        for i, slot in enumerate(idx):
            oracle[slot] += w if scalar else w[i]
        np.testing.assert_array_equal(out, oracle, err_msg=f"case {case}")


def _random_small_graph(rng):
    """A weighted graph with at most _FINGERPRINT_SAMPLES edges.

    Below the sample cap the plan fingerprint hashes *every* edge, so any
    single-edge mutation must be detected — the property under test.
    """
    n = int(rng.integers(3, 20))
    s = int(rng.integers(1, _FINGERPRINT_SAMPLES + 1))
    return EdgeList(
        rng.integers(0, n, size=s),
        rng.integers(0, n, size=s),
        rng.uniform(0.5, 2.0, size=s),
        n,
    )


def test_plan_evicted_on_edge_mutation():
    rng = np.random.default_rng(99)
    for case in range(N_CASES):
        edges = _random_small_graph(rng)
        graph = Graph.coerce(edges)
        k = int(rng.integers(1, 4))
        plan = graph.plan(k)
        # Touch the compiled artifacts so eviction visibly discards work.
        plan.src_flat

        pos = int(rng.integers(0, edges.n_edges))
        field = ("src", "dst", "weights")[int(rng.integers(0, 3))]
        if field == "src":
            edges.src[pos] = (edges.src[pos] + 1) % edges.n_vertices
        elif field == "dst":
            edges.dst[pos] = (edges.dst[pos] + 1) % edges.n_vertices
        else:
            edges.weights[pos] += 1.0

        new_plan = graph.plan(k)
        assert new_plan is not plan, (
            f"case {case}: cached plan survived in-place mutation of "
            f"{field}[{pos}] on a fully-sampled graph"
        )
        assert new_plan.fingerprint != plan.fingerprint


def test_mutated_plan_recompiles_to_correct_embedding():
    """Eviction is not just identity churn: the re-plan embeds the new graph."""
    rng = np.random.default_rng(5)
    for case in range(40):
        edges = _random_small_graph(rng)
        graph = Graph.coerce(edges)
        k = 2
        y = rng.integers(0, k, size=edges.n_vertices).astype(np.int64)
        from repro.backends import get_backend

        backend = get_backend("vectorized")
        backend.embed_with_plan(graph.plan(k), y)

        pos = int(rng.integers(0, edges.n_edges))
        edges.weights[pos] += 3.0
        fresh = backend.embed_with_plan(graph.plan(k), y).detached().embedding
        expected = backend.embed(Graph.coerce(edges.copy()), y, k).embedding
        np.testing.assert_allclose(fresh, expected, atol=1e-12, err_msg=f"case {case}")


def test_chunked_plan_cache_also_evicted_on_mutation():
    rng = np.random.default_rng(1234)
    for case in range(50):
        edges = _random_small_graph(rng)
        graph = Graph.coerce(edges)
        plan = graph.plan(2, chunk_edges=3)
        pos = int(rng.integers(0, edges.n_edges))
        edges.weights[pos] *= -1.0
        assert graph.plan(2, chunk_edges=3) is not plan, f"case {case}"


def test_fingerprint_detects_replacement_beyond_sample_cap():
    # Above the cap detection of *replacement* stays exact (shape + samples
    # change); in-place mutation there is documented as best-effort.
    rng = np.random.default_rng(55)
    edges = EdgeList(
        rng.integers(0, 50, size=500),
        rng.integers(0, 50, size=500),
        rng.uniform(0.1, 1.0, size=500),
        50,
    )
    graph = Graph.coerce(edges)
    plan = graph.plan(3)
    bigger = EdgeList(
        np.concatenate([edges.src, [0]]),
        np.concatenate([edges.dst, [1]]),
        np.concatenate([edges.weights, [1.0]]),
        50,
    )
    graph2 = Graph.coerce(bigger)
    assert graph2.plan(3).fingerprint != plan.fingerprint


def test_sampled_fingerprint_misses_unsampled_inplace_mutation():
    """The documented gap the "full" mode exists to close.

    Beyond _FINGERPRINT_SAMPLES edges the sampled fingerprint hashes an
    evenly-spaced subset; an in-place edit between two sample points goes
    undetected and the stale plan survives.
    """
    rng = np.random.default_rng(77)
    edges = EdgeList(
        rng.integers(0, 50, size=500),
        rng.integers(0, 50, size=500),
        rng.uniform(0.1, 1.0, size=500),
        50,
    )
    graph = Graph.coerce(edges)
    plan = graph.plan(3)
    edges.weights[1] += 5.0  # positions 0 and 499 are sampled; 1 is not
    assert graph.plan(3) is plan  # stale plan survives — sampling's gap


def test_full_fingerprint_detects_any_inplace_mutation():
    rng = np.random.default_rng(78)
    for case in range(50):
        s = int(rng.integers(100, 600))  # well beyond the sample cap
        edges = EdgeList(
            rng.integers(0, 40, size=s),
            rng.integers(0, 40, size=s),
            rng.uniform(0.1, 1.0, size=s),
            40,
        )
        graph = Graph.coerce(edges)
        plan = graph.plan(3, fingerprint="full")
        pos = int(rng.integers(0, s))
        field = ("src", "dst", "weights")[int(rng.integers(0, 3))]
        if field == "src":
            edges.src[pos] = (edges.src[pos] + 1) % 40
        elif field == "dst":
            edges.dst[pos] = (edges.dst[pos] + 1) % 40
        else:
            edges.weights[pos] += 1.0
        new_plan = graph.plan(3)  # mode is sticky: still exact
        assert new_plan is not plan, (
            f"case {case}: full fingerprint missed in-place mutation of "
            f"{field}[{pos}] on {s} edges"
        )


def test_fingerprint_mode_is_sticky_and_validated():
    edges = EdgeList(np.array([0, 1]), np.array([1, 2]), None, 3)
    graph = Graph.coerce(edges)
    with pytest.raises(ValueError, match="sampled.*full|full.*sampled"):
        graph.plan(2, fingerprint="exact")
    plan = graph.plan(2, fingerprint="full")
    assert plan.fingerprint[0] == "edges-full"
    assert graph.plan(2) is plan  # unchanged data, sticky full mode
    # Switching back to sampled drops the incomparable cached plan once.
    resampled = graph.plan(2, fingerprint="sampled")
    assert resampled.fingerprint[0] == "edges"
