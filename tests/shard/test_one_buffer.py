"""One output buffer for every shard: serial, pooled and out-of-core.

Shard owner ranges are disjoint and the sorted row-range kernel assigns
every slot of its rows, so all shards write straight into one ``(n*K,)``
buffer, with no per-shard partials and no reduction.  On the conformance
edge cases (rows no incidence reaches, self loops, duplicate edges, shard
counts above the number of busy rows) the serial and pooled results must
therefore be bit for bit the single-pool sorted pass, a pooled workspace
reused with other labels must not keep rows of the previous embed, and
the streamed out-of-core pass must match the reference loop.
"""

import numpy as np
import pytest

from repro.backends import get_backend
from repro.core import gee_python
from repro.graph import EdgeList, Graph
from repro.shard import ShardedGraph

ATOL = 1e-10
K = 3

CASES = ["unweighted", "weighted", "self-loops", "duplicate-edges", "isolated-vertices"]
LABELLINGS = ["full", "partial"]


def _edges(case):
    rng = np.random.default_rng(42)
    src = rng.integers(0, 24, size=60)
    dst = rng.integers(0, 24, size=60)
    if case == "unweighted":
        return EdgeList(src, dst, n_vertices=24)
    if case == "weighted":
        return EdgeList(src, dst, rng.uniform(0.5, 2.0, size=60), n_vertices=24)
    if case == "self-loops":
        loop = np.arange(8)
        return EdgeList(
            np.concatenate([src[:20], loop]),
            np.concatenate([dst[:20], loop]),
            n_vertices=24,
        )
    if case == "duplicate-edges":
        return EdgeList(
            np.concatenate([src[:15]] * 3),
            np.concatenate([dst[:15]] * 3),
            rng.uniform(0.5, 2.0, size=45),
            n_vertices=24,
        )
    if case == "isolated-vertices":
        # Rows [10, 14) and [24, 40) touch no edge, inside and after the
        # busy rows, so some shards own only empty rows.
        return EdgeList(src % 10, dst % 10 + 14, n_vertices=40)
    raise AssertionError(case)  # pragma: no cover - parametrize typo guard


def _labels(n, labelling, seed=3):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, K, size=n).astype(np.int64)
    if labelling == "partial":
        y[rng.random(n) < 0.4] = -1
    return y


def _sorted_pass(edges, y):
    """The single-pool pass over the fused sorted layout (detached)."""
    plan = Graph.coerce(edges).plan(K, layout="sorted")
    return get_backend("vectorized").embed_with_plan(plan, y).detached().embedding


class TestSerial:
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 7])
    @pytest.mark.parametrize("labelling", LABELLINGS)
    @pytest.mark.parametrize("case", CASES)
    def test_bitwise_equal_to_sorted_pass(self, case, labelling, n_shards):
        edges = _edges(case)
        y = _labels(edges.n_vertices, labelling)
        with ShardedGraph(edges, n_shards) as sg:
            result = sg.embed(y, K, n_workers=1)
            assert result.n_workers == 1
            assert np.array_equal(result.embedding, _sorted_pass(edges, y))


class TestPooled:
    @pytest.mark.parametrize("n_shards", [2, 3, 7])
    @pytest.mark.parametrize("labelling", LABELLINGS)
    @pytest.mark.parametrize("case", CASES)
    def test_bitwise_equal_to_sorted_pass(self, case, labelling, n_shards):
        edges = _edges(case)
        y = _labels(edges.n_vertices, labelling)
        with ShardedGraph(edges, n_shards) as sg:
            result = sg.embed(y, K, n_workers=2)
            assert result.n_workers == 2
            assert np.array_equal(result.embedding, _sorted_pass(edges, y))

    @pytest.mark.parametrize("n_shards", [2, 3])
    @pytest.mark.parametrize("case", CASES)
    def test_reused_workspace_keeps_no_rows_of_the_last_embed(self, case, n_shards):
        """The shared buffer is not zeroed between embeds: every row must
        be reassigned, including rows whose sums drop to zero."""
        edges = _edges(case)
        n = edges.n_vertices
        full = _labels(n, "full")
        sparse = np.full(n, -1, dtype=np.int64)
        sparse[: n // 4] = full[: n // 4]  # most rows now see no labelled partner
        with ShardedGraph(edges, n_shards) as sg:
            first = sg.embed(full, K, n_workers=2).embedding
            second = sg.embed(sparse, K, n_workers=2).embedding
            assert np.array_equal(second, _sorted_pass(edges, sparse))
            assert np.array_equal(first, _sorted_pass(edges, full))


class TestOutOfCore:
    @pytest.mark.parametrize("n_shards", [1, 2, 3])
    @pytest.mark.parametrize("case", CASES)
    def test_streamed_shards_match_reference(self, case, n_shards, tmp_path):
        edges = _edges(case)
        y = _labels(edges.n_vertices, "partial")
        with ShardedGraph(edges, n_shards) as sg:
            sg.persist(tmp_path)
            result = sg.embed_outofcore(y, K, chunk_edges=7)
            np.testing.assert_allclose(
                result.embedding, gee_python(edges, y, K).embedding, atol=ATOL
            )
