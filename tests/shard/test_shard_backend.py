"""The registered ``sharded`` backend and the cost model's shard axis."""

import numpy as np
import pytest

from repro.backends import (
    ShardedGEEBackend,
    backend_capabilities,
    get_backend,
    list_backends,
)
from repro.core import gee_vectorized
from repro.graph import EdgeList, Graph
from repro.labels import random_partial_labels

ATOL = 1e-10


class TestRegistration:
    def test_registered_with_sharding_capability(self):
        assert "sharded" in list_backends()
        caps = backend_capabilities("sharded")
        assert caps.supports_sharding
        assert caps.supports_incremental
        assert caps.supports_layout
        assert caps.supports_n_workers
        assert not caps.supports_chunked
        assert caps.deterministic

    def test_only_sharded_declares_sharding(self):
        sharding = [n for n in list_backends() if backend_capabilities(n).supports_sharding]
        assert sharding == ["sharded"]

    def test_unknown_option_rejected(self):
        with pytest.raises(TypeError, match="n_shards"):
            get_backend("sharded", bogus_option=3)

    def test_repr_shows_shard_option(self):
        assert "n_shards=4" in repr(get_backend("sharded", n_shards=4))


class TestExecution:
    def test_n_shards_option_is_honoured(self, random_graph):
        y = random_partial_labels(random_graph.n_vertices, 4, 0.5, seed=3)
        res = get_backend("sharded", n_shards=6).embed(random_graph, y, 4)
        assert res.method == "gee-sharded[6]"
        np.testing.assert_allclose(
            res.embedding, gee_vectorized(random_graph, y, 4).embedding, atol=ATOL
        )

    def test_default_shards_clamped_to_tiny_graph(self):
        edges = EdgeList([0, 1, 2], [1, 2, 3], n_vertices=4)
        y = np.array([0, 1, -1, 2])
        res = get_backend("sharded").embed(edges, y, 3)
        shards = int(res.method.split("[")[1].rstrip("]"))
        assert 1 <= shards <= 4

    def test_plan_path_reuses_facade_shards(self, random_graph):
        y = random_partial_labels(random_graph.n_vertices, 4, 0.5, seed=3)
        g = Graph.coerce(random_graph)
        backend = get_backend("sharded", n_shards=3)
        plan = g.plan(4)
        a = backend.embed_with_plan(plan, y).embedding
        b = backend.embed_with_plan(plan, y).embedding
        assert np.array_equal(a, b)
        assert g.shard(3) is g.shard(3)

    def test_facade_embed_route(self, random_graph):
        """graph.shard(n).embed == backend='sharded' through the registry."""
        y = random_partial_labels(random_graph.n_vertices, 4, 0.5, seed=3)
        g = Graph.coerce(random_graph)
        direct = g.shard(2).embed(y, 4).embedding
        routed = get_backend("sharded", n_shards=2).embed(g, y, 4).embedding
        np.testing.assert_allclose(routed, direct, atol=ATOL)


class TestCostModelShardAxis:
    def _model(self):
        from repro.tune import get_cost_model

        return get_cost_model()

    def test_shard_cost_prefers_more_shards_with_more_workers(self):
        model = self._model()
        _, s1 = model._shard_cost("sharded:sorted", 10_000, 5_000_000, 8, 1)
        _, s8 = model._shard_cost("sharded:sorted", 10_000, 5_000_000, 8, 8)
        assert s1 == 1
        assert s8 > 1

    def test_pooled_shard_counts_pay_the_pool_dispatch(self):
        """More than one shard runs on the fork pool: a calibrated pool
        dispatch cost can make one in-process shard the cheaper choice."""
        from repro.tune import CostModel

        shard = {"fixed_s": 1e-5, "per_edge_s": 1e-8, "per_cell_s": 1e-9}
        pool = {"fixed_s": 1e-2, "per_edge_s": 1e-8, "per_cell_s": 1e-9}
        free = CostModel({"sharded:sorted": shard})
        dispatched = CostModel(
            {"sharded:sorted": shard, "parallel:sorted": pool}, parallel_workers=2
        )
        _, s_free = free._shard_cost("sharded:sorted", 10_000, 200_000, 8, 2)
        _, s_dispatched = dispatched._shard_cost("sharded:sorted", 10_000, 200_000, 8, 2)
        assert s_free == 2
        assert s_dispatched == 1

    def test_pooled_shards_compete_only_with_a_calibrated_pool(self):
        """Without a pool calibration the dispatch cost is unknown, so auto
        does not pick the pooled sharded run (as for parallel)."""
        from repro.tune import CostModel

        serial = {"fixed_s": 1e-5, "per_edge_s": 1e-8, "per_cell_s": 1e-9}
        pool = {"fixed_s": 1e-4, "per_edge_s": 1e-8, "per_cell_s": 1e-9}
        coefficients = {"vectorized:sorted": serial, "sharded:sorted": dict(serial)}
        uncalibrated = CostModel(coefficients)
        calibrated = CostModel(
            {**coefficients, "parallel:sorted": pool}, parallel_workers=2
        )
        n, e, k = 10_000, 5_000_000, 8
        assert uncalibrated.choose(n, e, k, n_workers_available=2).backend == "vectorized"
        choice = calibrated.choose(n, e, k, n_workers_available=2)
        assert choice.backend == "sharded" and choice.n_shards == 2

    def test_one_shard_is_never_chosen(self):
        """One shard runs the vectorized:sorted kernel plus a fresh output;
        a calibration that fits it cheaper is fitting noise."""
        from repro.tune import CostModel

        serial = {"fixed_s": 1e-5, "per_edge_s": 1e-8, "per_cell_s": 1e-9}
        shard = {"fixed_s": 1e-6, "per_edge_s": 0.9e-8, "per_cell_s": 1e-9}
        pool = {"fixed_s": 10.0, "per_edge_s": 1e-8, "per_cell_s": 1e-9}
        model = CostModel(
            {"vectorized:sorted": serial, "sharded:sorted": shard, "parallel:sorted": pool},
            parallel_workers=2,
        )
        n, e, k = 10_000, 5_000_000, 8
        assert model._shard_cost("sharded:sorted", n, e, k, 2)[1] == 1
        assert model.choose(n, e, k, n_workers_available=2).config == "vectorized:sorted"

    def test_choice_records_shard_count(self):
        model = self._model()
        choice = model.choose(10_000, 5_000_000, 8, n_workers_available=8)
        if choice.backend == "sharded":
            assert choice.n_shards and choice.n_shards > 1
            assert "n_shards" in str(choice)
        assert "n_shards" in choice.to_dict()

    def test_sharded_skipped_for_chunked_plans(self):
        model = self._model()
        choice = model.choose(
            10_000, 5_000_000, 8, n_workers_available=8, chunked=True,
            chunk_edges=100_000,
        )
        assert choice.backend != "sharded"

    def test_auto_delegates_with_shard_axis(self, random_graph):
        """auto must construct sharded delegates with the chosen n_shards."""
        from repro.tune import ExecutionChoice

        y = random_partial_labels(random_graph.n_vertices, 4, 0.5, seed=4)
        auto = get_backend("auto")
        choice = ExecutionChoice(
            backend="sharded", layout="sorted", n_workers=None, n_shards=2,
        )
        delegate = auto._delegate(choice)
        assert isinstance(delegate, ShardedGEEBackend)
        assert delegate.n_shards == 2
        res = delegate.embed(random_graph, y, 4)
        assert res.method == "gee-sharded[2]"
        # The delegate cache is keyed by the shard axis too.
        other = auto._delegate(
            ExecutionChoice(backend="sharded", layout="sorted", n_workers=None, n_shards=4)
        )
        assert other is not delegate
        assert other.n_shards == 4
