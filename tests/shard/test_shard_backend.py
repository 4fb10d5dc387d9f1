"""The registered ``sharded`` backend."""

import numpy as np
import pytest

from repro.backends import backend_capabilities, get_backend, list_backends
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
