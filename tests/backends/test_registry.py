"""Tests for the unified execution-backend registry."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.backends import (
    BackendCapabilities,
    GEEBackend,
    backend_aliases,
    backend_capabilities,
    backend_class,
    get_backend,
    list_backends,
    register_backend,
    resolve_backend_name,
)
from repro.core import gee_ligra, gee_python
from repro.eval.experiments import IMPLEMENTATIONS
from repro.ligra.backends import make_backend
from repro.graph import Graph, planted_partition
from repro.labels import mask_labels


@pytest.fixture(scope="module")
def seeded_graph():
    edges, truth = planted_partition(220, 4, 0.1, 0.01, seed=9)
    y = mask_labels(truth, 0.3, seed=9)
    return Graph.coerce(edges), y


class TestRegistryContents:
    def test_at_least_six_backends_registered(self):
        assert len(list_backends()) >= 6

    def test_canonical_names_present(self):
        assert list_backends() == [
            "auto",
            "ligra-serial",
            "ligra-threads",
            "ligra-vectorized",
            "parallel",
            "python",
            "sparse",
            "vectorized",
        ]

    def test_legacy_aliases_resolve(self):
        # Each alias names the backend of the Table I column it abbreviates.
        assert resolve_backend_name("ligra") == IMPLEMENTATIONS["ligra-serial"]
        assert resolve_backend_name("ligra-parallel") == IMPLEMENTATIONS["ligra-parallel"]
        assert type(get_backend("ligra")).name == "ligra-vectorized"
        assert type(get_backend("ligra-parallel")).name == "parallel"
        aliases = backend_aliases()
        assert aliases["ligra"] == "ligra-vectorized"
        assert aliases["ligra-parallel"] == "parallel"

    def test_ligra_parallel_is_the_parallel_backend(self, seeded_graph):
        graph, y = seeded_graph
        alias = get_backend("ligra-parallel", n_workers=2)
        assert isinstance(alias, backend_class("parallel"))
        assert np.array_equal(
            alias.embed(graph, y, 4).embedding,
            get_backend("parallel", n_workers=2).embed(graph, y, 4).embedding,
        )
        # ``parallel`` has no atomics to switch off.
        with pytest.raises(TypeError, match="unsupported option"):
            get_backend("ligra-parallel", atomic=False)

    @pytest.mark.parametrize("entry", ["get_backend", "estimator", "incremental", "unsupervised"])
    @pytest.mark.parametrize("alias", ["ligra", "ligra-parallel"])
    def test_aliases_reach_their_backend_at_every_entry(self, seeded_graph, alias, entry):
        """Every entry point that takes a backend name runs an alias's
        canonical backend and embeds bitwise as that name does."""
        from repro import GraphEncoderEmbedding
        from repro.core import gee_unsupervised
        from repro.stream import DynamicGraph, IncrementalEmbedding

        graph, y = seeded_graph
        canonical = backend_aliases()[alias]

        def run(name):
            if entry == "get_backend":
                backend = get_backend(name)
                return backend, backend.embed(graph, y, 4).embedding
            if entry == "estimator":
                model = GraphEncoderEmbedding(4, method=name).fit(graph, y)
                assert model.method == canonical
                return model.backend_, model.embedding_
            if entry == "incremental":
                inc = IncrementalEmbedding(DynamicGraph(graph.edges), y, 4, backend=name)
                return inc.backend, inc.embedding
            refined = gee_unsupervised(
                graph, 4, implementation=name, max_iterations=2, delta=False
            )
            return refined.final.method, refined.embedding

        via_alias, embedding = run(alias)
        via_name, expected = run(canonical)
        if entry == "unsupervised":
            assert via_alias == via_name
        else:
            assert isinstance(via_alias, backend_class(canonical))
        assert np.array_equal(embedding, expected)

    def test_ligra_processes_is_gone(self, seeded_graph):
        """``parallel`` is the one process executor: neither the registry
        nor the Ligra engine has a processes schedule, and each entry point
        names the choices that remain."""
        graph, y = seeded_graph
        assert "ligra-processes" not in list_backends()
        with pytest.raises(
            ValueError, match=r"unknown backend 'ligra-processes'; registered backends: \[.*'parallel'"
        ):
            get_backend("ligra-processes")
        for call in (
            lambda: make_backend("processes"),
            lambda: gee_ligra(graph, y, 4, backend="processes"),
        ):
            with pytest.raises(
                ValueError, match="unknown backend 'processes'; expected serial, vectorized or threads"
            ):
                call()

    def test_capabilities_declared(self):
        assert backend_capabilities("parallel").supports_n_workers
        assert backend_capabilities("parallel").parallel
        assert backend_capabilities("parallel").deterministic
        assert not backend_capabilities("python").supports_n_workers
        assert not backend_capabilities("ligra-threads").deterministic

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("tpu")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_backend("python")
            class Shadow(GEEBackend):  # pragma: no cover - never instantiated
                pass


class TestNoCompiledTier:
    """Every backend runs on NumPy alone; no name points at a JIT tier."""

    @pytest.mark.parametrize("entry", ["get_backend", "capabilities", "estimator"])
    def test_native_is_not_a_backend(self, seeded_graph, entry):
        from repro import GraphEncoderEmbedding

        graph, y = seeded_graph
        assert "native" not in list_backends()
        calls = {
            "get_backend": lambda: get_backend("native"),
            "capabilities": lambda: backend_capabilities("native"),
            "estimator": lambda: GraphEncoderEmbedding(4, method="native").fit(graph, y),
        }
        with pytest.raises(ValueError, match="'native'"):
            calls[entry]()

    def test_package_imports_and_fits_without_numba(self):
        """With ``numba`` unimportable, every module imports and a fit runs."""
        import repro

        script = (
            "import importlib, pkgutil, sys\n"
            "import numpy as np\n"
            "class Block:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'numba':\n"
            "            raise ImportError('numba is blocked')\n"
            "sys.meta_path.insert(0, Block())\n"
            "import repro\n"
            "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
            "    if not info.name.endswith('__main__'):\n"
            "        importlib.import_module(info.name)\n"
            "from repro import GraphEncoderEmbedding\n"
            "from repro.graph import erdos_renyi\n"
            "edges = erdos_renyi(60, 240, seed=1)\n"
            "model = GraphEncoderEmbedding(3).fit(edges, np.arange(60) % 3)\n"
            "assert model.embedding_.shape == (60, 3)\n"
            "assert 'numba' not in sys.modules\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


class TestConstructionValidation:
    def test_n_workers_rejected_on_serial_backends(self):
        for name in ("python", "vectorized", "ligra-serial", "ligra-vectorized"):
            with pytest.raises(ValueError, match="does not support n_workers"):
                get_backend(name, n_workers=2)

    def test_unknown_option_rejected(self):
        with pytest.raises(TypeError, match="unsupported option"):
            get_backend("python", chunk_edges=128)
        with pytest.raises(TypeError, match="unsupported option"):
            get_backend("vectorized", chunk_edges=64)
        with pytest.raises(TypeError, match="unsupported option"):
            get_backend("parallel", atomic=False)

    def test_supported_options_accepted(self):
        assert get_backend("ligra-serial", atomic=False).atomic is False
        assert get_backend("ligra-vectorized").atomic is True
        assert get_backend("ligra-threads", n_workers=2, atomic=False).atomic is False

    def test_instance_passthrough(self):
        backend = get_backend("ligra-serial")
        assert get_backend(backend) is backend
        with pytest.raises(TypeError, match="already-constructed"):
            get_backend(backend, atomic=False)


class TestBackendEquivalence:
    """Every registered backend computes gee_python's embedding."""

    @pytest.mark.parametrize("name", sorted(list_backends()))
    def test_matches_reference(self, seeded_graph, name):
        graph, y = seeded_graph
        reference = gee_python(graph.edges, y, 4).embedding
        caps = backend_capabilities(name)
        backend = get_backend(name, n_workers=2 if caps.supports_n_workers else None)
        result = backend.embed(graph, y, 4)
        np.testing.assert_allclose(result.embedding, reference, atol=1e-9)

    def test_weighted_graph_agreement(self, seeded_graph):
        from repro.graph import erdos_renyi

        edges = erdos_renyi(150, 900, seed=10, weighted=True)
        y = mask_labels(np.arange(150) % 3, 0.5, seed=10)
        graph = Graph.coerce(edges)
        reference = gee_python(edges, y, 3).embedding
        for name in list_backends():
            result = get_backend(name).embed(graph, y, 3) if not backend_capabilities(
                name
            ).supports_n_workers else get_backend(name, n_workers=2).embed(graph, y, 3)
            np.testing.assert_allclose(result.embedding, reference, atol=1e-9)


class TestCustomBackend:
    def test_register_and_use_custom_backend(self):
        @register_backend(
            "test-negating",
            capabilities=BackendCapabilities(description="test backend"),
        )
        class NegatingBackend(GEEBackend):
            def _embed_with_plan(self, plan, labels):
                from repro.core import gee_vectorized_with_plan

                result = gee_vectorized_with_plan(plan, labels)
                result.embedding = -result.embedding
                return result

        try:
            from repro import GraphEncoderEmbedding
            from repro.graph import erdos_renyi

            edges = erdos_renyi(50, 200, seed=3)
            y = mask_labels(np.arange(50) % 2, 0.5, seed=3)
            model = GraphEncoderEmbedding(method="test-negating").fit(edges, y)
            assert np.all(model.embedding_ <= 0)
            # ``embed`` runs the same kernel on the default plan.
            embedded = get_backend("test-negating").embed(edges, y)
            assert np.array_equal(embedded.embedding, model.embedding_)
        finally:
            # Keep the registry clean for other tests.
            from repro.backends import registry

            registry._REGISTRY.pop("test-negating", None)
