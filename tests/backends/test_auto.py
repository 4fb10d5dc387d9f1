"""The ``auto`` backend: one size rule, and a bitwise delegation.

``choose`` runs ``parallel`` on the sorted layout for large in-memory
plans when the fork pool has at least two workers, and ``vectorized``
otherwise; a chunked plan runs as given on ``vectorized``.  Every
choice names a registered backend and a layout that runs the plan, and
``auto``'s embedding is bitwise what that delegate returns.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.backends import auto as auto_module
from repro.backends import backend_capabilities, get_backend, list_backends
from repro.backends.auto import ExecutionChoice, choose
from repro.core import gee_python
from repro.core.plan import LAYOUTS, ChunkedPlan
from repro.graph import EdgeList, Graph, erdos_renyi, planted_partition
from repro.graph.io import ChunkedEdgeSource
from repro.labels import mask_labels, random_partial_labels
from repro.parallel import fork_available

fork_only = pytest.mark.skipif(not fork_available(), reason="fork not available")

K = 4
CHUNK = 700


def _in_memory(edges):
    return Graph.coerce(edges).plan(K)


def _chunked(edges):
    return Graph.coerce(edges).plan(K, chunk_edges=CHUNK)


def _standalone_chunked(edges):
    return ChunkedPlan(ChunkedEdgeSource.from_edgelist(edges, chunk_edges=CHUNK), K)


SERIAL = ExecutionChoice("vectorized", "sorted")
POOLED = ExecutionChoice("parallel", "sorted", 2)
CHUNKED = ExecutionChoice("vectorized", "none")

#: (plan builder, n_workers, CPU count, edges below the threshold, fork
#: available, expected choice) — one row per branch of the rule.
DECISIONS = {
    "below-threshold": (_in_memory, 2, 2, True, True, SERIAL),
    "at-threshold": (_in_memory, 2, 2, False, True, POOLED),
    "one-worker": (_in_memory, 1, 2, False, True, SERIAL),
    "no-fork": (_in_memory, 2, 2, False, False, SERIAL),
    "chunked": (_chunked, 2, 2, False, True, CHUNKED),
    "pinned-none": (_standalone_chunked, 2, 2, False, True, CHUNKED),
    "default-workers": (_in_memory, None, 2, False, True, POOLED),
    "one-cpu": (_in_memory, None, 1, False, True, SERIAL),
    "workers-capped-by-cpus": (_in_memory, 4, 2, False, True, POOLED),
}
DECISION_IDS = [
    pytest.param(name, marks=fork_only)
    if DECISIONS[name][-1].backend == "parallel"
    else name
    for name in DECISIONS
]


@pytest.fixture(scope="module")
def graph_case():
    edges = erdos_renyi(300, 3000, seed=7, weighted=True)
    y = random_partial_labels(300, K, 0.5, seed=7)
    return edges, y, gee_python(edges, y, K).embedding


class TestChoose:
    @pytest.mark.parametrize("name", DECISION_IDS)
    def test_decision_table(self, name, graph_case, monkeypatch):
        build, n_workers, cpus, below, fork, expected = DECISIONS[name]
        edges, y, reference = graph_case
        plan = build(edges)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(auto_module, "fork_available", lambda: fork)
        monkeypatch.setattr(
            auto_module, "POOLED_MIN_EDGES", plan.n_edges + 1 if below else plan.n_edges
        )
        choice = choose(plan, n_workers)
        assert choice == expected
        assert choice.backend in list_backends() and choice.layout in LAYOUTS

        target = plan
        if not plan.is_chunked and choice.layout != plan.layout:
            target = plan.graph.plan(K, layout=choice.layout)
        delegate = get_backend(choice.backend, n_workers=choice.n_workers)
        ran = delegate.embed_with_plan(target, y)
        assert ran.layout == choice.layout
        np.testing.assert_allclose(ran.embedding, reference, atol=1e-10)

        result = get_backend("auto", n_workers=n_workers).embed_with_plan(plan, y)
        assert result.execution_choice == expected
        assert np.array_equal(result.embedding, ran.embedding)

    def test_choice_to_dict(self):
        choice = ExecutionChoice("parallel", "sorted", 2)
        assert choice.config == "parallel:sorted"
        assert choice.to_dict() == {
            "backend": "parallel", "layout": "sorted", "n_workers": 2,
        }

    def test_choice_is_frozen(self):
        choice = ExecutionChoice("vectorized", "sorted")
        with pytest.raises(dataclasses.FrozenInstanceError):
            choice.n_workers = 2

    @pytest.mark.parametrize("mode", ["serial", "pooled", "chunked"])
    @pytest.mark.parametrize(
        "n,n_edges,k",
        [
            (64, 256, 2),
            (2048, 8192, 8),
            (65_536, 1_048_576, 16),
            (1_000_000, 10_000_000, 50),
            (65_608_366, 1_806_067_135, 50),  # Friendster
        ],
    )
    def test_choice_at_scale_runs_the_plan(self, n, n_edges, k, mode, monkeypatch):
        """At sizes too large to build here, the rule still names a
        registered backend whose capabilities run the plan, and pools only
        in-memory plans of at least POOLED_MIN_EDGES edges."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(auto_module, "fork_available", lambda: True)
        plan = SimpleNamespace(
            is_chunked=mode == "chunked",
            graph=object(),
            layout="none",
            n_vertices=n,
            n_edges=n_edges,
            n_classes=k,
        )
        choice = choose(plan, 1 if mode == "serial" else 2)
        if mode == "chunked":
            assert choice == CHUNKED
        elif mode == "pooled" and n_edges >= auto_module.POOLED_MIN_EDGES:
            assert choice == POOLED
        else:
            assert choice == SERIAL
        assert choice.backend in list_backends() and choice.layout in LAYOUTS
        caps = backend_capabilities(choice.backend)
        assert caps.supports_layout
        assert caps.supports_chunked or not plan.is_chunked
        assert caps.supports_n_workers or choice.n_workers is None


def _case_edges(case):
    """The conformance-matrix structural edge cases, ~30 vertices each."""
    rng = np.random.default_rng(21)
    src = rng.integers(0, 30, size=90)
    dst = rng.integers(0, 30, size=90)
    if case == "unweighted":
        return EdgeList(src, dst, n_vertices=30)
    if case == "weighted":
        return EdgeList(src, dst, rng.uniform(0.1, 4.0, size=90), n_vertices=30)
    if case == "self-loops":
        src[:12] = dst[:12]
        return EdgeList(src, dst, rng.uniform(0.5, 2.0, size=90), n_vertices=30)
    if case == "duplicate-edges":
        return EdgeList(
            np.concatenate([src[:25]] * 3),
            np.concatenate([dst[:25]] * 3),
            rng.uniform(0.1, 2.0, size=75),
            n_vertices=30,
        )
    if case == "isolated-vertices":
        # Rows [10, 20) and [40, 44) touch no edge.
        return EdgeList(src % 10, dst % 10 + 20, n_vertices=44)
    raise AssertionError(case)  # pragma: no cover - parametrize typo guard


def _case_labels(n, labelling):
    rng = np.random.default_rng(8)
    y = rng.integers(0, K, size=n).astype(np.int64)
    if labelling == "partial":
        y[rng.random(n) < 0.4] = -1
    return y


#: Plan builder and expected choice, one per branch of the rule.
BRANCHES = {
    "serial": (lambda edges: Graph.coerce(edges).plan(K), SERIAL),
    "pooled": (lambda edges: Graph.coerce(edges).plan(K), POOLED),
    "chunked": (lambda edges: Graph.coerce(edges).plan(K, chunk_edges=7), CHUNKED),
    "standalone-chunked": (
        lambda edges: ChunkedPlan(
            ChunkedEdgeSource.from_edgelist(edges, chunk_edges=7), K
        ),
        CHUNKED,
    ),
}
BRANCH_IDS = [
    pytest.param(name, marks=fork_only) if name == "pooled" else name
    for name in BRANCHES
]


class TestDelegation:
    @pytest.mark.parametrize("branch", BRANCH_IDS)
    @pytest.mark.parametrize("labelling", ["full", "partial"])
    @pytest.mark.parametrize(
        "case",
        ["unweighted", "weighted", "self-loops", "duplicate-edges", "isolated-vertices"],
    )
    def test_bitwise_the_delegate(self, case, labelling, branch, monkeypatch):
        """On every conformance case, auto's embedding is bit for bit what
        its chosen delegate returns on the same plan, and within 1e-10 of
        the reference loop."""
        build, expected = BRANCHES[branch]
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        if branch == "pooled":
            monkeypatch.setattr(auto_module, "POOLED_MIN_EDGES", 1)
        edges = _case_edges(case)
        y = _case_labels(edges.n_vertices, labelling)
        plan = build(edges)

        result = get_backend("auto", n_workers=2).embed_with_plan(plan, y)
        assert result.execution_choice == expected
        assert result.layout == expected.layout

        target = plan
        if not plan.is_chunked and expected.layout != plan.layout:
            target = plan.graph.plan(K, layout=expected.layout)
        delegate = get_backend(expected.backend, n_workers=expected.n_workers)
        ran = delegate.embed_with_plan(target, y)
        assert np.array_equal(result.embedding, ran.embedding)
        np.testing.assert_allclose(
            result.embedding, gee_python(edges, y, K).embedding, atol=1e-10
        )


class TestAutoBackend:
    @pytest.fixture(scope="class")
    def seeded(self):
        edges, truth = planted_partition(260, 4, 0.1, 0.01, seed=5)
        y = mask_labels(truth, 0.3, seed=5)
        return edges, y

    def test_capabilities(self):
        caps = backend_capabilities("auto")
        assert caps.supports_chunked
        assert caps.supports_layout and caps.deterministic

    def test_embed_matches_reference_and_logs_choice(self, seeded):
        edges, y = seeded
        reference = gee_python(edges, y, 4).embedding
        result = get_backend("auto").embed(Graph.coerce(edges), y, 4)
        np.testing.assert_allclose(result.embedding, reference, atol=1e-10)
        assert result.execution_choice == SERIAL

    def test_embed_with_plan_can_relayout(self, seeded):
        edges, y = seeded
        graph = Graph.coerce(edges)
        plan = graph.plan(4)  # layout-preserving default plan
        result = get_backend("auto").embed_with_plan(plan, y)
        assert result.execution_choice.layout == "sorted"
        assert result.layout == "sorted"
        np.testing.assert_allclose(
            result.embedding, gee_python(edges, y, 4).embedding, atol=1e-10
        )

    def test_estimator_roundtrip(self, seeded):
        from repro import GraphEncoderEmbedding

        edges, y = seeded
        model = GraphEncoderEmbedding(method="auto").fit(edges, y)
        np.testing.assert_allclose(
            model.embedding_, gee_python(edges, y, 4).embedding, atol=1e-10
        )
        assert model.result_.execution_choice is not None

    def test_incremental_embedding_accepts_auto(self, seeded):
        from repro.core.gee_vectorized import gee_vectorized
        from repro.stream import DynamicGraph, IncrementalEmbedding

        edges, truth = planted_partition(150, 3, 0.1, 0.01, seed=6)
        dynamic = DynamicGraph(edges)
        live = IncrementalEmbedding(dynamic, truth, 3, backend="auto")
        rng = np.random.default_rng(1)
        dynamic.add_edges(rng.integers(0, 150, 40), rng.integers(0, 150, 40)).commit()
        report = live.update()
        assert report.version_to == 1
        fresh = gee_vectorized(dynamic.graph.edges, truth, 3).embedding
        np.testing.assert_allclose(live.embedding, fresh, atol=1e-10)

    @fork_only
    def test_auto_delegates_with_shard_axis(self, random_graph, monkeypatch):
        """Past the size threshold auto runs the sorted pass on the fork
        pool, bitwise the serial sorted pass."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(auto_module, "POOLED_MIN_EDGES", 1)
        y = random_partial_labels(random_graph.n_vertices, 4, 0.5, seed=4)
        g = Graph.coerce(random_graph)
        result = get_backend("auto").embed(g, y, 4)
        assert result.execution_choice == POOLED
        assert result.n_workers == 2
        sorted_plan = g.plan(4, layout="sorted")
        serial = get_backend("vectorized").embed_with_plan(sorted_plan, y)
        assert np.array_equal(result.embedding, serial.embedding)


def test_auto_writes_no_file_and_raises_no_warning(tmp_path):
    """An auto fit and embed leave the home and cache directories empty
    and raise no RuntimeWarning."""
    home = tmp_path / "home"
    home.mkdir()
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        HOME=str(home),
        XDG_CACHE_HOME=str(home / ".cache"),
        PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
    )
    script = textwrap.dedent(
        """
        from repro import GraphEncoderEmbedding
        from repro.backends import get_backend
        from repro.graph import Graph, planted_partition

        edges, truth = planted_partition(200, 3, 0.1, 0.01, seed=1)
        GraphEncoderEmbedding(method="auto").fit(edges, truth)
        get_backend("auto").embed(Graph.coerce(edges), truth, 3)
        """
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", script],
        cwd=home,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert list(home.iterdir()) == []
