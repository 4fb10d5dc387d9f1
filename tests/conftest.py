"""Shared pytest fixtures.

Also makes the test suite runnable without installing the package: if
``repro`` is not importable, the ``src/`` directory is added to ``sys.path``
(the same layout ``pip install -e .`` would register).
"""

from __future__ import annotations

import sys
from pathlib import Path

try:  # pragma: no cover - trivial import guard
    import repro  # noqa: F401
except ModuleNotFoundError:  # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np
import pytest

from repro.graph import EdgeList, erdos_renyi, planted_partition, rmat, symmetrize
from repro.labels import mask_labels, random_partial_labels


@pytest.fixture
def argsort_kinds(monkeypatch):
    """Spy on ``np.argsort`` for the test: the ``kind`` of every call, in order.

    ``monkeypatch.undo()`` removes the spy.
    """
    calls = []
    argsort = np.argsort

    def spy(a, *args, **kwargs):
        calls.append(kwargs.get("kind"))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    return calls


@pytest.fixture(scope="session")
def small_sbm():
    """A 3-block planted-partition graph with its ground-truth labels."""
    edges, truth = planted_partition(240, 3, 0.12, 0.01, seed=7)
    return edges, truth


@pytest.fixture(scope="session")
def small_sbm_partial(small_sbm):
    """The SBM graph plus a 30%-observed label vector."""
    edges, truth = small_sbm
    return edges, truth, mask_labels(truth, 0.3, seed=3)


@pytest.fixture(scope="session")
def random_graph():
    """A modest undirected Erdős–Rényi multigraph."""
    return erdos_renyi(500, 3000, seed=11, undirected=True)


@pytest.fixture(scope="session")
def skewed_graph():
    """A small R-MAT graph with a skewed degree distribution."""
    return rmat(10, edge_factor=8, seed=13)


@pytest.fixture(scope="session")
def weighted_graph():
    """A small weighted directed graph."""
    return erdos_renyi(200, 1500, seed=5, weighted=True)


@pytest.fixture(scope="session")
def paper_labels(skewed_graph):
    """Labels generated with the paper's protocol (K=50, 10% labelled)."""
    return random_partial_labels(skewed_graph.n_vertices, 50, 0.10, seed=0)


@pytest.fixture
def tiny_edges():
    """A hand-checkable 5-vertex graph used by exact-value tests."""
    #   0 -> 1 (w=1), 0 -> 2 (w=2), 3 -> 1 (w=1), 4 -> 4 (w=5, self loop)
    return EdgeList(
        src=np.array([0, 0, 3, 4]),
        dst=np.array([1, 2, 1, 4]),
        weights=np.array([1.0, 2.0, 1.0, 5.0]),
        n_vertices=5,
    )
