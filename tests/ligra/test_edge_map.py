"""Tests for the dense edge map and the engine across its four schedules."""

import threading

import numpy as np
import pytest

from repro.graph import EdgeList, erdos_renyi
from repro.ligra import EdgeMapFunction, LigraEngine, VertexSubset, edge_map_dense_serial
from repro.ligra.backends import AccumulatingEdgeMapFunction, make_backend


class DegreeCount(AccumulatingEdgeMapFunction):
    """Counts, per destination, the weighted in-degree — a pure accumulation."""

    def __init__(self, n):
        self.counts = np.zeros(n, dtype=np.float64)

    def output_arrays(self):
        return {"counts": self.counts}

    def update_batch_into(self, outputs, srcs, dsts, weights):
        np.add.at(outputs["counts"], dsts, weights)
        return None


class MarkLargeTargets(EdgeMapFunction):
    """Scalar-only function: flags destinations with id above a threshold."""

    def __init__(self, threshold):
        self.threshold = threshold
        self.hits = []

    def update(self, u, v, w):
        if v >= self.threshold:
            self.hits.append((u, v))
            return True
        return False


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(120, 700, seed=21).to_csr()


class TestSerialTraversals:
    def test_dense_visits_every_edge(self, graph):
        fn = DegreeCount(graph.n_vertices)
        edge_map_dense_serial(graph, VertexSubset.full(graph.n_vertices), fn)
        assert fn.counts.sum() == pytest.approx(graph.n_edges)

    def test_output_frontier_contains_fired_destinations(self, graph):
        fn = MarkLargeTargets(threshold=60)
        out = edge_map_dense_serial(graph, VertexSubset.full(graph.n_vertices), fn)
        assert all(v >= 60 for v in out)


class TestBackendsAgree:
    @pytest.mark.parametrize("backend", ["serial", "vectorized", "threads", "processes"])
    def test_degree_count_identical(self, graph, backend):
        reference = DegreeCount(graph.n_vertices)
        edge_map_dense_serial(graph, VertexSubset.full(graph.n_vertices), reference)

        fn = DegreeCount(graph.n_vertices)
        with LigraEngine(graph, backend=backend, n_workers=4) as engine:
            engine.edge_map(engine.full_frontier(), fn)
        np.testing.assert_allclose(fn.counts, reference.counts)

    def test_process_backend_falls_back_for_non_accumulating(self, graph):
        fn = MarkLargeTargets(threshold=200)  # never fires
        with pytest.warns(RuntimeWarning, match="falling back"):
            with LigraEngine(graph, backend="processes", n_workers=2) as engine:
                out = engine.edge_map(engine.full_frontier(), fn)
        assert len(out) == 0


class TestEngine:
    def test_mismatched_frontier_rejected(self, graph):
        engine = LigraEngine(graph)
        with pytest.raises(ValueError):
            engine.edge_map(VertexSubset.full(graph.n_vertices + 1), DegreeCount(3))

    def test_engine_from_edgelist(self):
        edges = erdos_renyi(30, 90, seed=1)
        engine = LigraEngine(edges)
        assert engine.n_vertices == 30
        assert engine.n_edges == 90

    def test_unknown_backend_name(self, graph):
        with pytest.raises(ValueError):
            make_backend("gpu")


# --------------------------------------------------------------------------- #
# Dense edge map: every schedule x frontier x function protocol
# --------------------------------------------------------------------------- #
class EdgeWeights(AccumulatingEdgeMapFunction):
    """Pure accumulation: each edge adds its weight to its destination's
    in-weight and its source's out-weight; every destination fires."""

    def __init__(self, n):
        self.in_weight = np.zeros(n)
        self.out_weight = np.zeros(n)
        self._lock = threading.Lock()

    def output_arrays(self):
        return {"in": self.in_weight, "out": self.out_weight}

    def fires(self, srcs, dsts):
        return None

    def update_batch_into(self, outputs, srcs, dsts, weights):
        n = outputs["in"].size
        outputs["in"] += np.bincount(dsts, weights, minlength=n)
        outputs["out"] += np.bincount(srcs, weights, minlength=n)
        return self.fires(srcs, dsts)

    def update_atomic(self, u, v, w):
        # The threads schedule calls this per edge from several threads.
        with self._lock:
            return self.update(u, v, w)


class FiringEdgeWeights(EdgeWeights):
    """The same accumulation; only edges with ``(u + v) % 3 == 0`` fire."""

    def fires(self, srcs, dsts):
        return (srcs + dsts) % 3 == 0


class ScalarEdgeWeights(EdgeMapFunction):
    """The firing accumulation through ``update`` alone: no block, batch or
    accumulate hook, so every schedule falls back to per-edge calls."""

    def __init__(self, n):
        self.in_weight = np.zeros(n)
        self.out_weight = np.zeros(n)
        self._lock = threading.Lock()

    def update(self, u, v, w):
        with self._lock:
            self.in_weight[v] += w
            self.out_weight[u] += w
        return (u + v) % 3 == 0


FUNCTIONS = {
    "accumulate": EdgeWeights,
    "accumulate-fired": FiringEdgeWeights,
    "scalar": ScalarEdgeWeights,
}


@pytest.fixture(scope="module")
def int_weighted_graph():
    """An ER graph with integer weights 1..4, so every sum is exact in any
    summation order and the schedules can be compared bitwise."""
    edges = erdos_renyi(120, 700, seed=21)
    weights = np.random.default_rng(21).integers(1, 5, edges.n_edges)
    return EdgeList(edges.src, edges.dst, weights, n_vertices=edges.n_vertices).to_csr()


def _frontier(graph, kind):
    """A matrix case's frontier and, independently of it, its member ids."""
    n = graph.n_vertices
    if kind == "full":
        return VertexSubset.full(n), range(n)
    if kind == "empty":
        return VertexSubset.empty(n), range(0)
    if kind == "one-vertex":
        hub = int(np.argmax(graph.out_degrees()))
        return VertexSubset(n, indices=[hub]), [hub]
    return VertexSubset(n, mask=np.arange(n) % 2 == 0), range(0, n, 2)


def _oracle(graph, members, *, all_fire):
    """Per-edge sums and fired set over exactly the out-edges of ``members``."""
    n = graph.n_vertices
    in_weight, out_weight = np.zeros(n), np.zeros(n)
    fired = np.zeros(n, dtype=bool)
    for u in members:
        for j in range(graph.indptr[u], graph.indptr[u + 1]):
            v, w = int(graph.indices[j]), float(graph.weights[j])
            in_weight[v] += w
            out_weight[u] += w
            if all_fire or (u + v) % 3 == 0:
                fired[v] = True
    return in_weight, out_weight, VertexSubset(n, mask=fired)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestDenseEdgeMapMatrix:
    """Ligra's edgeMapDense contract on every schedule: the updates applied
    are exactly the frontier's out-edges, and the returned frontier is the
    set of destinations whose update fired."""

    @pytest.mark.parametrize("function", list(FUNCTIONS))
    @pytest.mark.parametrize("frontier_kind", ["full", "empty", "one-vertex", "every-other"])
    @pytest.mark.parametrize("schedule", ["serial", "vectorized", "threads", "processes"])
    def test_sums_and_fired_frontier(self, int_weighted_graph, schedule, frontier_kind, function):
        graph = int_weighted_graph
        frontier, members = _frontier(graph, frontier_kind)
        fn = FUNCTIONS[function](graph.n_vertices)
        with LigraEngine(graph, backend=schedule, n_workers=2) as engine:
            if schedule == "processes" and function == "scalar":
                # No accumulate hook: the processes schedule runs the serial
                # traversal instead, and says so.
                with pytest.warns(RuntimeWarning, match="falling back"):
                    out = engine.edge_map(frontier, fn)
            else:
                out = engine.edge_map(frontier, fn)
        in_weight, out_weight, fired = _oracle(
            graph, members, all_fire=function == "accumulate"
        )
        assert np.array_equal(fn.in_weight, in_weight)
        assert np.array_equal(fn.out_weight, out_weight)
        assert out == fired
