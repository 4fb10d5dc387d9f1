"""Tests for the dense edge map and the engine across its three schedules."""

import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph import EdgeList, Graph, erdos_renyi
from repro.ligra import EdgeMapFunction, LigraEngine, VertexSubset, edge_map_dense_serial
from repro.ligra.backends import make_backend


class DegreeCount(EdgeMapFunction):
    """Counts, per destination, the weighted in-degree — a pure accumulation."""

    def __init__(self, n):
        self.counts = np.zeros(n, dtype=np.float64)
        self._lock = threading.Lock()

    def update(self, u, v, w):
        # The threads schedule calls this per edge from several threads.
        with self._lock:
            self.counts[v] += w
        return True

    def update_batch(self, srcs, dsts, weights):
        np.add.at(self.counts, dsts, weights)
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
    @pytest.mark.parametrize("backend", ["serial", "vectorized", "threads"])
    def test_degree_count_identical(self, graph, backend):
        reference = DegreeCount(graph.n_vertices)
        edge_map_dense_serial(graph, VertexSubset.full(graph.n_vertices), reference)

        fn = DegreeCount(graph.n_vertices)
        engine = LigraEngine(graph, backend=backend, n_workers=4)
        engine.edge_map(engine.full_frontier(), fn)
        np.testing.assert_allclose(fn.counts, reference.counts)


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

    @pytest.mark.parametrize("form", ["csr", "graph", "ndarray", "scipy-sparse"])
    def test_engine_coerces_any_graph_like(self, form):
        """A ``CSRGraph`` is walked as given, a ``Graph`` lends its cached
        CSR view, and other graph-like inputs are coerced once; every form
        walks the same weighted edges."""
        edges = erdos_renyi(30, 90, seed=1, weighted=True)
        graph = Graph.coerce(edges)
        weights = edges.effective_weights()
        inputs = {
            "csr": graph.csr,
            "graph": graph,
            "ndarray": edges.as_array(),
            "scipy-sparse": sp.coo_matrix((weights, (edges.src, edges.dst)), shape=(30, 30)),
        }
        engine = LigraEngine(inputs[form])
        if form in ("csr", "graph"):
            assert engine.graph is graph.csr
        assert (engine.n_vertices, engine.n_edges) == (30, 90)
        fn = DegreeCount(engine.n_vertices)
        engine.edge_map(engine.full_frontier(), fn)
        np.testing.assert_allclose(fn.counts, np.bincount(edges.dst, weights, minlength=30))

    def test_unknown_backend_name(self, graph):
        with pytest.raises(ValueError):
            make_backend("gpu")


# --------------------------------------------------------------------------- #
# Dense edge map: every schedule x frontier x function protocol
# --------------------------------------------------------------------------- #
class EdgeWeights(EdgeMapFunction):
    """Pure accumulation: each edge adds its weight to its destination's
    in-weight and its source's out-weight; every destination fires."""

    def __init__(self, n):
        self.in_weight = np.zeros(n)
        self.out_weight = np.zeros(n)
        self._lock = threading.Lock()

    def fires(self, srcs, dsts):
        return None

    def update_batch(self, srcs, dsts, weights):
        n = self.in_weight.size
        self.in_weight += np.bincount(dsts, weights, minlength=n)
        self.out_weight += np.bincount(srcs, weights, minlength=n)
        return self.fires(srcs, dsts)

    def update(self, u, v, w):
        # The threads schedule calls this per edge from several threads.
        with self._lock:
            self.in_weight[v] += w
            self.out_weight[u] += w
        fired = self.fires(u, v)
        return True if fired is None else bool(fired)


class FiringEdgeWeights(EdgeWeights):
    """The same accumulation; only edges with ``(u + v) % 3 == 0`` fire."""

    def fires(self, srcs, dsts):
        return (srcs + dsts) % 3 == 0


class ScalarEdgeWeights(EdgeMapFunction):
    """The firing accumulation through ``update`` alone: no block or batch
    hook, so every schedule falls back to per-edge calls."""

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


#: Each matrix frontier in both of a ``VertexSubset``'s forms.  The serial
#: and threads schedules read the dense mask and the vectorized schedule the
#: sorted ids, so each schedule meets a frontier it must convert; and a full
#: frontier is recognised by its size, which each form counts its own way.
FRONTIER_KINDS = {
    "full": "mask",
    "empty": "indices",
    "one-vertex": "indices",
    "every-other": "mask",
    "full-as-indices": "indices",
    "empty-as-mask": "mask",
    "one-vertex-as-mask": "mask",
    "every-other-as-indices": "indices",
}


def _frontier(graph, kind):
    """A matrix case's frontier and, independently of it, its member ids."""
    n = graph.n_vertices
    members = kind.split("-as-")[0]
    if members == "full":
        ids = np.arange(n)
    elif members == "empty":
        ids = np.arange(0)
    elif members == "one-vertex":
        ids = np.array([int(np.argmax(graph.out_degrees()))])
    else:
        ids = np.arange(0, n, 2)
    if FRONTIER_KINDS[kind] == "indices":
        return VertexSubset(n, indices=ids), ids.tolist()
    mask = np.zeros(n, dtype=bool)
    mask[ids] = True
    return VertexSubset(n, mask=mask), ids.tolist()


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
    @pytest.mark.parametrize("frontier_kind", list(FRONTIER_KINDS))
    @pytest.mark.parametrize("schedule", ["serial", "vectorized", "threads"])
    def test_sums_and_fired_frontier(self, int_weighted_graph, schedule, frontier_kind, function):
        graph = int_weighted_graph
        frontier, members = _frontier(graph, frontier_kind)
        fn = FUNCTIONS[function](graph.n_vertices)
        out = LigraEngine(graph, backend=schedule, n_workers=2).edge_map(frontier, fn)
        in_weight, out_weight, fired = _oracle(
            graph, members, all_fire=function == "accumulate"
        )
        assert np.array_equal(fn.in_weight, in_weight)
        assert np.array_equal(fn.out_weight, out_weight)
        assert out == fired

    @pytest.mark.parametrize("n_workers", [1, 3, 8])
    def test_threads_ranges_cover_each_frontier_once(self, int_weighted_graph, n_workers):
        """The threads schedule splits the vertices into degree-balanced
        ranges, one thread each.  Whether one thread walks every range or
        more threads than CPUs share them, and however few of the ranges
        hold a frontier vertex, each frontier edge is applied once."""
        graph = int_weighted_graph
        engine = LigraEngine(graph, backend="threads", n_workers=n_workers)
        assert engine.backend.n_workers == n_workers
        for kind in FRONTIER_KINDS:
            frontier, members = _frontier(graph, kind)
            fn = FiringEdgeWeights(graph.n_vertices)
            out = engine.edge_map(frontier, fn)
            in_weight, out_weight, fired = _oracle(graph, members, all_fire=False)
            assert np.array_equal(fn.in_weight, in_weight), kind
            assert np.array_equal(fn.out_weight, out_weight), kind
            assert out == fired, kind
