"""Tests for the estimator's out-of-sample transform and streaming partial_fit.

The acceptance contract: ``transform`` on held-out vertices and
``partial_fit`` over streamed edge batches must match a full-batch ``fit``
embedding within 1e-8 on a seeded planted-partition graph.
"""

import numpy as np
import pytest

from repro import GraphEncoderEmbedding
from repro.backends import list_backends
from repro.graph import EdgeList, erdos_renyi, planted_partition
from repro.labels import mask_labels

ATOL = 1e-8


@pytest.fixture(scope="module")
def planted_case():
    edges, truth = planted_partition(300, 3, 0.1, 0.01, seed=5)
    y = mask_labels(truth, 0.3, seed=2)
    return edges, truth, y


def _split_edges(edges, mask, n_vertices):
    keep = EdgeList(edges.src[mask], edges.dst[mask], None, n_vertices)
    rest = EdgeList(edges.src[~mask], edges.dst[~mask], None, n_vertices)
    return keep, rest


class TestTransform:
    def test_held_out_vertices_match_full_batch_fit(self, planted_case):
        edges, _, y = planted_case
        n_held = 30
        n_core = edges.n_vertices - n_held
        # Held-out vertices are unlabelled everywhere, so the full-batch fit
        # with them present is the ground truth their transform must match.
        y_masked = y.copy()
        y_masked[n_core:] = -1
        full = GraphEncoderEmbedding(method="vectorized").fit(edges, y_masked)

        core_mask = (edges.src < n_core) & (edges.dst < n_core)
        core_edges = EdgeList(edges.src[core_mask], edges.dst[core_mask], None, n_core)
        held_edges = EdgeList(
            edges.src[~core_mask], edges.dst[~core_mask], None, edges.n_vertices
        )
        model = GraphEncoderEmbedding(3, method="vectorized").fit(
            core_edges, y_masked[:n_core]
        )
        Z_new = model.transform(held_edges)
        assert Z_new.shape == (n_held, 3)
        np.testing.assert_allclose(Z_new, full.embedding_[n_core:], atol=ATOL)

    def test_explicit_vertex_selection(self, planted_case):
        edges, _, y = planted_case
        model = GraphEncoderEmbedding(method="vectorized").fit(edges, y)
        # Recompute two fitted rows from only their incident edges.
        targets = np.array([3, 7])
        incident = np.isin(edges.src, targets) | np.isin(edges.dst, targets)
        sub = EdgeList(edges.src[incident], edges.dst[incident], None, edges.n_vertices)
        rows = model.transform(sub, vertices=targets)
        # Rows of unlabelled target vertices match the fit exactly; labelled
        # ones too, because only the target rows are read back.
        np.testing.assert_allclose(rows, model.embedding_[targets], atol=ATOL)

    def test_transform_requires_fit(self, planted_case):
        edges, _, _ = planted_case
        with pytest.raises(RuntimeError, match="not fitted"):
            GraphEncoderEmbedding().transform(edges)

    def test_transform_rejected_with_laplacian(self, planted_case):
        edges, _, y = planted_case
        model = GraphEncoderEmbedding(method="vectorized", laplacian=True).fit(edges, y)
        with pytest.raises(ValueError, match="laplacian"):
            model.transform(edges)

    def test_normalized_transform(self, planted_case):
        edges, _, y = planted_case
        n_core = edges.n_vertices - 30
        y_masked = y.copy()
        y_masked[n_core:] = -1
        core_mask = (edges.src < n_core) & (edges.dst < n_core)
        core_edges, held_edges = _split_edges(edges, core_mask, edges.n_vertices)
        model = GraphEncoderEmbedding(3, method="vectorized", normalize=True).fit(
            core_edges, y_masked
        )
        full = GraphEncoderEmbedding(method="vectorized", normalize=True).fit(
            edges, y_masked
        )
        Z_new = model.transform(held_edges, vertices=np.arange(n_core, edges.n_vertices))
        np.testing.assert_allclose(Z_new, full.embedding_[n_core:], atol=ATOL)


class TestPartialFit:
    @pytest.mark.parametrize("n_batches", [1, 4, 9])
    def test_streamed_batches_match_full_batch_fit(self, planted_case, n_batches):
        edges, _, y = planted_case
        full = GraphEncoderEmbedding(method="vectorized").fit(edges, y)
        model = GraphEncoderEmbedding(3)
        for i, ids in enumerate(np.array_split(np.arange(edges.n_edges), n_batches)):
            batch = EdgeList(edges.src[ids], edges.dst[ids], None, edges.n_vertices)
            model.partial_fit(batch, labels=y if i == 0 else None)
        np.testing.assert_allclose(model.embedding_, full.embedding_, atol=ATOL)
        np.testing.assert_allclose(model.projection_, full.projection_, atol=ATOL)

    def test_continues_from_batch_fit(self, planted_case):
        edges, _, y = planted_case
        full = GraphEncoderEmbedding(method="vectorized").fit(edges, y)
        half = edges.n_edges // 2
        first = EdgeList(edges.src[:half], edges.dst[:half], None, edges.n_vertices)
        rest = EdgeList(edges.src[half:], edges.dst[half:], None, edges.n_vertices)
        model = GraphEncoderEmbedding(3, method="vectorized").fit(first, y)
        model.partial_fit(rest)
        np.testing.assert_allclose(model.embedding_, full.embedding_, atol=ATOL)

    def test_new_vertices_grow_the_embedding(self):
        # Stream a graph whose second batch introduces new labelled vertices
        # (their edges arrive with or after their labels).
        src1, dst1 = np.array([0, 1]), np.array([1, 2])
        src2, dst2 = np.array([2, 3, 4]), np.array([3, 4, 0])
        y1 = np.array([0, 1, 0])
        y_all = np.array([0, 1, 0, 1, 0])
        model = GraphEncoderEmbedding(2)
        model.partial_fit(EdgeList(src1, dst1), labels=y1)
        assert model.embedding_.shape == (3, 2)
        model.partial_fit(EdgeList(src2, dst2), labels=y_all)
        assert model.embedding_.shape == (5, 2)
        full = GraphEncoderEmbedding(method="python").fit(
            EdgeList(np.concatenate([src1, src2]), np.concatenate([dst1, dst2])),
            y_all,
        )
        np.testing.assert_allclose(model.embedding_, full.embedding_, atol=ATOL)

    @pytest.mark.parametrize("method", sorted(list_backends()))
    def test_fit_array_kept_and_batches_update_one_array(self, planted_case, method):
        """Streaming on from a fit through any backend copies the fit's
        array once; later batches update one live array in place."""
        edges, _, y = planted_case
        parts = [
            EdgeList(edges.src[ids], edges.dst[ids], None, edges.n_vertices)
            for ids in np.array_split(np.arange(edges.n_edges), 3)
        ]
        model = GraphEncoderEmbedding(3, method=method).fit(parts[0], y)
        fitted = model.embedding_
        kept = fitted.copy()
        model.partial_fit(parts[1])
        live = model.embedding_
        model.partial_fit(parts[2], labels=y)
        assert model.embedding_ is live
        assert np.array_equal(fitted, kept)
        full = GraphEncoderEmbedding(method="vectorized").fit(edges, y)
        np.testing.assert_allclose(live, full.embedding_, atol=ATOL)

    @pytest.mark.parametrize("with_labels", [False, True])
    def test_one_edge_batch_allocates_less_than_one_embedding(self, with_labels):
        """A streamed edge moves O(n) bytes at most, never an n×K array
        (traced, not timed)."""
        import tracemalloc

        n, k = 20_000, 16
        y = np.random.default_rng(3).integers(-1, k, size=n)
        model = GraphEncoderEmbedding(k, method="vectorized")
        model.fit(erdos_renyi(n, 60_000, seed=3), y)
        one = EdgeList(np.array([1]), np.array([2]), None, n)
        model.partial_fit(one)  # copies the fit's embedding once
        tracemalloc.start()
        try:
            model.partial_fit(one, labels=y if with_labels else None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * k * 8

    def test_first_call_requires_labels_or_n_classes(self, planted_case):
        edges, _, _ = planted_case
        with pytest.raises(ValueError, match="labels"):
            GraphEncoderEmbedding().partial_fit(edges)

    def test_first_call_with_n_classes_streams_unlabelled(self, planted_case):
        # An explicit n_classes makes an unlabelled start well-defined:
        # every vertex arrives unknown, so no edge contributes yet.
        edges, _, y = planted_case
        model = GraphEncoderEmbedding(3).partial_fit(edges)
        assert model.embedding_.shape == (edges.n_vertices, 3)
        np.testing.assert_array_equal(model.embedding_, 0.0)

    def test_label_rewrites_rejected(self, planted_case):
        edges, _, y = planted_case
        model = GraphEncoderEmbedding(3).partial_fit(edges, labels=y)
        flipped = y.copy()
        flipped[0] = (y[0] + 1) % 3
        with pytest.raises(ValueError, match="must not change"):
            model.partial_fit(edges, labels=flipped)
        shorter = y[:-1]
        with pytest.raises(ValueError, match="extended"):
            model.partial_fit(edges, labels=shorter)

    def test_padding_vertices_may_be_labelled_later(self):
        # Vertex 4 exists only as id-range padding after batch 1 (no incident
        # edge); labelling it later is allowed — only edge-touched vertices
        # have their labels frozen.
        model = GraphEncoderEmbedding(3)
        model.partial_fit(
            EdgeList([0, 5], [1, 0]), labels=np.array([0, 1, -1, -1, -1, 2])
        )
        model.partial_fit(
            EdgeList([4], [0]), labels=np.array([0, 1, -1, -1, 1, 2])
        )
        full = GraphEncoderEmbedding(method="python").fit(
            EdgeList([0, 5, 4], [1, 0, 0]), np.array([0, 1, -1, -1, 1, 2])
        )
        np.testing.assert_allclose(model.embedding_, full.embedding_, atol=ATOL)

    def test_partial_fit_rejected_with_laplacian(self, planted_case):
        edges, _, y = planted_case
        model = GraphEncoderEmbedding(3, laplacian=True)
        with pytest.raises(ValueError, match="laplacian"):
            model.partial_fit(edges, labels=y)

    def test_predict_after_streaming(self, planted_case):
        edges, truth, y = planted_case
        model = GraphEncoderEmbedding(3, normalize=True)
        for i, ids in enumerate(np.array_split(np.arange(edges.n_edges), 5)):
            batch = EdgeList(edges.src[ids], edges.dst[ids], None, edges.n_vertices)
            model.partial_fit(batch, labels=y if i == 0 else None)
        pred = model.predict()
        assert np.mean(pred == truth) > 0.8


class TestFitTransform:
    def test_matches_fit_then_embedding(self, planted_case):
        edges, _, y = planted_case
        a = GraphEncoderEmbedding(method="vectorized").fit_transform(edges, y)
        b = GraphEncoderEmbedding(method="vectorized").fit(edges, y).embedding_
        np.testing.assert_allclose(a, b, atol=1e-12)


def _empty_edges(n_vertices=0):
    return EdgeList(
        np.array([], dtype=np.int64), np.array([], dtype=np.int64), None, n_vertices
    )


class TestDegenerateInputs:
    """Zero-edge graphs and empty batches through every estimator entry point."""

    @pytest.mark.parametrize(
        "method",
        ["python", "vectorized", "sparse", "parallel", "ligra-vectorized"],
    )
    def test_fit_on_zero_edge_graph(self, method):
        y = np.array([0, 1, 0, 1, -1])
        model = GraphEncoderEmbedding(method=method).fit(_empty_edges(5), y)
        assert model.embedding_.shape == (5, 2)
        np.testing.assert_array_equal(model.embedding_, 0.0)
        # Fitted state is fully usable: projections, centroids, prediction.
        assert model.projection_.shape == (5, 2)
        assert model.predict().shape == (5,)

    def test_fit_zero_edge_chunked(self):
        y = np.array([0, 1, 0, 1, -1])
        model = GraphEncoderEmbedding(method="vectorized").fit(
            _empty_edges(5), y, chunk_edges=3
        )
        np.testing.assert_array_equal(model.embedding_, 0.0)

    def test_fit_zero_vertex_graph_rejected(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            GraphEncoderEmbedding().fit(_empty_edges(0), np.array([]))

    def test_transform_empty_batch(self, planted_case):
        edges, _, y = planted_case
        model = GraphEncoderEmbedding(method="vectorized").fit(edges, y)
        out = model.transform(_empty_edges())
        assert out.shape == (0, 3)
        out = model.transform(np.empty((0, 2)))
        assert out.shape == (0, 3)
        # Selecting fitted vertices against an empty batch returns their
        # (zero-contribution) rows rather than failing.
        out = model.transform(_empty_edges(), vertices=np.array([1, 2]))
        assert out.shape == (2, 3)
        np.testing.assert_array_equal(out, 0.0)

    def test_transform_empty_batch_normalized(self, planted_case):
        edges, _, y = planted_case
        model = GraphEncoderEmbedding(method="vectorized", normalize=True).fit(edges, y)
        assert model.transform(_empty_edges()).shape == (0, 3)

    def test_partial_fit_empty_batch_is_identity(self, planted_case):
        edges, _, y = planted_case
        model = GraphEncoderEmbedding().partial_fit(edges, labels=y)
        before = model.embedding_.copy()
        model.partial_fit(_empty_edges())
        np.testing.assert_array_equal(model.embedding_, before)
        model.partial_fit(np.empty((0, 3)))
        np.testing.assert_array_equal(model.embedding_, before)

    def test_partial_fit_empty_first_batch_with_labels(self, planted_case):
        edges, _, y = planted_case
        model = GraphEncoderEmbedding().partial_fit(_empty_edges(), labels=y)
        assert model.embedding_.shape == (y.shape[0], 3)
        np.testing.assert_array_equal(model.embedding_, 0.0)
        # Streaming the real edges afterwards matches a full-batch fit.
        model.partial_fit(edges)
        full = GraphEncoderEmbedding(method="vectorized").fit(edges, y)
        np.testing.assert_allclose(model.embedding_, full.embedding_, atol=ATOL)

    def test_partial_fit_empty_first_batch_with_n_classes_only(self):
        # The regression this guards: an empty unlabelled start with an
        # explicit n_classes used to raise instead of initialising.
        model = GraphEncoderEmbedding(3).partial_fit(_empty_edges())
        assert model.is_fitted_
        assert model.embedding_.shape == (0, 3)

    def test_partial_fit_empty_batch_after_fit_continues(self, planted_case):
        edges, _, y = planted_case
        model = GraphEncoderEmbedding(method="vectorized").fit(edges, y)
        before = model.embedding_.copy()
        model.partial_fit(_empty_edges())
        np.testing.assert_allclose(model.embedding_, before, atol=1e-12)


class TestStreamingRemovals:
    """partial_fit(remove=True)."""

    def test_remove_inverts_ingestion(self, planted_case):
        edges, _, y = planted_case
        half = edges.n_edges // 2
        first = EdgeList(edges.src[:half], edges.dst[:half],
                         None, edges.n_vertices)
        second = EdgeList(edges.src[half:], edges.dst[half:],
                          None, edges.n_vertices)
        model = GraphEncoderEmbedding(3).partial_fit(first, labels=y)
        model.partial_fit(second)
        model.partial_fit(second, remove=True)
        only_first = GraphEncoderEmbedding(3).partial_fit(first, labels=y)
        np.testing.assert_allclose(
            model.embedding_, only_first.embedding_, atol=ATOL
        )

    def test_remove_weighted_batch(self):
        y = np.array([0, 1, 0, 1])
        e1 = EdgeList(np.array([0, 1]), np.array([1, 2]),
                      np.array([2.0, 3.0]), 4)
        e2 = EdgeList(np.array([2, 3]), np.array([3, 0]),
                      np.array([4.0, 5.0]), 4)
        model = GraphEncoderEmbedding(2).partial_fit(e1, labels=y)
        model.partial_fit(e2)
        model.partial_fit(e1, remove=True)
        alone = GraphEncoderEmbedding(2).partial_fit(e2, labels=y)
        np.testing.assert_allclose(model.embedding_, alone.embedding_, atol=ATOL)
