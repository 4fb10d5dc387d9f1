"""Tests for the high-level API, the Laplacian variant and the refinement loop."""

import numpy as np
import pytest

from repro.core import (
    GraphEncoderEmbedding,
    gee_laplacian,
    gee_python,
    gee_unsupervised,
    gee_vectorized,
    laplacian_reweight,
    weighted_total_degrees,
)
from repro.eval.metrics import adjusted_rand_index, best_match_accuracy
from repro.graph import EdgeList, erdos_renyi, planted_partition
from repro.labels import mask_labels, random_partial_labels


class TestLaplacianVariant:
    def test_weighted_total_degrees(self, tiny_edges):
        deg = weighted_total_degrees(tiny_edges)
        # vertex 0: out 1+2=3; vertex 4: self loop counts out 5 and in 5.
        assert deg[0] == pytest.approx(3.0)
        assert deg[4] == pytest.approx(10.0)

    def test_reweight_formula(self):
        edges = EdgeList([0], [1], weights=[4.0], n_vertices=2)
        rw = laplacian_reweight(edges)
        # d_0 = d_1 = 4 -> new weight = 4 / sqrt(16) = 1.
        assert rw.effective_weights()[0] == pytest.approx(1.0)

    def test_laplacian_embedding_differs_from_adjacency(self, small_sbm_partial):
        edges, _, y = small_sbm_partial
        adj = gee_vectorized(edges, y).embedding
        lap = gee_laplacian(edges, y).embedding
        assert not np.allclose(adj, lap)

    def test_laplacian_composes_with_any_implementation(self, small_sbm_partial):
        edges, _, y = small_sbm_partial
        a = gee_laplacian(edges, y, implementation=gee_vectorized)
        b = gee_laplacian(edges, y, implementation=gee_python)
        np.testing.assert_allclose(a.embedding, b.embedding, atol=1e-9)
        assert a.method.endswith("+laplacian")


class TestUnsupervisedRefinement:
    def test_recovers_planted_partition(self, small_sbm):
        edges, truth = small_sbm
        result = gee_unsupervised(edges, 3, seed=0, max_iterations=15)
        assert adjusted_rand_index(truth, result.labels) > 0.8

    def test_converges_and_reports_history(self, small_sbm):
        edges, _ = small_sbm
        result = gee_unsupervised(edges, 3, seed=1)
        assert result.n_iterations == len(result.history)
        assert result.embedding.shape == (edges.n_vertices, 3)
        assert result.final is not None

    def test_warm_start_with_initial_labels(self, small_sbm):
        edges, truth = small_sbm
        noisy = truth.copy()
        rng = np.random.default_rng(0)
        flip = rng.choice(truth.size, size=truth.size // 10, replace=False)
        noisy[flip] = rng.integers(0, 3, size=flip.size)
        result = gee_unsupervised(edges, 3, initial_labels=noisy, seed=0, max_iterations=10)
        assert adjusted_rand_index(truth, result.labels) > 0.9

    def test_invalid_parameters(self, small_sbm):
        edges, _ = small_sbm
        with pytest.raises(ValueError):
            gee_unsupervised(edges, 0)
        with pytest.raises(ValueError):
            gee_unsupervised(edges, 3, convergence_fraction=0.0)
        with pytest.raises(ValueError):
            gee_unsupervised(edges, 3, initial_labels=np.zeros(3, dtype=int))


class TestGraphEncoderEmbeddingAPI:
    @pytest.mark.parametrize(
        "method,kwargs",
        [
            ("vectorized", {}),
            ("ligra", {}),
            ("ligra-threads", {"n_workers": 2}),
            ("parallel", {"n_workers": 2}),
        ],
    )
    def test_fit_produces_consistent_embeddings(self, small_sbm_partial, method, kwargs):
        edges, truth, y = small_sbm_partial
        model = GraphEncoderEmbedding(method=method, **kwargs).fit(edges, y)
        assert model.embedding_.shape == (edges.n_vertices, 3)
        reference = GraphEncoderEmbedding(method="python").fit(edges, y)
        np.testing.assert_allclose(model.embedding_, reference.embedding_, atol=1e-9)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            GraphEncoderEmbedding(method="gpu")

    def test_n_workers_rejected_for_serial_methods(self):
        # Capability validation happens at construction, not silently at fit.
        with pytest.raises(ValueError, match="n_workers"):
            GraphEncoderEmbedding(method="vectorized", n_workers=2)

    def test_unknown_backend_option_rejected(self):
        with pytest.raises(TypeError, match="unsupported option"):
            GraphEncoderEmbedding(method="vectorized", bogus_option=1)

    def test_unfitted_access_raises(self):
        model = GraphEncoderEmbedding()
        with pytest.raises(RuntimeError, match="not fitted"):
            _ = model.embedding_

    def test_predict_classifies_unlabelled_vertices(self, small_sbm):
        edges, truth = small_sbm
        y = mask_labels(truth, 0.2, seed=0)
        model = GraphEncoderEmbedding(method="vectorized", normalize=True).fit(edges, y)
        pred = model.predict()
        # Known labels are passed through unchanged.
        known = y != -1
        np.testing.assert_array_equal(pred[known], y[known])
        # Overall accuracy against the planted truth should be high.
        assert np.mean(pred == truth) > 0.85

    def test_predict_subset_of_vertices(self, small_sbm_partial):
        edges, _, y = small_sbm_partial
        model = GraphEncoderEmbedding(method="vectorized").fit(edges, y)
        subset = np.array([0, 5, 10])
        assert model.predict(subset).shape == (3,)

    def test_fit_unsupervised_requires_n_classes(self, small_sbm):
        edges, _ = small_sbm
        with pytest.raises(ValueError, match="n_classes"):
            GraphEncoderEmbedding().fit_unsupervised(edges)

    def test_fit_unsupervised_recovers_structure(self, small_sbm):
        edges, truth = small_sbm
        model = GraphEncoderEmbedding(n_classes=3).fit_unsupervised(edges, seed=0)
        assert best_match_accuracy(truth, model.labels_) > 0.8

    def test_laplacian_flag(self, small_sbm_partial):
        edges, _, y = small_sbm_partial
        plain = GraphEncoderEmbedding(method="vectorized").fit(edges, y)
        lap = GraphEncoderEmbedding(method="vectorized", laplacian=True).fit(edges, y)
        assert not np.allclose(plain.embedding_, lap.embedding_)

    def test_timings_exposed(self, small_sbm_partial):
        edges, _, y = small_sbm_partial
        model = GraphEncoderEmbedding(method="vectorized").fit(edges, y)
        assert "total" in model.timings_

    def test_class_centroids_shape(self, small_sbm_partial):
        edges, _, y = small_sbm_partial
        model = GraphEncoderEmbedding(method="vectorized").fit(edges, y)
        assert model.class_centroids().shape == (3, 3)


class TestEmbeddingQualitySemiSupervised:
    """E8 (part): GEE separates SBM communities with partial supervision."""

    def test_within_class_distance_smaller(self, small_sbm):
        from repro.eval.metrics import within_between_separation

        edges, truth = small_sbm
        y = mask_labels(truth, 0.3, seed=1)
        res = gee_vectorized(edges, y)
        separation = within_between_separation(res.embedding, truth)
        assert separation > 1.5

    def test_more_labels_do_not_hurt(self, small_sbm):
        edges, truth = small_sbm
        accs = []
        for frac in (0.05, 0.3):
            y = mask_labels(truth, frac, seed=2)
            model = GraphEncoderEmbedding(method="vectorized", normalize=True).fit(edges, y)
            accs.append(np.mean(model.predict() == truth))
        assert accs[1] >= accs[0] - 0.05
