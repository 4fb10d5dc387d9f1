"""Regression tests for the fixes driven by the static-analysis pass.

Each test pins a rewritten code path against the behaviour of the code it
replaced (an ``np.add.at`` oracle, or the scaled pass with an explicit
unit-scale array, which the raw-sum step elides).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gee_vectorized import (
    accumulate_edges_vectorized,
    patch_sums_vectorized,
    scatter_add,
)
from repro.eval.metrics import confusion_matrix
from repro.graph.edgelist import EdgeList
from repro.labels.propagation import propagate_labels
from repro.parallel.shm import SharedArraySet

rng = np.random.default_rng(7)


# --------------------------------------------------------------------------- #
# scatter rewrites vs the np.add.at oracle
# --------------------------------------------------------------------------- #
def test_propagation_votes_match_add_at_oracle():
    """The scatter_add vote kernel must handle duplicate (vertex, class)
    pairs exactly like the np.add.at it replaced."""
    n, n_classes, m = 40, 3, 400
    src = rng.integers(0, n, size=m).astype(np.int64)
    dst = rng.integers(0, n, size=m).astype(np.int64)
    y = rng.integers(-1, n_classes, size=n).astype(np.int64)
    w = rng.random(m)

    votes = np.zeros((n, n_classes))
    known = y[dst] != -1
    scatter_add(votes.reshape(-1), src[known] * n_classes + y[dst[known]], w[known])

    oracle = np.zeros((n, n_classes))
    np.add.at(oracle, (src[known], y[dst[known]]), w[known])
    np.testing.assert_allclose(votes, oracle)


def test_propagate_labels_end_to_end_unchanged():
    src = np.array([0, 1, 2, 3, 0, 0, 1], dtype=np.int64)
    dst = np.array([1, 2, 3, 4, 2, 4, 4], dtype=np.int64)
    edges = EdgeList(src, dst, n_vertices=5)
    labels = np.array([0, -1, -1, 1, -1], dtype=np.int64)
    out = propagate_labels(edges, labels, 2)
    assert out[0] == 0 and out[3] == 1  # clamped
    assert set(out.tolist()) <= {0, 1}  # everything reachable got a label


def test_confusion_matrix_matches_pair_counting_oracle():
    y_true = rng.integers(0, 4, size=300)
    y_pred = rng.integers(0, 5, size=300)
    table = confusion_matrix(y_true, y_pred)
    t_classes = np.unique(y_true)
    p_classes = np.unique(y_pred)
    assert table.shape == (t_classes.size, p_classes.size)
    assert table.dtype == np.int64
    for i, t in enumerate(t_classes):
        for j, p in enumerate(p_classes):
            assert table[i, j] == np.sum((y_true == t) & (y_pred == p))


# --------------------------------------------------------------------------- #
# the raw-sum step against the scaled pass
# --------------------------------------------------------------------------- #
def test_raw_sum_step_matches_unit_scales():
    n, n_classes, m = 25, 4, 200
    src = rng.integers(0, n, size=m).astype(np.int64)
    dst = rng.integers(0, n, size=m).astype(np.int64)
    weights = rng.standard_normal(m)
    labels = rng.integers(-1, n_classes, size=n).astype(np.int64)

    fast = np.zeros(n * n_classes)
    patch_sums_vectorized(fast, src, dst, weights, labels, n_classes)

    explicit = np.zeros(n * n_classes)
    accumulate_edges_vectorized(
        explicit, src, dst, weights, labels, np.ones(n), n_classes
    )
    # Bitwise identical: the scaled pass multiplies every weight by exactly
    # 1.0 and adds in the same order.
    np.testing.assert_array_equal(fast, explicit)


def test_accumulate_edges_nonunit_scales_still_applied():
    n, n_classes, m = 10, 2, 50
    src = rng.integers(0, n, size=m).astype(np.int64)
    dst = rng.integers(0, n, size=m).astype(np.int64)
    weights = rng.random(m)
    labels = rng.integers(0, n_classes, size=n).astype(np.int64)
    scales = rng.random(n) + 0.5

    scaled = np.zeros(n * n_classes)
    accumulate_edges_vectorized(scaled, src, dst, weights, labels, scales, n_classes)
    unit = np.zeros(n * n_classes)
    patch_sums_vectorized(unit, src, dst, weights, labels, n_classes)
    assert not np.allclose(scaled, unit)


# --------------------------------------------------------------------------- #
# shm leak-window hardening
# --------------------------------------------------------------------------- #
def test_allocate_failure_does_not_leak_segment(monkeypatch):
    """A failing initial copy must unlink the still-unregistered segment."""
    created = []
    from multiprocessing import shared_memory as shm_mod

    real_cls = shm_mod.SharedMemory

    class Recording(real_cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)
            self.unlinked = False

        def unlink(self):
            self.unlinked = True
            super().unlink()

    monkeypatch.setattr("repro.parallel.shm.shared_memory.SharedMemory", Recording)

    with SharedArraySet() as arrays:
        bad = np.ones((4, 4))
        with pytest.raises(ValueError):
            # shape/initial mismatch: the copy into the fresh view raises
            # after the segment exists but before it is registered.
            arrays._allocate("x", (2, 2), np.dtype(np.float64), initial=bad)
        assert len(created) == 1
        assert created[0].unlinked
        assert "x" not in arrays
        # The set is still usable afterwards.
        view = arrays.zeros("y", (3,))
        assert view.sum() == 0.0
