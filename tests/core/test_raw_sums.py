"""RawSums: the one O(Δ) state behind ``partial_fit`` and IncrementalEmbedding.

Signed edge batches (inserts, weight bumps, deletions, self loops,
unlabelled endpoints, rows past the original vertex set) must compose to
the dense per-class sums an edge loop computes, with ``Z`` equal to
``S·diag(1/n_c)`` on every row; the freeze rule rejects relabelling a read
vertex only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.raw_sums import RawSums
from repro.core.validation import class_counts, inverse_class_counts

ATOL = 1e-10
K = 3


def _dense_patch(S, src, dst, delta, labels):
    for u, v, w in zip(src, dst, delta):
        if labels[v] >= 0:
            S[u, labels[v]] += w
        if labels[u] >= 0:
            S[v, labels[u]] += w


def _assert_consistent(sums, expected):
    np.testing.assert_allclose(sums.S, expected, atol=ATOL, rtol=0)
    inv = inverse_class_counts(class_counts(sums.labels, sums.n_classes))
    np.testing.assert_array_equal(sums.Z, sums.S * inv)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_signed_patch_stream_matches_dense_sums(seed):
    rng = np.random.default_rng(seed)
    n = 30
    labels = rng.integers(-1, K, size=n).astype(np.int64)
    sums = RawSums(K)
    sums.reset(labels)
    expected = np.zeros((n, K))
    for batch in (1, 5, 11, 5000, 3, *rng.integers(1, 9, size=8)):
        src = rng.integers(0, n, size=batch).astype(np.int64)
        dst = rng.integers(0, n, size=batch).astype(np.int64)
        delta = rng.uniform(-1.5, 2.0, size=batch)
        sums.apply(src, dst, delta)
        _dense_patch(expected, src, dst, delta, labels)
        _assert_consistent(sums, expected)


def test_empty_delta_is_a_no_op():
    sums = RawSums(K)
    sums.reset(np.array([0, 1, -1, 2]))
    sums.apply(np.array([0]), np.array([1]), np.array([2.0]))
    before = (sums.S.copy(), sums.Z.copy(), sums.read.copy())
    empty = np.empty(0, dtype=np.int64)
    sums.apply(empty, empty, np.empty(0))
    for kept, now in zip(before, (sums.S, sums.Z, sums.read)):
        np.testing.assert_array_equal(now, kept)


def test_rows_past_the_graph_are_patched():
    """Vertices grown since the state was set: every delta lands."""
    n, n_grown = 10, 14
    y = np.random.default_rng(4).integers(0, K, size=n_grown)
    sums = RawSums(K)
    sums.reset(y[:n])
    sums.set_labels(y)
    src = np.array([0, 10, 13, 4, 12])
    dst = np.array([11, 12, 2, 13, 12])
    delta = np.array([1.0, -0.5, 2.0, 0.25, 1.5])
    sums.apply(src, dst, delta)
    expected = np.zeros((n_grown, K))
    _dense_patch(expected, src, dst, delta, y)
    _assert_consistent(sums, expected)


def test_freeze_rule_guards_read_vertices_only():
    sums = RawSums(K)
    sums.reset(np.array([0, 1, -1, 2]))
    sums.grow(6)
    sums.apply(np.array([0, 4]), np.array([1, 0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="must not change"):
        sums.set_labels(np.array([0, 1, -1, 2, 1, -1]))
    with pytest.raises(ValueError, match="extended"):
        sums.set_labels(np.array([0, 1, -1]))
    # Vertices 2 and 5 are unread: labelling them rescales their classes.
    sums.set_labels(np.array([0, 1, 1, 2, -1, 0]))
    expected = np.zeros((6, K))
    _dense_patch(expected, [0, 4], [1, 0], [1.0, 2.0], sums.labels)
    _assert_consistent(sums, expected)
    # From an exact embedding every vertex counts as read.
    sums.reset(sums.labels, sums.Z.copy())
    with pytest.raises(ValueError, match="must not change"):
        sums.set_labels(np.array([0, 1, 1, 2, -1, 1]))


def test_patch_rewrites_only_the_slots_it_scattered_into():
    """A patch moves ``Z`` only at the slots ``S[u, Y[v]]`` and ``S[v, Y[u]]``
    it added to, each to ``S·(1/n_c)`` bit for bit; every other slot keeps
    its bits, in the touched rows too.  Both endpoints of every edge are
    marked read, a labelled partner or not."""
    rng = np.random.default_rng(5)
    n = 40
    labels = rng.integers(-1, K, size=n).astype(np.int64)
    src = rng.integers(0, n, size=25)
    dst = rng.integers(0, n, size=25)
    delta = rng.uniform(-1.0, 1.0, size=25)
    written = np.zeros((n, K), dtype=bool)
    for u, v in zip(src, dst):
        if labels[v] >= 0:
            written[u, labels[v]] = True
        if labels[u] >= 0:
            written[v, labels[u]] = True
    inv = inverse_class_counts(class_counts(labels, K))

    sums = RawSums(K)
    sums.reset(labels, rng.random((n, K)))  # S = Z·n_c, so S·(1/n_c) != Z in places
    before = sums.Z.copy()
    touched = np.unique(np.concatenate((src, dst)))
    assert np.any((sums.S * inv != before)[touched] & ~written[touched])  # the check can fail
    sums.apply(src, dst, delta)
    expected = np.where(written, sums.S * inv, before)
    assert np.array_equal(sums.Z.view(np.uint64), expected.view(np.uint64))

    sums.reset(labels)
    sums.apply(src, dst, delta)
    np.testing.assert_array_equal(sums.read, np.isin(np.arange(n), touched))
