"""Unit and property tests for repro.parallel partitioning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import rmat
from repro.parallel import balanced_ranges_from_work, block_ranges


class TestBlockRanges:
    def test_exact_cover(self):
        ranges = block_ranges(10, 3)
        assert ranges == [(0, 4), (4, 7), (7, 10)]

    def test_more_parts_than_items(self):
        ranges = block_ranges(2, 5)
        covered = [i for lo, hi in ranges for i in range(lo, hi)]
        assert covered == [0, 1]
        assert len(ranges) == 5

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            block_ranges(5, 0)
        with pytest.raises(ValueError):
            block_ranges(-1, 2)

    @given(n=st.integers(0, 2000), p=st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_cover_and_balance_property(self, n, p):
        ranges = block_ranges(n, p)
        assert len(ranges) == p
        sizes = [hi - lo for lo, hi in ranges]
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
        # Contiguity: each range starts where the previous ended.
        for (a_lo, a_hi), (b_lo, b_hi) in zip(ranges, ranges[1:]):
            assert a_hi == b_lo


class TestBalancedEdgeRanges:
    """The one degree-balanced cutter, fed CSR out-degrees as Ligra's
    thread backend does."""

    def test_balances_skewed_degrees(self):
        g = rmat(10, edge_factor=8, seed=1).to_csr()
        ranges = balanced_ranges_from_work(np.diff(g.indptr), 8)
        edge_counts = [int(g.indptr[hi] - g.indptr[lo]) for lo, hi in ranges]
        assert sum(edge_counts) == g.n_edges
        # No part should carry more than ~3x its fair share plus one hub.
        fair = g.n_edges / 8
        assert max(edge_counts) <= 3 * fair + g.out_degrees().max()

    def test_covers_all_vertices(self):
        g = rmat(8, edge_factor=4, seed=2).to_csr()
        ranges = balanced_ranges_from_work(np.diff(g.indptr), 5)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == g.n_vertices
        for (a, b), (c, d) in zip(ranges, ranges[1:]):
            assert b == c

    def test_empty_graph(self):
        ranges = balanced_ranges_from_work(np.diff(np.array([0])), 3)
        assert ranges == [(0, 0)] * 3

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            balanced_ranges_from_work(np.diff(np.array([0, 1])), 0)
