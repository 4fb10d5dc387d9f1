"""Unit tests for repro.ligra.vertex_subset."""

import numpy as np
import pytest

from repro.ligra import VertexSubset


class TestConstruction:
    def test_empty(self):
        s = VertexSubset.empty(10)
        assert len(s) == 0
        assert not s

    def test_full(self):
        s = VertexSubset.full(10)
        assert len(s) == 10
        assert 7 in s

    def test_indices_deduplicate(self):
        s = VertexSubset(10, indices=[1, 1, 2, 2, 3])
        assert len(s) == 3
        assert list(s) == [1, 2, 3]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            VertexSubset(5, indices=np.array([7]))

    def test_mask_shape_checked(self):
        with pytest.raises(ValueError):
            VertexSubset(5, mask=np.ones(6, dtype=bool))

    def test_both_representations_rejected(self):
        with pytest.raises(ValueError):
            VertexSubset(5, indices=np.array([0]), mask=np.ones(5, dtype=bool))


class TestRepresentations:
    def test_indices_to_mask(self):
        s = VertexSubset(6, indices=np.array([1, 4]))
        mask = s.mask()
        assert mask.tolist() == [False, True, False, False, True, False]

    def test_mask_to_indices(self):
        mask = np.array([True, False, True])
        s = VertexSubset(3, mask=mask)
        np.testing.assert_array_equal(s.indices(), [0, 2])

    def test_membership_out_of_range(self):
        s = VertexSubset.full(4)
        assert -1 not in s
        assert 4 not in s
