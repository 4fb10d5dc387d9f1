"""Unit tests for repro.ligra.atomics, including a real multi-thread race test."""

import threading

import numpy as np
import pytest

from repro.ligra import AtomicArray, UnsafeArray, make_accumulator


class TestAtomicArray:
    def test_write_add_scalar_index(self):
        a = AtomicArray(np.zeros(4))
        a.write_add(2, 1.5)
        a.write_add(2, 0.5)
        assert a.array[2] == pytest.approx(2.0)

    def test_write_add_tuple_index(self):
        a = AtomicArray(np.zeros((3, 3)))
        a.write_add((1, 2), 4.0)
        assert a.array[1, 2] == pytest.approx(4.0)

    def test_add_at_bulk(self):
        a = AtomicArray(np.zeros((4, 2)))
        rows = np.array([0, 0, 3])
        cols = np.array([1, 1, 0])
        a.add_at((rows, cols), np.array([1.0, 2.0, 5.0]))
        assert a.array[0, 1] == pytest.approx(3.0)
        assert a.array[3, 0] == pytest.approx(5.0)

    def test_invalid_lock_count(self):
        with pytest.raises(ValueError):
            AtomicArray(np.zeros(3), n_locks=0)

    def test_concurrent_write_add_is_race_free(self):
        """The Figure-1 scenario: many threads adding into the same entries."""
        arr = np.zeros(8)
        atomic = AtomicArray(arr, n_locks=4)
        n_threads, n_iter = 8, 2000

        def work():
            for i in range(n_iter):
                atomic.write_add(i % 8, 1.0)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert arr.sum() == pytest.approx(n_threads * n_iter)


class TestUnsafeArray:
    def test_same_interface(self):
        u = UnsafeArray(np.zeros(3))
        u.write_add(0, 2.0)
        u.add_at(np.array([0, 0]), np.array([1.0, 1.0]))
        assert u.array[0] == pytest.approx(4.0)
        assert u.shape == (3,)


class TestFactory:
    def test_make_accumulator_atomic(self):
        acc = make_accumulator(np.zeros(2), atomic=True)
        assert isinstance(acc, AtomicArray)

    def test_make_accumulator_unsafe(self):
        acc = make_accumulator(np.zeros(2), atomic=False)
        assert isinstance(acc, UnsafeArray)
