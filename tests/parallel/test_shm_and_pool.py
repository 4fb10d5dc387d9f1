"""Tests for the shared-memory arrays and the fork worker pool."""

import gc
import weakref

import numpy as np
import pytest

from repro.parallel import (
    ForkWorkerPool,
    SharedArraySet,
    attach,
    effective_worker_count,
    fork_available,
    resolve_worker_count,
)


class TestSharedArraySet:
    def test_zeros_allocation(self):
        with SharedArraySet() as shm:
            z = shm.zeros("z", (4, 3))
            assert z.shape == (4, 3)
            assert np.all(z == 0)

    def test_share_copies_content(self):
        data = np.arange(6, dtype=np.float64).reshape(2, 3)
        with SharedArraySet() as shm:
            view = shm.share("d", data)
            np.testing.assert_array_equal(view, data)
            data[0, 0] = 99  # the shared copy must not alias the original
            assert view[0, 0] == 0

    def test_empty_allocation(self):
        with SharedArraySet() as shm:
            e = shm.empty("e", (8,), np.int64)
            e[:] = 7
            assert np.all(shm["e"] == 7)

    def test_duplicate_name_rejected(self):
        with SharedArraySet() as shm:
            shm.zeros("a", (2,))
            with pytest.raises(KeyError):
                shm.zeros("a", (2,))

    def test_attach_sees_same_memory(self):
        with SharedArraySet() as shm:
            owner_view = shm.zeros("x", (5,))
            handle = shm.handles()["x"]
            view, seg = attach(handle)
            owner_view[2] = 42.0
            assert view[2] == 42.0
            seg.close()

    def test_handle_nbytes(self):
        with SharedArraySet() as shm:
            shm.zeros("a", (4, 4), np.float64)
            assert shm.handles()["a"].nbytes() == 4 * 4 * 8

    def test_use_after_close_rejected(self):
        shm = SharedArraySet()
        shm.close()
        with pytest.raises(RuntimeError):
            shm.zeros("a", (1,))

    def test_close_is_idempotent(self):
        shm = SharedArraySet()
        shm.zeros("a", (2,))
        shm.close()
        shm.close()

    def test_iteration_and_contains(self):
        with SharedArraySet() as shm:
            shm.zeros("a", (1,))
            assert "a" in shm
            assert list(shm) == ["a"]

    def test_closed_set_is_collectable(self):
        """Regression: closed sets must be garbage-collectable.

        ``__init__`` used to call ``atexit.register(self.close)`` and never
        unregister, pinning every instance (and its array dict) for the
        life of the process — unbounded growth under plan churn.
        """
        shm = SharedArraySet()
        shm.zeros("a", (64,))
        shm.close()
        ref = weakref.ref(shm)
        del shm
        gc.collect()
        assert ref() is None

    def test_unclosed_set_released_on_collection(self):
        """The GC safety net unlinks segments the owner forgot to close."""
        shm = SharedArraySet()
        shm.zeros("a", (8,))
        name = shm.handles()["a"].shm_name
        del shm
        gc.collect()
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def _double(x):
    return 2 * x


def _boom():
    raise RuntimeError("intentional failure")


class TestForkWorkerPool:
    def test_inline_when_single_worker(self):
        with ForkWorkerPool(1) as pool:
            assert pool.is_inline
            assert pool.map(_double, [(i,) for i in range(5)]) == [0, 2, 4, 6, 8]

    @pytest.mark.skipif(not fork_available(), reason="fork not available")
    def test_results_in_task_order(self):
        with ForkWorkerPool(4) as pool:
            assert pool.map(_double, [(i,) for i in range(20)]) == [2 * i for i in range(20)]

    @pytest.mark.skipif(not fork_available(), reason="fork not available")
    def test_task_error_propagates(self):
        with ForkWorkerPool(2) as pool:
            with pytest.raises(RuntimeError, match="intentional failure"):
                pool.map(_boom, [()])

    def test_map_after_close_rejected(self):
        pool = ForkWorkerPool(1)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.map(_double, [(1,)])

    def test_effective_worker_count(self):
        assert effective_worker_count(1) == 1
        assert effective_worker_count(None) >= 1
        assert effective_worker_count(10_000) <= (effective_worker_count(None))
