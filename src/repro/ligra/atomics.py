"""Atomic update primitives over NumPy arrays.

Ligra's ``writeAdd`` is a single hardware instruction.  CPython cannot
emit it against an arbitrary buffer, so this module provides the same
*semantics* — a race-free read-modify-write on individual array elements —
using striped locks.  The paper reports that turning atomics off made no
measurable difference for GEE (§IV); the ablation bench
``bench_ablation_atomics.py`` reproduces that comparison by running the
same kernel with :class:`AtomicArray` (locked) and :class:`UnsafeArray`
(plain adds).

Two implementation notes:

* Lock striping (``n_locks`` locks shared by hashing the flat index) keeps
  the memory overhead constant, at the cost of occasional false conflicts —
  exactly like a hardware LL/SC reservation granule.
* Under the GIL, ``arr[i] += v`` on a NumPy scalar is *not* atomic (it is a
  read, an add and a write, and the GIL can be released between them), so
  the locks are genuinely required for the thread backend.
"""

from __future__ import annotations

import threading
from typing import Union

import numpy as np

__all__ = ["AtomicArray", "UnsafeArray", "make_accumulator"]

IndexLike = Union[int, tuple]


class AtomicArray:
    """A NumPy array with lock-protected element-wise atomic operations."""

    def __init__(self, array: np.ndarray, n_locks: int = 1024) -> None:
        if n_locks <= 0:
            raise ValueError("n_locks must be positive")
        self._array = array
        self._n_locks = int(n_locks)
        self._locks = [threading.Lock() for _ in range(self._n_locks)]

    # ------------------------------------------------------------------ #
    @property
    def array(self) -> np.ndarray:
        """The wrapped array (reads are always safe; writes must go through
        the atomic methods while other threads may be writing)."""
        return self._array

    @property
    def shape(self):
        return self._array.shape

    def _lock_for(self, index: IndexLike) -> threading.Lock:
        if isinstance(index, tuple):
            flat = int(np.ravel_multi_index(index, self._array.shape))
        else:
            flat = int(index)
        return self._locks[flat % self._n_locks]

    # ------------------------------------------------------------------ #
    # Ligra primitives
    # ------------------------------------------------------------------ #
    def write_add(self, index: IndexLike, value: float) -> None:
        """Atomically ``array[index] += value`` (Ligra's ``writeAdd``)."""
        with self._lock_for(index):
            self._array[index] += value

    def add_at(self, indices, values) -> None:
        """Bulk scatter-add with a single coarse lock pass.

        Used by block-level updates: each call locks once per unique stripe
        touched rather than once per element, then performs an unbuffered
        ``np.add.at``.  Semantically equivalent to a loop of
        :meth:`write_add`.
        """
        # Lock every stripe in a canonical order to avoid deadlock with
        # concurrent bulk calls.
        flat = np.ravel_multi_index(indices, self._array.shape) if isinstance(indices, tuple) else np.asarray(indices)
        stripes = np.unique(flat % self._n_locks)
        acquired = []
        try:
            for s in stripes:
                lock = self._locks[int(s)]
                lock.acquire()
                acquired.append(lock)
            # repro: ignore[no-add-at] duplicate-safe scatter under held stripe locks; cold path
            np.add.at(self._array, indices, values)
        finally:
            for lock in reversed(acquired):
                lock.release()


class UnsafeArray:
    """Same interface as :class:`AtomicArray` but with no locking.

    This is the "atomics off, unsafe updates" configuration the paper runs
    to show that the lock-free atomics are not the scaling bottleneck.
    """

    def __init__(self, array: np.ndarray) -> None:
        self._array = array

    @property
    def array(self) -> np.ndarray:
        return self._array

    @property
    def shape(self):
        return self._array.shape

    def write_add(self, index: IndexLike, value: float) -> None:
        self._array[index] += value

    def add_at(self, indices, values) -> None:
        # repro: ignore[no-add-at] the "unsafe updates" ablation is defined as the buffered scatter
        np.add.at(self._array, indices, values)


def make_accumulator(array: np.ndarray, *, atomic: bool = True, n_locks: int = 1024):
    """Factory returning an :class:`AtomicArray` or :class:`UnsafeArray`."""
    if atomic:
        return AtomicArray(array, n_locks=n_locks)
    return UnsafeArray(array)
