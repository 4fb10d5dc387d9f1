"""Shared-memory NumPy arrays for process-based parallelism.

CPython's GIL prevents threads from running the GEE edge loop concurrently,
so true shared-memory parallelism in pure Python goes through processes.
This module wraps :mod:`multiprocessing.shared_memory` so that worker
processes can map the *same* physical buffers (edge arrays, the projection
matrix ``W`` and the embedding ``Z``) without copying — the moral equivalent
of the threads-over-one-heap model Ligra relies on.

Typical usage::

    with SharedArraySet() as shm:
        src = shm.share("src", edges.src)        # copied into shared memory
        Z = shm.zeros("Z", (n, K), np.float64)   # allocated in shared memory
        ... spawn workers, pass shm.handles() ...

Workers call :func:`attach` on each handle to get a view of the same
buffer.

:class:`OutputRing` hands out output arrays that their callers own: a
kernel writes the buffer in place, the caller keeps the array, and the
buffer is reused only once no array views it any more.
"""

from __future__ import annotations

import os
import threading
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from ..obs import metrics as obs_metrics

__all__ = [
    "OutputRing",
    "SharedArrayHandle",
    "SharedArraySet",
    "attach",
]


def _release_segments(segments: Dict[str, shared_memory.SharedMemory]) -> None:
    """Close and unlink every segment in a :class:`SharedArraySet`'s dict.

    Module-level on purpose: it is the callback of a ``weakref.finalize``
    and must not hold a reference back to the owning set (a bound method
    would keep the instance alive forever — exactly the leak the finalizer
    exists to prevent).
    """
    obs_metrics.gauge_add("shm.segments_live", -len(segments))
    for seg in segments.values():
        try:
            seg.close()
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
    segments.clear()


@dataclass(frozen=True)
class SharedArrayHandle:
    """Picklable description of a shared-memory NumPy array."""

    shm_name: str
    shape: Tuple[int, ...]
    dtype: str

    def nbytes(self) -> int:
        """Size of the underlying buffer in bytes."""
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


class SharedArraySet:
    """Owner of a collection of named shared-memory arrays.

    The creating process owns the segments: :meth:`close` (or use as a
    context manager) unlinks every segment.  Child processes must only
    *attach* (see :func:`attach`), never unlink.
    """

    def __init__(self) -> None:
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._arrays: Dict[str, np.ndarray] = {}
        self._handles: Dict[str, SharedArrayHandle] = {}
        self._closed = False
        # Interpreter-exit *and* garbage-collection safety net in one:
        # ``weakref.finalize`` runs at whichever comes first and — unlike
        # the former ``atexit.register(self.close)`` — holds no strong
        # reference to the set, so closed instances are collectable
        # immediately instead of being pinned for the life of the process
        # (one registration per pool/plan instance added up).
        self._finalizer = weakref.finalize(self, _release_segments, self._segments)

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #
    def zeros(self, name: str, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """Allocate a zero-initialised shared array under ``name``."""
        return self._allocate(name, shape, np.dtype(dtype), initial=None)

    def empty(self, name: str, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """Allocate a shared array without the explicit zero fill.

        Freshly created POSIX shared-memory segments are zero pages anyway;
        use this when every element will be overwritten (it skips one full
        pass over the buffer).
        """
        return self._allocate(name, shape, np.dtype(dtype), initial=None, fill=False)

    def share(self, name: str, array: np.ndarray) -> np.ndarray:
        """Copy ``array`` into shared memory under ``name`` and return the view."""
        array = np.ascontiguousarray(array)
        return self._allocate(name, array.shape, array.dtype, initial=array)

    def _allocate(
        self,
        name: str,
        shape: Tuple[int, ...],
        dtype: np.dtype,
        initial: Optional[np.ndarray],
        fill: bool = True,
    ) -> np.ndarray:
        if self._closed:
            raise RuntimeError("SharedArraySet is closed")
        if name in self._segments:
            raise KeyError(f"shared array {name!r} already exists")
        nbytes = max(1, int(np.prod(shape, dtype=np.int64)) * dtype.itemsize)
        seg = shared_memory.SharedMemory(create=True, size=nbytes)
        try:
            view = np.ndarray(shape, dtype=dtype, buffer=seg.buf)
            if initial is None:
                if fill:
                    view.fill(0)
            else:
                view[...] = initial
        except BaseException:
            # The segment is not yet registered in self._segments, so
            # close() would never release it: unlink it here or it leaks
            # in /dev/shm until reboot.
            seg.close()
            seg.unlink()
            raise
        self._segments[name] = seg
        self._arrays[name] = view
        self._handles[name] = SharedArrayHandle(seg.name, tuple(shape), dtype.str)
        obs_metrics.gauge_add("shm.segments_live", 1)
        if initial is not None:
            # Only staged copies count as data moved; zero/empty output
            # allocations are freshly mapped pages, not interprocess traffic.
            obs_metrics.count("shm.bytes_moved", nbytes)
        return view

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def __iter__(self) -> Iterator[str]:
        return iter(self._arrays)

    def handles(self) -> Dict[str, SharedArrayHandle]:
        """Picklable handles for all arrays, to pass to worker processes."""
        return dict(self._handles)

    # ------------------------------------------------------------------ #
    # Lifetime
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release and unlink every shared segment (idempotent).

        Detaches the exit/GC finalizer as it runs, so a closed set keeps no
        process-lifetime registrations behind and is garbage-collectable.
        """
        if self._closed:
            return
        self._closed = True
        self._arrays.clear()
        self._finalizer()
        self._handles.clear()

    def __enter__(self) -> "SharedArraySet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _RingState:
    """The part of an :class:`OutputRing` its hand-out finalizers reach.

    Kept apart from the ring, so a finalizer never keeps the ring (or the
    plan that owns it) alive.
    """

    __slots__ = ("lock", "pid", "idle", "n_buffers", "segments", "closed")

    def __init__(self) -> None:
        # Reentrant: a garbage collection inside a locked section may run a
        # hand-out finalizer in the same thread.
        self.lock = threading.RLock()
        #: Only the creating process frees buffers; a forked worker that
        #: collects an inherited result must not unlink the parent's segment.
        self.pid = os.getpid()
        #: The one buffer no array views, kept for the next take.
        self.idle = None
        #: Buffers that exist, handed out or idle.
        self.n_buffers = 0
        #: Every segment of a shared ring by name, handed out or idle.
        self.segments: Dict[str, shared_memory.SharedMemory] = {}
        self.closed = False


def _release_output(state: _RingState, buffer) -> None:
    """Finalizer of one hand-out: the last array viewing ``buffer`` died.

    It runs after that array's buffer export is released, so a segment may
    be closed here.  The buffer becomes the ring's idle one, or is freed
    when the ring already has one or is closed: a segment is closed (and
    unlinked, unless the ring's close already did), a private array is
    dropped.
    """
    if os.getpid() != state.pid:
        return
    shared = isinstance(buffer, shared_memory.SharedMemory)
    with state.lock:
        keep = not state.closed and state.idle is None
        unlink = not state.closed
        if keep:
            state.idle = buffer
        elif unlink:
            state.n_buffers -= 1
            if shared:
                del state.segments[buffer.name]
    if keep or not shared:
        return
    buffer.close()
    if unlink:
        buffer.unlink()
        obs_metrics.gauge_add("shm.segments_live", -1)


def _close_ring(state: _RingState) -> None:
    """Unlink every segment of a ring at once and free its idle buffer.

    A segment that an array still views keeps its mapping until that array
    dies; then :func:`_release_output` closes it.
    """
    if os.getpid() != state.pid:
        return
    with state.lock:
        if state.closed:
            return
        state.closed = True
        idle, state.idle = state.idle, None
    # Closed rings neither add nor drop segments, so no lock is needed here.
    for seg in state.segments.values():
        if seg is idle:
            seg.close()
        seg.unlink()
        obs_metrics.gauge_add("shm.segments_live", -1)
    state.segments.clear()


class OutputRing:
    """Reusable ``float64`` output buffers of one shape, handed out as
    arrays that their callers own.

    :meth:`take` returns a fresh array over a free buffer.  The ring reuses
    that buffer only once no array views it any more: slices and reshapes
    keep the returned array alive through ``.base``, and a
    ``weakref.finalize`` on the array's own buffer export hands the buffer
    back.  So the ring's own reference never counts, and a held result
    never changes.  The ring keeps at most one idle buffer; a buffer handed
    back while another is idle is freed.

    ``shared=False`` buffers are private NumPy allocations.
    ``shared=True`` buffers are named shared-memory segments, which forked
    workers attach through the handle :meth:`take` returns with the array.
    ``max_buffers`` caps how many buffers exist; :meth:`take` returns
    ``None`` while callers hold all of them.  :meth:`close` unlinks every
    segment at once, and a segment still viewed keeps its mapping until its
    last array dies, so a held array reads the same values after the close.
    """

    def __init__(
        self,
        shape: Tuple[int, ...],
        *,
        shared: bool = False,
        max_buffers: Optional[int] = None,
    ) -> None:
        self.shape = tuple(int(s) for s in shape)
        self.size = int(np.prod(self.shape, dtype=np.int64))
        self.shared = bool(shared)
        self.max_buffers = max_buffers
        self._state = _RingState()
        self._finalizer = weakref.finalize(self, _close_ring, self._state)

    @property
    def n_buffers(self) -> int:
        """Buffers that exist now, handed out or idle."""
        return self._state.n_buffers

    def segment_names(self) -> Tuple[str, ...]:
        """Names of the segments that exist now, handed out or idle."""
        with self._state.lock:
            return tuple(self._state.segments)

    def take(
        self, *, zeroed: bool = False
    ) -> Optional[Tuple[np.ndarray, Optional[SharedArrayHandle]]]:
        """A fresh array over a free buffer, and the handle of its segment.

        Reuses the idle buffer (filled with zeros first when ``zeroed``) or
        allocates a zero-filled one.  The handle is ``None`` on a private
        ring.  Returns ``None`` when ``max_buffers`` buffers exist and none
        is idle.
        """
        state = self._state
        with state.lock:
            if state.closed:
                raise RuntimeError("OutputRing is closed")
            buffer, state.idle = state.idle, None
            reused = buffer is not None
            if not reused:
                if self.max_buffers is not None and state.n_buffers >= self.max_buffers:
                    return None
                state.n_buffers += 1
        if not reused:
            try:
                buffer = self._allocate()
            except BaseException:
                with state.lock:
                    state.n_buffers -= 1
                raise
        source = buffer.buf if self.shared else buffer
        view = np.asarray(memoryview(source).cast("B").cast("d", self.shape))
        export = view.base
        if type(export) is not memoryview:  # pragma: no cover - NumPy guarantee
            raise RuntimeError("NumPy did not keep the output buffer in a memoryview")
        # NumPy's own memoryview dies only with the last array derived from
        # ``view``, and releases the buffer before its weakref callbacks
        # run.  Not at exit: the array may still be alive then, and the
        # ring's close has already unlinked the segment.
        weakref.finalize(export, _release_output, state, buffer).atexit = False
        if reused and zeroed:
            view.fill(0.0)
        if not self.shared:
            return view, None
        return view, SharedArrayHandle(buffer.name, self.shape, view.dtype.str)

    def _allocate(self):
        if not self.shared:
            return np.zeros(self.size, dtype=np.float64)
        seg = shared_memory.SharedMemory(create=True, size=self.size * 8)
        obs_metrics.gauge_add("shm.segments_live", 1)
        with self._state.lock:
            self._state.segments[seg.name] = seg
        return seg

    def close(self) -> None:
        """Free the idle buffer and unlink every segment (idempotent)."""
        self._finalizer()


def attach(handle: SharedArrayHandle) -> Tuple[np.ndarray, shared_memory.SharedMemory]:
    """Attach to a shared array created in another process.

    Returns the NumPy view *and* the ``SharedMemory`` object; the caller
    must keep the latter alive for as long as the view is used and call
    ``close()`` (but never ``unlink()``) when done.
    """
    # Python <3.13 registers *attached* segments with the resource tracker as
    # if this process owned them, producing spurious "leaked shared_memory"
    # warnings (and unregister KeyErrors) at shutdown even though only the
    # creating SharedArraySet owns and unlinks them.  Suppress the
    # registration for the duration of the attach; ownership bookkeeping
    # stays solely with the creator.
    from multiprocessing import resource_tracker

    original_register = resource_tracker.register

    def _no_shm_register(name, rtype):  # pragma: no cover - trivial shim
        if rtype != "shared_memory":
            original_register(name, rtype)

    resource_tracker.register = _no_shm_register
    try:
        seg = shared_memory.SharedMemory(name=handle.shm_name)
    finally:
        resource_tracker.register = original_register
    view = np.ndarray(handle.shape, dtype=np.dtype(handle.dtype), buffer=seg.buf)
    return view, seg

