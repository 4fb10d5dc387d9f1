"""The processes schedule survives a worker that dies holding the merge lock.

Each worker of the processes schedule adds its private partial into the
shared result under one lock.  A worker killed while it holds that lock
leaves the others blocked on it forever, so the parent must notice the
death, stop the rest and raise instead of joining them one by one.

The death is injected in a child interpreter that runs in its own session:
if the edge map hangs, the test kills that whole process group at the
bound, so a hang leaves no process and no shared segment behind.
"""

import contextlib
import os
import re
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.parallel.pool import fork_available

BOUND_S = 60
SHM = Path("/dev/shm")

SCRIPT = textwrap.dedent(
    """
    import multiprocessing as mp
    import os
    import signal

    from repro.core.gee_ligra import gee_ligra
    from repro.graph import erdos_renyi
    from repro.labels import random_partial_labels
    from repro.ligra.backends import processes

    real_worker = processes._worker_accumulate
    ctx = mp.get_context("fork")
    other_started, lock_held = ctx.Event(), ctx.Event()

    def dying_worker(fn, srcs, dsts, ws, edge_ranges, handles, lock, worker_id):
        # One write per line: a short pipe write is atomic.
        os.write(1, f"worker {os.getpid()}\\n".encode())
        if worker_id == 0:
            # Once the other worker runs, take the merge lock and die
            # without releasing it.
            other_started.wait()
            lock.acquire()
            lock_held.set()
            os.kill(os.getpid(), signal.SIGKILL)
        other_started.set()
        lock_held.wait()
        real_worker(fn, srcs, dsts, ws, edge_ranges, handles, lock, worker_id)

    processes._worker_accumulate = dying_worker
    edges = erdos_renyi(100, 1000, seed=3)
    labels = random_partial_labels(100, 4, 0.5, seed=3)
    try:
        gee_ligra(edges, labels, 4, backend="processes", n_workers=2)
    except RuntimeError as exc:
        print("raised", exc, flush=True)
    print("alive", len(mp.active_children()), flush=True)
    """
)


def _segments() -> set:
    return {name for name in os.listdir(SHM) if name.startswith("psm_")}


def _signal_group(pgid: int, sig: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pgid, sig)


@pytest.mark.skipif(not fork_available(), reason="the processes schedule forks")
@pytest.mark.skipif(not SHM.is_dir(), reason="needs /dev/shm to look for leaks")
def test_dead_worker_holding_the_merge_lock_raises():
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    before = _segments()
    proc = subprocess.Popen(
        [sys.executable, "-c", SCRIPT],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=BOUND_S)
    except subprocess.TimeoutExpired:
        # SIGTERM ends the script and its workers; the resource tracker
        # ignores it, outlives them and unlinks their shared segments.
        _signal_group(proc.pid, signal.SIGTERM)
        try:
            out, err = proc.communicate(timeout=30)
        finally:
            _signal_group(proc.pid, signal.SIGKILL)
            proc.wait()
        pytest.fail(f"the edge map hung on a dead worker for {BOUND_S} s:\n{out}\n{err}")

    assert proc.returncode == 0, err
    assert re.search(r"^raised .*worker 0 exited with status -9", out, re.M), out
    assert "alive 0" in out.splitlines()
    workers = [int(line.split()[1]) for line in out.splitlines() if line.startswith("worker ")]
    assert len(workers) == 2, out
    for pid in workers:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    assert "leaked shared_memory" not in err
    assert _segments() - before == set()
