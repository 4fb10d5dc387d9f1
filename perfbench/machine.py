"""Facts about the machine and the tree a run measured, and its bandwidth.

* :func:`provenance` — git SHA and dirty flag (``None`` outside a git
  checkout), ``nproc``, library versions and the last-level cache size,
  recorded with every result;
* :func:`stream_triad` — an in-process STREAM-triad baseline
  (``a = b + s*c``) that the edge pass's computed bandwidth is compared to;
* :class:`Calibration` — a fixed kernel timing how fast the machine runs;
* :func:`peak_rss_mb` — the process's peak resident set size.
"""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import time
from pathlib import Path
from typing import Optional

import numpy as np

#: Each triad array is 400 MiB, so the three together (1.2 GiB) are four
#: times the 300 MiB LLC this benchmark was sized on.  STREAM's run rules
#: ask for four times the LLC *per array* (3.6 GiB in all); that is more
#: memory than a run may take next to its workload, and a cyclic stream
#: through four times the cache already misses on every line.
TRIAD_ARRAY_BYTES = 400 << 20
#: Elements per triad block: ``s*c`` goes through a 256 KiB scratch that
#: stays in L2, so DRAM sees only the two reads and one write of STREAM.
_TRIAD_BLOCK = 1 << 15
TRIAD_REPEATS = 5


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def llc_bytes() -> Optional[int]:
    """Size of the largest CPU cache the kernel reports, or ``None``."""
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    best = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        size = int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)
        best = size if best is None else max(best, size)
    return best


def _git(root: Path, *args: str) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def provenance(root: Path, seed: int) -> dict:
    """Where a result came from; ``git_sha`` is ``None`` outside a git tree."""
    import scipy

    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    llc = llc_bytes()
    return {
        "git_sha": sha.strip() if sha else None,
        "git_dirty": None if status is None else bool(status.strip()),
        "seed": seed,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "llc_mib": None if llc is None else llc / (1 << 20),
        "machine": platform.machine(),
    }


def stream_triad(array_bytes: int = TRIAD_ARRAY_BYTES, repeats: int = TRIAD_REPEATS) -> dict:
    """Best single-core triad bandwidth over ``repeats`` passes, in GB/s.

    Counts STREAM's 24 bytes per element (two reads, one write).  The
    arrays are released before returning.
    """
    n = array_bytes // 8
    a = np.zeros(n)
    b = np.full(n, 1.0)
    c = np.full(n, 2.0)
    scratch = np.empty(_TRIAD_BLOCK)
    best = float("inf")
    for _ in range(repeats + 1):  # the first pass only warms the mappings
        t0 = time.perf_counter()
        for lo in range(0, n, _TRIAD_BLOCK):
            hi = min(lo + _TRIAD_BLOCK, n)
            tmp = scratch[: hi - lo]
            np.multiply(c[lo:hi], 3.0, out=tmp)
            np.add(b[lo:hi], tmp, out=a[lo:hi])
        best = min(best, time.perf_counter() - t0)
    if a[n // 2] != 7.0:
        raise RuntimeError("STREAM triad produced a wrong sum")
    del a, b, c
    return {
        "gbps": 3 * n * 8 / best / 1e9,
        "array_mib": array_bytes / (1 << 20),
        "arrays": 3,
        "repeats": repeats,
    }


#: What :class:`Calibration` takes on the reference machine (the 2-vCPU
#: Xeon VM with a 300 MiB LLC the benchmark was written on, host quiet).
CALIBRATION_REFERENCE_S = 0.050


class Calibration:
    """A fixed ~50 ms kernel whose time says how fast the machine runs now.

    The host of a shared VM changes speed by up to 1.5x over minutes, which
    moves every wall-clock time a run measures.  The kernel does what the
    edge passes do, on fixed inputs: it faults in fresh pages, gathers at
    random and scatter-adds with ``np.bincount``.  Timed after each set-up
    and op, it lets a run report its times at the reference machine's
    speed: ``seconds * CALIBRATION_REFERENCE_S / median calibration``.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.table = rng.random(1 << 21)
        self.gather = rng.integers(0, 1 << 21, size=1 << 21)
        self.bins = rng.integers(0, 1 << 20, size=1 << 21)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        fresh = np.empty(8 << 20)
        fresh.fill(1.0)
        np.bincount(self.bins, weights=self.table[self.gather], minlength=1 << 20)
        del fresh
        return time.perf_counter() - t0


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
