"""Shared configuration, dataset loading and result emission for benchmarks.

Kept separate from ``conftest.py`` so benchmark modules can import it
directly (``from bench_config import N_CLASSES``) without colliding with the
unit-test suite's own ``conftest`` module when both directories are
collected in one pytest invocation.

Besides the pytest-benchmark suites, every ``bench_*.py`` module is directly
runnable (``python benchmarks/bench_<name>.py``) and writes a
machine-readable ``BENCH_<name>.json`` at the repository root through
:func:`write_bench_json` — the committed set of those files is the perf
baseline the CI regression gate (``benchmarks/check_regression.py``)
compares against.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

try:  # pragma: no cover - import guard, mirrors tests/conftest.py
    import repro  # noqa: F401
except ModuleNotFoundError:  # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.graph.datasets import DEFAULT_SCALE, generate_labels, load
from repro.graph.facade import Graph

#: Number of embedding dimensions used throughout (the paper uses K = 50).
N_CLASSES = 50

#: Fraction of labelled vertices (the paper labels 10% of nodes).
LABELLED_FRACTION = 0.10


def bench_scale() -> float:
    """The dataset shrink factor used by the benchmarks.

    Controlled by the ``REPRO_BENCH_SCALE`` environment variable, which is a
    multiplier on the default 1/1600 shrink factor (e.g. ``4`` gives graph
    stand-ins four times larger than the default).
    """
    multiplier = float(os.environ.get("REPRO_BENCH_SCALE", "1"))
    return DEFAULT_SCALE * multiplier


def load_bench_dataset(name: str):
    """Load a stand-in graph (as a view-cached Graph) plus paper-protocol labels.

    The returned :class:`~repro.graph.facade.Graph` has its CSR view (the
    Ligra engines' input) prebuilt, so graph loading stays out of every
    timed region (the analogue of Ligra having loaded its graph before
    timing).
    """
    edges, spec = load(name, scale=bench_scale(), seed=0)
    labels = generate_labels(
        edges.n_vertices, N_CLASSES, labelled_fraction=LABELLED_FRACTION, seed=0
    )
    graph = Graph.coerce(edges)
    graph.csr  # force the CSR view
    return graph, labels, spec


# --------------------------------------------------------------------------- #
# Machine-readable result emission (BENCH_<name>.json)
# --------------------------------------------------------------------------- #
REPO_ROOT = Path(__file__).resolve().parents[1]


def _git(*args: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def git_sha() -> Optional[str]:
    """The repository's current commit SHA, or ``None`` outside a checkout.

    Recorded in every ``BENCH_*.json`` so the cross-PR perf trajectory is
    attributable to an exact tree state (see also ``git_dirty``: a baseline
    measured from an uncommitted tree names its parent commit).
    """
    sha = _git("rev-parse", "HEAD")
    return sha or None


def git_dirty() -> Optional[bool]:
    """Whether the working tree differed from ``git_sha()`` at measurement."""
    status = _git("status", "--porcelain")
    return None if status is None else bool(status)


def bench_entry(
    record,
    *,
    backend: Optional[str] = None,
    n: Optional[int] = None,
    E: Optional[int] = None,
    K: int = N_CLASSES,
    n_workers: Optional[int] = None,
    graph: Optional[str] = None,
    layout: Optional[str] = None,
    execution_choice=None,
    **extra,
) -> Dict:
    """One JSON-able result row from a :class:`~repro.eval.timing.TimingRecord`.

    ``per_edge_ns`` is the scale-free "normalised time" the regression gate
    compares: best wall-clock divided by the directed edge count.
    ``layout`` records the plan memory layout the run executed with, and
    ``execution_choice`` an
    :class:`~repro.backends.auto.ExecutionChoice` (or its dict form) for
    ``backend="auto"`` rows — both make cross-PR comparisons like-for-like
    (``check_regression.py`` refuses to compare entries whose layouts
    differ).
    """
    entry: Dict = {
        "label": record.label,
        "graph": graph,
        "backend": backend,
        "n": None if n is None else int(n),
        "E": None if E is None else int(E),
        "K": int(K),
        "n_workers": n_workers,
        "layout": layout,
        "best_s": record.best,
        "mean_s": record.mean,
        "n_samples": record.n_samples,
        "per_edge_ns": (record.best / E * 1e9) if E else None,
    }
    if execution_choice is not None:
        entry["execution_choice"] = (
            execution_choice.to_dict()
            if hasattr(execution_choice, "to_dict")
            else execution_choice
        )
    entry.update(extra)
    return entry


#: Keys every result entry must carry (what :func:`bench_entry` emits).
#: ``check_regression.py`` silently skips rows missing the fields it
#: filters on, so a malformed entry looks "collected" while gating nothing
#: — validated here instead, at write time.
REQUIRED_ENTRY_KEYS = frozenset(
    {
        "label",
        "graph",
        "backend",
        "n",
        "E",
        "K",
        "n_workers",
        "layout",
        "best_s",
        "mean_s",
        "n_samples",
        "per_edge_ns",
    }
)

#: Allowed ``kind`` values of a gate declaration (see ``write_bench_json``).
GATE_KINDS = frozenset({"per-edge", "speedup", "informational"})


def _validate_gates(gates: List[Dict]) -> List[Dict]:
    if not isinstance(gates, (list, tuple)) or not gates:
        raise ValueError(
            "write_bench_json requires a non-empty gates=[...] list: every "
            "benchmark must declare which regression gate its numbers feed "
            "(use kind='informational' for ablation studies CI does not "
            "compare)"
        )
    for gate in gates:
        if not isinstance(gate, dict) or gate.get("kind") not in GATE_KINDS:
            raise ValueError(
                f"each gate must be a dict with kind in {sorted(GATE_KINDS)}; "
                f"got {gate!r}"
            )
    return list(gates)


def _validate_entries(entries: List[Dict]) -> None:
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"entry {i} is not a dict: {entry!r}")
        missing = sorted(REQUIRED_ENTRY_KEYS - set(entry))
        if missing:
            raise ValueError(
                f"entry {i} ({entry.get('label')!r}) is missing required "
                f"schema keys {missing}; build entries with bench_entry()"
            )


def bench_environment() -> Dict:
    """The library/toolchain fingerprint embedded in every ``BENCH_*.json``.

    Per-edge numbers are only comparable between runs that executed the
    same code paths: a numpy upgrade changes the scatter kernels, and a
    different CPU count changes what ``backend="auto"`` even considers.  ``check_regression.py`` prints a warning — never a
    failure — when baseline and current disagree on any of these.
    """
    import shutil

    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:  # pragma: no cover - scipy is a baked-in dep
        scipy_version = None

    compiler = next(
        (name for name in ("cc", "gcc", "clang") if shutil.which(name)), None
    )
    return {
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "compiler": compiler,
    }


def run_telemetry() -> Optional[Dict]:
    """This process's obs telemetry summary, or ``None`` when not tracing.

    When the benchmark ran under ``REPRO_TRACE`` (or an explicit
    ``obs.start_trace()``/``obs.enable()``), this is the compact summary —
    top-3 spans by inclusive time plus the counter totals — that
    :func:`write_bench_json` embeds next to the numbers it explains.
    """
    from repro import obs

    if not obs.enabled() and not obs.snapshot():
        return None
    return obs.telemetry(top=3)


def write_bench_json(
    name: str,
    entries: List[Dict],
    *,
    gates: List[Dict],
    extra: Optional[Dict] = None,
    telemetry: Optional[Dict] = None,
) -> Path:
    """Write ``BENCH_<name>.json`` and return its path.

    The file goes to the repository root by default (the committed baseline
    location); set ``REPRO_BENCH_OUTPUT_DIR`` to write elsewhere — the CI
    regression gate uses that to produce a fresh measurement without
    clobbering the checked-out baseline it compares against.

    ``gates`` is required: a list of gate declarations recording how these
    numbers are (or deliberately are not) compared across runs.  Each gate
    is a dict with ``kind``:

    * ``"per-edge"`` — ``check_regression.py --backend B --factor F``
      compares ``per_edge_ns`` against a committed baseline file;
    * ``"speedup"`` — ``check_regression.py --speedup FAST:SLOW`` enforces
      a within-file wall-clock ratio floor;
    * ``"informational"`` — measured reference rows with no CI comparison
      (ablation studies); include a ``reason``.

    Entries are validated against :data:`REQUIRED_ENTRY_KEYS` so a
    hand-rolled row cannot silently produce a file the regression harness
    skips.

    ``telemetry`` optionally embeds the run's :mod:`repro.obs` summary
    (defaulting to :func:`run_telemetry`, which is ``None`` unless the
    process traced) — an additive key, so existing baselines stay valid
    and the regression gate ignores it.
    """
    _validate_entries(entries)
    if telemetry is None:
        telemetry = run_telemetry()
    payload: Dict = {
        "gates": _validate_gates(gates),
        "schema": 1,
        "benchmark": name,
        "git_sha": git_sha(),
        "git_dirty": git_dirty(),
        "bench_scale": bench_scale(),
        "bench_scale_multiplier": float(os.environ.get("REPRO_BENCH_SCALE", "1")),
        "n_classes": N_CLASSES,
        "labelled_fraction": LABELLED_FRACTION,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "environment": bench_environment(),
        "entries": entries,
    }
    if telemetry is not None:
        payload["telemetry"] = telemetry
    if extra:
        payload.update(extra)
    out_dir = Path(os.environ.get("REPRO_BENCH_OUTPUT_DIR", REPO_ROOT))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{name}.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(f"wrote {path} ({len(entries)} entries)")
    return path
