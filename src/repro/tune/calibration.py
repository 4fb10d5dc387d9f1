"""One-time per-machine micro-calibration of the execution cost model.

The adaptive engine (``backend="auto"``, ``layout="auto"``) needs to know
what *this* machine pays for the competing execution strategies: the random
scatter of the arrival-order kernel, the near-sequential segment-sum scatter
of the sorted layout, the scipy CSR matmul, the interpreted loop,
and the fork-pool dispatch.  Rather than measuring abstract primitives and
hoping they compose, :func:`calibrate` times the **actual plan-path
kernels** on small synthetic Erdős–Rényi graphs at three ``(n, E)`` design
points and fits, per ``backend:layout`` configuration, the three-term
model::

    cost(n, E, K) = fixed + per_edge · E + per_cell · n·K

(``fixed`` captures NumPy call overhead, ``per_edge`` the O(E) gather +
scatter stream, ``per_cell`` the O(nK) output traffic).  The fit is a
non-negative least squares over the design points, so predictions
extrapolate sanely to benchmark-scale graphs.

The result persists to ``~/.cache/repro/tune.json`` (override the directory
with ``REPRO_TUNE_DIR``, or relocate the whole cache tree with
``XDG_CACHE_HOME``) and is loaded once per process by
:func:`repro.tune.get_cost_model`.  A missing or stale cache degrades to
built-in default coefficients with a warning — never an error.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "SCHEMA_VERSION",
    "calibrate",
    "calibration_staleness",
    "load_calibration",
    "save_calibration",
    "tune_cache_path",
]

#: Bumped whenever the coefficient model or the measured configuration set
#: changes shape; caches written under another schema are stale.
SCHEMA_VERSION = 2

#: Embedding dimensionality used for the calibration runs (coefficients are
#: per *cell*, so the fit transfers to other K).
K_CAL = 16

#: ``(n_vertices, n_edges)`` design points.  Chosen so the three model terms
#: are separately identifiable (A→B varies E at fixed n·K, B→C varies n·K at
#: fixed E) *and* so the grid reaches benchmark scale (D anchors the fit
#: where the layout rankings actually matter — rankings measured only on
#: cache-resident toys do not extrapolate).  A full calibration stays a few
#: seconds.
DESIGN_POINTS: Tuple[Tuple[int, int], ...] = (
    (1 << 11, 1 << 13),
    (1 << 11, 1 << 17),
    (1 << 16, 1 << 17),
    (1 << 16, 1 << 20),
)

#: The ``backend:layout`` configurations the model can choose between.
#: ``python`` is measured on the smallest design point only (its per-edge
#: cost is hundreds of ns; one point pins it).  ``parallel:sorted`` is
#: measured only when more than one CPU is available.
SERIAL_CONFIGS: Tuple[Tuple[str, str], ...] = (
    ("vectorized", "none"),
    ("vectorized", "sorted"),
    ("sparse", "none"),
)


def tune_cache_path() -> Path:
    """Where the calibration artifact lives on this machine.

    ``REPRO_TUNE_DIR`` overrides the directory outright; otherwise
    ``$XDG_CACHE_HOME/repro`` (defaulting to ``~/.cache/repro``).
    """
    override = os.environ.get("REPRO_TUNE_DIR")
    if override:
        return Path(override) / "tune.json"
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "tune.json"


def _best_seconds(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _design_graphs():
    """The calibration graphs (built once per calibrate() call)."""
    from ..graph.facade import Graph
    from ..graph.generators import erdos_renyi

    rng = np.random.default_rng(0)
    cases = []
    for n, e in DESIGN_POINTS:
        edges = erdos_renyi(n, e, seed=7)
        labels = rng.integers(0, K_CAL, size=n).astype(np.int64)
        cases.append((Graph.coerce(edges), labels))
    return cases


def _fit_coefficients(samples: List[Tuple[int, int, float]]) -> Dict[str, float]:
    """Fit ``fixed + a·E + b·nK`` to samples, minimising *relative* error.

    An absolute least-squares fit is dominated by the largest design point
    (its residual is thousands of times the smallest point's), which wrecks
    the ranking accuracy on small graphs; dividing each equation by its
    measured time makes every scale count equally, so the model's
    predictions are proportionally trustworthy from toy graphs to the
    benchmark anchor.  Coefficients are clipped non-negative.
    """
    A = np.array([[1.0, e, n * K_CAL] for n, e, _ in samples], dtype=np.float64)
    t = np.array([s for _, _, s in samples], dtype=np.float64)
    scale = np.maximum(t, 1e-12)
    coeffs, *_ = np.linalg.lstsq(A / scale[:, None], t / scale, rcond=None)
    fixed, per_edge, per_cell = np.maximum(coeffs, 0.0)
    return {
        "fixed_s": float(fixed),
        "per_edge_s": float(per_edge),
        "per_cell_s": float(per_cell),
    }


def calibrate(
    *, repeats: int = 3, include_parallel: Optional[bool] = None
) -> Dict:
    """Measure this machine and return the calibration payload.

    Times each ``backend:layout`` configuration's warm plan path on the
    design graphs and fits per-configuration coefficients; additionally
    measures the fork-pool dispatch overhead when more than one CPU is
    available (``include_parallel`` forces either way).  Pure measurement —
    call :func:`save_calibration` to persist.
    """
    from ..backends import get_backend

    if include_parallel is None:
        include_parallel = (os.cpu_count() or 1) > 1

    cases = _design_graphs()
    coefficients: Dict[str, Dict[str, float]] = {}

    for backend_name, layout in SERIAL_CONFIGS:
        backend = get_backend(backend_name)
        samples = []
        for graph, labels in cases:
            plan = graph.plan(
                K_CAL, layout=None if layout == "none" else layout
            )
            backend.embed_with_plan(plan, labels)  # warm: compile + caches
            best = _best_seconds(
                lambda b=backend, p=plan, y=labels: b.embed_with_plan(p, y), repeats
            )
            samples.append((graph.n_vertices, graph.n_edges, best))
        coefficients[f"{backend_name}:{layout}"] = _fit_coefficients(samples)

    # The sharded path, measured at one shard: with s=1 the shard cost
    # formula collapses to exactly ``fixed + per_edge·E + per_cell·nK``, so
    # this fit anchors the model and ``CostModel._shard_cost`` extrapolates
    # the per-shard fixed cost and the edge split to higher shard counts.
    samples = []
    for graph, labels in cases:
        sharded = graph.shard(1)
        sharded.embed(labels, K_CAL)  # warm: the sorted plan and its layout
        best = _best_seconds(
            lambda sg=sharded, y=labels: sg.embed(y, K_CAL), repeats
        )
        samples.append((graph.n_vertices, graph.n_edges, best))
    coefficients["sharded:sorted"] = _fit_coefficients(samples)

    # The interpreted loop: one point pins its (huge) per-edge cost.
    graph, labels = cases[0]
    backend = get_backend("python")
    plan = graph.plan(K_CAL)
    backend.embed_with_plan(plan, labels)
    best = _best_seconds(lambda: backend.embed_with_plan(plan, labels), max(1, repeats - 2))
    coefficients["python:none"] = {
        "fixed_s": 0.0,
        "per_edge_s": float(best / graph.n_edges),
        "per_cell_s": 0.0,
    }

    parallel_workers = 0
    if include_parallel:
        from ..parallel.pool import fork_available

        if fork_available():
            workers = os.cpu_count() or 1
            backend = get_backend("parallel", n_workers=workers)
            samples = []
            for graph, labels in cases:
                plan = graph.plan(K_CAL, layout="sorted")
                backend.embed_with_plan(plan, labels)
                best = _best_seconds(
                    lambda b=backend, p=plan, y=labels: b.embed_with_plan(p, y),
                    repeats,
                )
                samples.append((graph.n_vertices, graph.n_edges, best))
            coefficients["parallel:sorted"] = _fit_coefficients(samples)
            parallel_workers = workers

    return {
        "schema": SCHEMA_VERSION,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "k_cal": K_CAL,
        "repeats": repeats,
        "parallel_workers": parallel_workers,
        "coefficients": coefficients,
    }


def save_calibration(data: Dict, path: Optional[Path] = None) -> Path:
    """Persist a calibration payload (default: :func:`tune_cache_path`)."""
    path = tune_cache_path() if path is None else Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    return path


def load_calibration(path: Optional[Path] = None) -> Optional[Dict]:
    """Read the calibration payload, or ``None`` when absent/unreadable.

    Unreadable covers missing files and corrupt JSON — the caller treats
    both as "not calibrated", never as an error.
    """
    path = tune_cache_path() if path is None else Path(path)
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def calibration_staleness(data: Dict) -> Optional[str]:
    """Why a loaded calibration payload cannot be trusted, or ``None``.

    Stale when the schema moved on (the coefficient model changed shape) or
    the CPU count differs from measurement time (the parallel coefficients
    and the layout trade-offs are core-count dependent).
    """
    if data.get("schema") != SCHEMA_VERSION:
        return (
            f"schema {data.get('schema')!r} != current {SCHEMA_VERSION} "
            "(the cost-model shape changed)"
        )
    if data.get("cpu_count") != os.cpu_count():
        return (
            f"calibrated on {data.get('cpu_count')} CPUs, running on "
            f"{os.cpu_count()}"
        )
    if not isinstance(data.get("coefficients"), dict) or not data["coefficients"]:
        return "no coefficients recorded"
    return None
