"""Cost-model drift detection for ``backend="auto"``.

Every auto-backend embed records what the calibrated
:class:`~repro.tune.CostModel` *predicted* for the chosen
:class:`~repro.tune.ExecutionChoice` and what the run actually *took*
(:func:`record_auto_run`, called by the auto backend; in-memory, flushed
to a JSONL log next to the tune cache at interpreter exit).  The drift
report (``python -m repro.obs drift``) then answers "is the calibration
still right for this machine?" two ways:

* **passively** — the recorded predicted-vs-observed ratios of the
  configurations auto actually executed;
* **actively** (the default) — a quick probe that re-measures the main
  candidate families (vectorized ``none``/``sorted``, ``parallel:sorted``,
  ``sharded:sorted``) on a small synthetic graph shaped like the most
  recent recorded run, and compares each against the model's prediction
  for that same shape.  This yields a ratio for every candidate even
  though a single auto run only ever observes the one it chose.

A ratio outside ``[1/threshold, threshold]`` (default 2x) for any
calibrated candidate means recalibration (``python -m repro.tune``) is
warranted, and the report says so.
"""

from __future__ import annotations

import atexit
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Union

__all__ = [
    "record_auto_run",
    "flush_drift_records",
    "drift_log_path",
    "load_drift_records",
    "passive_summary",
    "probe_candidates",
    "drift_report",
    "format_drift_report",
]

#: In-memory records awaiting flush (bounded; oldest dropped beyond this).
_PENDING: List[Dict] = []
_MAX_PENDING = 4096
#: Lines kept in the on-disk JSONL log (oldest trimmed beyond this).
_MAX_LOG_LINES = 1024
_ATEXIT_ARMED = False

#: Probe-shape caps: the drift probe is a health check, not a benchmark —
#: clamp the recorded shape so the probe stays sub-second.
_PROBE_MAX_N = 1 << 14
_PROBE_MAX_E = 1 << 17
_PROBE_MAX_K = 50
_PROBE_DEFAULT = (1 << 13, 1 << 16, 16)


def drift_log_path() -> Path:
    """Where auto-run drift records persist (next to the tune cache)."""
    from ..tune.calibration import tune_cache_path

    return tune_cache_path().parent / "drift.jsonl"


def record_auto_run(choice, observed_s: Optional[float], n: int, e: int, k: int) -> None:
    """Record one auto-backend run's predicted-vs-observed cost.

    Called by :class:`~repro.backends.auto.AutoGEEBackend` after every
    delegated embed.  Cheap by design (a dict append); persistence happens
    once at interpreter exit.  ``observed_s`` may be ``None`` when the
    delegate reported no total timing — the record is then skipped.
    """
    global _ATEXIT_ARMED
    if observed_s is None or not observed_s > 0:
        return
    _PENDING.append(
        {
            "n": int(n),
            "E": int(e),
            "K": int(k),
            "config": choice.config,
            "n_workers": choice.n_workers,
            "n_shards": choice.n_shards,
            "predicted_s": float(choice.predicted_s),
            "observed_s": float(observed_s),
            "source": choice.source,
            "predictions": {c: float(p) for c, p in choice.predictions.items()},
        }
    )
    if len(_PENDING) > _MAX_PENDING:
        del _PENDING[: len(_PENDING) - _MAX_PENDING]
    if not _ATEXIT_ARMED:
        _ATEXIT_ARMED = True
        atexit.register(flush_drift_records)


def flush_drift_records(path: Optional[Union[str, Path]] = None) -> Optional[Path]:
    """Append pending records to the JSONL log (trimming it to a cap).

    Returns the log path, or ``None`` when there was nothing to flush or
    the log directory is unwritable (drift recording must never turn an
    embed into an I/O error).
    """
    if not _PENDING:
        return None
    path = drift_log_path() if path is None else Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        lines: List[str] = []
        if path.exists():
            lines = path.read_text().splitlines()
        lines.extend(json.dumps(r, sort_keys=True) for r in _PENDING)
        if len(lines) > _MAX_LOG_LINES:
            lines = lines[-_MAX_LOG_LINES:]
        path.write_text("\n".join(lines) + "\n")
    except OSError:  # pragma: no cover - unwritable cache dir
        return None
    _PENDING.clear()
    return path


def load_drift_records(path: Optional[Union[str, Path]] = None) -> List[Dict]:
    """Recorded auto runs: the on-disk log plus any not yet flushed."""
    path = drift_log_path() if path is None else Path(path)
    records: List[Dict] = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict):
                    records.append(record)
    except OSError:
        pass
    records.extend(_PENDING)
    return records


def passive_summary(records: List[Dict]) -> List[Dict]:
    """Per-config aggregate of the recorded (executed) auto runs."""
    grouped: Dict[str, Dict] = {}
    for r in records:
        config = r.get("config")
        pred, obs = r.get("predicted_s"), r.get("observed_s")
        if not config or not pred or not obs:
            continue
        row = grouped.setdefault(
            config,
            {"config": config, "n_runs": 0, "predicted_s": 0.0, "observed_s": 0.0},
        )
        row["n_runs"] += 1
        row["predicted_s"] += pred
        row["observed_s"] += obs
    out = []
    for row in grouped.values():
        n = row["n_runs"]
        row["predicted_s"] /= n
        row["observed_s"] /= n
        row["ratio"] = row["observed_s"] / row["predicted_s"]
        out.append(row)
    return sorted(out, key=lambda r: r["config"])


def _probe_shape(records: List[Dict]):
    """A representative (n, E, K), clamped so the probe stays sub-second."""
    if records:
        latest = records[-1]
        return (
            min(int(latest.get("n") or _PROBE_DEFAULT[0]), _PROBE_MAX_N),
            min(int(latest.get("E") or _PROBE_DEFAULT[1]), _PROBE_MAX_E),
            min(int(latest.get("K") or _PROBE_DEFAULT[2]), _PROBE_MAX_K),
        )
    return _PROBE_DEFAULT


def _best_seconds(fn, repeats: int) -> float:
    from .core import CLOCK

    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = CLOCK()
        fn()
        best = min(best, CLOCK() - t0)
    return best


def probe_candidates(
    n: int, e: int, k: int, *, repeats: int = 3
) -> List[Dict]:
    """Measure the main candidate families against the model's predictions.

    Returns one row per candidate: ``{config, predicted_s, observed_s,
    ratio, detail}``.  ``parallel:sorted`` is measured at the calibrated
    worker count when available (else every CPU) and skipped on platforms
    without ``fork``; a candidate the model has no coefficients for gets a
    prediction *derived* from the ``vectorized:sorted`` terms (noted in
    ``detail``) so the ratio is still reportable.
    """
    import numpy as np

    from ..backends import get_backend
    from ..graph.facade import Graph
    from ..graph.generators import erdos_renyi
    from ..parallel.pool import fork_available
    from ..tune import get_cost_model

    model = get_cost_model()
    graph = Graph.coerce(erdos_renyi(n, e, seed=7))
    labels = np.random.default_rng(0).integers(0, k, size=n).astype(np.int64)
    n, e = graph.n_vertices, graph.n_edges
    rows: List[Dict] = []

    def measured(config: str, fn, predicted: float, detail: str = "") -> None:
        fn()  # warm: plan compile, caches, pools
        observed = _best_seconds(fn, repeats)
        rows.append(
            {
                "config": config,
                "predicted_s": predicted,
                "observed_s": observed,
                "ratio": observed / predicted if predicted > 0 else float("inf"),
                "detail": detail,
            }
        )

    for layout in ("none", "sorted"):
        config = f"vectorized:{layout}"
        backend = get_backend("vectorized")
        plan = graph.plan(k, layout=None if layout == "none" else layout)
        measured(
            config,
            lambda b=backend, p=plan: b.embed_with_plan(p, labels),
            model.predict(config, n, e, k),
        )

    if fork_available():
        # Probed even on one CPU (workers still fork; the observed cost
        # then simply includes the oversubscription the model predicts
        # badly — which is exactly what the ratio should surface).
        workers = model.parallel_workers or (os.cpu_count() or 1)
        workers = max(1, min(workers, os.cpu_count() or 1))
        config = "parallel:sorted"
        predicted = model.predict(config, n, e, k)
        detail = f"n_workers={workers}"
        if predicted == float("inf"):
            # Not calibrated on this machine: derive a prediction from the
            # serial sorted terms with the edge pass split across workers.
            coeff = model.coefficients["vectorized:sorted"]
            predicted = (
                coeff["fixed_s"]
                + coeff["per_edge_s"] * e / workers
                + coeff["per_cell_s"] * n * k
            )
            detail += ", prediction derived (parallel not calibrated)"
        backend = get_backend("parallel", n_workers=workers)
        plan = graph.plan(k, layout="sorted")
        measured(
            config,
            lambda b=backend, p=plan: b.embed_with_plan(p, labels),
            predicted,
            detail,
        )

    config = "sharded:sorted"
    workers = os.cpu_count() or 1
    predicted, n_shards = model._shard_cost(config, n, e, k, workers)
    sharded = graph.shard(n_shards)
    measured(
        config,
        lambda: sharded.embed(labels, k),
        predicted,
        f"n_shards={n_shards}",
    )
    return rows


def drift_report(
    *,
    threshold: float = 2.0,
    probe: bool = True,
    repeats: int = 3,
    path: Optional[Union[str, Path]] = None,
) -> Dict:
    """The structured drift report (see :func:`format_drift_report`).

    ``recalibrate`` is True when any probed (or, without a probe, any
    recorded) ratio falls outside ``[1/threshold, threshold]``.
    """
    if threshold <= 1:
        raise ValueError("threshold must be > 1")
    records = load_drift_records(path)
    recorded = passive_summary(records)
    probed: List[Dict] = []
    shape = _probe_shape(records)
    if probe:
        probed = probe_candidates(*shape, repeats=repeats)
    judged = probed if probe else recorded
    recalibrate = any(
        not (1.0 / threshold <= row["ratio"] <= threshold) for row in judged
    )
    from ..tune import get_cost_model

    return {
        "source": get_cost_model().source,
        "n_recorded_runs": len(records),
        "recorded": recorded,
        "probe_shape": {"n": shape[0], "E": shape[1], "K": shape[2]},
        "probed": probed,
        "threshold": threshold,
        "recalibrate": recalibrate,
    }


def format_drift_report(report: Dict) -> str:
    """Render :func:`drift_report` as the text the CLI prints."""
    lines = [
        f"cost-model source: {report['source']}"
        f" | recorded auto runs: {report['n_recorded_runs']}"
        f" | drift threshold: {report['threshold']}x"
    ]

    def table(rows: List[Dict], title: str) -> None:
        if not rows:
            return
        lines.append("")
        lines.append(title)
        lines.append(
            f"  {'config':<20} {'predicted_ms':>13} {'observed_ms':>12} "
            f"{'ratio':>7}  note"
        )
        for r in rows:
            note = r.get("detail") or (f"{r['n_runs']} runs" if "n_runs" in r else "")
            lines.append(
                f"  {r['config']:<20} {r['predicted_s'] * 1e3:>13.3f} "
                f"{r['observed_s'] * 1e3:>12.3f} {r['ratio']:>6.2f}x  {note}"
            )

    table(report["recorded"], "recorded (what auto actually executed):")
    shape = report["probe_shape"]
    if report["probed"]:
        table(
            report["probed"],
            f"probe (re-measured at n={shape['n']}, E={shape['E']}, K={shape['K']}):",
        )
    lines.append("")
    if report["recalibrate"]:
        lines.append(
            "DRIFT: predicted vs observed diverges beyond the threshold; "
            "run `python -m repro.tune` to recalibrate this machine."
        )
    else:
        lines.append("calibration looks healthy (all ratios within threshold).")
    return "\n".join(lines)
