"""CLI: calibrate this machine's execution cost model.

``python -m repro.tune`` measures the plan-path kernels (see
:func:`repro.tune.calibrate`) and writes the coefficient cache that
``backend="auto"`` / ``layout="auto"`` consult.  Safe to re-run any time;
CI caches the artifact between runs.

``python -m repro.tune --show`` prints the persisted calibration without
measuring anything: where the cache lives, whether it is fresh or stale
(and why), the coefficient table, and the
:class:`~repro.tune.ExecutionChoice` the model makes at representative
``(n, E, K)`` points.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import (
    calibrate,
    calibration_staleness,
    get_cost_model,
    load_calibration,
    reset_cost_model,
    save_calibration,
    tune_cache_path,
)

#: Representative ``(n, E, K)`` points for the --show choice table: a toy
#: graph, a mid-size sparse graph, a benchmark-scale graph, and a
#: class-heavy one (where the per-cell term dominates).
_SHOW_POINTS = (
    (1 << 10, 1 << 12, 8),
    (1 << 14, 1 << 17, 16),
    (1 << 16, 1 << 20, 50),
    (1 << 12, 1 << 15, 256),
)


def _print_coefficients(coefficients) -> None:
    for config in sorted(coefficients):
        c = coefficients[config]
        print(
            f"  {config:>20}: fixed={c['fixed_s'] * 1e6:8.1f} us  "
            f"per_edge={c['per_edge_s'] * 1e9:7.2f} ns  "
            f"per_cell={c['per_cell_s'] * 1e9:7.2f} ns"
        )


def _show() -> int:
    path = tune_cache_path()
    data = load_calibration()
    print(f"calibration cache: {path}")
    if data is None:
        print("  (absent or unreadable — the model runs on built-in defaults;")
        print("   run `python -m repro.tune` to calibrate this machine)")
    else:
        reason = calibration_staleness(data)
        state = "fresh" if reason is None else f"STALE: {reason}"
        print(f"  created: {data.get('created', '?')}  [{state}]")
        print(
            f"  python {data.get('python', '?')}, numpy {data.get('numpy', '?')}, "
            f"cpu_count {data.get('cpu_count', '?')}, "
            f"parallel_workers {data.get('parallel_workers', 0)}"
        )
    model = get_cost_model()
    print(f"model source: {model.source}")
    print("coefficients:")
    _print_coefficients(model.coefficients)
    print("choices at representative (n, E, K) points:")
    workers = os.cpu_count() or 1
    for n, e, k in _SHOW_POINTS:
        choice = model.choose(n, e, k, n_workers_available=workers)
        print(f"  n={n:>6}  E={e:>8}  K={k:>3}  ->  {choice}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--force",
        action="store_true",
        help="re-measure even when a fresh calibration cache already exists",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats per design point"
    )
    parser.add_argument(
        "--show",
        action="store_true",
        help="print the persisted calibration and the model's choices; no measurement",
    )
    args = parser.parse_args(argv)

    if args.show:
        return _show()

    path = tune_cache_path()
    existing = load_calibration()
    if existing is not None and not args.force:
        reason = calibration_staleness(existing)
        if reason is None:
            print(f"calibration cache at {path} is current; use --force to re-measure")
            return 0
        print(f"recalibrating: {reason}")

    data = calibrate(repeats=args.repeats)
    save_calibration(data)
    reset_cost_model()
    model = get_cost_model(refresh=True)
    print(f"wrote {path}")
    _print_coefficients(data["coefficients"])
    sample = model.choose(65536, 1 << 20, 50)
    print(f"example choice for n=65536, E=2^20, K=50: {sample}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
