"""Perf-regression gate: compare a fresh BENCH json against the baseline.

Usage (what the CI smoke job runs)::

    REPRO_BENCH_OUTPUT_DIR=/tmp/bench REPRO_BENCH_SCALE=0.05 \
        python benchmarks/bench_table1_runtimes.py --repeats 2
    python benchmarks/check_regression.py \
        --baseline BENCH_table1_smoke.json \
        --current /tmp/bench/BENCH_table1_runtimes.json \
        --backend vectorized --factor 1.5

A second gate mode compares two labels *within* one result file — how the
streaming benchmark asserts its incremental-vs-refit speedup floor::

    python benchmarks/check_regression.py \
        --current /tmp/bench/BENCH_stream.json \
        --speedup incremental-update:refit --min-speedup 5

``--speedup FAST:SLOW`` divides SLOW's best wall-clock by FAST's and fails
below ``--min-speedup`` (labels match the entries' ``label`` field; both
gates may run in one invocation when ``--baseline`` is also given).

The comparison is on *normalised* time (``per_edge_ns`` — best wall-clock
divided by the directed edge count).  Per-edge cost is NOT scale-free in
practice (the committed full-scale baseline shows ~28 ns/edge on the
4k-edge twitch stand-in vs ~84 ns/edge on the 1.1M-edge friendster one:
small working sets stay cache-resident), so the committed baseline the CI
gate reads — ``BENCH_table1_smoke.json`` — was generated at the *same*
``REPRO_BENCH_SCALE=0.05`` the gate re-measures at.  Cross-machine
variance remains, which is why the gate is a >1.5× trip-wire for gross
regressions, not a precision measurement; only the largest graph present
in each file is compared (the most amortised, least noisy point).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _best_entry(payload: dict, backend: str, layout=None):
    """The entry for ``backend`` with the largest edge count (most stable).

    ``layout`` filters to one plan memory layout so the gate compares
    like-for-like (a sorted-layout run is not a regression baseline for an
    arrival-order run); entries predating the layout field count as
    ``None`` a.k.a. arrival order.
    """
    rows = [
        e
        for e in payload.get("entries", [])
        if e.get("backend") == backend and e.get("per_edge_ns")
    ]
    if layout is not None:
        wanted = None if layout in ("none", "None") else layout
        rows = [e for e in rows if _entry_layout(e) == wanted]
    if not rows:
        return None
    return max(rows, key=lambda e: e["E"] or 0)


def _entry_layout(entry: dict):
    """An entry's layout, normalised: missing / "none" → None."""
    layout = entry.get("layout")
    return None if layout in (None, "none") else layout


def _label_entry(payload: dict, label: str):
    """The entry for ``label`` with the largest edge count (most stable)."""
    rows = [
        e
        for e in payload.get("entries", [])
        if e.get("label") == label and e.get("best_s")
    ]
    if not rows:
        return None
    return max(rows, key=lambda e: e.get("E") or 0)


def _check_speedup(current: dict, spec: str, min_speedup: float) -> int:
    fast_label, _, slow_label = spec.partition(":")
    if not fast_label or not slow_label:
        print(f"check_regression: --speedup wants FAST:SLOW, got {spec!r}")
        return 2
    fast = _label_entry(current, fast_label)
    slow = _label_entry(current, slow_label)
    if fast is None or slow is None:
        missing = fast_label if fast is None else slow_label
        print(f"check_regression: no '{missing}' entries in current file; nothing to gate")
        return 0
    speedup = slow["best_s"] / fast["best_s"]
    print(
        f"speedup {fast_label} vs {slow_label}: {fast['best_s'] * 1e3:.3f} ms vs "
        f"{slow['best_s'] * 1e3:.3f} ms -> {speedup:.1f}x (floor {min_speedup}x)"
    )
    if speedup < min_speedup:
        print("FAIL: speedup fell below the required floor")
        return 1
    print("OK")
    return 0


#: Environment keys whose baseline/current disagreement gets a warning.
#: Deliberately excludes ``platform`` (kernel build strings differ between
#: otherwise-identical CI runners).
_ENV_COMPARED_KEYS = ("numpy", "scipy", "cpu_count")


def _warn_environment_mismatch(baseline: dict, current: dict) -> None:
    """Print warnings when the two runs' environments differ.

    Warnings only — the per-edge gate is a deliberately loose trip-wire and
    must keep working across container upgrades; the point is that a
    regression report names the library delta that may explain it instead
    of letting a numpy change masquerade as a code regression.
    Files predating the ``environment`` block compare as empty (one note,
    no per-key spam).
    """
    base_env = baseline.get("environment") or {}
    cur_env = current.get("environment") or {}
    if not base_env or not cur_env:
        which = "baseline" if not base_env else "current"
        print(
            f"note: {which} file records no environment block; "
            "library-version drift cannot be checked"
        )
        return
    for key in _ENV_COMPARED_KEYS:
        if base_env.get(key) != cur_env.get(key):
            print(
                f"WARNING: environment mismatch on {key!r}: baseline "
                f"{base_env.get(key)!r} vs current {cur_env.get(key)!r} — "
                "per-edge ratios may reflect the environment, not the code"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=Path,
                        help="committed BENCH_*.json to compare against")
    parser.add_argument("--current", type=Path, required=True,
                        help="freshly-measured BENCH_*.json")
    parser.add_argument("--backend", default="vectorized",
                        help="backend whose normalised time is gated")
    parser.add_argument("--layout", default=None,
                        help="restrict the baseline/current comparison to one "
                             "plan layout (default: compare whatever layout "
                             "the baseline's best entry ran with)")
    parser.add_argument("--factor", type=float, default=1.5,
                        help="fail when current/baseline per-edge time exceeds this")
    parser.add_argument("--speedup", metavar="FAST:SLOW",
                        help="additionally require entry FAST to beat entry "
                             "SLOW within the current file")
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="minimum SLOW/FAST best-time ratio for --speedup")
    args = parser.parse_args(argv)

    current = json.loads(args.current.read_text())
    if args.baseline is None:
        if args.speedup is None:
            parser.error("provide --baseline and/or --speedup")
        return _check_speedup(current, args.speedup, args.min_speedup)
    if args.speedup is not None:
        status = _check_speedup(current, args.speedup, args.min_speedup)
        if status:
            return status

    baseline = json.loads(args.baseline.read_text())
    _warn_environment_mismatch(baseline, current)

    base_entry = _best_entry(baseline, args.backend, args.layout)
    # Like-for-like layouts: whatever layout the baseline's best entry ran
    # with (arrival order for pre-layout files) is what the current file is
    # filtered to — a sorted-layout speed-up must never mask (or fake) a
    # regression of the arrival-order path, and vice versa.
    cur_layout = args.layout if args.layout is not None else (
        _entry_layout(base_entry) or "none"
    ) if base_entry is not None else None
    cur_entry = _best_entry(current, args.backend, cur_layout)
    if base_entry is None or cur_entry is None:
        print(
            f"check_regression: no '{args.backend}' entries with edge counts in "
            f"{'baseline' if base_entry is None else 'current'} file; nothing to gate"
        )
        return 0

    ratio = cur_entry["per_edge_ns"] / base_entry["per_edge_ns"]
    layout_note = _entry_layout(base_entry) or "none"
    print(
        f"backend={args.backend} layout={layout_note}: "
        f"baseline {base_entry['per_edge_ns']:.2f} ns/edge "
        f"on {base_entry['graph']} (E={base_entry['E']}), current "
        f"{cur_entry['per_edge_ns']:.2f} ns/edge on {cur_entry['graph']} "
        f"(E={cur_entry['E']}) -> ratio {ratio:.2f}x (limit {args.factor}x)"
    )
    if ratio > args.factor:
        print("FAIL: normalised time regressed beyond the allowed factor")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
