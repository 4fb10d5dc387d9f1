"""Ablation: the scatter-add strategies behind ``scatter_add``.

``repro.core.gee_vectorized.scatter_add`` is ``np.add.at``, whose
unbuffered loop runs a fast path for 1-D ``intp`` indices on NumPy
>= 1.25.  This micro-benchmark sweeps the fill ratio (updates per output
slot) for four strategies:

* ``add_at``  — ``np.add.at(out, idx, w)``, the shipping primitive;
* ``dense``   — ``out += np.bincount(idx, w, minlength=out.size)``, one
  sweep over the whole output;
* ``unique``  — sort-based duplicate aggregation, then an update of only
  the touched slots;
* ``compact`` — the sort-free variant of ``unique``: mark touched slots
  with a boolean mask, compact them with ``cumsum``, and bincount the
  compacted indices.

Run directly to regenerate the JSON; the pytest-benchmark cases cover the
shipping primitive at a sparse and a dense ratio.
"""

import argparse

import numpy as np
import pytest

from repro.core.gee_vectorized import scatter_add
from repro.eval.timing import time_callable

from bench_config import N_CLASSES, bench_entry, write_bench_json

#: Output slots: the n*K of a bench-scale friendster-sim embedding.
OUT_SIZE = 40_000 * N_CLASSES
FILL_RATIOS = [0.005, 0.01, 0.02, 0.03, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0]


def _add_at(out, idx, w):
    # repro: ignore[no-add-at] the measured row of the shipping primitive
    np.add.at(out, idx, w)


def _dense(out, idx, w):
    out += np.bincount(idx, weights=w, minlength=out.size)


def _unique(out, idx, w):
    uniq, inverse = np.unique(idx, return_inverse=True)
    out[uniq] += np.bincount(inverse, weights=w)


def _compact(out, idx, w):
    mask = np.zeros(out.size, dtype=bool)
    mask[idx] = True
    touched = np.flatnonzero(mask)
    pos = np.cumsum(mask) - 1
    out[touched] += np.bincount(pos[idx], weights=w, minlength=touched.size)


STRATEGIES = {
    "add_at": _add_at,
    "dense": _dense,
    "unique": _unique,
    "compact": _compact,
}


def _case(fill_ratio: float, out_size: int = OUT_SIZE):
    rng = np.random.default_rng(0)
    m = max(1, int(out_size * fill_ratio))
    idx = rng.integers(0, out_size, size=m).astype(np.intp)
    return idx, rng.random(m)


@pytest.mark.benchmark(group="ablation-scatter")
@pytest.mark.parametrize("fill_ratio", [0.01, 0.25])
def test_shipping_scatter_add(benchmark, fill_ratio):
    """The shipping scatter_add at a sparse and a dense fill ratio."""
    idx, w = _case(fill_ratio)
    out = np.zeros(OUT_SIZE)
    benchmark.extra_info["fill_ratio"] = fill_ratio
    benchmark(lambda: scatter_add(out, idx, w))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    entries = []
    winners = {}
    for fill_ratio in FILL_RATIOS:
        idx, w = _case(fill_ratio)
        best_per_strategy = {}
        for name, fn in STRATEGIES.items():
            out = np.zeros(OUT_SIZE)
            record = time_callable(lambda: fn(out, idx, w), repeats=args.repeats)
            record.label = f"fill={fill_ratio}/{name}"
            best_per_strategy[name] = record.best
            entries.append(
                bench_entry(
                    record,
                    n=None,
                    E=idx.size,
                    K=N_CLASSES,
                    strategy=name,
                    fill_ratio=fill_ratio,
                    out_size=OUT_SIZE,
                )
            )
        winners[str(fill_ratio)] = min(best_per_strategy, key=best_per_strategy.get)
        print(
            f"  fill={fill_ratio:5.3f}: "
            + "  ".join(f"{k}={v*1e3:6.2f}ms" for k, v in best_per_strategy.items())
            + f"  -> {winners[str(fill_ratio)]}"
        )
    write_bench_json(
        "ablation_scatter",
        entries,
        gates=[
            {
                "kind": "informational",
                "reason": "scatter-strategy ablation; conclusions land in "
                "code, not in a cross-run gate",
            }
        ],
        extra={"winner_per_fill_ratio": winners},
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
