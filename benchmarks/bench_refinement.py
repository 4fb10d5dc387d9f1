"""Refinement: delta-driven versus full-recompute ``gee_unsupervised``.

The unsupervised loop's steady state changes few labels per iteration, so
the delta path (scatter-subtract old / scatter-add new over only the edges
incident to changed vertices, see :mod:`repro.core.refinement`) replaces the
per-iteration O(E) re-embed with O(E_changed) work.  This benchmark runs the
regime the delta path exists for — a warm-started 10-iteration polish on a
well-separated planted partition plus a small population of "drifter"
vertices with purely random edges.  The structure locks in after the first
round, while the drifters' noise embeddings keep ~0.5 % of labels
flickering, so every iteration runs and all but the first take the delta
path.  Both variants (``delta=True`` / ``delta=False``) follow identical
trajectories — same seed, same k-means calls, byte-identical label
histories — so the ratio isolates the embed cost.

``BENCH_refinement.json`` records both runs and their ratio; the acceptance
bar is the delta path being ≥2× faster end-to-end (k-means included).

The pytest case asserts trajectory equality at a reduced size so the
comparison itself stays honest under CI.
"""

import argparse
import os
import time

import numpy as np
import pytest

from repro.core import gee_unsupervised
from repro.eval.timing import TimingRecord
from repro.graph import Graph, planted_partition
from repro.graph.edgelist import EdgeList

from bench_config import bench_entry, write_bench_json

#: Base scenario (scaled by REPRO_BENCH_SCALE like the dataset stand-ins):
#: a strongly-separated partition (in-degree 100, out-degree 40) whose
#: assignment stabilises immediately, plus 4 % drifter vertices with random
#: edges whose labels keep flickering — the sub-5 %-churn steady state the
#: delta path targets.
N_VERTICES = 10_000
N_BLOCKS = 10
DEGREE_IN = 100
DEGREE_OUT = 40
DRIFTER_FRACTION = 0.04
DRIFTER_DEGREE = 60
NOISE_FRACTION = 0.05
ITERATIONS = 10


def _scenario(scale_multiplier: float = 1.0):
    n = max(500, int(N_VERTICES * scale_multiplier))
    # Degrees are targets for the full-size scenario; clamp the implied
    # probabilities so small smoke scales stay valid SBM parameters.
    p_in = min(1.0, DEGREE_IN / (n / N_BLOCKS))
    p_out = min(1.0, DEGREE_OUT / n)
    edges, truth = planted_partition(n, N_BLOCKS, p_in, p_out, seed=0)
    rng = np.random.default_rng(7)
    m = max(4, int(n * DRIFTER_FRACTION))
    drifters = np.arange(n, n + m)
    d_src = np.repeat(drifters, DRIFTER_DEGREE)
    d_dst = rng.integers(0, n + m, size=d_src.size)
    full = EdgeList(
        np.concatenate([edges.src, d_src, d_dst]),
        np.concatenate([edges.dst, d_dst, d_src]),
        None,
        n + m,
    )
    truth_ext = np.concatenate([truth, rng.integers(0, N_BLOCKS, size=m)])
    noisy = truth_ext.copy()
    flip = rng.choice(n + m, size=max(1, int((n + m) * NOISE_FRACTION)), replace=False)
    noisy[flip] = rng.integers(0, N_BLOCKS, size=flip.size)
    graph = Graph.coerce(full)
    # Graph loading stays out of the timed region: compile the symmetric
    # CSR the delta pass reads.
    graph.plan(N_BLOCKS, layout="sorted").fused
    return graph, noisy


def _run(graph, noisy, *, delta: bool):
    return gee_unsupervised(
        graph,
        N_BLOCKS,
        seed=0,
        max_iterations=ITERATIONS,
        convergence_fraction=1.0,
        initial_labels=noisy,
        implementation="vectorized",
        delta=delta,
    )


@pytest.mark.benchmark(group="refinement-delta")
@pytest.mark.parametrize("delta", [False, True], ids=["full-recompute", "delta"])
def test_refinement(benchmark, delta):
    graph, noisy = _scenario(scale_multiplier=0.2)
    benchmark.extra_info["delta"] = delta
    result = benchmark.pedantic(
        lambda: _run(graph, noisy, delta=delta), rounds=2, iterations=1
    )
    assert result.n_iterations >= 2


def test_delta_and_full_trajectories_identical():
    graph, noisy = _scenario(scale_multiplier=0.2)
    full = _run(graph, noisy, delta=False)
    fast = _run(graph, noisy, delta=True)
    np.testing.assert_array_equal(full.labels, fast.labels)
    np.testing.assert_allclose(full.embedding, fast.embedding, atol=1e-10)
    assert fast.n_delta_passes > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    multiplier = float(os.environ.get("REPRO_BENCH_SCALE", "1"))
    graph, noisy = _scenario(multiplier)
    print(f"  scenario: n={graph.n_vertices} E={graph.n_edges} K={N_BLOCKS}")

    entries = []
    results = {}
    bests = {}
    for delta in (False, True):
        label = "delta" if delta else "full-recompute"
        record = TimingRecord(label=label)
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            results[label] = _run(graph, noisy, delta=delta)
            record.samples.append(time.perf_counter() - t0)
        res = results[label]
        bests[label] = record.best
        entries.append(
            bench_entry(
                record,
                backend="vectorized",
                graph="planted-partition",
                n=graph.n_vertices,
                E=graph.n_edges,
                K=N_BLOCKS,
                variant=label,
                iterations=res.n_iterations,
                full_passes=res.n_full_passes,
                delta_passes=res.n_delta_passes,
            )
        )
        print(
            f"  {label}: best={record.best*1e3:.1f}ms iters={res.n_iterations} "
            f"full={res.n_full_passes} delta={res.n_delta_passes}"
        )

    full_res, delta_res = results["full-recompute"], results["delta"]
    # The paths agree to ~1e-10 per round; a drifter sitting exactly on a
    # k-means decision boundary could still flip on a different FP stack,
    # so divergence is *reported*, not asserted (the tolerance-based
    # equivalence claims live in the pytest cases and tier-1 suite).
    label_agreement = float(np.mean(full_res.labels == delta_res.labels))
    if label_agreement == 1.0:
        max_dev = float(np.max(np.abs(full_res.embedding - delta_res.embedding)))
    else:
        max_dev = float("nan")
        print(
            f"  note: trajectories diverged (label agreement {label_agreement:.4f}) "
            "— a boundary vertex flipped under floating-point rounding"
        )
    speedup = bests["full-recompute"] / bests["delta"]
    print(f"  delta speedup: {speedup:.2f}x (max embedding deviation {max_dev:.2e})")
    write_bench_json(
        "refinement",
        entries,
        gates=[
            {
                "kind": "informational",
                "reason": "CI smoke-runs the script (crash/exactness "
                "coverage); the delta speedup is reported in extra, not "
                "compared across runs",
            }
        ],
        extra={
            "delta_speedup": speedup,
            "max_embedding_deviation": max_dev,
            "label_agreement": label_agreement,
            "trajectories_identical": label_agreement == 1.0,
        },
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
