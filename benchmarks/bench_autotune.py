"""Adaptive-engine benchmark: layouts × backends, and the auto choice.

Sweeps every ``backend × layout`` execution configuration over the
Friendster stand-in and the Figure-4 Erdős–Rényi scales (warm compiled-plan
paths, the regime the refinement loop and repeated fits run in), measures
what ``backend="auto"``'s size rule (:func:`repro.backends.auto.choose`)
picks at each scale, and writes ``BENCH_autotune.json`` with two built-in
acceptance gates:

* **segment-sum floor** — the sorted-layout fused kernel must beat the
  default plan's vectorized pass (``vectorized:none``: one whole-output
  ``bincount`` over the known incidences, compiling nothing) by
  ``--min-segment-speedup`` (default 1.5×) per edge on friendster-sim with
  full labels; the classic ``np.add.at`` scatter is also measured as a
  reference row;
* **auto quality** — the auto choice must land within ``--max-auto-loss``
  (default 1.1×) of the best fixed configuration at every scale.

CI runs the smoke variant (``REPRO_BENCH_SCALE=0.05 --smoke``), which
relaxes the auto gate to "must not lose to the fixed vectorized backend by
more than 1.3×" — tiny graphs are cache-resident and noisy, so the strict
1.1× bound is only asserted at full bench scale.
"""

import argparse
import os

import numpy as np
import pytest

from repro.backends import get_backend
from repro.backends.auto import POOLED_MIN_EDGES, choose
from repro.core.validation import UNKNOWN_LABEL
from repro.eval.timing import time_callable
from repro.graph.datasets import generate_labels
from repro.graph.facade import Graph
from repro.graph.generators import erdos_renyi
from repro.parallel.pool import fork_available

from bench_config import (
    LABELLED_FRACTION,
    N_CLASSES,
    bench_entry,
    load_bench_dataset,
    write_bench_json,
)

ER_EXPONENTS = [13, 15, 17]
AVERAGE_DEGREE = 16

#: The fixed configurations swept at every scale (parallel joins when the
#: machine actually has >1 CPU and fork).
FIXED_CONFIGS = [
    ("vectorized", "none"),
    ("vectorized", "sorted"),
    ("sparse", "none"),
]


def _addat_reference(plan, y, scales):
    """The classic buffered-ufunc scatter (``np.add.at``) on the plan arrays.

    The hot path the motivation measured at ~28 ns/edge: random flat
    indices through NumPy's buffered unsafe-scatter machinery.  Kept as a
    measured reference row so the segment-sum speedup is attributable.
    """
    k = plan.n_classes
    Z = np.zeros(plan.n_vertices * k, dtype=np.float64)
    y_dst = y[plan.dst]
    known = y_dst != UNKNOWN_LABEL
    # repro: ignore[no-add-at] measured reference row: the slow path is the point of this baseline
    np.add.at(Z, plan.src_flat[known] + y_dst[known], scales[plan.dst[known]] * plan.weights[known])
    y_src = y[plan.src]
    known = y_src != UNKNOWN_LABEL
    # repro: ignore[no-add-at] measured reference row: the slow path is the point of this baseline
    np.add.at(Z, plan.dst_flat[known] + y_src[known], scales[plan.src[known]] * plan.weights[known])
    return Z


@pytest.mark.benchmark(group="autotune")
@pytest.mark.parametrize("layout", ["none", "sorted"])
def test_vectorized_layouts(benchmark, friendster_sim, layout):
    graph, labels, _ = friendster_sim
    backend = get_backend("vectorized")
    plan = graph.plan(N_CLASSES, layout=None if layout == "none" else layout)
    benchmark(lambda: backend.embed_with_plan(plan, labels))


@pytest.mark.benchmark(group="autotune")
def test_auto_choice(benchmark, friendster_sim):
    graph, labels, _ = friendster_sim
    backend = get_backend("auto")
    backend.embed(graph, labels, N_CLASSES)  # warm: plan + choice caches
    benchmark(lambda: backend.embed(graph, labels, N_CLASSES))


def _datasets(er_exponents):
    cases = []
    graph, labels10, _ = load_bench_dataset("friendster-sim")
    rng = np.random.default_rng(0)
    full = rng.integers(0, N_CLASSES, graph.n_vertices).astype(np.int64)
    cases.append(("friendster-sim", graph, full, "full"))
    cases.append(("friendster-sim", graph, labels10, "labelled10"))
    for exponent in er_exponents:
        n_edges = 1 << exponent
        n_vertices = max(16, n_edges // AVERAGE_DEGREE)
        edges = erdos_renyi(n_vertices, n_edges, seed=0)
        g = Graph.coerce(edges)
        y = generate_labels(
            n_vertices, N_CLASSES, labelled_fraction=LABELLED_FRACTION, seed=0
        )
        y_full = np.random.default_rng(exponent).integers(
            0, N_CLASSES, n_vertices
        ).astype(np.int64)
        cases.append((f"er-2^{exponent}", g, y_full, "full"))
        del y  # the ER points sweep the hot fully-labelled regime only
    return cases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--er-exponents", type=int, nargs="*", default=ER_EXPONENTS)
    parser.add_argument("--max-auto-loss", type=float, default=1.1,
                        help="auto must be within this factor of the best "
                             "fixed configuration at each scale")
    parser.add_argument("--min-segment-speedup", type=float, default=1.5,
                        help="sorted segment-sum vs default-plan vectorized "
                             "pass floor on friendster-sim (full labels)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: gate auto against the fixed vectorized "
                             "backend (<=1.3x) instead of the strict best-of-grid "
                             "bound, which is noise-dominated at smoke scale")
    parser.add_argument("--no-assert", action="store_true",
                        help="measure and record only; never fail")
    args = parser.parse_args(argv)

    n_cpus = os.cpu_count() or 1
    configs = list(FIXED_CONFIGS)
    if n_cpus > 1 and fork_available():
        configs.append(("parallel", "sorted"))

    entries = []
    auto_summary = {}
    failures = []
    segment_speedup = None
    addat_speedup = None

    for graph_name, graph, labels, variant in _datasets(args.er_exponents):
        n, E = graph.n_vertices, graph.n_edges
        times = {}
        for backend_name, layout in configs:
            workers = n_cpus if backend_name == "parallel" else None
            backend = get_backend(backend_name, n_workers=workers)
            plan = graph.plan(N_CLASSES, layout=None if layout == "none" else layout)
            record = time_callable(
                lambda b=backend, p=plan, y=labels: b.embed_with_plan(p, y),
                repeats=args.repeats,
                warmup=1,
            )
            record.label = f"{graph_name}/{variant}/{backend_name}/{layout}"
            times[f"{backend_name}:{layout}"] = record.best
            entries.append(
                bench_entry(
                    record,
                    backend=backend_name,
                    graph=graph_name,
                    n=n,
                    E=E,
                    n_workers=workers,
                    layout=layout,
                    variant=variant,
                )
            )
            print(f"  {record.label}: {record.best * 1e3:8.3f} ms "
                  f"({record.best / E * 1e9:6.1f} ns/edge)")

        # The np.add.at reference (friendster only — it is a reference row,
        # not a candidate).
        if graph_name == "friendster-sim":
            from repro.core.projection import projection_scales

            plan = graph.plan(N_CLASSES)
            scales = projection_scales(labels, N_CLASSES)
            record = time_callable(
                lambda: _addat_reference(plan, labels, scales),
                repeats=max(2, args.repeats - 2),
                warmup=1,
            )
            record.label = f"{graph_name}/{variant}/vectorized/addat-reference"
            entries.append(
                bench_entry(
                    record,
                    backend="vectorized-addat",
                    graph=graph_name,
                    n=n,
                    E=E,
                    layout="none",
                    variant=variant,
                )
            )
            print(f"  {record.label}: {record.best * 1e3:8.3f} ms")
            if variant == "full":
                segment_speedup = times["vectorized:none"] / times["vectorized:sorted"]
                addat_speedup = record.best / times["vectorized:sorted"]

        # What auto picks at this scale, and what that choice costs.
        choice = choose(graph.plan(N_CLASSES), n_cpus)
        auto_time = times.get(choice.config)
        if auto_time is None:
            backend = get_backend(choice.backend, n_workers=choice.n_workers)
            plan = graph.plan(
                N_CLASSES, layout=None if choice.layout == "none" else choice.layout
            )
            record = time_callable(
                lambda: backend.embed_with_plan(plan, labels),
                repeats=args.repeats,
                warmup=1,
            )
            auto_time = record.best
        best_config = min(times, key=times.get)
        loss_vs_best = auto_time / times[best_config]
        loss_vs_vectorized = auto_time / times["vectorized:none"]
        key = f"{graph_name}/{variant}"
        auto_summary[key] = {
            "choice": choice.to_dict(),
            "auto_s": auto_time,
            "best_config": best_config,
            "best_s": times[best_config],
            "loss_vs_best": loss_vs_best,
            "loss_vs_vectorized": loss_vs_vectorized,
        }
        print(f"  {key}: auto={choice.config} "
              f"loss_vs_best={loss_vs_best:.2f}x best={best_config}")

        if args.smoke:
            if loss_vs_vectorized > 1.3:
                failures.append(
                    f"{key}: auto ({choice.config}) lost to fixed vectorized "
                    f"by {loss_vs_vectorized:.2f}x (> 1.3x smoke bound)"
                )
        elif loss_vs_best > args.max_auto_loss:
            failures.append(
                f"{key}: auto ({choice.config}) is {loss_vs_best:.2f}x the best "
                f"fixed config {best_config} (> {args.max_auto_loss}x)"
            )

    if segment_speedup is not None:
        print(f"segment-sum sorted vs default-plan pass: "
              f"{segment_speedup:.2f}x (vs np.add.at: {addat_speedup:.2f}x)")
        if segment_speedup < args.min_segment_speedup:
            failures.append(
                f"friendster-sim/full: sorted segment-sum speedup "
                f"{segment_speedup:.2f}x below the {args.min_segment_speedup}x floor"
            )

    write_bench_json(
        "autotune",
        entries,
        gates=[
            {
                "kind": "informational",
                "reason": "floors are self-enforcing: the script itself fails "
                "below --min-segment-speedup / --max-auto-loss; CI runs it "
                "with --smoke",
            }
        ],
        extra={
            "auto": auto_summary,
            "segment_speedup_vs_none": segment_speedup,
            "segment_speedup_vs_addat": addat_speedup,
            "pooled_min_edges": POOLED_MIN_EDGES,
            "cpu_count": n_cpus,
        },
    )
    if failures and not args.no_assert:
        for line in failures:
            print(f"FAIL: {line}")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
