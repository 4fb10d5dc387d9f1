"""Plan reuse: cold ``embed()`` versus ``embed_with_plan()`` on a cached plan.

A compiled :class:`~repro.core.plan.EmbedPlan` (``graph.plan(K)``) holds the
label-independent half of a GEE call: validated edge arrays, a sorted
plan's symmetric CSR and a reusable output buffer.  This benchmark
measures, per backend, a *cold* call against a *warm* call
(``backend.embed_with_plan`` on the cached plan) on the Friendster
stand-in, and records both plus their ratio in ``BENCH_plan_reuse.json``.
A cold call is ``backend.embed(graph.edges, ...)``: the raw edge list
gets a fresh facade, so every call validates and compiles its plan
before running the same kernel as the warm call.

For ``vectorized`` the warm call on the default plan runs the compile-free
pass: one ``bincount`` of raw sums over the known incidences, written as
``S·diag(1/n_c)`` into the plan's reused output.  ``plan-sorted`` runs
the sorted layout's segment-sum kernel.  ``vectorized/per-edge`` is the
paper's per-edge form, kept here as a reference no production path runs:
validate the edges and labels, build the dense ``W``, and scatter one
scaled contribution per edge endpoint into a zeroed output
(:func:`~repro.core.gee_vectorized.accumulate_edges_vectorized`).

CI requires ``vectorized/plan-sorted`` ≥2× ``vectorized/per-edge``.
"""

import argparse

import numpy as np
import pytest

from repro.backends import backend_capabilities, get_backend
from repro.core.gee_vectorized import accumulate_edges_vectorized
from repro.core.projection import projection_from_scales, projection_scales
from repro.core.validation import validate_edges, validate_labels
from repro.eval.timing import time_callable

from bench_config import N_CLASSES, bench_entry, load_bench_dataset, write_bench_json

BACKENDS = ["vectorized", "sparse", "ligra-vectorized", "parallel", "auto"]


def per_edge_embed(edges, labels, n_classes):
    """The paper's per-edge pass: ``(Z, W)`` with one scaled scatter per
    edge endpoint into a zeroed output (the plan-reuse gate's reference)."""
    edges = validate_edges(edges)
    y, k = validate_labels(labels, edges.n_vertices, n_classes)
    scales = projection_scales(y, k)
    W = projection_from_scales(y, scales, k)
    Z = np.zeros(edges.n_vertices * k, dtype=np.float64)
    accumulate_edges_vectorized(
        Z, edges.src, edges.dst, edges.effective_weights(), y, scales, k
    )
    return Z.reshape(edges.n_vertices, k), W


@pytest.mark.benchmark(group="plan-reuse")
@pytest.mark.parametrize("path", ["per-edge", "cold", "plan"])
def test_vectorized_plan_reuse(benchmark, friendster_sim, path):
    graph, labels, _ = friendster_sim
    backend = get_backend("vectorized")
    if path == "per-edge":
        benchmark(lambda: per_edge_embed(graph.edges, labels, N_CLASSES))
    elif path == "cold":
        benchmark(lambda: backend.embed(graph.edges, labels, N_CLASSES))
    else:
        plan = graph.plan(N_CLASSES)
        benchmark(lambda: backend.embed_with_plan(plan, labels))


def test_plan_and_cold_paths_agree(friendster_sim):
    graph, labels, _ = friendster_sim
    backend = get_backend("vectorized")
    cold = backend.embed(graph.edges, labels, N_CLASSES)
    warm = backend.embed_with_plan(graph.plan(N_CLASSES), labels)
    assert np.array_equal(cold.embedding, warm.embedding)
    per_edge, _ = per_edge_embed(graph.edges, labels, N_CLASSES)
    np.testing.assert_allclose(per_edge, warm.embedding, atol=1e-9)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    graph, labels, _ = load_bench_dataset("friendster-sim")
    plan = graph.plan(N_CLASSES)
    entries = []
    speedups = {}
    per_edge = time_callable(
        lambda: per_edge_embed(graph.edges, labels, N_CLASSES),
        repeats=args.repeats,
        warmup=1,
    )
    per_edge.label = "vectorized/per-edge"
    entries.append(
        bench_entry(
            per_edge,
            backend="vectorized",
            graph="friendster-sim",
            n=graph.n_vertices,
            E=graph.n_edges,
            variant="per-edge",
            layout="none",
            execution_choice=None,
        )
    )
    for name in BACKENDS:
        backend = get_backend(name)
        cold = time_callable(
            lambda: backend.embed(graph.edges, labels, N_CLASSES),
            repeats=args.repeats,
            warmup=1,
        )
        cold.label = f"{name}/cold"
        warm = time_callable(
            lambda: backend.embed_with_plan(plan, labels),
            repeats=args.repeats,
            warmup=1,
        )
        warm.label = f"{name}/plan"
        speedups[name] = cold.best / warm.best if warm.best > 0 else float("nan")
        # Record what actually executed — the auto backend re-plans, so its
        # layout and ExecutionChoice come from probe results, not the
        # nominal plan (check_regression's like-for-like filter depends on
        # the layout field being truthful).  Fixed backends run exactly the
        # nominal configuration, so only auto pays the two probe embeds.
        if name == "auto":
            cold_probe = backend.embed(graph.edges, labels, N_CLASSES)
            warm_probe = backend.embed_with_plan(plan, labels)
            measured = [
                (cold, "cold", cold_probe.layout, cold_probe.execution_choice),
                (warm, "plan", warm_probe.layout, warm_probe.execution_choice),
            ]
        else:
            measured = [(cold, "cold", "none", None), (warm, "plan", "none", None)]
        if backend_capabilities(name).supports_layout and name != "auto":
            # The sorted fused kernel on a cached layout plan, against the
            # same backend's cold path.
            sorted_plan = graph.plan(N_CLASSES, layout="sorted")
            fused = time_callable(
                lambda: backend.embed_with_plan(sorted_plan, labels),
                repeats=args.repeats,
                warmup=1,
            )
            fused.label = f"{name}/plan-sorted"
            speedups[f"{name}:sorted"] = (
                cold.best / fused.best if fused.best > 0 else float("nan")
            )
            measured.append((fused, "plan-sorted", "sorted", None))
            if name == "vectorized":
                # The CI gate: the sorted kernel against the per-edge form.
                speedups["vectorized:sorted/per-edge"] = (
                    per_edge.best / fused.best if fused.best > 0 else float("nan")
                )
        for record, variant, layout, choice in measured:
            entries.append(
                bench_entry(
                    record,
                    backend=name,
                    graph="friendster-sim",
                    n=graph.n_vertices,
                    E=graph.n_edges,
                    variant=variant,
                    layout=layout,
                    execution_choice=choice,
                )
            )
        print(
            f"  {name}: cold={cold.best*1e3:.2f}ms plan={warm.best*1e3:.2f}ms "
            f"speedup={speedups[name]:.2f}x"
        )
    write_bench_json(
        "plan_reuse",
        entries,
        gates=[
            {
                "kind": "speedup",
                "fast": "vectorized/plan-sorted",
                "slow": "vectorized/per-edge",
                "min_speedup": 2,
                "ci": "check_regression.py --speedup "
                "vectorized/plan-sorted:vectorized/per-edge --min-speedup 2",
            }
        ],
        extra={"plan_speedups": speedups},
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
