"""Figure 4: runtime versus edge count on Erdős–Rényi graphs.

The paper sweeps 2^13 – 2^29 edges and shows every implementation's runtime
growing linearly (straight lines on a log–log plot).  The sweep here covers
2^13 – 2^19 by default — enough octaves to confirm linearity for all four
implementations, including the pure-Python reference on the smaller sizes —
and can be extended through the ``repro.eval.experiments figure4`` CLI.
"""

import argparse

import pytest

from repro.backends import get_backend
from repro.eval.timing import time_callable
from repro.graph.facade import Graph
from repro.graph.datasets import generate_labels
from repro.graph.generators import erdos_renyi

from bench_config import LABELLED_FRACTION, N_CLASSES, bench_entry, write_bench_json

EXPONENTS = [13, 15, 17, 19]
PYTHON_EXPONENTS = [13, 15]  # the interpreted loop is capped to keep the run short
AVERAGE_DEGREE = 16


def _er_case(exponent: int):
    n_edges = 1 << exponent
    n_vertices = max(16, n_edges // AVERAGE_DEGREE)
    edges = erdos_renyi(n_vertices, n_edges, seed=0)
    labels = generate_labels(
        edges.n_vertices, N_CLASSES, labelled_fraction=LABELLED_FRACTION, seed=0
    )
    graph = Graph.coerce(edges)
    graph.csr
    return graph, labels


@pytest.fixture(scope="module")
def er_cases():
    return {e: _er_case(e) for e in EXPONENTS}


@pytest.mark.benchmark(group="figure4-er-sweep")
@pytest.mark.parametrize("exponent", PYTHON_EXPONENTS)
def test_gee_python(benchmark, er_cases, exponent):
    graph, labels = er_cases[exponent]
    backend = get_backend("python")
    benchmark.extra_info["log2_edges"] = exponent
    benchmark.pedantic(
        lambda: backend.embed(graph, labels, N_CLASSES), rounds=2, iterations=1
    )


@pytest.mark.benchmark(group="figure4-er-sweep")
@pytest.mark.parametrize("exponent", EXPONENTS)
def test_numba_serial_standin(benchmark, er_cases, exponent):
    graph, labels = er_cases[exponent]
    backend = get_backend("vectorized")
    benchmark.extra_info["log2_edges"] = exponent
    benchmark(lambda: backend.embed(graph, labels, N_CLASSES))


@pytest.mark.benchmark(group="figure4-er-sweep")
@pytest.mark.parametrize("exponent", EXPONENTS)
def test_ligra_serial(benchmark, er_cases, exponent):
    graph, labels = er_cases[exponent]
    backend = get_backend("ligra-vectorized")
    benchmark.extra_info["log2_edges"] = exponent
    benchmark(lambda: backend.embed(graph, labels, N_CLASSES))


@pytest.mark.benchmark(group="figure4-er-sweep")
@pytest.mark.parametrize("exponent", EXPONENTS)
def test_ligra_parallel(benchmark, er_cases, exponent):
    graph, labels = er_cases[exponent]
    backend = get_backend("parallel")
    backend.embed(graph, labels, N_CLASSES)  # warm pool / graph cache
    benchmark.extra_info["log2_edges"] = exponent
    benchmark(lambda: backend.embed(graph, labels, N_CLASSES))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    entries = []
    for exponent in EXPONENTS:
        graph, labels = _er_case(exponent)
        for name in ("python", "vectorized", "sparse", "ligra-vectorized", "parallel"):
            if name == "python" and exponent not in PYTHON_EXPONENTS:
                continue
            backend = get_backend(name)
            record = time_callable(
                lambda: backend.embed(graph, labels, N_CLASSES),
                repeats=1 if name == "python" else args.repeats,
                warmup=1,
            )
            record.label = f"er-2^{exponent}/{name}"
            entries.append(
                bench_entry(
                    record,
                    backend=name,
                    graph=f"erdos-renyi-2^{exponent}",
                    n=graph.n_vertices,
                    E=graph.n_edges,
                    log2_edges=exponent,
                )
            )
            print(f"  {record.label}: best={record.best*1e3:.2f}ms")
    write_bench_json(
        "fig4_er_sweep",
        entries,
        gates=[
            {
                "kind": "informational",
                "reason": "paper-figure reproduction (Fig. 4 ER sweep); no "
                "cross-run comparison",
            }
        ],
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
