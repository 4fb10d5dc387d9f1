"""Table I: runtime of the four GEE implementations on the paper's graphs.

The paper reports GEE-Python, Numba-serial, GEE-Ligra serial and GEE-Ligra
parallel on six SNAP graphs (6.8M – 1.8B edges), K = 50, 10% random labels.
Here each registered backend (``repro.backends``) runs on the scaled
stand-ins through the shared ``Graph`` facade; pytest-benchmark groups the
results per graph so the relative ordering (the actual claim of Table I)
can be read off directly.  Every ``embed`` runs the backend's plan kernel
on the graph's cached default plan: the Numba-serial stand-in
(``vectorized``) is the compile-free ``bincount`` pass.  The committed
``BENCH_table1_smoke.json`` baseline predates that and timed the per-edge
scatter.

The pure-Python reference is benchmarked only on the two smaller graphs to
keep the suite's runtime reasonable — its linear scaling is established by
``bench_fig4_er_sweep.py``.

Run directly (``python benchmarks/bench_table1_runtimes.py``) to write the
machine-readable ``BENCH_table1_runtimes.json`` at the repository root — the
baseline the CI perf-regression gate compares against.
"""

import argparse

import pytest

from repro.backends import backend_capabilities, get_backend
from repro.eval.timing import time_callable

from bench_config import N_CLASSES, bench_entry, load_bench_dataset, write_bench_json


def _bench_backend(benchmark, case, backend_name, **backend_options):
    graph, labels, _ = case
    backend = get_backend(backend_name, **backend_options)
    backend.embed(graph, labels, N_CLASSES)  # warm pools / shared-memory caches
    benchmark(lambda: backend.embed(graph, labels, N_CLASSES))


@pytest.mark.benchmark(group="table1-twitch")
class TestTwitch:
    def test_gee_python(self, benchmark, twitch_sim):
        graph, labels, _ = twitch_sim
        backend = get_backend("python")
        benchmark(lambda: backend.embed(graph, labels, N_CLASSES))

    def test_numba_serial_standin(self, benchmark, twitch_sim):
        _bench_backend(benchmark, twitch_sim, "vectorized")

    def test_ligra_serial(self, benchmark, twitch_sim):
        _bench_backend(benchmark, twitch_sim, "ligra-vectorized")

    def test_ligra_parallel(self, benchmark, twitch_sim):
        _bench_backend(benchmark, twitch_sim, "parallel")


@pytest.mark.benchmark(group="table1-orkut")
class TestOrkut:
    def test_gee_python(self, benchmark, orkut_sim):
        graph, labels, _ = orkut_sim
        backend = get_backend("python")
        benchmark.pedantic(
            lambda: backend.embed(graph, labels, N_CLASSES), rounds=1, iterations=1
        )

    def test_numba_serial_standin(self, benchmark, orkut_sim):
        _bench_backend(benchmark, orkut_sim, "vectorized")

    def test_ligra_serial(self, benchmark, orkut_sim):
        _bench_backend(benchmark, orkut_sim, "ligra-vectorized")

    def test_ligra_parallel(self, benchmark, orkut_sim):
        _bench_backend(benchmark, orkut_sim, "parallel")


@pytest.mark.benchmark(group="table1-friendster")
class TestFriendster:
    def test_numba_serial_standin(self, benchmark, friendster_sim):
        _bench_backend(benchmark, friendster_sim, "vectorized")

    def test_scipy_sparse(self, benchmark, friendster_sim):
        _bench_backend(benchmark, friendster_sim, "sparse")

    def test_ligra_serial(self, benchmark, friendster_sim):
        _bench_backend(benchmark, friendster_sim, "ligra-vectorized")

    def test_ligra_parallel(self, benchmark, friendster_sim):
        _bench_backend(benchmark, friendster_sim, "parallel")


# --------------------------------------------------------------------------- #
# Machine-readable baseline (BENCH_table1_runtimes.json)
# --------------------------------------------------------------------------- #
#: Registry backends measured per graph; ``python`` only runs on the
#: smallest stand-in (its >30x gap is visible at any size).
JSON_BACKENDS = ["python", "vectorized", "sparse", "ligra-vectorized", "parallel"]
JSON_DATASETS = ["twitch-sim", "orkut-sim", "friendster-sim"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--datasets", nargs="*", default=JSON_DATASETS)
    parser.add_argument(
        "--json-name",
        default="table1_runtimes",
        help="BENCH_<name>.json to write (e.g. table1_smoke for the "
        "REPRO_BENCH_SCALE=0.05 baseline the CI gate compares at like scale)",
    )
    args = parser.parse_args(argv)

    entries = []
    for dataset in args.datasets:
        graph, labels, spec = load_bench_dataset(dataset)
        for name in JSON_BACKENDS:
            if name == "python" and dataset != "twitch-sim":
                continue
            caps = backend_capabilities(name)
            backend = get_backend(name)
            record = time_callable(
                lambda: backend.embed(graph, labels, N_CLASSES),
                repeats=1 if name == "python" else args.repeats,
                warmup=1,  # warms pools / shared-memory caches uniformly
            )
            record.label = f"{dataset}/{name}"
            entries.append(
                bench_entry(
                    record,
                    backend=name,
                    graph=dataset,
                    n=graph.n_vertices,
                    E=graph.n_edges,
                    n_workers=1 if not caps.parallel else None,
                )
            )
            print(f"  {record.label}: best={record.best*1e3:.2f}ms")
    write_bench_json(
        args.json_name,
        entries,
        gates=[
            {
                "kind": "per-edge",
                "backend": "vectorized",
                "factor": 1.5,
                "baseline": "BENCH_table1_smoke.json",
                "ci": "check_regression.py --backend vectorized --factor 1.5",
            }
        ],
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
