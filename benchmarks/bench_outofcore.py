"""Out-of-core chunked embedding: throughput vs. chunk size, plus peak RSS.

The chunked engine exists so the GEE edge pass can run on edge lists that
do not fit in RAM: :class:`~repro.graph.io.ChunkedEdgeSource` memory-maps
an on-disk store and the chunk-capable backends (``vectorized``,
``sparse``, ``parallel``) accumulate the embedding block by block.  The
price is per-chunk dispatch overhead; this benchmark quantifies it by
sweeping the chunk size from "everything in one block" down through
successively smaller blocks on the Friendster stand-in, against the
in-memory compiled-plan baseline.

Each entry records wall-clock stats, edge throughput (``edges_per_s``,
directed edges over best time) and the process's peak RSS so far
(``ru_maxrss`` — a high-water mark, so read it as "the sweep never needed
more than this", not as a per-entry measurement).

The committed ``BENCH_outofcore.json`` is the baseline; the expectation is
that chunks of ≳1/64 of the edge list cost only a few percent over the
one-shot pass (per-chunk overhead amortises), while very small chunks
surface the dispatch floor.
"""

import argparse
import resource
import sys
import tempfile

import numpy as np
import pytest

from repro.backends import get_backend
from repro.eval.timing import time_callable
from repro.graph.io import ChunkedEdgeSource, save_chunked

from bench_config import N_CLASSES, bench_entry, load_bench_dataset, write_bench_json

#: Chunk sizes as fractions of the edge count (1 = one chunk for everything).
CHUNK_FRACTIONS = [1, 8, 64, 512]

BACKENDS = ["vectorized", "sparse", "parallel"]


def _peak_rss_bytes() -> int:
    """Peak resident set size of this process so far, in bytes."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is bytes on macOS, KiB elsewhere.
    return int(rss) * (1 if sys.platform == "darwin" else 1024)


@pytest.mark.benchmark(group="outofcore")
@pytest.mark.parametrize("fraction", CHUNK_FRACTIONS)
def test_chunked_vectorized(benchmark, friendster_sim, tmp_path, fraction):
    graph, labels, _ = friendster_sim
    store = save_chunked(graph.edges, tmp_path / "store")
    chunk = max(1, graph.n_edges // fraction)
    source = ChunkedEdgeSource.open(store, chunk_edges=chunk)
    backend = get_backend("vectorized")
    benchmark(lambda: backend.embed(source, labels, N_CLASSES))


def test_chunked_matches_in_memory(friendster_sim, tmp_path):
    graph, labels, _ = friendster_sim
    store = save_chunked(graph.edges, tmp_path / "store")
    source = ChunkedEdgeSource.open(store, chunk_edges=max(1, graph.n_edges // 7))
    backend = get_backend("vectorized")
    baseline = backend.embed_with_plan(graph.plan(N_CLASSES), labels)
    chunked = backend.embed(source, labels, N_CLASSES)
    np.testing.assert_allclose(chunked.embedding, baseline.embedding, atol=1e-12)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--datasets", nargs="+", default=["friendster-sim"])
    parser.add_argument(
        "--backends",
        nargs="+",
        default=BACKENDS,
        help="chunk-capable backends to sweep",
    )
    args = parser.parse_args(argv)

    entries = []
    for name in args.datasets:
        graph, labels, _ = load_bench_dataset(name)
        n, E = graph.n_vertices, graph.n_edges
        with tempfile.TemporaryDirectory(prefix="repro-ooc-") as tmp:
            store = save_chunked(graph.edges, tmp)
            for backend_name in args.backends:
                backend = get_backend(backend_name)
                baseline = time_callable(
                    lambda: backend.embed_with_plan(graph.plan(N_CLASSES), labels),
                    repeats=args.repeats,
                    warmup=1,
                )
                baseline.label = f"{backend_name}/in-memory"
                entries.append(
                    bench_entry(
                        baseline,
                        backend=backend_name,
                        graph=name,
                        n=n,
                        E=E,
                        chunk_edges=None,
                        edges_per_s=E / baseline.best if baseline.best else None,
                        peak_rss_bytes=_peak_rss_bytes(),
                    )
                )
                for fraction in CHUNK_FRACTIONS:
                    chunk = max(1, E // fraction)
                    source = ChunkedEdgeSource.open(store, chunk_edges=chunk)
                    record = time_callable(
                        lambda: backend.embed(source, labels, N_CLASSES),
                        repeats=args.repeats,
                        warmup=1,
                    )
                    record.label = f"{backend_name}/chunk=E//{fraction}"
                    entries.append(
                        bench_entry(
                            record,
                            backend=backend_name,
                            graph=name,
                            n=n,
                            E=E,
                            chunk_edges=chunk,
                            n_chunks=source.n_chunks,
                            edges_per_s=E / record.best if record.best else None,
                            peak_rss_bytes=_peak_rss_bytes(),
                        )
                    )
                    print(
                        f"  {name} {backend_name} chunk=E//{fraction} "
                        f"({source.n_chunks} chunks): best={record.best*1e3:.2f}ms "
                        f"({E / record.best / 1e6:.1f} M edges/s, "
                        f"{record.best / baseline.best:.2f}x in-memory)"
                    )
    write_bench_json(
        "outofcore",
        entries,
        gates=[
            {
                "kind": "informational",
                "reason": "chunked-vs-in-memory exactness is asserted "
                "in-script (atol=1e-12); CI smoke-runs it at tiny chunk "
                "sizes",
            }
        ],
        extra={"peak_rss_bytes": _peak_rss_bytes()},
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
