"""Sharded execution: strong scaling over shard counts, plus out-of-core.

:class:`~repro.shard.ShardedGraph` partitions the owner-sorted incidence
into degree-balanced contiguous owner ranges and runs the fused segment-sum
kernel per shard, each shard writing its own rows of one class-sum buffer.
This benchmark measures

* **strong scaling over shard counts** — ``n_shards`` ∈ {1, 2, 4, 8} on
  the Friendster stand-in, with a ``parallel@1`` reference row so the
  sweep is comparable against the committed
  ``BENCH_fig3_strong_scaling.json`` trend (per-edge gate on the shared
  ``parallel`` row);
* **the out-of-core per-shard stores** — :meth:`ShardedGraph.persist` +
  :meth:`ShardedGraph.embed_outofcore` at several chunk sizes, with a
  ``vectorized`` in-memory reference row comparable against the committed
  ``BENCH_outofcore.json`` baseline;
* **the auto choice** — one ``backend="auto"`` row with its recorded
  :class:`~repro.backends.auto.ExecutionChoice`; at full scale the script
  asserts auto lands within 1.1× of the best fixed shard count.

Correctness is asserted in-script on every run: each sharded embedding
(in-memory and streamed) must match the single-pool vectorized result to
1e-10.
"""

import argparse
import os
import tempfile

import numpy as np
import pytest

from repro.backends import get_backend
from repro.eval.timing import time_callable
from repro.shard import ShardedGraph

from bench_config import N_CLASSES, bench_entry, load_bench_dataset, write_bench_json

SHARD_COUNTS = [1, 2, 4, 8]

#: Out-of-core chunk sizes as fractions of the incidence count.
OOC_CHUNK_FRACTIONS = [1, 8, 64]

OOC_SHARDS = 4

ATOL = 1e-10


@pytest.mark.benchmark(group="sharded")
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_sharded_scaling(benchmark, friendster_sim, n_shards):
    graph, labels, _ = friendster_sim
    sharded = graph.shard(n_shards)
    sharded.embed(labels, N_CLASSES)  # warm plans/pool
    benchmark.extra_info["n_shards"] = n_shards
    benchmark(lambda: sharded.embed(labels, N_CLASSES))


def test_sharded_matches_single_pool(friendster_sim):
    graph, labels, _ = friendster_sim
    baseline = get_backend("vectorized").embed_with_plan(
        graph.plan(N_CLASSES), labels
    )
    Z = graph.shard(4).embed(labels, N_CLASSES).embedding
    np.testing.assert_allclose(Z, baseline.embedding, atol=ATOL)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--shards", type=int, nargs="+", default=SHARD_COUNTS,
        help="shard counts to sweep",
    )
    args = parser.parse_args(argv)

    graph, labels, _ = load_bench_dataset("friendster-sim")
    n, E = graph.n_vertices, graph.n_edges
    entries = []

    # Single-pool references: the vectorized fused pass (ties this file to
    # BENCH_outofcore.json) and parallel@1 (ties it to the Fig. 3 sweep).
    vec = get_backend("vectorized")
    baseline = vec.embed_with_plan(graph.plan(N_CLASSES), labels)
    vec_record = time_callable(
        lambda: vec.embed_with_plan(graph.plan(N_CLASSES), labels),
        repeats=args.repeats,
        warmup=1,
    )
    vec_record.label = "friendster-sim/vectorized/in-memory"
    entries.append(
        bench_entry(
            vec_record, backend="vectorized", graph="friendster-sim", n=n, E=E,
            edges_per_s=E / vec_record.best if vec_record.best else None,
        )
    )
    par = get_backend("parallel", n_workers=1)
    par_record = time_callable(
        lambda: par.embed(graph, labels, N_CLASSES), repeats=args.repeats, warmup=1
    )
    par_record.label = "friendster-sim/parallel@1"
    entries.append(
        bench_entry(
            par_record, backend="parallel", graph="friendster-sim", n=n, E=E,
            n_workers=1,
        )
    )
    print(f"  {vec_record.label}: best={vec_record.best*1e3:.2f}ms")
    print(f"  {par_record.label}: best={par_record.best*1e3:.2f}ms")

    # Strong scaling over shard counts.
    one_shard_best = None
    best_fixed = None
    for n_shards in args.shards:
        sharded = graph.shard(n_shards)
        result = sharded.embed(labels, N_CLASSES)
        np.testing.assert_allclose(
            result.embedding, baseline.embedding, atol=ATOL,
            err_msg=f"sharded n_shards={n_shards} diverged from single pool",
        )
        record = time_callable(
            lambda: sharded.embed(labels, N_CLASSES),
            repeats=args.repeats,
            warmup=1,
        )
        record.label = f"friendster-sim/sharded@{n_shards}"
        if n_shards == args.shards[0]:
            one_shard_best = record.best
        if best_fixed is None or record.best < best_fixed:
            best_fixed = record.best
        speedup = one_shard_best / record.best if one_shard_best else None
        entries.append(
            bench_entry(
                record, backend="sharded", graph="friendster-sim", n=n, E=E,
                n_workers=result.n_workers, layout="sorted",
                n_shards=sharded.n_shards, speedup=speedup,
                efficiency=(speedup / n_shards) if speedup else None,
            )
        )
        print(
            f"  {record.label}: best={record.best*1e3:.2f}ms "
            f"(workers={result.n_workers}, "
            f"{record.best / vec_record.best:.2f}x vectorized)"
        )

    # Out-of-core: per-shard segment stores streamed chunk-wise.
    sharded = graph.shard(OOC_SHARDS)
    with tempfile.TemporaryDirectory(prefix="repro-shard-ooc-") as tmp:
        sharded.persist(tmp)
        incidences = 2 * E
        for fraction in OOC_CHUNK_FRACTIONS:
            chunk = max(1, incidences // fraction)
            result = sharded.embed_outofcore(labels, N_CLASSES, chunk_edges=chunk)
            np.testing.assert_allclose(
                result.embedding, baseline.embedding, atol=ATOL,
                err_msg=f"out-of-core chunk={chunk} diverged from single pool",
            )
            record = time_callable(
                lambda: sharded.embed_outofcore(labels, N_CLASSES, chunk_edges=chunk),
                repeats=args.repeats,
                warmup=1,
            )
            record.label = f"friendster-sim/sharded-ooc@{OOC_SHARDS}/chunk=2E//{fraction}"
            entries.append(
                bench_entry(
                    record, backend="sharded-outofcore", graph="friendster-sim",
                    n=n, E=E, layout="sorted", n_shards=sharded.n_shards,
                    chunk_edges=chunk,
                )
            )
            print(
                f"  {record.label}: best={record.best*1e3:.2f}ms "
                f"({record.best / vec_record.best:.2f}x in-memory vectorized)"
            )

    # What the size rule runs here: one auto row, choice recorded.
    auto = get_backend("auto")
    auto_result = auto.embed_with_plan(graph.plan(N_CLASSES), labels)
    auto_record = time_callable(
        lambda: auto.embed_with_plan(graph.plan(N_CLASSES), labels),
        repeats=args.repeats,
        warmup=1,
    )
    auto_record.label = "friendster-sim/auto"
    choice = auto_result.execution_choice
    entries.append(
        bench_entry(
            auto_record, backend="auto", graph="friendster-sim", n=n, E=E,
            execution_choice=choice,
        )
    )
    print(f"  {auto_record.label}: best={auto_record.best*1e3:.2f}ms (chose {choice})")
    full_scale = float(os.environ.get("REPRO_BENCH_SCALE", "1")) >= 1.0
    if best_fixed:
        ratio = auto_record.best / best_fixed
        verdict = "OK" if ratio <= 1.1 else "MISS"
        print(f"  auto vs best fixed shard count: {ratio:.2f}x (limit 1.10x) {verdict}")
        if full_scale:
            assert ratio <= 1.1, (
                f"auto ({auto_record.best*1e3:.2f}ms) more than 1.1x slower "
                f"than the best fixed shard count ({best_fixed*1e3:.2f}ms)"
            )

    write_bench_json(
        "sharded",
        entries,
        gates=[
            {
                "kind": "per-edge",
                "reason": "parallel@1 reference row is comparable against "
                "the committed BENCH_fig3_strong_scaling.json "
                "(check_regression.py --backend parallel)",
            },
            {
                "kind": "per-edge",
                "reason": "vectorized in-memory reference row is comparable "
                "against the committed BENCH_outofcore.json "
                "(check_regression.py --backend vectorized); sharded rows "
                "gate against this file's own baseline with --backend "
                "sharded --shards N",
            },
            {
                "kind": "speedup",
                "reason": "CI smoke: sharded@4 must stay within 3x of the "
                "in-memory vectorized pass (--speedup "
                "friendster-sim/sharded@4:friendster-sim/vectorized/"
                "in-memory --min-speedup 0.33)",
            },
            {
                "kind": "informational",
                "reason": "sharded-vs-single-pool exactness (atol=1e-10) and "
                "auto-within-1.1x-of-best-fixed are asserted in-script; "
                "shard-count efficiency columns are informational on "
                "machines with fewer cores than shards",
            },
        ],
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
