"""Run one benchmark workload, check its outputs and print every metric.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload fit-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke          # all workloads, tiny, seconds

Workloads: ``fit-cold``, ``refit-warm``, ``stream-churn`` (see
``workloads.py``).  The run makes its inputs from ``--seed``, sets up
several times (``setup_s`` is the median), then runs ops in a closed loop
for ``--seconds`` seconds, checking every op's output.  It prints each
metric as ``name = value unit`` and, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

* ``--trace 0`` reports the end-to-end metrics of untraced ops.  Their
  times are scaled to the reference machine's speed by the run's median
  time of a calibration kernel timed after each set-up and op (see
  ``machine.Calibration``); the measured values are printed next to them.
* ``--trace 1`` alternates untraced and traced blocks of ops and reports
  the per-layer metrics of the traced ones (self time per layer, averaged
  per op), the tracing overhead, the STREAM-triad baseline and, on
  ``refit-warm``, a single-threaded serial baseline.  The spans are written
  to ``.perfbench/trace-<workload>-seed<seed>.json``.

Every run also writes its result and provenance (git SHA and dirty flag,
seed, nproc, library versions, LLC size, workload sizes) to
``.perfbench/result-<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
#: ``setup_s`` is the median of at least three set-ups; quick set-ups are
#: repeated until they have taken three seconds, so one burst of noise on
#: the machine cannot move the median of a 0.2 s set-up.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 3.0
SETUP_MAX_REPEATS = 15
#: Triad arrays for the smoke run, which only checks that the code works.
SMOKE_TRIAD_BYTES = 8 << 20

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("edges_per_s", "edges/s"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    ("graph.coerce_s", "s"),
    ("validation.labels_s", "s"),
    ("plan.validate_edges_s", "s"),
    ("plan.index_s", "s"),
    ("kernel.projection_s", "s"),
    ("kernel.edge_pass_s", "s"),
    ("parallel.preprocess_s", "s"),
    ("backend.dispatch_s", "s"),
    ("result.detach_s", "s"),
    ("stream.stage_s", "s"),
    ("stream.commit_s", "s"),
    ("stream.update_s", "s"),
    ("stream.refresh_s", "s"),
    ("stream.read_s", "s"),
    ("op.unaccounted_s", "s"),
    ("op.traced_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("kernel.bytes_computed", "B"),
    ("kernel.gbps_computed", "GB/s"),
    ("kernel.stream_fraction", "ratio"),
    ("triad.gbps", "GB/s"),
    ("machine.calibration_s", "s"),
    ("parallel.serial_embed_s", "s"),
    ("parallel.speedup", "ratio"),
    ("parallel.efficiency", "ratio"),
    ("mem.output_mb", "MiB"),
    ("mem.plan_mb", "MiB"),
    ("stream.commit_ns_per_live_edge", "ns/edge"),
    ("stream.commit_to_update_ratio", "ratio"),
    ("stream.patched_edges", "count"),
    ("stream.refreshes", "count"),
    ("ops", "count"),
    ("edges_processed", "count"),
)


def _bootstrap() -> None:
    """Put the program's sources on the path, or exit if they are absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    # An inherited REPRO_TRACE would switch on the program's own tracing.
    os.environ.pop("REPRO_TRACE", None)
    sys.path[:0] = [str(src), str(ROOT)]


def tail(samples: list) -> float:
    """The highest percentile with at least ten samples beyond it.

    That is the ``(n - 10) / n`` quantile of ``n`` samples; with ten or
    fewer there is no such percentile and the maximum is returned.
    """
    ordered = sorted(samples)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Generate, set up, run and check one workload; return its report."""
    from perfbench import machine, tracing
    from perfbench.workloads import WORKLOADS, RefitWarm

    prov = machine.provenance(ROOT, seed)
    triad = None
    if trace:
        # Before the workload exists, so the arrays never sit next to it.
        triad = machine.stream_triad(SMOKE_TRIAD_BYTES if tiny else machine.TRIAD_ARRAY_BYTES)

    t0 = time.perf_counter()
    wl = WORKLOADS[name](seed, tiny=tiny)
    generate_s = time.perf_counter() - t0

    calibrate = machine.Calibration()
    setup_times, calibrations = [], []
    while len(setup_times) < SETUP_MIN_REPEATS or (
        sum(setup_times) < SETUP_MIN_SECONDS and len(setup_times) < SETUP_MAX_REPEATS
    ):
        if setup_times:
            wl.teardown()
        gc.collect()
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
        calibrations.append(calibrate())

    tracer = tracing.Tracer() if trace else None
    ops, problems = [], []
    started = time.perf_counter()
    i = 0
    while wl.has_op(i):
        if time.perf_counter() - started >= seconds:
            # A traced run ends only after at least one whole traced block.
            any_traced = any(o["traced"] for o in ops)
            mid_block = bool(ops) and ops[-1]["traced"] and i % wl.trace_block != 0
            if not trace or (any_traced and not mid_block):
                break
        wl.prepare(i)
        traced = trace and (i // wl.trace_block) % 2 == 1
        if traced:
            tracing.install_layer_wrappers(tracer)
            tracer.op_id = i
        t0 = time.perf_counter()
        root = tracer.open("op", start=t0) if traced else None
        error, edges = None, 0
        try:
            edges = wl.op(i, tracer if traced else None)
        except Exception as exc:  # a failing op is counted, and the loop goes on
            error = f"op raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if traced:
            tracer.close(root, end=t1)
            tracer.uninstall()
        calibrations.append(calibrate())
        problem = error or wl.check(i) or (wl.full_check() if wl.is_checkpoint(i) else None)
        record = {"i": i, "seconds": t1 - t0, "traced": traced, "edges": edges, "ok": problem is None}
        if traced:
            record["root"] = root
            record["layers"] = tracing.op_layers(tracer.spans, root)
        if problem:
            problems.append((i, problem))
        ops.append(record)
        gc.collect()
        i += 1
    if not ops:
        raise RuntimeError(f"{name}: no op ran")
    peak_rss = machine.peak_rss_mb()
    last = ops[-1]
    if last["ok"] and not wl.is_checkpoint(last["i"]):
        problem = wl.full_check()
        if problem:
            last["ok"] = False
            problems.append((last["i"], problem))

    serial = None
    if trace and isinstance(wl, RefitWarm):
        serial, problem = wl.serial_baseline()
        if problem:
            problems.append(("serial-baseline", problem))
    facts = wl.layer_facts()
    workload_facts = wl.facts()
    wl.teardown()
    gc.collect()

    calibration = statistics.median(calibrations)
    tail_note = raw = None
    if trace:
        metrics = _layer_metrics(ops, tracer, facts, triad, serial, wl)
        metrics["machine.calibration_s"] = calibration
    else:
        raw = _end_to_end(ops, setup_times, peak_rss)
        metrics = _at_reference_speed(raw, machine.CALIBRATION_REFERENCE_S / calibration)
        n = len(ops)
        tail_note = (
            f"p{100 * (n - 10) / n:.1f} of {n} ops, 10 beyond it" if n > 10
            else f"max of {n} ops: too few for ten beyond any percentile"
        )
    failed = sum(1 for o in ops if not o["ok"])
    return {
        "workload": name,
        "provenance": prov,
        "facts": workload_facts,
        "generate_s": generate_s,
        "setup_samples": setup_times,
        "tail_note": tail_note,
        "triad": triad,
        "calibration_s": calibration,
        "reference_s": machine.CALIBRATION_REFERENCE_S,
        "metrics": metrics,
        "raw_metrics": raw,
        "attempted": len(ops),
        "failed": failed,
        "problems": problems,
        "correct": not problems,
        "spans": tracing.spans_as_records(tracer.spans) if trace else None,
        "ops": [{k: v for k, v in o.items() if k != "root"} for o in ops],
    }


def _end_to_end(ops, setups, peak_rss) -> dict:
    """End-to-end metrics from measured op and set-up times."""
    times = [o["seconds"] for o in ops]
    return {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail(times),
        "edges_per_s": sum(o["edges"] for o in ops) / sum(times),
        "peak_rss_mb": peak_rss,
    }


def _at_reference_speed(raw: dict, factor: float) -> dict:
    """Times times ``factor``, rates divided by it; memory as measured."""
    return {
        name: value if name == "peak_rss_mb" else value / factor if name == "edges_per_s"
        else value * factor
        for name, value in raw.items()
    }


def _layer_metrics(ops, tracer, facts, triad, serial, wl) -> dict:
    from perfbench import tracing

    traced = [o for o in ops if o["traced"]]
    untraced = [o["seconds"] for o in ops if not o["traced"]]
    n_t = len(traced)
    m = {name: 0.0 for name, _ in PER_LAYER}
    for o in traced:
        total = sum(o["layers"].values())
        if abs(total - o["seconds"]) > 1e-6 * max(1.0, o["seconds"]):
            raise RuntimeError(
                f"op {o['i']}: layer self times add up to {total}, op took {o['seconds']}"
            )
        for layer, seconds in o["layers"].items():
            m[layer] += seconds / n_t
    if n_t:
        m["op.traced_s"] = statistics.fmean(o["seconds"] for o in traced)
        if untraced:
            m["trace.overhead_frac"] = (
                statistics.median(o["seconds"] for o in traced) / statistics.median(untraced) - 1
            )
    dispatches = [s for o in traced for s in tracing.dispatch_spans(tracer.spans, o["root"])]
    m.update(facts)
    edge_pass_total = m["kernel.edge_pass_s"] * n_t
    if dispatches and edge_pass_total > 0:
        m["kernel.gbps_computed"] = facts["kernel.bytes_computed"] * len(dispatches) / edge_pass_total / 1e9
    m["triad.gbps"] = triad["gbps"]
    m["kernel.stream_fraction"] = m["kernel.gbps_computed"] / triad["gbps"]
    if serial is not None and dispatches:
        parallel_wall = statistics.median(s[2] - s[1] for s in dispatches)
        m["parallel.serial_embed_s"] = serial
        m["parallel.speedup"] = serial / parallel_wall
        m["parallel.efficiency"] = m["parallel.speedup"] / wl.workers
    patch_ops = sum(1 for o in traced if o["layers"]["stream.update_s"] > 0)
    if m["stream.commit_s"] > 0:
        m["stream.commit_ns_per_live_edge"] = m["stream.commit_s"] / wl.live * 1e9
        if patch_ops:
            per_patch_update = m["stream.update_s"] * n_t / patch_ops
            m["stream.commit_to_update_ratio"] = m["stream.commit_s"] / per_patch_update
    m["ops"] = len(ops)
    m["edges_processed"] = sum(o["edges"] for o in ops)
    return m


def _print_report(report: dict, trace: bool) -> None:
    print(f"# perfbench workload={report['workload']} trace={int(trace)}")
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    if report["provenance"]["git_dirty"]:
        print("provenance: measured from a DIRTY tree")
    print("workload " + json.dumps(report["facts"], sort_keys=True))
    print(f"inputs generated in {report['generate_s']:.3f} s; set-up samples "
          + ", ".join(f"{s:.4f}" for s in report["setup_samples"]) + " s")
    if report["triad"]:
        t = report["triad"]
        print(f"STREAM triad: {t['arrays']} arrays of {t['array_mib']:.0f} MiB "
              f"(LLC {report['provenance']['llc_mib']} MiB), best of {t['repeats']}: "
              f"{t['gbps']:.3f} GB/s; edge-pass bytes are computed from array sizes")
    for i, problem in report["problems"]:
        print(f"CHECK FAILED workload={report['workload']} op={i}: {problem}")
    units = dict(END_TO_END + PER_LAYER)
    raw = report["raw_metrics"]
    if raw:
        print(f"times are at the reference machine's speed: each measured time x "
              f"{report['reference_s']} s / {report['calibration_s']!r} s, the run's "
              f"median calibration")
    for name, value in report["metrics"].items():
        note = f"  ({report['tail_note']})" if name == "op_tail_s" else ""
        if raw and name != "peak_rss_mb":
            note += f"  [measured {raw[name]!r}]"
        print(f"{name} = {value!r} {units[name]}{note}")
    print(f"attempted = {report['attempted']} ops, failed = {report['failed']}, "
          f"failed_fraction = {report['failed'] / report['attempted']!r}")


def _result_line(report: dict, trace: bool) -> dict:
    wanted = PER_LAYER if trace else END_TO_END
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": report["metrics"][name], "unit": unit} for name, unit in wanted
        },
    }


def _write(report: dict, seed: int, trace: bool, result: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{report['workload']}-seed{seed}"
    kept = {k: v for k, v in report.items() if k != "spans"}
    (OUT_DIR / f"result-{stem}-trace{int(trace)}.json").write_text(
        json.dumps({**kept, "result": result}, indent=1, default=str)
    )
    if trace:
        (OUT_DIR / f"trace-{stem}.json").write_text(
            json.dumps(
                {"provenance": report["provenance"], "facts": report["facts"],
                 "ops": report["ops"], "spans": report["spans"]},
                default=str,
            )
        )


def smoke() -> int:
    """All workloads at tiny scale, untraced and traced; 0 if all correct."""
    from perfbench.workloads import WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {
        key: [(m["name"], m["unit"]) for m in declared[key]] for key in ("end_to_end", "per_layer")
    }
    ok = listed == {"end_to_end": list(END_TO_END), "per_layer": list(PER_LAYER)} and all(
        w["why"] == WORKLOADS[w["name"]].why for w in declared["workloads"]
    )
    if not ok:
        print("BENCHMARK.json does not match the metrics and workloads run.py has")
    for name in [w["name"] for w in declared["workloads"]]:
        for trace in (False, True):
            report = run_workload(name, seed=0, seconds=0.5, trace=trace, tiny=True)
            _print_report(report, trace)
            line = _result_line(report, trace)
            print(json.dumps(line))
            ok = ok and line["correct"]
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def stop_children() -> None:
    """End every process the run started and wait until each has ended.

    ``shutdown_workers`` closes the fork pool and unlinks its shared
    memory.  Creating that memory also starts the ``multiprocessing``
    resource tracker, a process that would otherwise outlive the run by a
    moment; it is stopped and reaped last, once no worker holds its pipe.
    """
    gee_parallel = sys.modules.get("repro.core.gee_parallel")
    if gee_parallel is not None:
        gee_parallel.shutdown_workers()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny scale, untraced and traced")
    args = parser.parse_args(argv)
    _bootstrap()
    if args.smoke:
        return smoke()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    trace = bool(args.trace)
    report = run_workload(args.workload, args.seed, args.seconds, trace)
    result = _result_line(report, trace)
    _write(report, args.seed, trace, result)
    _print_report(report, trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
