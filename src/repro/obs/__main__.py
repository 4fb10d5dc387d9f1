"""CLI: ``python -m repro.obs summarize <trace.json>``."""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .export import format_summary


def _records_from_trace(path: str) -> List[tuple]:
    """Re-read a trace-event JSON file into span-record tuples."""
    with open(path) as fh:
        payload = json.load(fh)
    events = payload.get("traceEvents", payload if isinstance(payload, list) else [])
    records = []
    for ev in events:
        if not isinstance(ev, dict) or ev.get("ph") not in ("X", "i"):
            continue
        records.append(
            (
                ev["ph"],
                ev.get("name", "?"),
                ev.get("ts", 0) / 1e6,
                ev.get("dur", 0) / 1e6,
                ev.get("pid", 0),
                ev.get("tid", 0),
                ev.get("args"),
            )
        )
    return records


def _cmd_summarize(args: argparse.Namespace) -> int:
    records = _records_from_trace(args.trace)
    print(f"{args.trace}: {len(records)} events")
    print(format_summary(records, top=args.top))
    with open(args.trace) as fh:
        other = json.load(fh).get("otherData") or {}
    counters = other.get("counters") or {}
    if counters:
        print()
        print("counters:")
        for name in sorted(counters):
            print(f"  {name} = {counters[name]:g}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect repro telemetry: trace summaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser(
        "summarize", help="aggregate a trace-event JSON file into a text table"
    )
    p_sum.add_argument("trace", help="path to a trace written via REPRO_TRACE/stop_trace")
    p_sum.add_argument("--top", type=int, default=None, help="show only the top N spans")
    p_sum.set_defaults(func=_cmd_summarize)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
