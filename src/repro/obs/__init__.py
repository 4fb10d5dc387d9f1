"""``repro.obs`` — zero-overhead tracing and metrics.

Quickstart::

    import repro.obs as obs
    from repro import get_backend

    obs.start_trace("trace.json")     # or: REPRO_TRACE=trace.json python ...
    result = get_backend("auto").embed(graph, labels, 50)
    print(obs.format_summary())       # text table of spans by inclusive time
    obs.stop_trace()                  # writes Perfetto-compatible JSON

Everything is off by default: until :func:`enable` / :func:`start_trace`
(or ``REPRO_TRACE``) flips the module flag, each instrumentation site
costs one boolean check and allocates nothing.  See
``docs/observability.md`` for span naming conventions and exporter
formats, and ``python -m repro.obs summarize --help`` for the CLI.
"""

from __future__ import annotations

from .core import (
    CLOCK,
    MAX_SPANS,
    Span,
    clear,
    disable,
    dropped,
    enable,
    enabled,
    mark,
    record_event,
    record_span,
    records_since,
    snapshot,
    trace,
    traced,
)
from .export import (
    aggregate,
    format_summary,
    start_trace,
    stop_trace,
    telemetry,
    to_trace_events,
    write_trace,
)
from .export import _env_trace_path
from . import metrics

__all__ = [
    "CLOCK",
    "MAX_SPANS",
    "Span",
    "trace",
    "traced",
    "enable",
    "disable",
    "enabled",
    "record_event",
    "record_span",
    "mark",
    "records_since",
    "snapshot",
    "clear",
    "dropped",
    "metrics",
    "start_trace",
    "stop_trace",
    "to_trace_events",
    "write_trace",
    "aggregate",
    "format_summary",
    "telemetry",
]

# REPRO_TRACE=path arms tracing for the whole process at import time.
_env_path = _env_trace_path()
if _env_path is not None:  # pragma: no cover - exercised via subprocess tests
    start_trace(_env_path)
del _env_path
