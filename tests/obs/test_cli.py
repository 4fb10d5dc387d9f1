"""The ``python -m repro.obs`` CLI surface."""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs.__main__ import main


@pytest.fixture()
def trace_file(tmp_path):
    obs.enable()
    with obs.trace("backend.embed", backend="vectorized"):
        with obs.trace("phase.edge_pass"):
            pass
    obs.metrics.count("edges_processed", 42)
    obs.disable()
    path = obs.write_trace(tmp_path / "trace.json")
    obs.clear()
    obs.metrics.reset()
    return path


def test_summarize_prints_table_and_counters(trace_file, capsys):
    assert main(["summarize", str(trace_file)]) == 0
    out = capsys.readouterr().out
    assert "backend.embed" in out
    assert "phase.edge_pass" in out
    assert "edges_processed = 42" in out


def test_summarize_top_limits_rows(trace_file, capsys):
    main(["summarize", str(trace_file), "--top", "1"])
    out = capsys.readouterr().out
    assert "backend.embed" in out
    assert "phase.edge_pass" not in out.split("counters:")[0]
