"""Meta-tests: the committed tree satisfies its own static-analysis pass."""

from __future__ import annotations

from pathlib import Path

from repro.analysis import analyze_paths
from repro.analysis.rules.contracts import check_capability_contract
from repro.backends.registry import list_backends

REPO_ROOT = Path(__file__).resolve().parents[2]
ANALYZED = [REPO_ROOT / "src" / "repro", REPO_ROOT / "benchmarks"]


def test_tree_is_analyzer_clean():
    findings = analyze_paths(ANALYZED, root=REPO_ROOT)
    assert findings == [], "\n".join(f.render() for f in findings)


def test_suppressions_are_bounded():
    """Every suppression is auditable; the count only changes deliberately."""
    everything = analyze_paths(ANALYZED, include_suppressed=True, root=REPO_ROOT)
    suppressed = [f for f in everything if f.suppressed]
    active = [f for f in everything if not f.suppressed]
    assert active == [], "\n".join(f.render() for f in active)
    assert 1 <= len(suppressed) <= 24, "\n".join(f.render() for f in suppressed)


def test_live_registry_passes_capability_contract():
    backends = list_backends()
    assert len(backends) >= 8, backends
    findings = list(check_capability_contract())
    assert findings == [], "\n".join(f.render() for f in findings)
