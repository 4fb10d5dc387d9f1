"""``repro.analysis`` — project-specific static analysis.

An AST-based lint pass that proves the repo's own invariants hold — the
things a generic linter cannot know:

* ``capability-contract`` — declared :class:`BackendCapabilities` flags
  match what each registered backend actually implements (checked against
  the *live* registry);
* ``hot-path-alloc`` — ``@hot_path`` kernels neither loop over edges nor
  allocate edge/vertex-sized temporaries outside the plan's reused buffers;
* ``no-add-at`` — every scatter routes through the one primitive,
  ``scatter_add`` (itself ``np.add.at``), or ``np.bincount``;
* ``shm-lifecycle`` — every shared-memory segment is closed and unlinked
  on all paths;
* ``index-dtype`` — int32 narrowing only via ``choose_index_dtype``;
* ``fork-safety`` — no import-time pools/segments, no lambdas shipped to
  process workers;
* ``bench-schema`` — benchmark scripts emit the shared, gated result
  schema.

Use it as a library::

    from repro.analysis import analyze_paths
    findings = analyze_paths(["src/repro"])

or from the command line (non-zero exit on findings, for CI)::

    python -m repro.analysis src/repro benchmarks --format json

Findings are suppressed per line with ``# repro: ignore[rule-name]``
(same line or the line above) or per file with
``# repro: ignore-file[rule-name]``; every suppression in the tree should
carry a one-line justification.
"""

from .annotations import hot_path, is_hot_path
from .engine import Project, SourceModule, analyze_paths, iter_python_files
from .findings import Finding, Severity
from .registry import Rule, all_rules, get_rule, list_rules, register_rule

__all__ = [
    "analyze_paths",
    "iter_python_files",
    "Project",
    "SourceModule",
    "Finding",
    "Severity",
    "Rule",
    "register_rule",
    "all_rules",
    "get_rule",
    "list_rules",
    "hot_path",
    "is_hot_path",
]
