"""``no-add-at`` — keep one scatter primitive.

Every scatter-accumulate in ``src/repro`` routes through
:func:`repro.core.gee_vectorized.scatter_add` (or a block-local
``np.bincount``), so a change of scatter strategy lands in one place.
``scatter_add`` itself is ``np.add.at``, which on NumPy >= 1.25 runs a
fast loop for 1-D ``intp`` indices (see
``benchmarks/bench_ablation_scatter.py``), and carries the one justified
waiver in the library.  The rule flags every other ``add.at`` /
``subtract.at``; the few deliberate uses — the lock-striped bulk atomics,
oracle/reference rows in tests and benchmarks — carry
``# repro: ignore[no-add-at]`` with a justification.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..registry import Rule, register_rule
from ._util import dotted_name

__all__ = ["NoAddAtRule"]


@register_rule
class NoAddAtRule(Rule):
    name = "no-add-at"
    description = (
        "one scatter primitive: route scatter-adds through "
        "repro.core.gee_vectorized.scatter_add (or np.bincount)"
    )

    def check_module(self, module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            if dotted.endswith("add.at") or dotted.endswith("subtract.at"):
                yield self.finding(
                    module.rel_path,
                    node.lineno,
                    f"{dotted}(...) bypasses the one scatter primitive; use "
                    "scatter_add / np.bincount, or justify with "
                    "# repro: ignore[no-add-at]",
                    col=node.col_offset,
                )
