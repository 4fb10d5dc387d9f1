"""``hot-path-alloc`` — allocation/loop discipline for ``@hot_path`` kernels.

A function marked :func:`repro.analysis.annotations.hot_path` runs once per
embed/patch call, so its per-call cost budget excludes:

* Python-level loops over edge/vertex-sized data (``for`` over ``src``,
  ``zip(src, dst)``, ``range(n_edges)``, …) — the interpreted per-edge
  regime the vectorised kernels exist to avoid.  Loops over *block* or
  *chunk* counts are fine: only iterables whose expression mentions an
  edge/vertex size symbol are flagged.
* O(E)/O(n·K) temporary allocation through ``np.zeros`` / ``np.empty`` /
  ``np.ones`` / ``np.full`` / ``np.concatenate`` whose size expression
  derives from edge/vertex symbols.  Per-call output must route through
  the plan's reused buffers (``plan.zeroed_output()`` /
  ``plan.output_matrix()``); block-local ``np.bincount`` temporaries are
  the sanctioned scatter mechanism and are not flagged.

Deliberate exceptions (per-worker private partials, O(Δ) delta arrays that
merely *look* edge-sized) carry ``# repro: ignore[hot-path-alloc]`` with a
one-line justification.

``np.add.at`` outside ``scatter_add`` is flagged by the separate
``no-add-at`` rule.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..registry import Rule, register_rule
from ._util import decorator_matches, dotted_name, iter_functions, subtree_names

__all__ = ["HotPathAllocationRule", "EDGE_SIZE_SYMBOLS", "ALLOCATING_CALLS"]

#: Identifiers treated as edge/vertex-sized quantities.  An allocation or
#: loop bound whose expression mentions any of these is assumed O(E) or
#: O(n·K); block/chunk-sized symbols (``cuts``, ``bounds``, ``slabs``,
#: ``rows_per_block``) are deliberately absent.
EDGE_SIZE_SYMBOLS = frozenset(
    {
        "src",
        "dst",
        "edges",
        "weights",
        "delta_w",
        "owner",
        "partner",
        "src_flat",
        "dst_flat",
        "flat",
        "flat_idx",
        "incidences",
        "indices",
        "indptr",
        "n",
        "m",
        "s",
        "E",
        "n_edges",
        "n_vertices",
        "n_incidences",
        "n_rows",
        "deg",
        "degree",
        "degrees",
    }
)

#: numpy constructors whose result is as large as their size expression.
ALLOCATING_CALLS = frozenset({"zeros", "empty", "ones", "full", "concatenate"})

#: Iterable wrappers a hot loop is allowed to use over *small* quantities.
_LOOP_WRAPPERS = frozenset({"range", "zip", "enumerate", "reversed"})


def _mentions_edge_symbol(node: ast.AST) -> bool:
    return bool(subtree_names(node) & EDGE_SIZE_SYMBOLS)


def _is_numpy_call(dotted: str, leaf: str) -> bool:
    return dotted == f"np.{leaf}" or dotted == f"numpy.{leaf}" or dotted == leaf


@register_rule
class HotPathAllocationRule(Rule):
    name = "hot-path-alloc"
    description = (
        "@hot_path functions may not loop over edge-sized data or allocate "
        "O(E)/O(n*K) temporaries outside the plan's reused buffers"
    )

    def check_module(self, module) -> Iterator[Finding]:
        for fn in iter_functions(module.tree):
            if not decorator_matches(fn, "hot_path"):
                continue
            yield from self._check_function(module, fn)

    def _check_function(self, module, fn) -> Iterator[Finding]:
        for node in ast.walk(fn):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if self._loop_is_edge_sized(node.iter):
                    yield self.finding(
                        module.rel_path,
                        node.lineno,
                        "Python-level loop over edge/vertex-sized data in a "
                        "@hot_path function; vectorise it or loop over "
                        "blocks/chunks instead",
                        col=node.col_offset,
                        symbol=fn.name,
                    )
            elif isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted is None:
                    continue
                leaf = dotted.rsplit(".", 1)[-1]
                if leaf in ALLOCATING_CALLS and _is_numpy_call(dotted, f"{leaf}"):
                    args: list = list(node.args) + [kw.value for kw in node.keywords]
                    if any(_mentions_edge_symbol(a) for a in args):
                        yield self.finding(
                            module.rel_path,
                            node.lineno,
                            f"np.{leaf} with an edge/vertex-derived size in a "
                            "@hot_path function; route the output through the "
                            "plan's reused buffers or justify with "
                            "# repro: ignore[hot-path-alloc]",
                            col=node.col_offset,
                            symbol=fn.name,
                        )

    @staticmethod
    def _loop_is_edge_sized(iter_node: ast.AST) -> bool:
        # Direct iteration over an edge-sized name/attribute.
        direct = dotted_name(iter_node)
        if direct is not None:
            return direct.rsplit(".", 1)[-1] in EDGE_SIZE_SYMBOLS
        # range/zip/enumerate(...) whose arguments mention an edge symbol.
        if isinstance(iter_node, ast.Call):
            fn_name = dotted_name(iter_node.func)
            if fn_name is not None and fn_name.rsplit(".", 1)[-1] in _LOOP_WRAPPERS:
                return any(_mentions_edge_symbol(arg) for arg in iter_node.args)
        return False
