"""Positive/negative fixture tests for every built-in analysis rule."""

from __future__ import annotations

import textwrap

import numpy as np
import pytest

from repro.analysis import analyze_paths
from repro.analysis.rules.contracts import CapabilityContractRule, check_capability_contract
from repro.backends.registry import BackendCapabilities, GEEBackend


def run_rule(tmp_path, rule, source, filename="mod.py"):
    path = tmp_path / filename
    path.write_text(textwrap.dedent(source).lstrip("\n"))
    return analyze_paths([path], rules=[rule] if isinstance(rule, str) else rule, root=tmp_path)


# --------------------------------------------------------------------------- #
# no-add-at
# --------------------------------------------------------------------------- #
def test_no_add_at_flags_add_and_subtract(tmp_path):
    findings = run_rule(
        tmp_path,
        "no-add-at",
        """
        import numpy as np
        np.add.at(a, i, v)
        np.subtract.at(a, i, 1)
        numpy.add.at(a, i, v)
        """,
    )
    assert [f.line for f in findings] == [2, 3, 4]
    assert all(f.rule == "no-add-at" for f in findings)


def test_no_add_at_ignores_sanctioned_scatter(tmp_path):
    findings = run_rule(
        tmp_path,
        "no-add-at",
        """
        import numpy as np
        out += np.bincount(idx, weights=w, minlength=out.size)
        scatter_add(out, idx, w)
        np.add(a, b)  # plain ufunc call, not .at
        """,
    )
    assert findings == []


# --------------------------------------------------------------------------- #
# hot-path-alloc
# --------------------------------------------------------------------------- #
def test_hot_path_alloc_flags_edge_loop_and_alloc(tmp_path):
    findings = run_rule(
        tmp_path,
        "hot-path-alloc",
        """
        import numpy as np
        from repro.analysis.annotations import hot_path

        @hot_path
        def kernel(src, dst, weights, n, n_classes):
            for u in src:
                pass
            for i in range(n_edges):
                pass
            tmp = np.zeros(n * n_classes)
            cat = np.concatenate((src, dst))
            return tmp, cat
        """,
    )
    assert [f.line for f in findings] == [6, 8, 10, 11]
    assert all(f.symbol == "kernel" for f in findings)


def test_hot_path_alloc_ignores_unmarked_and_block_sized(tmp_path):
    findings = run_rule(
        tmp_path,
        "hot-path-alloc",
        """
        import numpy as np
        from repro.analysis.annotations import hot_path

        def cold(src, n):
            tmp = np.zeros(n)          # not @hot_path: fine
            for u in src:
                pass

        @hot_path(reason="kernel")
        def kernel(flat, cuts, weights):
            for i in range(len(cuts) - 1):   # block loop: fine
                block = np.bincount(flat[cuts[i]:cuts[i+1]])
            small = np.zeros(len(cuts))      # block-sized: fine
            return small
        """,
    )
    assert findings == []


@pytest.mark.parametrize(
    "decorator",
    ["@jit(nopython=True, parallel=True)", "@numba.jit(cache=True)", "@jit"],
)
def test_hot_path_alloc_has_no_jit_exemption(tmp_path, decorator):
    """Edge-sized loops are flagged whatever decorates the kernel: no
    compiled tier runs here, so every loop body is interpreted."""
    findings = run_rule(
        tmp_path,
        "hot-path-alloc",
        f"""
        import numpy as np
        from repro.analysis.annotations import hot_path

        @hot_path
        {decorator}
        def kernel(out, src, dst, weights):
            for i in range(len(src)):
                out[dst[i]] += weights[i]
        """,
    )
    assert [f.line for f in findings] == [7]
    assert "Python-level loop" in findings[0].message


def test_hot_path_alloc_flags_output_sized_scratch_in_decorated_kernel(tmp_path):
    findings = run_rule(
        tmp_path,
        "hot-path-alloc",
        """
        import numpy as np
        from repro.analysis.annotations import hot_path

        @hot_path
        @jit(cache=True)
        def kernel(src, dst, n_classes):
            scratch = np.zeros(len(src) * n_classes)
            return scratch
        """,
    )
    assert [f.line for f in findings] == [7]
    assert "reused buffers" in findings[0].message


def test_hot_path_alloc_suppression(tmp_path):
    findings = run_rule(
        tmp_path,
        "hot-path-alloc",
        """
        import numpy as np
        from repro.analysis.annotations import hot_path

        @hot_path
        def kernel(src, dst):
            return np.concatenate((src, dst))  # repro: ignore[hot-path-alloc] O(delta)
        """,
    )
    assert findings == []


# --------------------------------------------------------------------------- #
# index-dtype
# --------------------------------------------------------------------------- #
def test_index_dtype_flags_literal_int32(tmp_path):
    findings = run_rule(
        tmp_path,
        "index-dtype",
        """
        import numpy as np
        a = idx.astype(np.int32)
        b = idx.astype("int32")
        c = np.zeros(5, dtype=np.int32)
        d = np.arange(5, dtype="int32")
        """,
    )
    assert [f.line for f in findings] == [2, 3, 4, 5]


def test_index_dtype_allows_int64_and_choose_index_dtype(tmp_path):
    findings = run_rule(
        tmp_path,
        "index-dtype",
        """
        import numpy as np
        from repro.core.plan import choose_index_dtype
        a = idx.astype(np.int64)
        dt = choose_index_dtype(n, k)
        b = idx.astype(dt)
        c = np.zeros(5, dtype=np.float64)
        """,
    )
    assert findings == []


# --------------------------------------------------------------------------- #
# shm-lifecycle
# --------------------------------------------------------------------------- #
def test_shm_lifecycle_flags_unprotected_creation(tmp_path):
    findings = run_rule(
        tmp_path,
        "shm-lifecycle",
        """
        from multiprocessing import shared_memory

        def leaky(n):
            seg = shared_memory.SharedMemory(create=True, size=n)
            data = do_work(seg)
            return data
        """,
    )
    assert len(findings) == 1
    assert findings[0].rule == "shm-lifecycle"
    assert findings[0].symbol == "leaky"


def test_shm_lifecycle_accepts_ownership_patterns(tmp_path):
    findings = run_rule(
        tmp_path,
        "shm-lifecycle",
        """
        from multiprocessing import shared_memory

        def with_statement():
            with SharedArraySet() as shm:
                return shm.handles()

        def try_finally(n):
            seg = shared_memory.SharedMemory(create=True, size=n)
            try:
                work(seg)
            finally:
                seg.close()
                seg.unlink()

        def except_handler(n):
            seg = shared_memory.SharedMemory(create=True, size=n)
            try:
                work(seg)
            except BaseException:
                seg.close()
                seg.unlink()
                raise

        def transfer(n):
            seg = shared_memory.SharedMemory(create=True, size=n)
            return seg

        class Owner:
            def __init__(self, n):
                self.seg = shared_memory.SharedMemory(create=True, size=n)

            def close(self):
                self.seg.close()
                self.seg.unlink()
        """,
    )
    assert findings == []


def test_shm_lifecycle_flags_self_storage_without_close(tmp_path):
    findings = run_rule(
        tmp_path,
        "shm-lifecycle",
        """
        from multiprocessing import shared_memory

        class NoClose:
            def __init__(self, n):
                self.seg = shared_memory.SharedMemory(create=True, size=n)
        """,
    )
    assert len(findings) == 1
    assert findings[0].symbol == "__init__"


# --------------------------------------------------------------------------- #
# fork-safety
# --------------------------------------------------------------------------- #
def test_fork_safety_flags_import_time_resources(tmp_path):
    findings = run_rule(
        tmp_path,
        "fork-safety",
        """
        from repro.parallel.shm import SharedArraySet
        from concurrent.futures import ProcessPoolExecutor

        SHM = SharedArraySet()
        POOL = ProcessPoolExecutor(4)
        """,
    )
    assert [f.line for f in findings] == [4, 5]
    assert all(f.rule == "fork-safety" for f in findings)


def test_fork_safety_allows_function_scoped_resources(tmp_path):
    findings = run_rule(
        tmp_path,
        "fork-safety",
        """
        from repro.parallel.shm import SharedArraySet

        def make():
            return SharedArraySet()

        def main():
            with SharedArraySet() as shm:
                pass
        """,
    )
    assert findings == []


def test_fork_safety_flags_lambda_to_workers(tmp_path):
    findings = run_rule(
        tmp_path,
        "fork-safety",
        """
        from multiprocessing import Process

        def run(pool, items):
            pool.map(lambda x: x + 1, items)
            pool.submit(lambda: 1)
            p = Process(target=lambda: None)
        """,
    )
    assert [f.line for f in findings] == [4, 5, 6]
    assert all("pickle" in f.message for f in findings)


def test_fork_safety_allows_builtin_map_and_named_functions(tmp_path):
    findings = run_rule(
        tmp_path,
        "fork-safety",
        """
        def run(pool, items):
            out = list(map(lambda x: x + 1, items))  # builtin map: in-process
            pool.map(worker_fn, items)
            return out
        """,
    )
    assert findings == []


# --------------------------------------------------------------------------- #
# bench-schema
# --------------------------------------------------------------------------- #
def test_bench_schema_requires_writer_with_gates(tmp_path):
    missing_writer = run_rule(
        tmp_path,
        "bench-schema",
        """
        def main():
            print("timed nothing")
        """,
        filename="bench_thing.py",
    )
    assert len(missing_writer) == 1
    assert "never calls write_bench_json" in missing_writer[0].message

    missing_gates = run_rule(
        tmp_path,
        "bench-schema",
        """
        from bench_config import write_bench_json

        def main(entries):
            write_bench_json("thing", entries)
        """,
        filename="bench_other.py",
    )
    assert len(missing_gates) == 1
    assert "gates" in missing_gates[0].message


def test_bench_schema_flags_raw_json_dump(tmp_path):
    findings = run_rule(
        tmp_path,
        "bench-schema",
        """
        import json
        from bench_config import write_bench_json

        def main(entries):
            with open("out.json", "w") as fh:
                json.dump(entries, fh)
            write_bench_json("thing", entries, gates=[{"kind": "informational"}])
        """,
        filename="bench_raw.py",
    )
    assert len(findings) == 1
    assert "json.dump" in findings[0].message


def test_bench_schema_skips_non_bench_files(tmp_path):
    findings = run_rule(
        tmp_path,
        "bench-schema",
        """
        import json
        json.dump({}, open("x.json", "w"))
        """,
        filename="helper.py",
    )
    assert findings == []


# --------------------------------------------------------------------------- #
# capability-contract (synthetic registries)
# --------------------------------------------------------------------------- #
def _caps(**kw):
    return BackendCapabilities(**kw)


class _TruthfulPlain(GEEBackend):
    capabilities = _caps()

    def _embed_with_plan(self, plan, labels):  # pragma: no cover - stub
        raise RuntimeError


class _TruthfulFull(GEEBackend):
    capabilities = _caps(
        supports_n_workers=True,
        supports_chunked=True,
        supports_layout=True,
    )

    def _embed_with_plan(self, plan, labels):  # pragma: no cover - stub
        raise RuntimeError

    def _embed_with_chunked_plan(self, plan, labels):  # pragma: no cover - stub
        raise RuntimeError


class _LiesChunked(GEEBackend):
    capabilities = _caps(supports_chunked=True)


class _LiesWorkers(GEEBackend):
    # Claims worker support; base __init__ still raises because the check
    # reads type(self).capabilities... but here the flag is True, so the
    # constructor accepts it: this class is truthful for n_workers and
    # used as the control.
    capabilities = _caps(supports_n_workers=True)


class _RejectsDeclaredWorkers(GEEBackend):
    capabilities = _caps(supports_n_workers=True)

    def __init__(self, *, n_workers=None, **options):
        if n_workers is not None:
            raise ValueError("no workers after all")
        super().__init__(**options)


def test_contract_truthful_registry_is_clean():
    findings = list(
        check_capability_contract({"plain": _TruthfulPlain, "full": _TruthfulFull})
    )
    assert findings == []


def test_contract_detects_missing_chunked_kernel():
    findings = list(check_capability_contract({"liar": _LiesChunked}))
    messages = [f.message for f in findings]
    assert any("supports_chunked=True" in m for m in messages)


class _NoPlanKernel(GEEBackend):
    name = "no-plan-kernel"
    capabilities = _caps()


@pytest.mark.parametrize("entry", ["embed", "embed_with_plan"])
def test_backend_without_plan_kernel_raises_naming_itself(entry):
    """``_embed_with_plan`` is the one kernel a backend implements: without
    it both entry points raise, and no other kernel runs in its place."""
    from repro.graph import Graph, erdos_renyi

    graph = Graph.coerce(erdos_renyi(20, 60, seed=1))
    labels = np.arange(20) % 2
    backend = _NoPlanKernel()
    calls = {
        "embed": lambda: backend.embed(graph, labels, 2),
        "embed_with_plan": lambda: backend.embed_with_plan(graph.plan(2), labels),
    }
    with pytest.raises(NotImplementedError, match="'no-plan-kernel'.*_embed_with_plan"):
        calls[entry]()


def test_contract_detects_n_workers_mismatch():
    findings = list(check_capability_contract({"liar": _RejectsDeclaredWorkers}))
    assert any("supports_n_workers=True" in f.message for f in findings)
    clean = list(check_capability_contract({"ok": _LiesWorkers}))
    assert clean == []


def test_contract_rule_injectable_registry_through_engine(tmp_path):
    (tmp_path / "empty.py").write_text("x = 1\n")
    rule = CapabilityContractRule({"liar": _LiesChunked})
    findings = analyze_paths([tmp_path / "empty.py"], rules=[rule], root=tmp_path)
    assert findings and findings[0].rule == "capability-contract"
