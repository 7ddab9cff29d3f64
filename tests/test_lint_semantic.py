"""Tests for repro-lint v2's semantic layer.

Covers the whole-program project model (import graph, name resolution),
the dataflow pass (value lattice, CFG-lite path enumeration), the four
semantic rules (RL006 contract drift, RL007 dtype discipline, RL008
exactly-once accounting, RL009 iteration order) with must-fire and
must-not-fire fixtures, the SARIF reporter, and the acceptance proofs
over the real tree: ``src/`` is clean under the semantic rules, the
committed contract file is fresh, and RL008's path ledger balances
every settle path in the real pipeline.

Fixture trees use the same ``repro/...`` layout as ``test_lint.py`` so
dotted module names land inside the rules' scopes.
"""

from __future__ import annotations

import ast
import json
import shutil
import textwrap
from pathlib import Path

import pytest

from repro.lint import lint_paths, render_sarif
from repro.lint.cli import run_lint_command
from repro.lint.contracts import compute_contracts
from repro.lint.dataflow import (
    ARRAY,
    FLOAT32,
    FLOAT64,
    INT,
    LIST,
    SCALAR,
    SET,
    Dataflow,
    enumerate_paths,
)
from repro.lint.engine import Finding
from repro.lint.model import ModuleInfo, build_model, module_name
from repro.lint.rules.accounting import (
    DISPOSITIONS,
    UNIT_DISPOSITIONS,
    settle_path_report,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
CONTRACTS_FILE = REPO_ROOT / "lint-contracts.json"


def make_tree(tmp_path: Path, files: dict) -> Path:
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path


def run(root: Path, rules=None, *, contracts_path=None):
    return lint_paths([root], rules=rules, contracts_path=contracts_path)


def codes(findings):
    return sorted({f.rule for f in findings})


def parse_fn(source: str) -> ast.FunctionDef:
    tree = ast.parse(textwrap.dedent(source))
    fn = tree.body[0]
    assert isinstance(fn, ast.FunctionDef)
    return fn


# ---------------------------------------------------------------------------
# Project model
# ---------------------------------------------------------------------------


class TestProjectModel:
    def test_module_name_src_layout(self):
        assert module_name(Path("src/repro/analysis/dbf.py")) == (
            "repro.analysis.dbf"
        )
        assert module_name(Path("src/repro/obs/__init__.py")) == "repro.obs"
        assert module_name(Path("scratch/loose.py")) == "scratch.loose"

    def _model(self, tmp_path):
        root = make_tree(tmp_path, {
            "repro/pipeline/impl.py": """\
                def crunch(x: int) -> int:
                    \"\"\"Documented.\"\"\"
                    return x + 1
            """,
            "repro/pipeline/facade.py": """\
                from repro.pipeline.impl import crunch

                __all__ = ["crunch"]
            """,
            "repro/pipeline/top.py": """\
                from repro.pipeline.facade import crunch

                def use(x):
                    return crunch(x)
            """,
            "repro/pipeline/loner.py": "LONER = 1\n",
        })
        files = sorted(root.rglob("*.py"))
        return build_model(files)

    def test_import_graph_edges(self, tmp_path):
        model = self._model(tmp_path)
        closure = model.import_closure("repro.pipeline.top")
        assert "repro.pipeline.facade" in closure
        assert "repro.pipeline.impl" in closure  # transitive
        assert "repro.pipeline.loner" not in closure
        importers = model.importers_of("repro.pipeline.facade")
        assert "repro.pipeline.top" in importers

    def test_resolve_name_follows_reexport_chain(self, tmp_path):
        model = self._model(tmp_path)
        resolved = model.resolve_name("repro.pipeline.facade", "crunch")
        assert resolved is not None
        owner, node = resolved
        assert owner.module == "repro.pipeline.impl"
        assert isinstance(node, ast.FunctionDef)
        assert node.name == "crunch"

    def test_resolve_qualified(self, tmp_path):
        model = self._model(tmp_path)
        resolved = model.resolve_qualified("repro.pipeline.facade.crunch")
        assert resolved is not None
        assert resolved[0].module == "repro.pipeline.impl"

    def test_model_digest_tracks_content(self, tmp_path):
        model = self._model(tmp_path)
        before = model.digest()
        target = tmp_path / "repro" / "pipeline" / "loner.py"
        target.write_text("LONER = 2\n")
        files = sorted(tmp_path.rglob("*.py"))
        assert build_model(files).digest() != before

    def test_parse_rejects_broken_source(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        assert ModuleInfo.parse(bad) is None


# ---------------------------------------------------------------------------
# Dataflow: path enumeration
# ---------------------------------------------------------------------------


class TestEnumeratePaths:
    def _paths(self, source: str, **kwargs):
        fn = parse_fn(source)
        return enumerate_paths(fn.body, **kwargs)

    def test_straight_line_is_one_path(self):
        paths, truncated = self._paths("""\
            def f(x):
                a = x + 1
                return a
        """)
        assert not truncated
        assert len(paths) == 1
        assert len(paths[0]) == 2

    def test_if_else_splits(self):
        paths, _ = self._paths("""\
            def f(x):
                if x:
                    a = 1
                else:
                    a = 2
                return a
        """)
        assert len(paths) == 2

    def test_if_without_else_has_skip_path(self):
        paths, _ = self._paths("""\
            def f(x):
                if x:
                    a = 1
                return x
        """)
        assert len(paths) == 2
        assert min(len(p) for p in paths) == 1  # the skip path

    def test_return_terminates_a_path(self):
        paths, _ = self._paths("""\
            def f(x):
                if x:
                    return 1
                return 2
        """)
        assert len(paths) == 2
        assert all(isinstance(p[-1], ast.Return) for p in paths)

    def test_loop_runs_zero_or_once(self):
        paths, _ = self._paths("""\
            def f(items):
                total = 0
                for item in items:
                    total = total + item
                return total
        """)
        assert len(paths) == 2  # zero-iteration and one-iteration

    def test_try_explores_body_and_handler(self):
        paths, _ = self._paths("""\
            def f(x):
                try:
                    a = x()
                except ValueError:
                    a = 0
                return a
        """)
        assert len(paths) == 2

    def test_limit_sets_truncated_flag(self):
        branches = "\n".join(
            f"    if x == {i}:\n        a = {i}" for i in range(10)
        )
        paths, truncated = self._paths(
            f"def f(x):\n{branches}\n    return x\n", limit=16
        )
        assert truncated
        assert len(paths) <= 16

    def test_atomic_keeps_statement_whole(self):
        fn = parse_fn("""\
            def f(items, out):
                for i in items:
                    out[i] = i
                return out
        """)
        atomic = lambda stmt: isinstance(stmt, ast.For)  # noqa: E731
        paths, truncated = enumerate_paths(fn.body, atomic=atomic)
        assert not truncated
        assert len(paths) == 1
        assert any(isinstance(stmt, ast.For) for stmt in paths[0])


# ---------------------------------------------------------------------------
# Dataflow: value lattice
# ---------------------------------------------------------------------------


class TestValueLattice:
    def _flow(self, source: str):
        fn = parse_fn(source)
        aliases = {"np": "numpy", "numpy": "numpy", "hashlib": "hashlib"}
        return fn, Dataflow.of_function(fn, aliases)

    def _value_of_return(self, source: str):
        fn, flow = self._flow(source)
        ret = fn.body[-1]
        assert isinstance(ret, ast.Return) and ret.value is not None
        return flow.value_of(ret.value)

    def test_set_literal(self):
        value = self._value_of_return("""\
            def f():
                s = {1, 2}
                return s
        """)
        assert value.kind == SET

    def test_sorted_is_ordered_list(self):
        value = self._value_of_return("""\
            def f(s):
                out = sorted(s)
                return out
        """)
        assert value.kind == LIST
        assert value.ordered

    def test_np_zeros_defaults_float64(self):
        value = self._value_of_return("""\
            def f():
                a = np.zeros(4)
                return a
        """)
        assert value.kind == ARRAY
        assert value.dtype == FLOAT64
        assert not value.explicit_dtype

    def test_np_array_infers_from_literal(self):
        value = self._value_of_return("""\
            def f():
                a = np.array([1, 2])
                return a
        """)
        assert value.kind == ARRAY
        assert value.dtype == INT

    def test_astype_float32_tracked(self):
        value = self._value_of_return("""\
            def f(a):
                b = a.astype(np.float32)
                return b
        """)
        assert value.kind == ARRAY
        assert value.dtype == FLOAT32
        assert value.is_float_array

    def test_true_division_promotes_to_float(self):
        value = self._value_of_return("""\
            def f():
                x = 1 / 2
                return x
        """)
        assert value.kind == SCALAR
        assert value.dtype == FLOAT64

    def test_branch_join_decays_disagreement(self):
        value = self._value_of_return("""\
            def f(flag):
                if flag:
                    x = {1}
                else:
                    x = [1]
                return x
        """)
        assert value.kind not in (SET, LIST)


# ---------------------------------------------------------------------------
# RL006: contract drift
# ---------------------------------------------------------------------------


def _checkpoint_fixture(tmp_path: Path) -> Path:
    return make_tree(tmp_path, {
        "repro/pipeline/payload.py": """\
            from typing import TypedDict


            class FailurePayload(TypedDict):
                error: str


            class ReportPayload(TypedDict):
                fingerprint: str
                speedup: float


            class CheckpointEntry(TypedDict):
                key: str
                report: ReportPayload
        """,
        "repro/pipeline/runner.py": """\
            from repro.pipeline import payload

            CHECKPOINT_VERSION = 2
        """,
    })


def _write_contracts(root: Path, dest: Path) -> None:
    model = build_model(sorted(root.rglob("*.py")))
    dest.write_text(
        json.dumps(compute_contracts(model), indent=2, sort_keys=True)
    )


class TestRL006ContractDrift:
    def test_silent_without_contract_file(self, tmp_path):
        root = _checkpoint_fixture(tmp_path)
        assert run(root, rules=["RL006"]) == []

    def test_unchanged_surface_clean(self, tmp_path):
        root = _checkpoint_fixture(tmp_path)
        contracts = tmp_path / "contracts.json"
        _write_contracts(root, contracts)
        assert run(root, rules=["RL006"], contracts_path=contracts) == []

    def test_field_added_without_bump_fires(self, tmp_path):
        root = _checkpoint_fixture(tmp_path)
        contracts = tmp_path / "contracts.json"
        _write_contracts(root, contracts)
        payload = root / "repro" / "pipeline" / "payload.py"
        payload.write_text(payload.read_text().replace(
            "fingerprint: str", "fingerprint: str\n    extra: int"
        ))
        findings = run(root, rules=["RL006"], contracts_path=contracts)
        assert len(findings) == 1
        assert findings[0].rule == "RL006"
        # Anchored at the version constant in the owning module.
        assert findings[0].path.endswith("runner.py")
        assert "CHECKPOINT_VERSION" in findings[0].message
        assert "without bumping" in findings[0].message

    def test_bump_alongside_change_is_sanctioned(self, tmp_path):
        root = _checkpoint_fixture(tmp_path)
        contracts = tmp_path / "contracts.json"
        _write_contracts(root, contracts)
        payload = root / "repro" / "pipeline" / "payload.py"
        payload.write_text(payload.read_text().replace(
            "fingerprint: str", "fingerprint: str\n    extra: int"
        ))
        runner = root / "repro" / "pipeline" / "runner.py"
        runner.write_text(runner.read_text().replace(
            "CHECKPOINT_VERSION = 2", "CHECKPOINT_VERSION = 3"
        ))
        assert run(root, rules=["RL006"], contracts_path=contracts) == []

    def test_field_removed_without_bump_fires(self, tmp_path):
        root = _checkpoint_fixture(tmp_path)
        contracts = tmp_path / "contracts.json"
        _write_contracts(root, contracts)
        payload = root / "repro" / "pipeline" / "payload.py"
        payload.write_text(payload.read_text().replace(
            "    speedup: float\n", ""
        ))
        findings = run(root, rules=["RL006"], contracts_path=contracts)
        assert codes(findings) == ["RL006"]


class TestRL006RealTree:
    """The acceptance check, on a scratch copy of the real ``src/``."""

    SURFACE_FILES = (
        "repro/pipeline/runner.py",
        "repro/pipeline/cache.py",
        "repro/service/schema.py",
        "repro/model/fingerprint.py",
    )

    def _copy_src(self, tmp_path: Path) -> Path:
        shutil.copytree(
            REPO_ROOT / "src" / "repro", tmp_path / "src" / "repro"
        )
        return tmp_path / "src"

    def _lint_surfaces(self, src: Path):
        targets = [src / rel for rel in self.SURFACE_FILES]
        return lint_paths(
            targets, rules=["RL006"], contracts_path=CONTRACTS_FILE
        )

    def test_pristine_copy_is_clean(self, tmp_path):
        src = self._copy_src(tmp_path)
        assert self._lint_surfaces(src) == []

    def test_report_payload_field_without_bump_fires(self, tmp_path):
        src = self._copy_src(tmp_path)
        payload = src / "repro" / "pipeline" / "payload.py"
        payload.write_text(payload.read_text().replace(
            "class ReportPayload(TypedDict):",
            "class ReportPayload(TypedDict):\n    drift_probe: int",
        ))
        findings = self._lint_surfaces(src)
        # ReportPayload participates in the checkpoint, cache and wire
        # surfaces; each owning module raises its own finding.
        assert codes(findings) == ["RL006"]
        constants = {
            name for f in findings
            for name in ("CHECKPOINT_VERSION", "CACHE_FORMAT_VERSION",
                         "WIRE_VERSION")
            if name in f.message
        }
        assert constants == {
            "CHECKPOINT_VERSION", "CACHE_FORMAT_VERSION", "WIRE_VERSION"
        }

    def test_report_payload_field_with_bumps_is_silent(self, tmp_path):
        src = self._copy_src(tmp_path)
        payload = src / "repro" / "pipeline" / "payload.py"
        payload.write_text(payload.read_text().replace(
            "class ReportPayload(TypedDict):",
            "class ReportPayload(TypedDict):\n    drift_probe: int",
        ))
        for rel, old, new in (
            ("repro/pipeline/runner.py",
             "CHECKPOINT_VERSION = 2", "CHECKPOINT_VERSION = 3"),
            ("repro/pipeline/cache.py",
             "CACHE_FORMAT_VERSION = 3", "CACHE_FORMAT_VERSION = 4"),
            ("repro/service/schema.py",
             "WIRE_VERSION = 1", "WIRE_VERSION = 2"),
        ):
            target = src / rel
            text = target.read_text()
            assert old in text, rel
            target.write_text(text.replace(old, new))
        assert self._lint_surfaces(src) == []


class TestContractFileFreshness:
    def test_committed_contracts_match_current_tree(self):
        files = sorted((REPO_ROOT / "src").rglob("*.py"))
        current = compute_contracts(build_model(files))
        committed = json.loads(CONTRACTS_FILE.read_text())
        assert committed == current, (
            "lint-contracts.json is stale: regenerate with "
            "`repro-mc lint src --write-contracts`"
        )

    def test_all_four_surfaces_recorded(self):
        committed = json.loads(CONTRACTS_FILE.read_text())
        assert sorted(committed["surfaces"]) == [
            "cache", "checkpoint", "fingerprint", "wire",
        ]
        for entry in committed["surfaces"].values():
            assert isinstance(entry["version"], int)
            assert len(entry["surface"]) == 64  # hex sha256


# ---------------------------------------------------------------------------
# RL007: dtype discipline
# ---------------------------------------------------------------------------


class TestRL007DtypeDiscipline:
    def _findings(self, tmp_path, body: str):
        make_tree(tmp_path, {
            "repro/analysis/kernels.py": (
                "import numpy as np\n\n" + textwrap.dedent(body)
            ),
        })
        return run(tmp_path, rules=["RL007"])

    def test_inferring_constructor_without_dtype_fires(self, tmp_path):
        findings = self._findings(tmp_path, """\
            def f(values):
                return np.array(values)
        """)
        assert len(findings) == 1
        assert "explicit dtype" in findings[0].message

    def test_explicit_dtype_clean(self, tmp_path):
        assert self._findings(tmp_path, """\
            def f(values):
                return np.array(values, dtype=float)
        """) == []

    def test_fixed_default_constructors_clean(self, tmp_path):
        assert self._findings(tmp_path, """\
            def f(n):
                return np.zeros(n), np.linspace(0.0, 1.0, n)
        """) == []

    def test_astype_float32_fires(self, tmp_path):
        findings = self._findings(tmp_path, """\
            def f(a):
                return a.astype(np.float32)
        """)
        assert len(findings) == 1
        assert "float32" in findings[0].message

    def test_np_sum_on_float_array_fires(self, tmp_path):
        findings = self._findings(tmp_path, """\
            def f(n):
                a = np.zeros(n)
                return np.sum(a)
        """)
        assert len(findings) == 1
        assert "np.add.reduce" in findings[0].message

    def test_method_sum_on_float_array_fires(self, tmp_path):
        findings = self._findings(tmp_path, """\
            def f(n):
                a = np.zeros(n)
                return a.sum()
        """)
        assert len(findings) == 1
        assert "np.add.reduce" in findings[0].message

    def test_add_reduce_clean(self, tmp_path):
        assert self._findings(tmp_path, """\
            def f(n):
                a = np.zeros(n)
                return np.add.reduce(a)
        """) == []

    def test_int_array_sum_clean(self, tmp_path):
        assert self._findings(tmp_path, """\
            def f(n):
                counts = np.zeros(n, dtype=int)
                return counts.sum()
        """) == []

    def test_set_feed_fires(self, tmp_path):
        findings = self._findings(tmp_path, """\
            def f():
                return np.array({1.0, 2.0}, dtype=float)
        """)
        assert len(findings) == 1
        assert "sort first" in findings[0].message

    def test_sorted_set_feed_clean(self, tmp_path):
        assert self._findings(tmp_path, """\
            def f(s):
                return np.array(sorted(s), dtype=float)
        """) == []

    def test_mixed_float32_float64_arithmetic_fires(self, tmp_path):
        findings = self._findings(tmp_path, """\
            def f(n, a):
                lo = np.zeros(n)
                narrow = a.astype(np.float32)
                return lo + narrow
        """)
        assert any(
            "promotes implicitly" in f.message for f in findings
        )

    def test_out_of_scope_module_ignored(self, tmp_path):
        make_tree(tmp_path, {
            "repro/analysis/other.py": """\
                import numpy as np

                def f(values):
                    return np.array(values)
            """,
        })
        assert run(tmp_path, rules=["RL007"]) == []

    def test_real_kernel_modules_clean(self):
        for rel in ("analysis/kernels.py", "analysis/population.py"):
            target = REPO_ROOT / "src" / "repro" / rel
            assert run(target, rules=["RL007"]) == [], rel


# ---------------------------------------------------------------------------
# RL008: exactly-once accounting
# ---------------------------------------------------------------------------


class TestRL008Accounting:
    def _findings(self, tmp_path, body: str):
        make_tree(tmp_path, {
            "repro/pipeline/core.py": textwrap.dedent(body),
        })
        return run(tmp_path, rules=["RL008"])

    def test_store_without_increment_fires(self, tmp_path):
        findings = self._findings(tmp_path, """\
            def settle_all(n, items, stats):
                payloads = [None] * n
                for i, item in enumerate(items):
                    if item.ok:
                        payloads[i] = item.payload
                        stats.computed += 1
                    else:
                        payloads[i] = item.error
                return payloads
        """)
        assert len(findings) == 1
        assert "without incrementing a disposition counter" in (
            findings[0].message
        )

    def test_double_count_fires(self, tmp_path):
        findings = self._findings(tmp_path, """\
            def settle_all(n, items, stats):
                payloads = [None] * n
                for i, item in enumerate(items):
                    payloads[i] = item.payload
                    stats.computed += 1
                    stats.cache_hits += 1
                return payloads
        """)
        assert len(findings) == 1
        assert "exactly one disposition" in findings[0].message

    def test_balanced_paths_clean(self, tmp_path):
        assert self._findings(tmp_path, """\
            def settle_all(n, items, stats, cache):
                payloads = [None] * n
                for i, item in enumerate(items):
                    hit = cache.get(item.key)
                    if hit is not None:
                        payloads[i] = hit
                        stats.cache_hits += 1
                    else:
                        payloads[i] = item.compute()
                        stats.computed += 1
                return payloads
        """) == []

    def test_dedup_fanout_loop_is_atomic_and_clean(self, tmp_path):
        assert self._findings(tmp_path, """\
            def settle_groups(n, groups, stats):
                payloads = [None] * n
                for payload, indices in groups:
                    for j in indices:
                        payloads[j] = payload
                    stats.computed += 1
                    stats.deduplicated += len(indices) - 1
                return payloads
        """) == []

    def test_orphan_increment_fires(self, tmp_path):
        findings = self._findings(tmp_path, """\
            def bump_only(stats):
                stats.computed += 1
        """)
        assert len(findings) == 1
        assert "never stores a settled payload" in findings[0].message

    def test_closure_settling_enclosing_buffer_clean(self, tmp_path):
        # The real executor's shape: `settle` closes over `execute`'s buffer.
        assert self._findings(tmp_path, """\
            def run(n, items, stats):
                payloads = [None] * n

                def settle(i, item):
                    if item.failed:
                        payloads[i] = item.error
                        stats.quarantined += 1
                    else:
                        payloads[i] = item.payload
                        stats.computed += 1

                for i, item in enumerate(items):
                    settle(i, item)
                return payloads
        """) == []

    def test_merge_skipped_on_a_path_fires(self, tmp_path):
        findings = self._findings(tmp_path, """\
            def _settle(self, result):
                if result.ok:
                    self.stats = self.stats + result.stats
        """)
        assert len(findings) == 1
        assert "skips the stats merge" in findings[0].message

    def test_merge_on_every_path_clean(self, tmp_path):
        assert self._findings(tmp_path, """\
            def _settle(self, result):
                if result.ok:
                    self.stats = self.stats + result.stats
                else:
                    self.stats = self.stats + result.partial_stats
        """) == []

    def test_double_merge_fires(self, tmp_path):
        findings = self._findings(tmp_path, """\
            def _settle(self, result):
                self.stats = self.stats + result.stats
                self.stats = self.stats + result.stats
        """)
        assert len(findings) == 1
        assert "more than once" in findings[0].message

    def test_stats_class_missing_disposition_fires(self, tmp_path):
        findings = self._findings(tmp_path, """\
            class BatchStats:
                def __add__(self, other):
                    return BatchStats(
                        total=self.total + other.total,
                        computed=self.computed + other.computed,
                        cache_hits=self.cache_hits + other.cache_hits,
                        resumed=self.resumed + other.resumed,
                        deduplicated=(
                            self.deduplicated + other.deduplicated
                        ),
                    )

                def settled(self):
                    return (
                        self.computed + self.cache_hits + self.resumed
                        + self.deduplicated + self.quarantined
                    )

                def reconciles(self):
                    return self.settled() == self.total
        """)
        assert len(findings) == 1
        assert "__add__" in findings[0].message
        assert "quarantined" in findings[0].message

    def test_out_of_scope_module_ignored(self, tmp_path):
        make_tree(tmp_path, {
            "repro/analysis/x.py": """\
                def settle_all(n, items, stats):
                    payloads = [None] * n
                    for i, item in enumerate(items):
                        payloads[i] = item
                    return payloads
            """,
        })
        assert run(tmp_path, rules=["RL008"]) == []


class TestRL008RealPipelineProof:
    """Acceptance: the five dispositions cover every real settle path."""

    def _report(self, rel: str):
        path = REPO_ROOT / "src" / "repro" / "pipeline" / rel
        tree = ast.parse(path.read_text())
        return settle_path_report(tree, module=f"repro.pipeline.{rel[:-3]}")

    def test_disposition_set_is_the_contract(self):
        assert sorted(DISPOSITIONS) == [
            "cache_hits", "computed", "deduplicated", "quarantined",
            "resumed",
        ]
        assert sorted(UNIT_DISPOSITIONS) == [
            "cache_hits", "computed", "quarantined", "resumed",
        ]

    def test_every_settle_path_in_runner_is_balanced(self):
        report = self._report("runner.py")
        settlers = [f for f in report["functions"] if f["settles"]]
        # The settle loop lives in runner.execute; the proof must cover it.
        assert {"execute", "execute.<locals>.settle"} <= {
            f["name"] for f in settlers
        }
        for fn in settlers:
            assert not fn["truncated"], fn["name"]
            assert fn["paths"], fn["name"]
            for path in fn["paths"]:
                assert len(path["increments"]) == path["stores"], (
                    fn["name"], path
                )

    def test_unit_dispositions_all_exercised_in_runner(self):
        report = self._report("runner.py")
        seen = {
            name
            for fn in report["functions"]
            for path in fn["paths"]
            for name in path["increments"]
        }
        assert seen == UNIT_DISPOSITIONS

    def test_core_merges_stats_exactly_once_per_path(self):
        report = self._report("core.py")
        merging = [f for f in report["functions"] if f["merging"]]
        assert merging, "core must contain the stats merge"
        for fn in merging:
            assert not fn["truncated"], fn["name"]
            for path in fn["paths"]:
                assert path["merges"] == 1, (fn["name"], path)

    def test_real_pipeline_clean_under_rl008(self):
        for rel in ("core.py", "runner.py", "fault_tolerance.py"):
            target = REPO_ROOT / "src" / "repro" / "pipeline" / rel
            assert run(target, rules=["RL008"]) == [], rel


# ---------------------------------------------------------------------------
# RL009: iteration order
# ---------------------------------------------------------------------------


class TestRL009IterationOrder:
    def _findings(self, tmp_path, body: str):
        make_tree(tmp_path, {
            "repro/pipeline/order.py": textwrap.dedent(body),
        })
        return run(tmp_path, rules=["RL009"])

    def test_for_over_set_fires(self, tmp_path):
        findings = self._findings(tmp_path, """\
            def f(keys):
                pending = {k for k in keys}
                out = []
                for key in pending:
                    out.append(key)
                return out
        """)
        assert len(findings) == 1
        assert "set order is process-dependent" in findings[0].message

    def test_sorted_set_clean(self, tmp_path):
        assert self._findings(tmp_path, """\
            def f(keys):
                pending = {k for k in keys}
                out = []
                for key in sorted(pending):
                    out.append(key)
                return out
        """) == []

    def test_glob_iteration_fires(self, tmp_path):
        findings = self._findings(tmp_path, """\
            def f(base):
                return [p.name for p in base.glob("*.json")]
        """)
        assert len(findings) == 1
        assert "filesystem enumeration" in findings[0].message

    def test_sorted_glob_clean(self, tmp_path):
        assert self._findings(tmp_path, """\
            def f(base):
                return [p.name for p in sorted(base.glob("*.json"))]
        """) == []

    def test_dict_walk_in_serializing_function_fires(self, tmp_path):
        findings = self._findings(tmp_path, """\
            def f(d, handle):
                for key, value in d.items():
                    handle.write(f"{key}={value}")
        """)
        assert len(findings) == 1
        assert "serializes" in findings[0].message

    def test_sorted_dict_walk_in_serializing_function_clean(
        self, tmp_path
    ):
        assert self._findings(tmp_path, """\
            def f(d, handle):
                for key, value in sorted(d.items()):
                    handle.write(f"{key}={value}")
        """) == []

    def test_dict_walk_without_sink_clean(self, tmp_path):
        assert self._findings(tmp_path, """\
            def f(d):
                return sum(v for v in d.values())
        """) == []

    def test_json_dump_with_sort_keys_is_not_a_sink(self, tmp_path):
        assert self._findings(tmp_path, """\
            import json

            def f(d, handle):
                rows = {k: v for k, v in d.items()}
                json.dump(rows, handle, sort_keys=True)
        """) == []

    def test_out_of_scope_module_ignored(self, tmp_path):
        make_tree(tmp_path, {
            "repro/analysis/x.py": """\
                def f(s):
                    return [x for x in {1, 2, 3}]
            """,
        })
        assert run(tmp_path, rules=["RL009"]) == []


# ---------------------------------------------------------------------------
# SARIF reporter
# ---------------------------------------------------------------------------


class TestSarif:
    FRESH = Finding(
        rule="RL002", path="src/repro/analysis/x.py", line=3, col=8,
        message="float-valued comparison",
    )
    OLD = Finding(
        rule="RL003", path="src/repro/pipeline/y.py", line=7, col=0,
        message="wall clock in deterministic scope",
    )

    def _document(self):
        return json.loads(render_sarif([self.FRESH], [self.OLD],
                                       checked_files=2))

    def test_version_and_schema(self):
        doc = self._document()
        assert doc["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in doc["$schema"]
        assert len(doc["runs"]) == 1

    def test_driver_lists_every_rule(self):
        driver = self._document()["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        ids = [rule["id"] for rule in driver["rules"]]
        assert ids == sorted(ids)
        assert len(ids) == 10
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]

    def test_results_reference_rules_by_index(self):
        run_obj = self._document()["runs"][0]
        ids = [rule["id"] for rule in run_obj["tool"]["driver"]["rules"]]
        for result in run_obj["results"]:
            assert ids[result["ruleIndex"]] == result["ruleId"]

    def test_locations_are_one_based(self):
        result = self._document()["runs"][0]["results"][0]
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 3
        assert region["startColumn"] == 9  # engine col 8 is SARIF col 9

    def test_baselined_findings_are_suppressed_not_dropped(self):
        results = self._document()["runs"][0]["results"]
        assert len(results) == 2
        fresh = [r for r in results if "suppressions" not in r]
        suppressed = [r for r in results if "suppressions" in r]
        assert len(fresh) == 1 and len(suppressed) == 1
        assert suppressed[0]["suppressions"][0]["kind"] == "external"

    def test_cli_sarif_output_parses(self, tmp_path, capsys):
        root = make_tree(tmp_path, {
            "repro/analysis/bad.py": """\
                def f(x):
                    return x == 0.0
            """,
        })
        code = run_lint_command(
            [str(root)], output_format="sarif",
            baseline_path=str(tmp_path / "b.json"),
        )
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"][0]["ruleId"] == "RL002"


# ---------------------------------------------------------------------------
# Acceptance: the shipped tree is clean under the semantic rules
# ---------------------------------------------------------------------------


class TestSemanticRulesSelfCheck:
    @pytest.mark.parametrize("rule", ["RL006", "RL007", "RL008", "RL009"])
    def test_src_clean_under_semantic_rule(self, rule):
        findings = lint_paths(
            [REPO_ROOT / "src"], rules=[rule],
            contracts_path=CONTRACTS_FILE,
        )
        assert findings == [], [f"{f.path}:{f.line} {f.message}"
                                for f in findings]
