"""RL004: fork-safety of work shipped to the process pool.

The :class:`~repro.pipeline.core.WorkQueueCore` promises that ``jobs=N``
equals ``jobs=1`` byte for byte.  That only holds when every callable
submitted to its ``ProcessPoolExecutor``

* **pickles** — lambdas, nested functions and bound methods do not
  survive the trip to a worker (or fail at submit time with an error
  pointing nowhere useful); and
* **communicates only through its arguments and return value** — a
  worker mutating module-level state mutates its *own copy*; the parent
  never sees the write, so the result silently depends on which process
  ran the item.  (Worker-local state that is explicitly shipped back,
  like the kernels' perf-counter deltas, is the sanctioned pattern.)

The rule finds ``with ProcessPoolExecutor(...) as ex:`` blocks, takes
every ``ex.submit(fn, ...)`` / ``ex.map(fn, ...)`` call site, and:

* flags a lambda or nested/locally-defined function at the call site;
* resolves ``fn`` to its module-level definition (following project
  imports) and traverses its project-internal call graph transitively,
  flagging any reachable function that rebinds a ``global`` name or
  assigns to an attribute/item of a module-level binding.

Arguments that are themselves parameters (``map_items``-style generic
fan-out) cannot be resolved statically and are skipped — the semantics
there belong to the caller.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.lint.engine import Finding, LintContext, register
from repro.lint.model import ModuleInfo

CODE = "RL004"

#: Bound on transitive traversal (cycle-safe anyway; this caps cost).
_MAX_VISITED = 200

_EXECUTOR_TYPES = {"ProcessPoolExecutor"}
_SUBMIT_METHODS = {"submit", "map"}


def _is_executor_ctor(call: ast.AST) -> bool:
    if not isinstance(call, ast.Call):
        return False
    func = call.func
    ctor = func.id if isinstance(func, ast.Name) else (
        func.attr if isinstance(func, ast.Attribute) else None
    )
    return ctor in _EXECUTOR_TYPES


def _executor_names(tree: ast.Module) -> Set[str]:
    """Names bound to a pool executor anywhere in the module.

    Covers both binding forms the codebase uses: ``with
    ProcessPoolExecutor(...) as name`` blocks and plain assignments
    (``name = ProcessPoolExecutor(...)`` / ``name = self._new_pool()``
    where the helper's body is a constructor call) — the supervised
    retry loop in the runner manages executor lifetime manually, and
    its submit sites must stay covered by this rule.
    """
    names: Set[str] = set()
    # Helper functions/methods whose body just builds an executor
    # (``return ProcessPoolExecutor(...)``): calls to them count too.
    factory_names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in ast.walk(node):
                if isinstance(stmt, ast.Return) and _is_executor_ctor(stmt.value):
                    factory_names.add(node.name)

    def _binds_executor(value: Optional[ast.AST]) -> bool:
        if _is_executor_ctor(value):
            return True
        if isinstance(value, ast.Call):
            func = value.func
            callee = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None
            )
            return callee in factory_names
        return False

    for node in ast.walk(tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if _binds_executor(item.context_expr) and isinstance(
                    item.optional_vars, ast.Name
                ):
                    names.add(item.optional_vars.id)
        elif isinstance(node, ast.Assign):
            if _binds_executor(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        elif isinstance(node, ast.AnnAssign):
            if _binds_executor(node.value) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
    return names


def _module_level_bindings(tree: ast.Module) -> Set[str]:
    """Names assigned at module top level (candidates for shared state)."""
    bound: Set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(node.target, ast.Name):
                bound.add(node.target.id)
    return bound


def _global_writes(fn: ast.FunctionDef) -> List[Tuple[ast.AST, str]]:
    """(node, name) pairs where ``fn`` writes names it declared global."""
    declared: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Global):
            declared.update(node.names)
    if not declared:
        return []
    writes: List[Tuple[ast.AST, str]] = []
    for node in ast.walk(fn):
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id in declared:
                writes.append((node, target.id))
    return writes


def _shared_state_writes(
    fn: ast.FunctionDef, module_bindings: Set[str]
) -> List[Tuple[ast.AST, str]]:
    """Assignments to attributes/items of module-level bindings.

    Local rebindings shadow module state and are ignored: only
    ``SHARED.attr = ...`` / ``SHARED[...] = ...`` / ``SHARED.x += ...``
    on a name that is module-level *and not rebound locally* counts.
    """
    local: Set[str] = {arg.arg for arg in fn.args.args}
    local.update(arg.arg for arg in fn.args.kwonlyargs)
    local.update(arg.arg for arg in fn.args.posonlyargs)
    if fn.args.vararg:
        local.add(fn.args.vararg.arg)
    if fn.args.kwarg:
        local.add(fn.args.kwarg.arg)
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    local.add(target.id)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            if isinstance(node.target, ast.Name):
                local.add(node.target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if isinstance(node.target, ast.Name):
                local.add(node.target.id)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.optional_vars, ast.Name):
                    local.add(item.optional_vars.id)

    writes: List[Tuple[ast.AST, str]] = []
    for node in ast.walk(fn):
        targets = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        for target in targets:
            base = target
            while isinstance(base, (ast.Attribute, ast.Subscript)):
                base = base.value
            if (
                target is not base  # an attribute/item write, not a rebind
                and isinstance(base, ast.Name)
                and base.id in module_bindings
                and base.id not in local
            ):
                writes.append((node, base.id))
    return writes


class _Traversal:
    """Cycle-safe transitive walk of the project-internal call graph.

    Resolution runs over the project model: the per-module index
    (:class:`~repro.lint.model.ModuleInfo`) provides top-level
    functions and import bindings, and cross-module hops go through
    ``model.get`` so any indexed module — not just the one being
    linted — anchors the traversal.
    """

    def __init__(self, context: LintContext) -> None:
        self.context = context
        self.visited: Set[Tuple[str, str]] = set()
        self.findings: List[Finding] = []

    def _flag(self, origin: ast.AST, message: str) -> None:
        self.findings.append(self.context.finding(CODE, origin, message))

    def visit(
        self,
        fn_name: str,
        info: ModuleInfo,
        origin: ast.AST,
        chain: str,
    ) -> None:
        key = (info.module, fn_name)
        if key in self.visited or len(self.visited) >= _MAX_VISITED:
            return
        self.visited.add(key)
        fn = info.functions.get(fn_name)
        if fn is None:
            target = info.import_bindings.get(fn_name)
            if target is not None and target[0].startswith("repro"):
                imported = self.context.model.get(target[0])
                if imported is not None:
                    self.visit(target[1], imported, origin, chain)
            return

        for node, name in _global_writes(fn):
            self._flag(
                origin,
                f"{chain} reaches {info.module}.{fn_name}, which "
                f"writes module-level global {name!r} (line "
                f"{getattr(node, 'lineno', '?')}); workers never share "
                f"that write back",
            )
        bindings = _module_level_bindings(info.tree)
        for node, name in _shared_state_writes(fn, bindings):
            self._flag(
                origin,
                f"{chain} reaches {info.module}.{fn_name}, which "
                f"mutates module-level state {name!r} (line "
                f"{getattr(node, 'lineno', '?')}); worker-local mutations "
                f"are lost unless explicitly shipped back",
            )

        # Recurse into project-internal calls by simple name.
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                self.visit(
                    node.func.id, info, origin,
                    f"{chain} -> {node.func.id}",
                )


@register(CODE, "fork-safety: callables submitted to the process pool "
                "must pickle and must not write shared module state")
def check_fork_safety(context: LintContext) -> Iterator[Finding]:
    executors = _executor_names(context.tree)
    if not executors:
        return
    functions = context.info.functions
    nested: Set[str] = set()
    for outer in ast.walk(context.tree):
        if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(outer):
                if (
                    inner is not outer
                    and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
                ):
                    nested.add(inner.name)

    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in _SUBMIT_METHODS
            and isinstance(func.value, ast.Name)
            and func.value.id in executors
        ):
            continue
        if not node.args:
            continue
        submitted = node.args[0]
        if isinstance(submitted, ast.Lambda):
            yield context.finding(
                CODE, submitted,
                "lambda submitted to a process pool: lambdas do not pickle",
            )
            continue
        if not isinstance(submitted, ast.Name):
            yield context.finding(
                CODE, submitted,
                "only a module-level function can be submitted to a process "
                "pool (bound methods and expressions may not pickle)",
            )
            continue
        name = submitted.id
        if name in nested and name not in functions:
            yield context.finding(
                CODE, submitted,
                f"nested function {name!r} submitted to a process pool: "
                f"closures do not pickle",
            )
            continue
        if (
            name not in functions
            and name not in context.info.import_bindings
        ):
            continue  # a parameter or local alias: caller owns semantics
        traversal = _Traversal(context)
        traversal.visit(name, context.info, submitted, name)
        yield from traversal.findings
