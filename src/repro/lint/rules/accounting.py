"""RL008: every settled result increments exactly one disposition.

``BatchStats.reconciles()`` promises ``computed + cache_hits + resumed
+ deduplicated + quarantined == total`` at the end of every run — the
invariant the crash-recovery tests and the service stats endpoint both
lean on.  The runtime check only tells you the books are off *after* a
run; it cannot point at the settle path that forgot to count, and it
never executes the error paths chaos testing exists for.

This rule proves the invariant statically, per execution path.  A
*settle event* is a store into a result buffer — a subscript
assignment into a name bound to ``[None] * n`` in the function or an
enclosing function (the ``payloads`` buffer that ``settle`` closes
over).  A *disposition increment* is an ``AugAssign`` add on one of
the unit counters (``computed``, ``cache_hits``, ``resumed``,
``quarantined``) through an attribute chain that passes a ``stats``
segment.  On every enumerated path (:func:`repro.lint.dataflow.
enumerate_paths`) through a function that settles, the two must
balance: one increment per store.  ``deduplicated`` rides along
(``+= len(indices) - 1`` fans one payload out to duplicate requests)
and ``failures`` is bookkeeping, not a disposition — neither
participates in the balance.

Three more checks close the loop across functions and layers:

* a unit-disposition increment in a function that never settles is an
  orphan (counting without a result);
* a function that merges stats (``x.stats = a + b.stats`` — the
  coordinator's ``_settle``) must merge on *every* path exactly once,
  or partial-failure accounting drops a submission's counters;
* ``BatchStats`` itself must keep ``__add__`` and ``settled()``
  covering all five dispositions, or the merged invariant silently
  weakens.

Pure fan-out loops (``for i in indices: payloads[i] = payload``) are
kept atomic during path enumeration so their zero-iteration artifact
cannot split a settle event from its counter.  A truncated enumeration
yields no findings for that function — no proof is not a finding —
and :func:`settle_path_report` exposes the per-path ledger so tests
can assert full coverage over the real pipeline.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.lint.dataflow import Path, enumerate_paths
from repro.lint.engine import Finding, LintContext, register

CODE = "RL008"

_SCOPE_PREFIXES = (
    "repro.pipeline.core",
    "repro.pipeline.runner",
    "repro.pipeline.fault_tolerance",
)

#: The five counters whose sum must equal ``total``.
DISPOSITIONS: FrozenSet[str] = frozenset(
    {"computed", "cache_hits", "resumed", "deduplicated", "quarantined"}
)

#: Counters incremented once per settled item.  ``deduplicated`` is the
#: fan-out remainder and rides along with a ``computed`` increment.
UNIT_DISPOSITIONS: FrozenSet[str] = DISPOSITIONS - {"deduplicated"}

#: ``runner.execute`` — the densest settle function in the pipeline —
#: enumerates ~8.6k acyclic paths; the cap leaves headroom while still
#: bounding pathological fixture inputs.
_PATH_LIMIT = 1 << 15


def _in_scope(module: str) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in _SCOPE_PREFIXES
    )


# -- event recognisers --------------------------------------------------


def _attr_chain(node: ast.expr) -> Optional[List[str]]:
    """``self.stats.computed`` → ``["self", "stats", "computed"]``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return list(reversed(parts))


def _through_stats(chain: List[str]) -> bool:
    return any("stats" in part.lower() for part in chain[:-1])


def _unit_increment(stmt: ast.stmt) -> Optional[str]:
    """Disposition name when ``stmt`` is a unit-counter increment."""
    if not isinstance(stmt, ast.AugAssign) or not isinstance(
        stmt.op, ast.Add
    ):
        return None
    chain = _attr_chain(stmt.target)
    if chain is None or chain[-1] not in UNIT_DISPOSITIONS:
        return None
    return chain[-1] if _through_stats(chain) else None


def _is_none_buffer_value(value: Optional[ast.expr]) -> bool:
    """``[None] * n`` (either operand order)."""
    if not isinstance(value, ast.BinOp) or not isinstance(
        value.op, ast.Mult
    ):
        return False
    for side in (value.left, value.right):
        if (
            isinstance(side, ast.List)
            and len(side.elts) == 1
            and isinstance(side.elts[0], ast.Constant)
            and side.elts[0].value is None
        ):
            return True
    return False


def _is_store(stmt: ast.stmt, buffers: Set[str]) -> bool:
    if isinstance(stmt, ast.Assign):
        targets: List[ast.expr] = list(stmt.targets)
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        targets = [stmt.target]
    else:
        return False
    return any(
        isinstance(target, ast.Subscript)
        and isinstance(target.value, ast.Name)
        and target.value.id in buffers
        for target in targets
    )


def _is_store_loop(stmt: ast.stmt, buffers: Set[str]) -> bool:
    """A loop whose whole body fans one payload out to buffer slots."""
    if not isinstance(stmt, (ast.For, ast.AsyncFor)):
        return False
    return bool(stmt.body) and all(
        _is_store(inner, buffers) for inner in stmt.body
    )


def _is_merge(stmt: ast.stmt) -> bool:
    """``x.stats = a.stats + b.stats`` or ``x.stats += y.stats``."""
    if isinstance(stmt, ast.Assign):
        if len(stmt.targets) != 1:
            return False
        target, value = stmt.targets[0], stmt.value
        if not isinstance(value, ast.BinOp) or not isinstance(
            value.op, ast.Add
        ):
            return False
        operands = (value.left, value.right)
    elif isinstance(stmt, ast.AugAssign) and isinstance(stmt.op, ast.Add):
        target, operands = stmt.target, (stmt.value,)
    else:
        return False
    target_chain = _attr_chain(target)
    if target_chain is None or "stats" not in target_chain[-1].lower():
        return False
    for operand in operands:
        chain = _attr_chain(operand)
        if chain is not None and "stats" in chain[-1].lower():
            return True
    return False


# -- function discovery with closure-aware buffer sets ------------------


def _shallow_statements(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements of one function body, loops/withs/trys included,
    nested function and class bodies excluded."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        yield stmt
        for field in ("body", "orelse", "finalbody"):
            yield from _shallow_statements(getattr(stmt, field, []) or [])
        for handler in getattr(stmt, "handlers", []) or []:
            yield from _shallow_statements(handler.body)


def _buffer_names(body: List[ast.stmt]) -> Set[str]:
    names: Set[str] = set()
    for stmt in _shallow_statements(body):
        if isinstance(stmt, ast.Assign) and _is_none_buffer_value(
            stmt.value
        ):
            names.update(
                t.id for t in stmt.targets if isinstance(t, ast.Name)
            )
        elif isinstance(stmt, ast.AnnAssign) and _is_none_buffer_value(
            stmt.value
        ):
            if isinstance(stmt.target, ast.Name):
                names.add(stmt.target.id)
    return names


_FnEntry = Tuple[str, ast.FunctionDef, Set[str]]


def _functions_with_buffers(tree: ast.Module) -> List[_FnEntry]:
    """(qualified name, node, visible result buffers) per function,
    where buffers include those of lexically enclosing functions —
    the closure case ``settle`` writing ``run``'s ``payloads``."""
    entries: List[_FnEntry] = []

    def visit(
        body: List[ast.stmt], prefix: str, inherited: Set[str]
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{stmt.name}"
                visible = inherited | _buffer_names(stmt.body)
                entries.append((name, stmt, visible))  # type: ignore[arg-type]
                visit(stmt.body, f"{name}.<locals>.", visible)
            elif isinstance(stmt, ast.ClassDef):
                visit(stmt.body, f"{prefix}{stmt.name}.", inherited)

    visit(tree.body, "", set())
    return entries


# -- per-path ledger ----------------------------------------------------


def _path_ledger(
    path: Path, buffers: Set[str]
) -> Tuple[List[ast.stmt], List[Tuple[ast.stmt, str]], List[ast.stmt]]:
    """(store events, unit increments, merges) along one path."""
    stores: List[ast.stmt] = []
    units: List[Tuple[ast.stmt, str]] = []
    merges: List[ast.stmt] = []
    for stmt in path:
        if _is_store_loop(stmt, buffers) or _is_store(stmt, buffers):
            stores.append(stmt)
        else:
            unit = _unit_increment(stmt)
            if unit is not None:
                units.append((stmt, unit))
            elif _is_merge(stmt):
                merges.append(stmt)
    return stores, units, merges


def _enumerate(
    fn: ast.FunctionDef, buffers: Set[str]
) -> Tuple[List[Path], bool]:
    return enumerate_paths(
        fn.body,
        limit=_PATH_LIMIT,
        atomic=lambda stmt: _is_store_loop(stmt, buffers),
    )


def _function_summary(
    name: str, fn: ast.FunctionDef, buffers: Set[str]
) -> Optional[Dict[str, Any]]:
    """Path ledger for one function, or None when it has no events."""
    has_stores = any(
        _is_store(stmt, buffers) for stmt in _shallow_statements(fn.body)
    )
    has_units = any(
        _unit_increment(stmt) is not None
        for stmt in _shallow_statements(fn.body)
    )
    has_merges = any(
        _is_merge(stmt) for stmt in _shallow_statements(fn.body)
    )
    if not (has_stores or has_units or has_merges):
        return None
    paths, truncated = _enumerate(fn, buffers)
    ledgers = []
    for path in paths:
        stores, units, merges = _path_ledger(path, buffers)
        ledgers.append(
            {
                "stores": len(stores),
                "increments": [unit for _stmt, unit in units],
                "merges": len(merges),
                "_events": (stores, units, merges),
            }
        )
    return {
        "name": name,
        "node": fn,
        "settles": has_stores,
        "merging": has_merges,
        "truncated": truncated,
        "paths": ledgers,
    }


# -- the rule -----------------------------------------------------------


def _balance_findings(
    context: LintContext, summary: Dict[str, Any]
) -> Iterator[Finding]:
    fn = summary["node"]
    emitted: Set[Tuple[int, int, str]] = set()

    def once(node: ast.AST, message: str) -> Iterator[Finding]:
        key = (
            getattr(node, "lineno", fn.lineno),
            getattr(node, "col_offset", fn.col_offset),
            message,
        )
        if key not in emitted:
            emitted.add(key)
            yield context.finding(CODE, node, message)

    if summary["settles"]:
        if summary["truncated"]:
            return  # no proof is not a finding; the report says so
        for ledger in summary["paths"]:
            stores, units, _merges = ledger["_events"]
            if not stores and not units:
                continue
            if len(units) < len(stores):
                anchor = stores[-1]
                yield from once(
                    anchor,
                    "settle path stores a result payload without "
                    "incrementing a disposition counter (computed / "
                    "cache_hits / resumed / quarantined): every settled "
                    "item must be counted exactly once",
                )
            elif len(units) > len(stores):
                anchor = units[-1][0]
                names = ", ".join(unit for _stmt, unit in units)
                yield from once(
                    anchor,
                    f"settle path increments {len(units)} disposition "
                    f"counters ({names}) for {len(stores)} payload "
                    f"store(s): each settled item must land in exactly "
                    f"one disposition",
                )
    else:
        # Orphan increments: counting where nothing settles.
        for stmt in _shallow_statements(fn.body):
            unit = _unit_increment(stmt)
            if unit is not None:
                yield from once(
                    stmt,
                    f"disposition counter {unit!r} incremented in a "
                    f"function that never stores a settled payload: "
                    f"counters move only where results settle",
                )

    if summary["merging"] and not summary["truncated"]:
        for ledger in summary["paths"]:
            _stores, _units, merges = ledger["_events"]
            if len(merges) == 0:
                yield from once(
                    fn,
                    f"a path through {fn.name} skips the stats merge: "
                    f"partial-failure accounting would drop the "
                    f"submission's disposition counters",
                )
            elif len(merges) > 1:
                yield from once(
                    merges[-1],
                    "stats merged more than once on a single path: "
                    "dispositions would double-count",
                )


def _class_findings(context: LintContext) -> Iterator[Finding]:
    for node in context.info.classes.values():
        methods = {
            stmt.name: stmt
            for stmt in node.body
            if isinstance(stmt, ast.FunctionDef)
        }
        if "settled" not in methods or "reconciles" not in methods:
            continue
        add = methods.get("__add__")
        if add is not None:
            attrs = {
                sub.attr for sub in ast.walk(add)
                if isinstance(sub, ast.Attribute)
            }
            missing = sorted((DISPOSITIONS | {"total"}) - attrs)
            if missing:
                yield context.finding(
                    CODE, add,
                    f"{node.name}.__add__ does not combine "
                    f"{', '.join(missing)}: merged stats silently drop "
                    f"those dispositions",
                )
        settled_attrs = {
            sub.attr for sub in ast.walk(methods["settled"])
            if isinstance(sub, ast.Attribute)
        }
        missing = sorted(DISPOSITIONS - settled_attrs)
        if missing:
            yield context.finding(
                CODE, methods["settled"],
                f"{node.name}.settled() does not sum "
                f"{', '.join(missing)}: reconciles() can no longer "
                f"prove the dispositions cover total",
            )


@register(CODE, "exactly-once accounting: every settle path increments "
                "exactly one BatchStats disposition counter, stats "
                "merges run once per path, and BatchStats keeps all "
                "five dispositions")
def check_accounting(context: LintContext) -> Iterator[Finding]:
    if not _in_scope(context.module):
        return
    for name, fn, buffers in _functions_with_buffers(context.tree):
        summary = _function_summary(name, fn, buffers)
        if summary is not None:
            yield from _balance_findings(context, summary)
    yield from _class_findings(context)


def settle_path_report(
    tree: ast.Module, *, module: str = ""
) -> Dict[str, Any]:
    """The per-path accounting ledger RL008 checks, as data.

    Tests use this to *prove* coverage over the real pipeline: every
    function that settles shows balanced paths, every merge function
    shows exactly one merge per path, and the disposition list is the
    full five-counter set that must sum to ``total``.
    """
    functions: List[Dict[str, Any]] = []
    for name, fn, buffers in _functions_with_buffers(tree):
        summary = _function_summary(name, fn, buffers)
        if summary is None:
            continue
        functions.append(
            {
                "name": summary["name"],
                "settles": summary["settles"],
                "merging": summary["merging"],
                "truncated": summary["truncated"],
                "paths": [
                    {
                        "stores": ledger["stores"],
                        "increments": list(ledger["increments"]),
                        "merges": ledger["merges"],
                    }
                    for ledger in summary["paths"]
                ],
            }
        )
    return {
        "module": module,
        "dispositions": sorted(DISPOSITIONS),
        "unit_dispositions": sorted(UNIT_DISPOSITIONS),
        "functions": functions,
    }
