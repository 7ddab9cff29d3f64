"""Whole-program project model for repro-lint.

PR-5's engine handed every rule a single parsed file plus a lazy
module index; cross-module reasoning (RL004's call-graph traversal,
RL005's re-export chains) was re-derived ad hoc inside each rule.  This
module centralises that machinery so the v2 semantic rules (RL006
contract drift, RL008 exactly-once accounting) share one picture of
the project:

* :class:`ModuleInfo` — one parsed module with its content digest,
  alias table (local name → dotted origin), top-level definitions and
  resolved project-internal imports (relative imports normalised);
* :class:`ProjectModel` — module-name → :class:`ModuleInfo` with
  on-demand loading from source roots, the forward/reverse import
  graph, transitive closures, qualified-name resolution through
  re-export chains, and a model digest over every loaded file;
* :class:`CallGraph` — cycle-safe transitive walk over project-internal
  calls with alias tracking, generalising RL004's ``_Traversal``.

The model imports nothing from the analysed packages (stdlib ``ast``
and ``hashlib`` only), preserving the engine's founding rule that
linting can never be distorted by the code under analysis.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

#: Package prefixes considered "project-internal" for the import graph.
PROJECT_PREFIXES: Tuple[str, ...] = ("repro", "tests")

#: Bound on re-export chain resolution (matches RL005's historic cap).
MAX_RESOLVE_HOPS = 6


def module_name(path: Path) -> str:
    """Dotted module name for ``path`` (``src`` layout aware)."""
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    for anchor in PROJECT_PREFIXES:
        if anchor in parts:
            parts = parts[parts.index(anchor):]
            break
    return ".".join(parts) if parts else path.stem


def source_root(path: Path) -> Optional[Path]:
    """The directory that dotted imports resolve against, if any."""
    resolved = path.resolve()
    for parent in resolved.parents:
        if parent.name == "repro":
            return parent.parent
    return None


def _is_project(module: str) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in PROJECT_PREFIXES
    )


def resolve_relative(
    module: str, is_package: bool, node: ast.ImportFrom
) -> str:
    """Absolute module path of a (possibly relative) ``from`` import."""
    if node.level == 0:
        return node.module or ""
    parts = module.split(".")
    # level 1 inside a module drops the module name itself; each extra
    # level drops one more package.  __init__ modules already name the
    # package, which module_name normalised for us.
    drop = node.level - 1 if is_package else node.level
    if drop >= len(parts):
        return node.module or ""
    base = parts[: len(parts) - drop]
    if node.module:
        base.append(node.module)
    return ".".join(base)


@dataclass
class ModuleInfo:
    """One parsed source file plus the derived lookups rules need."""

    module: str
    path: Path
    source: str
    tree: ast.Module
    digest: str
    #: Project-internal modules this file imports (direct edges only;
    #: ``from repro.x import y`` contributes both ``repro.x`` and the
    #: candidate submodule ``repro.x.y``).
    imports: Set[str] = field(default_factory=set)
    #: Local name → dotted origin, for every import form in the file.
    aliases: Dict[str, str] = field(default_factory=dict)
    #: Local name → (module, original name) for ``from m import n``.
    import_bindings: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: Top-level function definitions by name.
    functions: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: Top-level class definitions by name.
    classes: Dict[str, ast.ClassDef] = field(default_factory=dict)
    #: Top-level simple assignments (``NAME = <expr>``) by name.
    constants: Dict[str, ast.Assign] = field(default_factory=dict)

    @property
    def is_package(self) -> bool:
        return self.path.name == "__init__.py"

    @classmethod
    def parse(cls, path: Path) -> Optional["ModuleInfo"]:
        try:
            data = path.read_bytes()
            source = data.decode("utf-8")
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError, UnicodeDecodeError):
            return None
        return cls.from_source(
            path, source, tree, hashlib.sha256(data).hexdigest()
        )

    @classmethod
    def from_source(
        cls, path: Path, source: str, tree: ast.Module, digest: str
    ) -> "ModuleInfo":
        info = cls(
            module=module_name(path),
            path=path,
            source=source,
            tree=tree,
            digest=digest,
        )
        info._index()
        return info

    def _index(self) -> None:
        is_package = self.is_package
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    origin = (
                        alias.name if alias.asname
                        else alias.name.split(".")[0]
                    )
                    self.aliases[local] = origin
                    if _is_project(alias.name):
                        self.imports.add(alias.name)
            elif isinstance(node, ast.ImportFrom):
                base = resolve_relative(self.module, is_package, node)
                for alias in node.names:
                    local = alias.asname or alias.name
                    if base:
                        self.aliases[local] = f"{base}.{alias.name}"
                        self.import_bindings[local] = (base, alias.name)
                if _is_project(base):
                    self.imports.add(base)
                    for alias in node.names:
                        # `from repro.x import y` may bind submodule y.
                        self.imports.add(f"{base}.{alias.name}")
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[node.name] = node  # type: ignore[assignment]
            elif isinstance(node, ast.ClassDef):
                self.classes[node.name] = node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.constants[target.id] = node

    def dotted_path(self, node: ast.AST) -> Optional[str]:
        """Resolve an attribute chain to a dotted origin, if static.

        ``np.random.default_rng`` → ``numpy.random.default_rng`` when
        ``np`` aliases ``numpy``; ``None`` when the chain roots at a
        name this module never imported.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))


class ProjectModel:
    """Module-name → :class:`ModuleInfo` with import-graph queries.

    Two populations of modules live here: the *linted set* (added via
    :meth:`add`) and on-demand *dependencies* loaded from a source root
    when a rule follows an import outside the linted paths (so a lint
    of ``src/repro/pipeline`` can still traverse into
    ``repro.analysis``).  Both are digested (:meth:`digest`).
    """

    def __init__(self) -> None:
        self._by_module: Dict[str, ModuleInfo] = {}
        self._linted: Set[str] = set()
        self._roots: List[Path] = []
        self._unresolvable: Set[str] = set()

    # -- population ----------------------------------------------------

    def add_root(self, root: Path) -> None:
        if root not in self._roots:
            self._roots.append(root)
            self._unresolvable.clear()

    def add(self, info: ModuleInfo, *, linted: bool = True) -> None:
        self._by_module[info.module] = info
        if linted:
            self._linted.add(info.module)

    # -- lookups -------------------------------------------------------

    def get(self, module: str) -> Optional[ModuleInfo]:
        """The info for ``module``, loading it from a root if needed."""
        info = self._by_module.get(module)
        if info is not None:
            return info
        if module in self._unresolvable or not module:
            return None
        relative = Path(*module.split("."))
        for root in self._roots:
            for candidate in (
                root / relative.with_suffix(".py"),
                root / relative / "__init__.py",
            ):
                if candidate.is_file():
                    loaded = ModuleInfo.parse(candidate)
                    if loaded is not None:
                        # Anchor the dotted name the caller asked for,
                        # even if module_name would differ.
                        loaded.module = module
                        self.add(loaded, linted=False)
                        return loaded
        self._unresolvable.add(module)
        return None

    def modules(self) -> List[ModuleInfo]:
        """Every loaded module, linted set first, in sorted order."""
        return [self._by_module[m] for m in sorted(self._by_module)]

    def linted_modules(self) -> List[ModuleInfo]:
        return [self._by_module[m] for m in sorted(self._linted)]

    def is_linted(self, module: str) -> bool:
        return module in self._linted

    # -- import graph --------------------------------------------------

    def import_closure(self, module: str) -> Set[str]:
        """Transitive project-internal imports of ``module``.

        Includes unresolved candidate names (``repro.x.y`` where ``y``
        turned out to be a function): harmless for cone computation,
        and it keeps a later-added module invalidating its importers.
        """
        closure: Set[str] = set()
        stack = [module]
        while stack:
            current = stack.pop()
            info = self._by_module.get(current)
            if info is None:
                continue
            for dep in info.imports:
                if dep not in closure:
                    closure.add(dep)
                    stack.append(dep)
        return closure

    def importers_of(self, module: str) -> Set[str]:
        """Loaded modules whose *direct* imports mention ``module``."""
        return {
            info.module
            for info in self._by_module.values()
            if module in info.imports
        }

    # -- name resolution -----------------------------------------------

    def resolve_name(
        self, module: str, name: str
    ) -> Optional[Tuple[ModuleInfo, ast.AST]]:
        """Follow re-export chains to the defining module, if resolvable.

        Returns ``(owner, node)`` where ``node`` is a function/class
        definition or the assignment that binds a module-level constant.
        """
        info = self.get(module)
        for _hop in range(MAX_RESOLVE_HOPS):
            if info is None:
                return None
            node: Optional[ast.AST] = (
                info.functions.get(name)
                or info.classes.get(name)
                or info.constants.get(name)
            )
            if node is not None:
                return info, node
            target = info.import_bindings.get(name)
            if target is None or not _is_project(target[0]):
                return None
            info, name = self.get(target[0]), target[1]
        return None

    def resolve_qualified(
        self, dotted: str
    ) -> Optional[Tuple[ModuleInfo, ast.AST]]:
        """Resolve ``pkg.mod.name`` to its defining module and node."""
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:split])
            if self.get(module) is None:
                continue
            name = parts[split]
            resolved = self.resolve_name(module, name)
            if resolved is not None:
                return resolved
        return None

    # -- digests -------------------------------------------------------

    def digest(self) -> str:
        """SHA-256 over (module, file digest) for every loaded file.

        A byte change anywhere in the loaded closure changes it.
        """
        acc = hashlib.sha256()
        for info in self.modules():
            acc.update(info.module.encode("utf-8"))
            acc.update(b"\x00")
            acc.update(info.digest.encode("ascii"))
            acc.update(b"\n")
        return acc.hexdigest()


def build_model(
    files: Sequence[Path],
    *,
    preparsed: Optional[Dict[Path, ModuleInfo]] = None,
) -> ProjectModel:
    """Index ``files`` into a fresh :class:`ProjectModel`."""
    model = ProjectModel()
    for path in files:
        root = source_root(path)
        if root is not None:
            model.add_root(root)
        info = (preparsed or {}).get(path) or ModuleInfo.parse(path)
        if info is not None:
            model.add(info)
    return model


#: Visitor signature for :meth:`CallGraph.walk`: (owner module, function).
CallVisitor = Callable[[ModuleInfo, ast.FunctionDef], None]


class CallGraph:
    """Cycle-safe transitive walk of the project-internal call graph.

    Calls are resolved three ways, in order: a simple name defined in
    the current module, a simple name imported from a project module
    (following the binding), and a dotted path whose prefix aliases a
    project module (``runner.settle_job`` where ``runner`` imports
    ``repro.pipeline.runner``).  Parameter-valued callees — the
    ``map_items``-style generic fan-out — cannot be resolved statically
    and are skipped; the semantics there belong to the caller.
    """

    def __init__(self, model: ProjectModel, *, max_visited: int = 200) -> None:
        self.model = model
        self.max_visited = max_visited

    def resolve_call(
        self, info: ModuleInfo, call: ast.Call
    ) -> Optional[Tuple[ModuleInfo, ast.FunctionDef]]:
        """The project-internal function a call lands on, if static."""
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_simple(info, func.id)
        dotted = info.dotted_path(func)
        if dotted is not None and _is_project(dotted):
            resolved = self.model.resolve_qualified(dotted)
            if resolved is not None and isinstance(
                resolved[1], (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                return resolved[0], resolved[1]
        return None

    def _resolve_simple(
        self, info: ModuleInfo, name: str
    ) -> Optional[Tuple[ModuleInfo, ast.FunctionDef]]:
        fn = info.functions.get(name)
        if fn is not None:
            return info, fn
        target = info.import_bindings.get(name)
        if target is not None and _is_project(target[0]):
            resolved = self.model.resolve_name(target[0], target[1])
            if resolved is not None and isinstance(
                resolved[1], (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                return resolved[0], resolved[1]
        return None

    def walk(
        self,
        info: ModuleInfo,
        fn_name: str,
        visit: CallVisitor,
    ) -> None:
        """Visit ``fn_name`` and everything it transitively calls."""
        visited: Set[Tuple[str, str]] = set()
        start = self._resolve_simple(info, fn_name)
        if start is None:
            return
        stack: List[Tuple[ModuleInfo, ast.FunctionDef]] = [start]
        while stack and len(visited) < self.max_visited:
            owner, fn = stack.pop()
            key = (owner.module, fn.name)
            if key in visited:
                continue
            visited.add(key)
            visit(owner, fn)
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    callee = self.resolve_call(owner, node)
                    if callee is not None:
                        stack.append(callee)


def iter_functions(
    tree: ast.Module,
) -> Iterator[Tuple[str, ast.FunctionDef]]:
    """Every function definition in ``tree`` with a qualified-ish name.

    Yields top-level functions, methods (``Class.method``) and nested
    closures (``outer.<locals>.inner``) — the accounting rule needs the
    closures because the runner's ``settle`` lives inside ``run``.
    """

    def _walk(
        body: Sequence[ast.stmt], prefix: str
    ) -> Iterator[Tuple[str, ast.FunctionDef]]:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{node.name}"
                yield name, node  # type: ignore[misc]
                yield from _walk(node.body, f"{name}.<locals>.")
            elif isinstance(node, ast.ClassDef):
                yield from _walk(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.If, ast.Try, ast.With, ast.For,
                                   ast.While)):
                yield from _walk(
                    [s for s in ast.iter_child_nodes(node)
                     if isinstance(s, ast.stmt)],
                    prefix,
                )

    yield from _walk(tree.body, "")
