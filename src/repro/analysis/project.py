"""Whole-program context: the module/symbol graph behind cross-module rules.

Per-file rules (:class:`repro.analysis.registry.Rule`) see one
:class:`~repro.analysis.context.FileContext` at a time, which is exactly
right for local invariants (an unseeded RNG is wrong wherever it appears).
The merge-safety and parity-contract families are different in kind: whether
a class shipped across a worker boundary is mergeable depends on *another
module's* ``absorb_partial`` signature, and whether a ``*_fused`` twin is
parity-tested depends on the *test tree*.  :class:`ProjectContext` gives
those rules one project-wide view, built once per run:

* every scanned file parsed into a :class:`ModuleInfo` (dotted module name,
  top-level classes with bases / methods / field annotations, top-level
  functions),
* cross-module symbol resolution — ``pkg.Thing`` resolves through a
  package ``__init__`` re-export to the class ``pkg.impl`` defines — with
  the same canonical-dotted-name discipline the per-file alias table uses,
* the class hierarchy (``class_has_method`` follows bases across modules),
* the test tree's identifier index for coverage-style contracts (RL017).

Everything is plain ``ast`` built from the already-read sources: no imports
are executed, so linting a broken tree can never run broken code.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath

from repro.analysis.config import LintConfig
from repro.analysis.context import FileContext

FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef

#: Attribute names that smell like a process-pool fan-out.  ``map`` and
#: ``submit`` are common enough on non-pool objects that they only count in
#: modules that import a multiprocessing facility; the rest are distinctive.
_POOL_ONLY_METHODS = frozenset(
    {"imap", "imap_unordered", "map_async", "starmap", "starmap_async", "apply_async"}
)
_POOL_GENERIC_METHODS = frozenset({"map", "submit"})

#: Pool fan-outs whose results arrive in *submission* order.  Everything
#: else hands results back in completion order, which only a mergeable
#: reduction can consume deterministically.
_ORDERED_POOL_METHODS = frozenset({"map", "imap", "starmap"})

_MP_MODULES = ("multiprocessing", "concurrent.futures", "concurrent")


def module_name_for(relpath: str) -> str:
    """Dotted module name of a project-relative posix path.

    A leading ``src/`` component is stripped (the repo's package root);
    ``__init__.py`` names the package itself.  Files outside any package
    still get a usable name (their stem), so fixture trees resolve too.
    """
    parts = list(PurePosixPath(relpath).parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else relpath


@dataclass
class ClassInfo:
    """One top-level class: AST plus the pieces rules ask about."""

    name: str
    module: str
    path: str
    node: ast.ClassDef
    base_exprs: list[ast.expr] = field(default_factory=list)
    methods: dict[str, FunctionNode] = field(default_factory=dict)
    #: Class-level ``name: Annotation`` statements — dataclass fields and
    #: plain class annotations alike.
    field_annotations: dict[str, ast.expr] = field(default_factory=dict)

    @property
    def key(self) -> tuple[str, str]:
        """Project-unique identity (module, class name)."""
        return (self.module, self.name)


@dataclass
class ModuleInfo:
    """One scanned file as a module: indexes over its top level."""

    name: str
    path: str
    ctx: FileContext
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    functions: dict[str, FunctionNode] = field(default_factory=dict)

    @property
    def imports_multiprocessing(self) -> bool:
        """Whether any import in the file names a multiprocessing facility."""
        for canonical in self.ctx.aliases.values():
            if canonical in _MP_MODULES or any(
                canonical.startswith(m + ".") for m in _MP_MODULES
            ):
                return True
        return False


@dataclass(frozen=True)
class PoolCall:
    """One process-pool fan-out call site."""

    module: str
    node: ast.Call
    method: str
    #: The callable being fanned out (first positional argument).
    func_expr: ast.expr | None

    @property
    def ordered(self) -> bool:
        """Whether results come back in submission order."""
        return self.method in _ORDERED_POOL_METHODS


def _index_module(name: str, path: str, ctx: FileContext) -> ModuleInfo:
    module = ModuleInfo(name=name, path=path, ctx=ctx)
    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            module.functions[node.name] = node
        elif isinstance(node, ast.ClassDef):
            info = ClassInfo(
                name=node.name,
                module=name,
                path=path,
                node=node,
                base_exprs=list(node.bases),
            )
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info.methods[stmt.name] = stmt
                elif isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    info.field_annotations[stmt.target.id] = stmt.annotation
            module.classes[node.name] = info
    return module


class ProjectContext:
    """All scanned modules plus the test tree, indexed for cross-module rules."""

    def __init__(
        self,
        contexts: list[FileContext],
        cfg: LintConfig,
        test_contexts: list[FileContext] | None = None,
    ) -> None:
        self.cfg = cfg
        self.modules: dict[str, ModuleInfo] = {}
        self.by_path: dict[str, ModuleInfo] = {}
        for ctx in contexts:
            name = module_name_for(ctx.path)
            module = _index_module(name, ctx.path, ctx)
            self.modules[name] = module
            self.by_path[ctx.path] = module
        self.test_contexts = test_contexts or []

    # -- iteration ---------------------------------------------------------

    def iter_modules(self) -> list[ModuleInfo]:
        """Modules in path order — project findings come out deterministic."""
        return [self.by_path[path] for path in sorted(self.by_path)]

    # -- symbol resolution -------------------------------------------------

    def resolve_class(self, canonical: str, _depth: int = 0) -> ClassInfo | None:
        """Project class named by a canonical dotted path, if any.

        Follows re-exports (``from pkg.impl import Thing`` in the package
        ``pkg``'s ``__init__``) up to a small depth, so ``pkg.Thing`` and
        ``pkg.impl.Thing`` both resolve to the same :class:`ClassInfo`.
        """
        if _depth > 5:
            return None
        parts = canonical.split(".")
        for split in range(len(parts) - 1, 0, -1):
            module = self.modules.get(".".join(parts[:split]))
            if module is None:
                continue
            symbol = parts[split]
            if symbol in module.classes:
                return module.classes[symbol]
            reexport = module.ctx.aliases.get(symbol)
            if reexport is not None and reexport != canonical:
                return self.resolve_class(reexport, _depth + 1)
            return None
        return None

    def resolve_function(
        self, canonical: str, _depth: int = 0
    ) -> tuple[ModuleInfo, FunctionNode] | None:
        """Project top-level function named by a canonical dotted path."""
        if _depth > 5:
            return None
        parts = canonical.split(".")
        for split in range(len(parts) - 1, 0, -1):
            module = self.modules.get(".".join(parts[:split]))
            if module is None:
                continue
            symbol = parts[split]
            if symbol in module.functions:
                return (module, module.functions[symbol])
            reexport = module.ctx.aliases.get(symbol)
            if reexport is not None and reexport != canonical:
                return self.resolve_function(reexport, _depth + 1)
            return None
        return None

    def class_has_method(
        self, cls: ClassInfo, method: str, _seen: frozenset[tuple[str, str]] = frozenset()
    ) -> bool:
        """Whether a class defines or inherits ``method``, project-wide.

        Bases that resolve outside the project (ABC, dict, third-party) are
        treated as not providing the method — a conservative answer for
        mergeability checks.
        """
        if method in cls.methods:
            return True
        if cls.key in _seen:
            return False
        seen = _seen | {cls.key}
        module = self.modules.get(cls.module)
        for base_expr in cls.base_exprs:
            base = self._class_of_expr(base_expr, module)
            if base is not None and self.class_has_method(base, method, seen):
                return True
        return False

    def _class_of_expr(
        self, expr: ast.expr, module: ModuleInfo | None
    ) -> ClassInfo | None:
        """Resolve a Name/Attribute expression to a project class."""
        if module is None:
            return None
        if isinstance(expr, ast.Name) and expr.id in module.classes:
            return module.classes[expr.id]
        canonical = module.ctx.resolve(expr)
        if canonical is not None:
            return self.resolve_class(canonical)
        return None

    # -- annotations -------------------------------------------------------

    def annotation_classes(
        self, module: ModuleInfo, annotation: ast.expr | None
    ) -> list[ClassInfo]:
        """Project classes named anywhere inside an annotation expression.

        ``tuple[int, FusedPartial]`` yields the ``FusedPartial``
        class; builtins and stdlib names yield nothing.  String annotations
        (``"FusedPartial"``) are parsed, matching the runtime behaviour
        of ``from __future__ import annotations`` code.
        """
        if annotation is None:
            return []
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return []
        found: list[ClassInfo] = []
        seen: set[tuple[str, str]] = set()
        for node in ast.walk(annotation):
            if not isinstance(node, (ast.Name, ast.Attribute)):
                continue
            cls = self._class_of_expr(node, module)
            if cls is not None and cls.key not in seen:
                seen.add(cls.key)
                found.append(cls)
        return found

    # -- pool fan-outs -----------------------------------------------------

    def pool_calls(self, module: ModuleInfo) -> list[PoolCall]:
        """Process-pool fan-out call sites in one module.

        Distinctive pool methods (``imap_unordered`` …) always count;
        generic names (``map``, ``submit``) only count when the module
        imports a multiprocessing facility, which keeps ``df.map``-style
        call sites out of scope.
        """
        calls: list[PoolCall] = []
        generic_ok = module.imports_multiprocessing
        for node in ast.walk(module.ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            method = func.attr
            if method in _POOL_ONLY_METHODS or (
                generic_ok and method in _POOL_GENERIC_METHODS
            ):
                func_expr = node.args[0] if node.args else None
                calls.append(
                    PoolCall(
                        module=module.name,
                        node=node,
                        method=method,
                        func_expr=func_expr,
                    )
                )
        return calls

    def worker_function(
        self, module: ModuleInfo, expr: ast.expr | None
    ) -> tuple[ModuleInfo, FunctionNode] | None:
        """Resolve a pool call's callable argument to a module-level function."""
        if expr is None:
            return None
        if isinstance(expr, ast.Name):
            if expr.id in module.functions:
                return (module, module.functions[expr.id])
            canonical = module.ctx.aliases.get(expr.id)
            if canonical is not None:
                return self.resolve_function(canonical)
            return None
        canonical = module.ctx.resolve(expr)
        if canonical is not None:
            return self.resolve_function(canonical)
        return None

    # -- test tree ---------------------------------------------------------

    def test_identifier_index(self) -> dict[str, frozenset[str]]:
        """Per test file, every identifier it mentions (names + attributes).

        The index answers "does any test exercise symbol X" without
        executing tests: a parity test that imports ``busy_exposure_fused``
        and calls ``busy_exposure`` mentions both.
        """
        index: dict[str, frozenset[str]] = {}
        for ctx in self.test_contexts:
            names: set[str] = set()
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.split(".")[-1])
            index[ctx.path] = frozenset(names)
        return dict(sorted(index.items()))
