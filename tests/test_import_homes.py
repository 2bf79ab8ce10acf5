"""Every name has one home, and code outside ``src/`` finds it there.

A package ``__init__`` holds only its docstring, so a name is imported
from the module that defines it.  Three ``__init__`` files are exempt:
``repro`` (its documented top-level names, resolved lazily),
``repro.service`` (the names the end-to-end benchmark imports from it) and
``repro.analysis.rules`` (importing it registers the lint rules).

Nothing in CI runs the examples or most benchmark files, and only the
slow traced harness test exercises ``benchmarks/e2e/spans.py``.  The
checks below catch a dropped or moved name in any of them: every
``from repro… import name`` must resolve, as an attribute or a
submodule, and every ``LAYER_CALLS`` entry must resolve where the
benchmark patches it.

The other way round, every public function and class in ``src/repro``
must be reached from outside its own definition, by code under ``src/``,
``examples/`` or ``benchmarks/``: a name only its own tests call is dead
code, unless :data:`TEST_ONLY_NAMES` says why it stays.
"""

from __future__ import annotations

import ast
import functools
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: ``__init__`` files allowed to hold more than a docstring.
INIT_EXEMPT = frozenset(
    {
        PACKAGE / "__init__.py",
        PACKAGE / "service" / "__init__.py",
        PACKAGE / "analysis" / "rules" / "__init__.py",
    }
)

#: Files outside ``src/`` whose ``repro`` imports must resolve.
OUTSIDE_SRC = sorted(
    [*(ROOT / "examples").glob("*.py"), *(ROOT / "benchmarks").glob("*.py")]
)

#: Trees whose code keeps a ``src/repro`` name alive by referring to it.
USER_TREES = ("src", "examples", "benchmarks")

#: Lint rules register by decorator, so no code refers to them by name.
RULES = PACKAGE / "analysis" / "rules"

#: Public names that only tests reach, and why each stays.
TEST_ONLY_NAMES = {
    "repro.analysis.registry.get_rule": "the lint tests' rule lookup",
    "repro.cdr.store.shard_manifest": "benchmarks/e2e/spans.py patches it by name",
    "repro.core.concurrency.weekly_concurrency_fused": (
        "parity harness of weekly_concurrency_rows, which Fig 11's clusters read"
    ),
    "repro.core.preprocess.is_ghost_record": (
        "the ghost oracle of tests/core/test_mapreduce.py"
    ),
}


def relative(path: Path) -> str:
    return str(path.relative_to(ROOT))


@functools.cache
def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "init",
    sorted(set(PACKAGE.rglob("__init__.py")) - INIT_EXEMPT),
    ids=relative,
)
def test_package_init_holds_only_its_docstring(init):
    body = parse(init).body
    assert len(body) == 1, f"{relative(init)} holds more than its docstring"
    assert isinstance(body[0], ast.Expr)
    assert isinstance(body[0].value, ast.Constant)
    assert isinstance(body[0].value.value, str)


@pytest.mark.parametrize("name", sorted(set(repro.__all__) - {"__version__"}))
def test_top_level_name_is_its_defining_modules_object(name):
    namespace: dict[str, object] = {}
    exec(f"from repro import {name}", namespace)
    home = importlib.import_module(namespace[name].__module__)
    assert namespace[name] is getattr(home, name)


def test_unknown_top_level_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'NoSuchName'"):
        getattr(repro, "NoSuchName")


def repro_imports(path: Path) -> list[tuple[str, str | None]]:
    """``(module, name)`` for every ``repro`` import in ``path``.

    ``name`` is ``None`` for a plain ``import repro.x.y``.  Imports inside
    functions count too.
    """
    found: list[tuple[str, str | None]] = []
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.partition(".")[0] == "repro":
                found.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend(
                (alias.name, None)
                for alias in node.names
                if alias.name.partition(".")[0] == "repro"
            )
    return found


@pytest.mark.parametrize("path", OUTSIDE_SRC, ids=relative)
def test_repro_imports_outside_src_resolve(path):
    missing = []
    for module_name, name in repro_imports(path):
        module = importlib.import_module(module_name)
        if name is None or hasattr(module, name):
            continue
        try:
            importlib.import_module(f"{module_name}.{name}")
        except ModuleNotFoundError:
            missing.append(f"{module_name}.{name}")
    assert missing == [], f"{relative(path)} imports names with no home: {missing}"


def test_outside_src_files_were_found():
    names = {relative(path) for path in OUTSIDE_SRC}
    assert "examples/quickstart.py" in names
    assert "benchmarks/conftest.py" in names


def load_spans():
    """``benchmarks/e2e/spans.py``, loaded from its file (stdlib imports only)."""
    path = ROOT / "benchmarks" / "e2e" / "spans.py"
    spec = importlib.util.spec_from_file_location("e2e_spans", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_call_resolves():
    """Each ``(module, attribute)`` the benchmark patches exists there."""
    calls = load_spans().LAYER_CALLS
    assert calls
    missing = []
    for module_name, path, _span, _attrs in calls:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            if not hasattr(owner, part):
                missing.append(f"{module_name}:{path}")
                break
            owner = getattr(owner, part)
    assert missing == []


def referenced_names(node: ast.AST) -> Counter[str]:
    """How often each name, attribute or imported name occurs under ``node``."""
    found: Counter[str] = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name] += 1
    return found


def unreferenced_public_names() -> list[str]:
    """Dotted names of the public top-level functions and classes under
    ``src/repro`` (lint rules aside) that no code in :data:`USER_TREES`
    refers to outside their own definition."""
    files = sorted(path for tree in USER_TREES for path in (ROOT / tree).rglob("*.py"))
    total: Counter[str] = Counter()
    for path in files:
        total.update(referenced_names(parse(path)))
    unreferenced = []
    for path in files:
        if not path.is_relative_to(PACKAGE) or path.is_relative_to(RULES):
            continue
        parts = path.relative_to(ROOT / "src").with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for node in parse(path).body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or node.name.startswith("_"):
                continue
            if total[node.name] == referenced_names(node)[node.name]:
                unreferenced.append(f"{module}.{node.name}")
    return unreferenced


def test_every_public_name_is_reached_outside_tests():
    unreferenced = unreferenced_public_names()
    dead = [name for name in unreferenced if name not in TEST_ONLY_NAMES]
    assert dead == [], f"reached only by tests, delete them: {dead}"
    stale = sorted(TEST_ONLY_NAMES.keys() - set(unreferenced))
    assert stale == [], f"reached outside tests now, drop from TEST_ONLY_NAMES: {stale}"
