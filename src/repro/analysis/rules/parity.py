"""Parity-contract rule: every fast-path twin stays parity-tested.

The fused engine is honest by one discipline: each public ``*_fused``
entry point (``busy_exposure_fused`` …) is asserted bit-identical to its
record-based reference in a dedicated parity test.  RL017 turns that
discipline into a machine-checked invariant by cross-referencing the
source tree's twin inventory against the test tree's identifier index.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.findings import Finding
from repro.analysis.project import ModuleInfo, ProjectContext
from repro.analysis.registry import ProjectRule, register

#: Suffixes that mark a fast-path twin of a record-based reference.
_SUFFIXES = ("_fused",)


def _twin_suffix(name: str) -> str | None:
    """The twin suffix of a public definition name, if it has one."""
    if name.startswith("_"):
        return None
    for suffix in _SUFFIXES:
        if name.endswith(suffix):
            return suffix
    return None


@register
class ParityContractRule(ProjectRule):
    """RL017: ``*_fused`` twins need a parity test."""

    rule_id = "RL017"
    name = "parity-contract"
    rationale = (
        "A fast-path twin is only trustworthy while some test asserts it "
        "bit-identical to the record-based reference; once either side "
        "drifts untested, every Section-4 figure silently depends on which "
        "engine ran.  Each public *_fused definition must be "
        "exercised by a test file that also exercises its reference "
        "implementation."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        test_index = project.test_identifier_index()
        for module in project.iter_modules():
            for name, suffix, node in self._twin_defs(module):
                base = name[: -len(suffix)]
                base_required = self._symbol_exists(project, module, base)
                covering = [
                    path
                    for path, idents in test_index.items()
                    if name in idents
                    and (not base_required or base in idents)
                ]
                if covering:
                    continue
                mentioned_alone = any(
                    name in idents for idents in test_index.values()
                )
                if mentioned_alone:
                    message = (
                        f"`{name}` appears in tests, but no single test "
                        f"file also exercises its reference `{base}`"
                    )
                    hint = (
                        "parity means comparing both paths in one test — "
                        f"add an assertion pitting {name} against {base}"
                    )
                else:
                    message = f"fast-path twin `{name}` has no parity test"
                    hint = (
                        f"register a test asserting {name} bit-identical "
                        f"to {base} (see tests/core/test_fused_parity.py)"
                    )
                yield self.finding_at(
                    module.path, node.lineno, node.col_offset, message, hint
                )

    def _twin_defs(
        self, module: ModuleInfo
    ) -> list[tuple[str, str, ast.FunctionDef | ast.AsyncFunctionDef]]:
        """Public twin defs in one module: top level and methods."""
        defs: list[tuple[str, str, ast.FunctionDef | ast.AsyncFunctionDef]] = []
        for name in sorted(module.functions):
            suffix = _twin_suffix(name)
            if suffix is not None:
                defs.append((name, suffix, module.functions[name]))
        for cls_name in sorted(module.classes):
            cls = module.classes[cls_name]
            for method_name in sorted(cls.methods):
                suffix = _twin_suffix(method_name)
                if suffix is not None:
                    defs.append((method_name, suffix, cls.methods[method_name]))
        return defs

    def _symbol_exists(
        self, project: ProjectContext, module: ModuleInfo, base: str
    ) -> bool:
        """Whether the reference counterpart of a twin exists anywhere."""
        if not base:
            return False
        if base in module.functions:
            return True
        for cls in module.classes.values():
            if base in cls.methods:
                return True
        for other in project.iter_modules():
            if base in other.functions:
                return True
            for cls in other.classes.values():
                if base in cls.methods:
                    return True
        return False
