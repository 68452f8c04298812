"""Rule family ``facade`` — the public surface stays the only surface.

DESIGN.md §4's contract is that every caller routes through
:mod:`repro.api`.  That discipline is invisible to the test suite (a
bypass *works*), so it erodes silently; these checks keep it honest:

* ``facade.engine-bypass`` — no direct ``SweepEngine(...)`` construction
  outside the api layer or the engine's own module (the planner builds
  the engine from one validated ``RunOptions``; anything else skips
  that validation);
* ``facade.all-missing`` — every public module defines ``__all__`` (the
  explicit export list is what the api-surface tests and this checker
  introspect);
* ``facade.all-format`` — ``__all__`` is a literal list/tuple of
  strings (a computed export list defeats static checking);
* ``facade.all-unresolved`` — every name listed in ``__all__`` is
  actually bound at module level.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from .base import (
    Finding,
    LintRule,
    Project,
    SourceFile,
    module_bindings,
    string_elements,
)

__all__ = ["FacadeRule", "ENGINE_BYPASS_ALLOWED"]

#: locations outside the api layer that may construct SweepEngine directly
ENGINE_BYPASS_ALLOWED = ("analysis/engine.py",)  # the class's own module


def _in_api_layer(rel: str) -> bool:
    return rel.startswith("api/") or rel == "api.py"


class FacadeRule(LintRule):
    """Facade bypasses and ``__all__`` consistency."""

    family = "facade"
    description = (
        "no SweepEngine construction outside the facade; every public "
        "module declares a resolvable __all__"
    )

    def run(self, project: Project) -> Iterator[Finding]:
        for sf in project.files:
            if sf.tree is None:
                continue
            yield from self._check_engine_bypass(sf)
            yield from self._check_all(sf)

    # ------------------------------------------------------------------ #
    # bypass
    # ------------------------------------------------------------------ #
    def _check_engine_bypass(self, sf: SourceFile) -> Iterator[Finding]:
        if _in_api_layer(sf.rel) or sf.rel in ENGINE_BYPASS_ALLOWED:
            return
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name == "SweepEngine":
                yield self.finding(
                    "engine-bypass",
                    sf,
                    node.lineno,
                    "direct SweepEngine(...) construction outside repro.api "
                    "— route through Study/RunOptions (the planner builds "
                    "the engine from one validated RunOptions); direct use "
                    "skips option validation",
                )

    # ------------------------------------------------------------------ #
    # __all__ consistency
    # ------------------------------------------------------------------ #
    def _find_all_assignments(
        self, sf: SourceFile
    ) -> List[Tuple[ast.stmt, Optional[ast.expr]]]:
        """Module-level statements assigning ``__all__`` (with their value)."""
        out: List[Tuple[ast.stmt, Optional[ast.expr]]] = []
        for node in sf.tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets
            ):
                out.append((node, node.value))
            elif (
                isinstance(node, (ast.AnnAssign, ast.AugAssign))
                and isinstance(node.target, ast.Name)
                and node.target.id == "__all__"
            ):
                out.append((node, getattr(node, "value", None)))
        return out

    def _check_all(self, sf: SourceFile) -> Iterator[Finding]:
        assignments = self._find_all_assignments(sf)
        if not assignments:
            if not sf.is_private_module():
                yield self.finding(
                    "all-missing",
                    sf,
                    1,
                    f"public module {sf.rel} defines no __all__ — the "
                    "export list is the machine-checkable public surface; "
                    "declare it (empty is fine for effect-only modules)",
                )
            return
        bindings = module_bindings(sf.tree)
        if "*" in bindings:
            return  # star-imports defeat static resolution; leave to runtime
        for stmt, value in assignments:
            if value is None:
                continue
            names = string_elements(value)
            if names is None:
                yield self.finding(
                    "all-format",
                    sf,
                    stmt.lineno,
                    "__all__ must be a literal list/tuple of strings — a "
                    "computed export list cannot be statically checked",
                )
                continue
            for name, line in names:
                if name not in bindings:
                    yield self.finding(
                        "all-unresolved",
                        sf,
                        line,
                        f"__all__ lists {name!r}, but the module never binds "
                        "that name — importing it would fail and the "
                        "documented surface lies",
                    )
