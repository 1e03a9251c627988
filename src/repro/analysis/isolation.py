"""ISO01 — cross-cell state isolation rule.

Cells run back to back in one process — a serial sweep, the campaign
server's executor, a worker of the sweep pool — and each must still be
bit-identical to a standalone run.  The one way to silently break that
is state that outlives a cell: a module-level container one cell
mutates and the next reads, or a class-level mutable attribute every
instance aliases.  ISO01 statically bans those shapes in every
simulation-state module (under ``core/``, ``engine/``, ``hybrid/`` or
``mem/`` — :data:`~repro.analysis.framework.SIM_STATE_DIRS`):

* module-level assignment of a mutable container (list/dict/set/...,
  as :func:`~repro.analysis.framework.mutable_container` decides);
* class-level mutable attribute in a class body (shared by instances);
* mutation of a module-level name from function scope (``global`` +
  rebind, ``x[...] = ...``, ``x.append(...)``, ``x += ...``) — the
  aliasing write that actually corrupts a neighbouring cell.

Immutable module constants (tuples, numbers, strings, ``frozenset``)
remain fine, as does ``__all__`` and other dunder metadata.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.framework import (SIM_STATE_DIRS, Finding, Module, Rule,
                                      mutable_container)

#: In-place mutator method names on containers.
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "add", "discard", "update", "setdefault", "appendleft", "extendleft",
    "sort", "reverse", "popleft",
})


class StateIsolationRule(Rule):
    """No shared mutable state (module- or class-level) in simulation
    state: every container must hang off one simulation instance."""

    rule_id = "ISO01"
    name = "isolation"
    severity = "error"
    description = ("simulation-state modules (core/, engine/, hybrid/, "
                   "mem/) must not create or mutate module-level / "
                   "class-level mutable containers — shared state leaks "
                   "from one cell into the next when cells run back to "
                   "back in one process")

    def check(self, module: Module) -> Iterable[Finding]:
        if not SIM_STATE_DIRS.intersection(module.parts()):
            return
        module_names = self._module_level(module)
        for stmt in module.tree.body:
            yield from self._check_module_stmt(module, stmt)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class_body(module, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, node, module_names)

    @staticmethod
    def _module_level(module: Module) -> frozenset[str]:
        """Names bound by plain assignment at module level."""
        names = set()
        for stmt in module.tree.body:
            targets: list[ast.AST] = []
            if isinstance(stmt, ast.Assign):
                targets = list(stmt.targets)
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                targets = [stmt.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    names.add(t.id)
        return frozenset(names)

    def _check_module_stmt(self, module: Module,
                           stmt: ast.stmt) -> Iterator[Finding]:
        value, targets = self._assignment(stmt)
        if not mutable_container(value):
            return
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if names and all(n.startswith("__") for n in names):
            return  # __all__ and friends: metadata, not engine state
        yield self.finding(
            module, stmt,
            f"module-level mutable container "
            f"{', '.join(names) or '(unnamed)'}: shared by every cell "
            f"the process runs; move it onto the simulation instance")

    def _check_class_body(self, module: Module,
                          cls: ast.ClassDef) -> Iterator[Finding]:
        for stmt in cls.body:
            value, targets = self._assignment(stmt)
            if not mutable_container(value):
                continue
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            yield self.finding(
                module, stmt,
                f"class-level mutable attribute "
                f"{', '.join(names) or '(unnamed)'} on {cls.name}: one "
                f"container aliased by every instance; initialize it in "
                f"__init__ instead")

    def _check_function(self, module: Module, fn: ast.AST,
                        module_names: frozenset[str]) -> Iterator[Finding]:
        declared_global: set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        for node in ast.walk(fn):
            name = self._mutated_module_name(node, module_names,
                                             declared_global)
            if name is not None:
                yield self.finding(
                    module, node,
                    f"write to module-level {name!r} from function scope: "
                    f"mutations leak into the next cell; thread the state "
                    f"through the simulation instance")

    @staticmethod
    def _mutated_module_name(node: ast.AST, module_names: frozenset[str],
                             declared_global: set[str]) -> str | None:
        """Module-level name this node mutates, if any."""
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for t in targets:
                # global x; x = ...  — rebinding shared state
                if isinstance(t, ast.Name) and t.id in declared_global \
                        and t.id in module_names:
                    return t.id
                # x[...] = ... on a module-level container
                if isinstance(t, ast.Subscript) \
                        and isinstance(t.value, ast.Name) \
                        and t.value.id in module_names:
                    return t.value.id
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _MUTATOR_METHODS \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id in module_names:
            return node.func.value.id
        return None

    @staticmethod
    def _assignment(
            stmt: ast.stmt) -> tuple[ast.AST | None, list[ast.AST]]:
        if isinstance(stmt, ast.Assign):
            return stmt.value, list(stmt.targets)
        if isinstance(stmt, ast.AnnAssign):
            return stmt.value, [stmt.target]
        return None, []
