"""ROB01: forbid bare ``except:`` and swallowed ``BaseException``.

The resilience work (docs/robustness.md) depends on exceptions reaching
the right layer: ``KeyboardInterrupt`` must abort a sweep (after the
cache flush), injected faults must surface to the retry loop, and a
worker crash must propagate as ``BrokenExecutor`` so the engine can
respawn the pool.  A bare ``except:`` — or an ``except BaseException:``
that never re-raises — silently eats all of those, converting a clean
recovery path into a hang or a corrupted result.  Handlers that *do*
re-raise (cleanup-then-propagate, e.g. the temp-file unlink in
``SweepCache.put``) are the legitimate use of ``BaseException`` and are
not flagged.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.framework import Finding, Module, Rule

def _names(expr: ast.AST | None) -> tuple[str, ...]:
    """Exception class names of an ``except`` clause expression."""
    if expr is None:
        return ()
    nodes = expr.elts if isinstance(expr, ast.Tuple) else [expr]
    out = []
    for node in nodes:
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
    return tuple(out)


def _reraises(handler: ast.ExceptHandler) -> bool:
    """True when any statement in the handler body is a ``raise``."""
    for stmt in handler.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Raise):
                return True
    return False


class RobustnessRule(Rule):
    """Flag exception handlers that swallow interrupts and crashes."""

    rule_id = "ROB01"
    name = "exception-hygiene"
    severity = "error"
    description = ("no bare except: and no except BaseException that "
                   "fails to re-raise")

    def check(self, module: Module) -> Iterable[Finding]:
        if "repro" not in module.parts():
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module, node,
                    "bare except: catches KeyboardInterrupt and worker "
                    "crashes; name the exceptions (or BaseException with "
                    "a re-raise)")
            elif "BaseException" in _names(node.type) \
                    and not _reraises(node):
                yield self.finding(
                    module, node,
                    "except BaseException without re-raise swallows "
                    "interrupts; re-raise after cleanup or catch "
                    "Exception")
