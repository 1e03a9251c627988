"""FLT01 — float accumulation order rule.

Floating-point addition is not associative: summing the same values in
a different order produces a different result, which is exactly the
kind of last-bit divergence the bit-exact engine equivalence tests
(and the divergence sanitizer's digests) turn into a hard failure.
Iteration order of a ``set`` is salted per process, and dict insertion
order can legitimately differ between the reference and fast engines
— so any ``sum()`` / ``np.sum`` / ``math.fsum`` that folds
over such an iterable inside simulation state is a replay hazard.

FLT01 flags, in modules feeding :class:`SimResult` or sanitizer
digests (``core/``, ``engine/``, ``hybrid/``, ``mem/`` and
``sanitize.py``):

* sum-family calls over a bare set expression;
* sum-family calls over a dict view (``.values()`` / ``.keys()`` /
  ``.items()``) not wrapped in ``sorted(...)``;
* sum-family calls over a comprehension/generator whose source is one
  of the above.

Integer-only accumulations over a dict view are order-independent and
may carry an explanatory ``# noqa: FLT01``.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.framework import (SIM_STATE_DIRS, Finding, Module, Rule,
                                      dotted_name, unordered)

#: Accumulator call chains whose result depends on operand order.
_SUM_CALLS = frozenset({
    ("sum",), ("math", "fsum"),
    ("np", "sum"), ("numpy", "sum"),
    ("np", "nansum"), ("numpy", "nansum"),
})


def _unordered(node: ast.AST) -> str | None:
    """Why folding over ``node`` has no reproducible order: the
    iterable itself, or a source of the comprehension that builds it."""
    if isinstance(node, (ast.GeneratorExp, ast.ListComp)):
        for gen in node.generators:
            reason = _unordered(gen.iter)
            if reason:
                return reason
        return None
    return unordered(node, dict_views=True)


class FloatOrderRule(Rule):
    """No order-dependent float accumulation over unordered iterables
    in simulation state."""

    rule_id = "FLT01"
    name = "floatorder"
    description = ("sum()/np.sum/math.fsum over sets or unsorted dict "
                   "views inside simulation state accumulates floats in "
                   "an order that differs across processes/engines; "
                   "sort the operands first")

    def check(self, module: Module) -> Iterable[Finding]:
        parts = module.parts()
        if not (SIM_STATE_DIRS.intersection(parts)
                or parts[-1] == "sanitize.py"):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            if dotted_name(node.func) not in _SUM_CALLS:
                continue
            reason = _unordered(node.args[0])
            if reason:
                yield self.finding(
                    module, node,
                    f"{ast.unparse(node.func)}() folds floats over "
                    f"{reason}: accumulation order is not reproducible "
                    f"across runs/engines; wrap the iterable in sorted()")
