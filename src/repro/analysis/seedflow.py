"""SEED01 — seed provenance rule.

DET01 proves every RNG construction *has* a seed argument; it cannot
see whether that argument is actually the plumbed-in seed.  A run that
builds ``random.Random(time.time_ns())`` or launders entropy through a
local replays differently every time while passing the syntactic
check.  SEED01 closes the gap with the :mod:`repro.analysis.dataflow`
taint analysis: the seed expression of every RNG construction in the
tree must be *derivable from* (a) a parameter or attribute whose name
matches the seed lexicon (``seed``, ``seeds``, ``rng``, ``*_seed``,
``*_rng``, ...), or (b) a literal constant.  Anything the dataflow
cannot prove safe — opaque calls, unresolved globals — is flagged;
deliberate exceptions carry an explanatory ``# noqa: SEED01``.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from repro.analysis.dataflow import (Origin, enclosing_function,
                                     expr_origins, function_env)
from repro.analysis.framework import (RNG_CTORS, Finding, Module, Rule,
                                      dotted_name, seed_arg)

#: Names that identify a value as the threaded-through seed.  Matches
#: whole underscore-separated components: ``seed``, ``rng_seed``,
#: ``base_seed``, ``rng``, ``seed0``...; not ``sed`` or ``seedling``.
SEED_LEXICON = re.compile(r"(?:^|_)(?:seeds?|rngs?)\d*(?:_|$)", re.I)


def seedworthy(origins: frozenset[Origin]) -> bool:
    """Whether an origin set proves the value derives from a real seed.

    True iff at least one origin is a literal or a seed-lexicon
    parameter/attribute, and *no* origin is opaque (unknown / zero-arg
    call) — a value mixed from a seed and entropy is still tainted.
    """
    if not origins:
        return False
    good = False
    for o in origins:
        if o.kind == "literal":
            good = True
        elif o.kind in ("param", "attr") and SEED_LEXICON.search(o.name):
            good = True
        elif o.kind in ("call", "unknown"):
            return False
    return good


class SeedFlowRule(Rule):
    """Every RNG construction's seed must flow from a seed-named
    parameter/attribute or a literal."""

    rule_id = "SEED01"
    name = "seedflow"
    description = ("the seed argument of every RNG construction must be "
                   "derivable (via intraprocedural dataflow) from a "
                   "parameter/attribute matching the seed lexicon "
                   "(seed, rng, *_seed) or from a literal constant")

    def check(self, module: Module) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_name(node.func)
            if chain not in RNG_CTORS:
                continue
            seed_expr = seed_arg(node)
            if seed_expr is None:
                continue  # unseeded construction is DET01's finding
            fn = enclosing_function(module, node)
            env = function_env(fn) if fn is not None else {}
            if not seedworthy(expr_origins(seed_expr, env)):
                yield self.finding(
                    module, node,
                    f"seed of {'.'.join(chain)}() does not provably flow "
                    f"from a seed-named parameter/attribute or literal; "
                    f"thread the run seed through explicitly")
