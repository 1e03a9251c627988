"""AST-based invariant linter for the Hydrogen reproduction.

The simulator's load-bearing properties — deterministic replay, pure
telemetry, picklable sweep jobs, a documented Stats counter namespace —
are conventions no type checker sees.  This package machine-checks them
(``repro lint``, ``scripts/check_all.py``), so violations fail the build
instead of resurfacing as runtime heisenbugs (see docs/analysis.md for
each rule's rationale, paper cross-reference, and example fix).

Quick tour::

    from repro.analysis import default_rules, run_rules

    findings = run_rules(["src"], default_rules())
    for f in findings:
        print(f.format())     # path:line:col: RULE message

Rules are plugins: subclass :class:`Rule`, implement ``check(module)``
(and ``finalize()`` for cross-module rules), and pass instances to
:func:`run_rules`.
"""

from __future__ import annotations

from repro.analysis.apiusage import PrivateImportRule
from repro.analysis.determinism import DeterminismRule
from repro.analysis.floatorder import FloatOrderRule
from repro.analysis.framework import (Finding, Module, Rule,
                                      iter_python_files, run_rules)
from repro.analysis.isolation import StateIsolationRule
from repro.analysis.mutables import MutableDefaultRule
from repro.analysis.picklability import SweepPicklabilityRule
from repro.analysis.purity import TelemetryPurityRule
from repro.analysis.robustness import RobustnessRule
from repro.analysis.seedflow import SeedFlowRule
from repro.analysis.statskeys import StatsKeyRegistryRule
from repro.analysis.style import (LineLengthRule, UnusedImportRule,
                                  WhitespaceRule)

#: The ten domain rules (always on) in reporting order.  They share one
#: vocabulary from repro.analysis.framework (simulation-state paths,
#: unordered iterables, mutable containers, RNG seeds); SEED01 adds the
#: intraprocedural dataflow of repro.analysis.dataflow.
DOMAIN_RULES = (DeterminismRule, SeedFlowRule, StateIsolationRule,
                FloatOrderRule, TelemetryPurityRule,
                SweepPicklabilityRule, StatsKeyRegistryRule,
                MutableDefaultRule, PrivateImportRule, RobustnessRule)

#: Dependency-free style gates (subset of the ruff configuration).
STYLE_RULES = (LineLengthRule, WhitespaceRule, UnusedImportRule)

ALL_RULES = DOMAIN_RULES + STYLE_RULES


def default_rules() -> list[Rule]:
    """Fresh single-use instances of every rule in ``ALL_RULES``."""
    return [cls() for cls in ALL_RULES]


def rules_by_id(spec: str) -> list[Rule]:
    """Instantiate rules from a comma-separated spec.

    Accepts rule ids (``DET01``), rule names (``determinism``), and the
    group aliases ``domain`` / ``style`` / ``all``.  Unknown entries
    raise ``ValueError``.
    """
    groups = {"domain": DOMAIN_RULES, "style": STYLE_RULES,
              "all": ALL_RULES}
    chosen: list[type[Rule]] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if token.lower() in groups:
            chosen.extend(groups[token.lower()])
            continue
        matches = [cls for cls in ALL_RULES
                   if token.upper() == cls.rule_id
                   or token.lower() == cls.name]
        if not matches:
            known = ", ".join(f"{c.rule_id}/{c.name}" for c in ALL_RULES)
            raise ValueError(f"unknown rule {token!r}; known: {known} "
                             f"(or domain/style/all)")
        chosen.extend(matches)
    return [cls() for cls in dict.fromkeys(chosen)]


__all__ = [
    "Finding", "Module", "Rule", "run_rules", "iter_python_files",
    "default_rules", "rules_by_id",
    "DeterminismRule", "SeedFlowRule", "StateIsolationRule",
    "FloatOrderRule", "TelemetryPurityRule", "SweepPicklabilityRule",
    "StatsKeyRegistryRule", "MutableDefaultRule", "PrivateImportRule",
    "RobustnessRule",
    "LineLengthRule", "WhitespaceRule", "UnusedImportRule",
    "DOMAIN_RULES", "STYLE_RULES", "ALL_RULES",
]
