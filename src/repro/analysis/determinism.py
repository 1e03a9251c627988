"""DET01 — deterministic-replay rule.

Every simulation result in this reproduction must be a pure function of
``(config, mix spec, seed)``: the sweep cache, the parallel engine's
bit-identical guarantee, and every figure regression test depend on it.
This rule bans the constructs that silently break that property:

* **unseeded RNG construction** anywhere: ``random.Random()``,
  ``np.random.default_rng()`` / ``np.random.RandomState()`` without a
  seed argument;
* **process-global RNG use** anywhere: ``random.random()``,
  ``random.randint(...)``, ``np.random.rand(...)``, ... — the module
  level generators share hidden global state across components;
* **wall-clock / OS entropy in simulation state** (paths under
  ``core/``, ``engine/``, ``hybrid/``, ``mem/``: the framework's
  :data:`~repro.analysis.framework.SIM_STATE_DIRS`): ``time.time()``,
  ``time.perf_counter()``, ``datetime.now()``, ``os.urandom()``,
  ``uuid.uuid4()`` and friends;
* **iteration over bare sets in simulation state** (same paths): the
  iteration order of a ``set`` is salted per process, so any simulation
  decision derived from it diverges between runs — rank or ``sorted()``
  the members instead (cf. ``DecoupledMap.owners``).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.framework import (RNG_CTORS, SIM_STATE_DIRS, Finding,
                                      Module, Rule, dotted_name,
                                      loop_iterables, seed_arg, unordered)

#: Wall-clock / entropy calls banned inside simulation-state paths.
_WALLCLOCK = {
    ("time", "time"), ("time", "time_ns"), ("time", "monotonic"),
    ("time", "monotonic_ns"), ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
    ("os", "urandom"),
    ("uuid", "uuid1"), ("uuid", "uuid4"),
}


class DeterminismRule(Rule):
    """No unseeded/global RNGs; no wall clocks or set-order dependence
    inside simulation state."""

    rule_id = "DET01"
    name = "determinism"
    description = ("simulation results must be a pure function of "
                   "(config, mix, seed): RNGs constructor-seeded, no "
                   "global random.* state, no wall clock or bare-set "
                   "iteration order feeding simulation state")

    def check(self, module: Module) -> Iterable[Finding]:
        scoped = bool(SIM_STATE_DIRS.intersection(module.parts()))
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node, scoped)
        if scoped:
            for iterable in loop_iterables(module.tree):
                if unordered(iterable, dict_views=False):
                    yield self.finding(
                        module, iterable,
                        "iteration over a bare set feeds simulation state "
                        "in arbitrary (per-process-salted) order; sort or "
                        "rank the members first")

    def _check_call(self, module: Module, call: ast.Call,
                    scoped: bool) -> Iterator[Finding]:
        chain = dotted_name(call.func)
        if not chain:
            return
        if chain in RNG_CTORS:
            if seed_arg(call) is None:
                yield self.finding(
                    module, call,
                    f"unseeded {'.'.join(chain)}(): pass the plumbed-in "
                    f"seed so runs replay deterministically")
        elif chain[0] == "random" and len(chain) == 2:
            if chain[1] == "SystemRandom":
                yield self.finding(
                    module, call,
                    "random.SystemRandom draws OS entropy and can never "
                    "replay; use a seeded random.Random")
            else:
                yield self.finding(
                    module, call,
                    f"random.{chain[1]}() uses the process-global RNG; "
                    f"use a constructor-seeded random.Random instance")
        elif (len(chain) >= 3 and chain[0] in ("np", "numpy")
                and chain[1] == "random"):
            yield self.finding(
                module, call,
                f"np.random.{chain[2]}() uses numpy's global RNG; use a "
                f"seeded np.random.default_rng(seed)")
        elif scoped and len(chain) >= 2 and chain[-2:] in _WALLCLOCK:
            yield self.finding(
                module, call,
                f"{'.'.join(chain)}() reads the wall clock / OS entropy "
                f"inside simulation state; derive time from the event "
                f"queue and randomness from a seeded RNG")
