"""Reconfiguration support (Section IV-D).

Because the way->channel assignment is fixed (see
:mod:`repro.core.partition`), applying a new (cap, bw) configuration only
changes way *ownership*.  The controller realizes the change lazily: a
block found in a way whose alloc bit no longer matches its class is
invalidated (written back if dirty) after the access that touched it, off
the critical path.  This module applies map changes, bumps the
configuration generation the lazy mechanism keys on, and provides the
relocation-cost estimator used by tests and the Fig. 7(b) analysis.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.partition import DecoupledMap
from repro.telemetry import NULL_SINK

if TYPE_CHECKING:  # circular at runtime: hydrogen imports this module
    from repro.core.hydrogen import HydrogenPolicy


class Reconfigurator:
    """Applies (cap, bw) changes to a Hydrogen policy."""

    def __init__(self, policy: HydrogenPolicy) -> None:
        self.policy = policy
        self.reconfigurations = 0

    def apply(self, cap: int, bw: int) -> bool:
        """Switch the policy to a new map; returns whether anything changed."""
        pol = self.policy
        old = pol.map
        assert old is not None, "policy not attached to a controller"
        if cap == old.cap and bw == old.bw:
            return False
        # spawn() keeps the concrete map class, so a table-backed map
        # stays table-backed.
        pol.map = old.spawn(cap, bw)
        pol.generation += 1
        self.reconfigurations += 1
        if pol.ctrl is not None:
            pol.ctrl.stats.add("reconfig.count")
        sink = getattr(pol, "telemetry", NULL_SINK)
        if sink.enabled:
            # Positive deltas are ways/channels granted to the CPU,
            # negative are revocations back to the GPU (Section IV-D:
            # only ownership moves; the way->channel map is invariant).
            sink.event("reconfig.apply", cap_from=old.cap, cap_to=cap,
                       bw_from=old.bw, bw_to=bw,
                       cpu_ways_delta=cap - old.cap,
                       cpu_channels_delta=bw - old.bw,
                       generation=pol.generation)
        return True


def estimate_relocations(old: DecoupledMap, new: DecoupledMap,
                         num_sets: int, sample: int = 512) -> float:
    """Mean number of ways per set whose owner changes between two maps.

    The consistent-hashing property (paper Fig. 3(c)) bounds this near 1.0
    for single-step cap/bw moves; tests assert it.
    """
    sample = min(sample, num_sets)
    step = max(1, num_sets // sample)
    sets = range(0, num_sets, step)
    total = sum(old.ownership_diff(new, s) for s in sets)
    return total / max(1, len(list(sets)))
