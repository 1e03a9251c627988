"""Memory energy accounting (paper Fig. 6).

Dynamic energy is computed from the transfer/activation counters the
channels record in ``Stats``; static (background) energy is charged per
tier per cycle so that a faster design also saves static energy — the
paper notes C11's 30% speedup translating into 26% static DRAM energy
reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from repro.config import MemConfig
from repro.engine.stats import Stats

#: Background power per tier, in nJ per cycle (i.e. W at 1.6 GHz * 0.625 ns).
#: DDR4 DIMMs burn more background power per GB than stacked HBM at our
#: scaled capacities; only the fast:slow ratio matters for Fig. 6 shapes.
STATIC_NJ_PER_CYCLE = MappingProxyType({"fast": 0.5, "slow": 1.5})


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-tier dynamic + static energy in nanojoules."""

    fast_dynamic_nj: float
    slow_dynamic_nj: float
    fast_static_nj: float
    slow_static_nj: float

    @property
    def total_nj(self) -> float:
        return (self.fast_dynamic_nj + self.slow_dynamic_nj
                + self.fast_static_nj + self.slow_static_nj)

    @property
    def dynamic_nj(self) -> float:
        return self.fast_dynamic_nj + self.slow_dynamic_nj

    @property
    def static_nj(self) -> float:
        return self.fast_static_nj + self.slow_static_nj


def tier_dynamic_nj(stats: Stats, cfg: MemConfig, prefix: str) -> float:
    """Dynamic energy of one tier from its counters."""
    nbytes = stats.get(f"{prefix}.bytes_read") + stats.get(f"{prefix}.bytes_written")
    acts = stats.get(f"{prefix}.activations")
    return cfg.energy.access_nj(int(nbytes)) + acts * cfg.energy.activate_nj()


def energy_breakdown(stats: Stats, fast: MemConfig, slow: MemConfig,
                     elapsed_cycles: float) -> EnergyBreakdown:
    """Full Fig. 6-style energy accounting for one simulation run."""
    return EnergyBreakdown(
        fast_dynamic_nj=tier_dynamic_nj(stats, fast, "fast"),
        slow_dynamic_nj=tier_dynamic_nj(stats, slow, "slow"),
        fast_static_nj=STATIC_NJ_PER_CYCLE["fast"] * elapsed_cycles,
        slow_static_nj=STATIC_NJ_PER_CYCLE["slow"] * elapsed_cycles,
    )
