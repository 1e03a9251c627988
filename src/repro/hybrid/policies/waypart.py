"""WayPart: simple *coupled* way-partitioning (paper Section V).

Dedicates a fixed fraction of the ways (75% by default) to the CPU, with
the conventional way->channel mapping of Fig. 3(a): contiguous ways map to
contiguous channels, so the CPU's capacity share and bandwidth share are
forcibly equal.  This is the strawman whose coupling Hydrogen's decoupled
scheme fixes — e.g. in C10 the GPU collapses to 23% of its solo
performance under WayPart because it only gets 25% of the fast bandwidth.
"""

from __future__ import annotations

from repro.core.partition import coupled_channel
from repro.hybrid.policies.base import PartitionPolicy, inlined


class WayPartPolicy(PartitionPolicy):
    """Static coupled way partitioning."""

    name = "waypart"

    def __init__(self, cpu_frac: float = 0.75) -> None:
        super().__init__()
        if not 0.0 <= cpu_frac <= 1.0:
            raise ValueError("cpu_frac must be in [0, 1]")
        self.cpu_frac = cpu_frac
        self._cpu_ways: tuple[int, ...] = ()
        self._gpu_ways: tuple[int, ...] = ()

    def attach(self, ctrl) -> None:
        super().attach(ctrl)
        assoc = ctrl.cfg.hybrid.assoc
        n_cpu = max(0, min(assoc, round(assoc * self.cpu_frac)))
        self._cpu_ways = tuple(range(n_cpu))
        self._gpu_ways = tuple(range(n_cpu, assoc))

    @inlined("coupled")
    def way_channel(self, set_id: int, way: int) -> int:
        return coupled_channel(set_id, way, self.ctrl.cfg.hybrid.assoc,
                               self.ctrl.fast.cfg.channels)

    @inlined("coupled")
    def way_owner(self, set_id: int, way: int) -> str:
        return "cpu" if way in self._cpu_ways else "gpu"

    @inlined("coupled")
    def eligible_ways(self, set_id: int, klass: str) -> tuple[int, ...]:
        return self._cpu_ways if klass == "cpu" else self._gpu_ways

    def describe(self) -> dict:
        return {"policy": self.name, "cpu_ways": len(self._cpu_ways),
                "gpu_ways": len(self._gpu_ways)}
