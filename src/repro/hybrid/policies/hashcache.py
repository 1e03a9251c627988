"""HAShCache baseline (Patil & Govindarajan, TACO 2017), as characterized in
the Hydrogen paper (Sections III-C, V, VI).

Mechanisms reimplemented:

* **Direct-mapped organization with chaining.**  HAShCache's native DRAM
  cache is direct-mapped; a "chained" alternate location provides
  pseudo-associativity at the cost of a second serialized tag probe.  The
  runner gives this policy an assoc=1 geometry (same capacity, 4x the
  sets).  For the Fig. 11 associativity sweep the paper disables chaining
  at A>1 and charges extra tag latency; ``chaining`` mirrors that.
* **CPU request prioritization** (PrIS) in the DRAM-cache (fast-tier)
  controller's queues (latency-sensitive CPU requests jump ahead of GPU
  requests); the off-package slow-tier controller is unmodified.
* **Slow-memory bypass** (ByE): the GPU's write misses bypass the DRAM
  cache (write-around to the slow tier), avoiding write-allocate fills for
  the latency-tolerant class; CPU misses and GPU read misses always
  migrate — which is exactly why, per the Hydrogen paper, the
  direct-mapped organization's conflict misses "stress the slow memory
  bandwidth".
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.core.partition import splitmix64
from repro.hybrid.policies.base import PartitionPolicy, inlined


class HAShCachePolicy(PartitionPolicy):
    """Direct-mapped + chaining + CPU priority + GPU write-around."""

    name = "hashcache"

    def __init__(self, chaining: bool | None = None,
                 extra_tag_latency: float = 2.0,
                 chain_probe_latency: float = 25.0) -> None:
        super().__init__()
        #: None = auto: chain when the geometry is direct-mapped.
        self._chaining_opt = chaining
        self.chaining = False
        self.extra_tag_latency = extra_tag_latency
        #: A chained lookup serializes a second tag probe that usually goes
        #: to the DRAM cache itself (HAShCache keeps tags in DRAM), so it
        #: costs a fast-memory access, not an SRAM hit.
        self.chain_probe_latency = chain_probe_latency

    @staticmethod
    def geometry(cfg: SystemConfig) -> SystemConfig:
        """HAShCache's native organization: direct-mapped at equal capacity,
        with tags resident in the DRAM cache and only a small on-chip tag
        cache (its design predates the large remap caches of the
        Hydrogen/Baryon lineage), so tag probes frequently cost a
        fast-memory access."""
        from dataclasses import replace
        cfg = cfg.with_geometry(assoc=1)
        return replace(cfg, hybrid=replace(cfg.hybrid,
                                           remap_cache_frac=1.0 / 64.0))

    def attach(self, ctrl) -> None:
        super().attach(ctrl)
        assoc = ctrl.cfg.hybrid.assoc
        self.chaining = (assoc == 1) if self._chaining_opt is None \
            else self._chaining_opt
        # PrIS prioritizes CPU requests in the DRAM-cache (fast tier)
        # controller; the off-package DDR controller is unmodified.
        ctrl.fast.set_priority_class("cpu")

    # -- chaining --------------------------------------------------------------

    @inlined("hashcache-chain")
    def _chain_set(self, block: int) -> int:
        return splitmix64(block * 2 + 1) % self.ctrl.cfg.num_sets

    @inlined("hashcache-chain")
    def alternate_set(self, set_id: int, block: int) -> int | None:
        if not self.chaining:
            return None
        alt = self._chain_set(block)
        return alt if alt != set_id else None

    @inlined("hashcache-probe")
    def extra_probe_latency(self, klass: str, chained: bool) -> float:
        if self.chaining:
            # A chained hit/insert pays a second serialized DRAM tag probe.
            return self.chain_probe_latency if chained else 0.0
        # Chaining disabled at higher associativity: flat extra tag latency
        # (Fig. 11 methodology).
        return self.extra_tag_latency

    @inlined("hashcache-chain")
    def pick_insertion(self, set_id: int, block: int,
                       klass: str) -> tuple[int, int] | None:
        if not self.chaining:
            return super().pick_insertion(set_id, block, klass)
        store = self.ctrl.store
        # Direct-mapped: prefer the primary slot; if occupied, fall back to
        # a free chained slot; otherwise evict the primary occupant.
        if store.entry(set_id, 0) is None:
            return (set_id, 0)
        alt = self._chain_set(block)
        if alt != set_id and store.entry(alt, 0) is None:
            return (alt, 0)
        return (set_id, 0)

    # -- bypass -------------------------------------------------------------------

    @inlined("write-around")
    def allow_migration(self, klass: str, block: int, cost: int,
                        is_write: bool) -> bool:
        # ByE: bypass the DRAM cache for the latency-tolerant GPU's write
        # misses (write-around); everything else fills — which is exactly
        # why the direct-mapped organization's conflict misses "stress the
        # slow memory bandwidth" (Hydrogen Section VI-A).
        return not (is_write and klass == "gpu")

    def describe(self) -> dict:
        return {"policy": self.name, "chaining": self.chaining}
