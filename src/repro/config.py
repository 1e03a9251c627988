"""System configuration for the Hydrogen reproduction (paper Table I).

All timing is expressed in *memory-controller cycles* at 1600 MHz (0.625 ns),
which is the native clock of both the HBM2E fast tier and the DDR4-3200 slow
tier in the paper's configuration.  Capacities are in bytes.

The paper simulates 5 billion instructions against gigabyte-scale memories.
This reproduction runs scaled-down traces (see DESIGN.md section 6); the
default capacities below are therefore 1/256 of a plausible full-scale setup
while keeping every *ratio* the paper relies on (fast:slow capacity = 1:8,
fast:slow bandwidth = 4:1 for HBM2E and 8:1 for HBM3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

#: Memory-controller clock in Hz; both tiers run at 1600 MHz (Table I).
CLOCK_HZ = 1.6e9

#: Cacheline granularity of a single channel access (bytes).
CACHELINE = 64


@dataclass(frozen=True)
class MemTiming:
    """DRAM-style timing parameters for one (super)channel.

    ``t_rcd``/``t_cas``/``t_rp`` follow the paper's RCD-CAS-RP notation in
    device cycles.  ``bytes_per_cycle`` is the data-bus throughput of the
    channel as seen by the controller.
    """

    t_rcd: float
    t_cas: float
    t_rp: float
    bytes_per_cycle: float
    row_bytes: int
    banks: int

    def burst_cycles(self, nbytes: int) -> float:
        """Bus occupancy of an ``nbytes`` transfer."""
        return nbytes / self.bytes_per_cycle

    def access_latency(self, row_state: str) -> float:
        """Latency from request start to first data beat.

        ``row_state`` is one of ``"hit"`` (row open), ``"closed"`` (bank
        precharged) or ``"conflict"`` (different row open).
        """
        if row_state == "hit":
            return self.t_cas
        if row_state == "closed":
            return self.t_rcd + self.t_cas
        if row_state == "conflict":
            return self.t_rp + self.t_rcd + self.t_cas
        raise ValueError(f"unknown row state: {row_state!r}")


@dataclass(frozen=True)
class MemEnergy:
    """Energy parameters of one memory technology (Table I)."""

    rw_pj_per_bit: float
    act_pre_nj: float

    def access_nj(self, nbytes: int) -> float:
        """Dynamic read/write energy of an ``nbytes`` transfer in nJ."""
        return nbytes * 8 * self.rw_pj_per_bit / 1000.0

    def activate_nj(self) -> float:
        """Energy of one activate+precharge pair in nJ."""
        return self.act_pre_nj


@dataclass(frozen=True)
class MemConfig:
    """One memory tier: a set of identical (super)channels."""

    name: str
    channels: int
    capacity: int
    timing: MemTiming
    energy: MemEnergy
    #: Constant interface latency per access (cycles): the off-package
    #: DIMM/controller hop for DDR, ~0 for on-package stacked HBM.  This is
    #: on top of the Table I bank timings and is what makes a slow-tier
    #: access ~2x the latency of a fast-tier access, as in real systems.
    link_latency: float = 0.0

    @property
    def bytes_per_cycle_total(self) -> float:
        return self.channels * self.timing.bytes_per_cycle

    @property
    def bandwidth_gbps(self) -> float:
        """Aggregate bandwidth in GB/s."""
        return self.bytes_per_cycle_total * CLOCK_HZ / 1e9


def hbm2e(channels: int = 4, capacity: int = 4 * MB) -> MemConfig:
    """HBM2E fast tier (paper Table I), grouped into 4-channel superchannels.

    The paper's 16 physical HBM channels are grouped 4-per-superchannel so
    one access supplies a 256 B block (Section IV-A); ``channels`` here counts
    superchannels.  Each physical channel moves 64 B in 4 cycles at
    1600 MHz (25.6 GB/s), so a superchannel moves 64 B per cycle.
    """
    return MemConfig(
        name="HBM2E",
        channels=channels,
        capacity=capacity,
        timing=MemTiming(t_rcd=23, t_cas=23, t_rp=23, bytes_per_cycle=64.0,
                         row_bytes=1 * KB, banks=16),
        energy=MemEnergy(rw_pj_per_bit=6.4, act_pre_nj=15.0),
    )


def hbm3(channels: int = 4, capacity: int = 4 * MB) -> MemConfig:
    """HBM3 fast tier: doubled bandwidth, scaled timing (Section VI-A)."""
    return MemConfig(
        name="HBM3",
        channels=channels,
        capacity=capacity,
        timing=MemTiming(t_rcd=23, t_cas=23, t_rp=23, bytes_per_cycle=128.0,
                         row_bytes=1 * KB, banks=16),
        energy=MemEnergy(rw_pj_per_bit=5.0, act_pre_nj=15.0),
    )


def ddr4(channels: int = 4, capacity: int = 32 * MB) -> MemConfig:
    """DDR4-3200 slow tier (paper Table I): 64-bit channel = 16 B/cycle."""
    return MemConfig(
        name="DDR4",
        channels=channels,
        capacity=capacity,
        timing=MemTiming(t_rcd=22, t_cas=22, t_rp=22, bytes_per_cycle=16.0,
                         row_bytes=4 * KB, banks=16 * 2),
        energy=MemEnergy(rw_pj_per_bit=33.0, act_pre_nj=15.0),
        link_latency=40.0,
    )


@dataclass(frozen=True)
class CacheConfig:
    """One on-chip SRAM cache level."""

    size: int
    ways: int
    line: int = CACHELINE
    latency: float = 1.0

    @property
    def sets(self) -> int:
        return max(1, self.size // (self.ways * self.line))


@dataclass(frozen=True)
class CPUConfig:
    """CPU complex (Table I): 8 cores, private L1/L2."""

    cores: int = 8
    l1: CacheConfig = field(default_factory=lambda: CacheConfig(64 * KB, 8, latency=1))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(1 * MB, 8, latency=9))
    #: Outstanding memory requests per core (latency-sensitive, small:
    #: an out-of-order core's handful of L2 MSHRs).
    mlp: int = 8


@dataclass(frozen=True)
class GPUConfig:
    """GPU complex (Table I): 96 execution units, L1 per 16-EU subslice."""

    execution_units: int = 96
    eus_per_subslice: int = 16
    l1: CacheConfig = field(default_factory=lambda: CacheConfig(128 * KB, 8, latency=2))
    #: Outstanding memory requests for the whole GPU (bandwidth-driven but
    #: bounded by the subslices' finite MSHRs; this closed-loop depth also
    #: bounds how deep the GPU can pile memory-controller queues).
    mlp: int = 96

    @property
    def subslices(self) -> int:
        return self.execution_units // self.eus_per_subslice


@dataclass(frozen=True)
class HybridConfig:
    """Hybrid memory organization (Section III-A)."""

    #: Data block (migration) granularity in bytes.
    block: int = 256
    #: Fast-memory associativity: fast blocks per set.
    assoc: int = 4
    #: "cache" (fast tier is a memory-side cache) or "flat" (both tiers
    #: contribute OS-visible capacity, migration swaps blocks).
    mode: str = "cache"
    #: SRAM remap-cache entries as a fraction of the total set count.  The
    #: paper's 256 kB remap cache achieves high hit rates on its workloads;
    #: at this reproduction's scaled-down set count the equivalent coverage
    #: is a fraction of the (much smaller) set total that keeps the remap
    #: fill rate comparable (~10-25% of accesses).
    remap_cache_frac: float = 1.0 / 8.0
    #: Remap-cache (SRAM) probe latency in cycles.
    remap_sram_latency: float = 2.0
    #: Bytes of remap metadata fetched from fast memory on a remap-cache miss.
    remap_entry_bytes: int = 64
    #: Migrations are suppressed while the target slow channel already has
    #: this many requests queued — a real memory controller's migration
    #: queue is finite and stalls/drops fills under saturation rather than
    #: queueing them without bound.
    migrate_queue_limit: int = 64


@dataclass(frozen=True)
class EpochConfig:
    """Online-tuning cadence (Section IV-C), scaled per DESIGN.md section 6."""

    #: Sampling epoch length in cycles (paper default: 10 M; scaled so the
    #: exploration:run ratio stays close to the paper's).
    epoch_cycles: float = 5_000.0
    #: Exploration-phase restart period in cycles (paper default: 500 M).
    phase_cycles: float = 1_000_000.0
    #: Token-faucet replenish period in cycles (paper example: 1 M).
    faucet_cycles: float = 2_500.0


@dataclass(frozen=True)
class SystemConfig:
    """Complete simulated system (paper Table I + Section V)."""

    cpu: CPUConfig = field(default_factory=CPUConfig)
    gpu: GPUConfig = field(default_factory=GPUConfig)
    llc: CacheConfig = field(
        default_factory=lambda: CacheConfig(16 * MB, 16, latency=38))
    fast: MemConfig = field(default_factory=hbm2e)
    slow: MemConfig = field(default_factory=ddr4)
    hybrid: HybridConfig = field(default_factory=HybridConfig)
    epochs: EpochConfig = field(default_factory=EpochConfig)
    #: Weighted-IPC weights (paper default CPU:GPU = 12:1, Section V).
    weight_cpu: float = 12.0
    weight_gpu: float = 1.0

    def __post_init__(self) -> None:
        # Refuse what the engines cannot run: a zero block or assoc
        # divides by zero below, no set leaves nowhere to cache, and a
        # cadence <= 0 reschedules its tick at the same time forever.
        if self.hybrid.block < 1 or self.hybrid.assoc < 1:
            raise ValueError(f"hybrid.block and hybrid.assoc must be >= 1, "
                             f"got {self.hybrid.block} and "
                             f"{self.hybrid.assoc}")
        if self.fast.capacity % (self.hybrid.block * self.hybrid.assoc):
            raise ValueError("fast capacity must be a multiple of block*assoc")
        if self.num_sets < 1:
            raise ValueError(f"fast capacity {self.fast.capacity} holds no "
                             f"set of block*assoc bytes")
        if self.hybrid.mode not in ("cache", "flat"):
            raise ValueError(f"unknown hybrid mode {self.hybrid.mode!r}")
        if self.fast.channels < 1 or self.slow.channels < 1:
            raise ValueError("need at least one channel per tier")
        for name in ("epoch_cycles", "phase_cycles", "faucet_cycles"):
            if not getattr(self.epochs, name) > 0:
                raise ValueError(f"epochs.{name} must be > 0, got "
                                 f"{getattr(self.epochs, name)}")
        if self.cpu.mlp < 1 or self.gpu.mlp < 1:
            raise ValueError(f"cpu.mlp and gpu.mlp must be >= 1, got "
                             f"{self.cpu.mlp} and {self.gpu.mlp}")

    @property
    def num_sets(self) -> int:
        """Number of sets the whole memory space is divided into."""
        return self.fast.capacity // (self.hybrid.block * self.hybrid.assoc)

    @property
    def remap_cache_entries(self) -> int:
        return max(16, int(self.num_sets * self.hybrid.remap_cache_frac))

    def block_of(self, addr: int) -> int:
        """Physical address -> block number."""
        return addr // self.hybrid.block

    def set_of(self, addr: int) -> int:
        """Physical address -> set index (block-interleaved)."""
        return (addr // self.hybrid.block) % self.num_sets

    def with_fast(self, fast: MemConfig) -> "SystemConfig":
        return replace(self, fast=fast)

    def with_geometry(self, *, assoc: int | None = None,
                      block: int | None = None) -> "SystemConfig":
        """Return a copy with a different associativity and/or block size.

        Used by the Fig. 11 sweep: the fast capacity is unchanged, so the
        set count adjusts automatically.
        """
        hyb = replace(
            self.hybrid,
            assoc=assoc if assoc is not None else self.hybrid.assoc,
            block=block if block is not None else self.hybrid.block,
        )
        return replace(self, hybrid=hyb)


def default_system(**overrides) -> SystemConfig:
    """The paper's default configuration, scaled per DESIGN.md section 6."""
    return SystemConfig(**overrides)


def validate_ratios(cfg: SystemConfig) -> dict:
    """Sanity numbers used by tests and the Table I benchmark."""
    return {
        "fast_slow_capacity_ratio": cfg.fast.capacity / cfg.slow.capacity,
        "fast_slow_bandwidth_ratio": (
            cfg.fast.bytes_per_cycle_total / cfg.slow.bytes_per_cycle_total
        ),
        "num_sets": cfg.num_sets,
        "blocks_fast": cfg.fast.capacity // cfg.hybrid.block,
        "sets_pow2": math.log2(cfg.num_sets).is_integer(),
    }
