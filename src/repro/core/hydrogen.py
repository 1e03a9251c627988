"""The Hydrogen partitioning policy (Section IV), tying together decoupled
fast-memory partitioning, token-based slow-memory migration throttling, and
the epoch-based hill-climbing tuner.

Variants used in the paper's evaluation:

* ``HydrogenPolicy.dp()``        — decoupled partitioning only, fixed at the
  heuristic 75% fast bandwidth / 25% fast capacity for the GPU (cap=3, bw=1
  on the 4-way / 4-superchannel default);
* ``HydrogenPolicy.dp_token()``  — plus token throttling at the fixed 15%
  migration fraction;
* ``HydrogenPolicy.full()``      — plus the online hill climber (the design
  labelled "Hydrogen (Full)" in Fig. 5).

Fig. 7's ablations map to ``swap_mode`` ("on", "ideal", "prob", "off") and
the controller's ``ideal_reconfig`` flag.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any

from repro.core.partition import DecoupledMap, VectorDecoupledMap
from repro.core.reconfig import Reconfigurator
from repro.core.tokens import (DEFAULT_TOKEN_FRAC, TOKEN_LEVELS,
                               PerChannelFaucets, TokenFaucet)
from repro.core.tuner import HillClimber, ParamSpace
from repro.hybrid.policies.base import PartitionPolicy, inlined
from repro.hybrid.setassoc import HITS, KLASS

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import SystemConfig
    from repro.core.tuner import Config
    from repro.hybrid.controller import HybridMemoryController

SWAP_MODES = ("on", "ideal", "prob", "off")


class HydrogenPolicy(PartitionPolicy):
    """Contention-aware decoupled partitioning with online tuning."""

    name = "hydrogen"

    def __init__(self, cap: int = 3, bw: int = 1,
                 tok_frac: float = DEFAULT_TOKEN_FRAC, *,
                 enable_tokens: bool = True, enable_tuner: bool = True,
                 swap_mode: str = "on", swap_threshold: int = 2,
                 per_channel_tokens: bool = False, eps: float = 0.05,
                 ideal_reconfig: bool = False, seed: int = 11) -> None:
        super().__init__()
        if swap_mode not in SWAP_MODES:
            raise ValueError(f"swap_mode must be one of {SWAP_MODES}")
        self._init_cap = cap
        self._init_bw = bw
        self.tok_frac = tok_frac
        self.enable_tokens = enable_tokens
        self.enable_tuner = enable_tuner
        self.swap_mode = swap_mode
        self.swap_threshold = swap_threshold
        self.per_channel_tokens = per_channel_tokens
        self.eps = eps
        self.ideal_reconfig = ideal_reconfig
        self._rng = random.Random(seed)
        self.map: DecoupledMap | None = None
        self.faucet: TokenFaucet | PerChannelFaucets | None = None
        self.tuner: HillClimber | None = None
        self.reconfigurator = Reconfigurator(self)
        self._last_gpu_misses = 0.0

    # -- convenience constructors ------------------------------------------------

    @classmethod
    def dp(cls, **kw: Any) -> "HydrogenPolicy":
        """Hydrogen (DP): decoupled partitioning with fixed heuristics."""
        pol = cls(enable_tokens=False, enable_tuner=False, **kw)
        pol.name = "hydrogen-dp"
        return pol

    @classmethod
    def dp_token(cls, **kw: Any) -> "HydrogenPolicy":
        """Hydrogen (DP+Token): plus fixed 15% migration tokens."""
        pol = cls(enable_tokens=True, enable_tuner=False, **kw)
        pol.name = "hydrogen-dp-token"
        return pol

    @classmethod
    def full(cls, **kw: Any) -> "HydrogenPolicy":
        """Hydrogen (Full): DP + tokens + online hill climbing."""
        pol = cls(enable_tokens=True, enable_tuner=True, **kw)
        pol.name = "hydrogen"
        return pol

    # -- lifecycle ------------------------------------------------------------------

    def attach(self, ctrl: HybridMemoryController) -> None:
        super().attach(ctrl)
        assoc = ctrl.cfg.hybrid.assoc
        channels = ctrl.cfg.fast.channels
        # Capacity granularity: whole ways normally; at low associativity
        # fall back to the decoupled set-partitioning analog (Section IV-F)
        # with channel-count granularity; never fewer than two units, so
        # each class can hold one.
        cap_units = max(assoc, channels, 2)
        cap = min(round(self._init_cap * cap_units / 4), cap_units)
        if 0 < self._init_cap < 4:
            # A split share stays split on a small fast tier: rounding
            # must not hand one class every capacity unit.
            cap = min(max(cap, 1), cap_units - 1)
        bw = min(self._init_bw, channels - 1)
        # Keep the CPU capacity share >= its dedicated bandwidth share.
        cap = max(cap, _min_cap(bw, cap_units, channels))
        self.cap_units = cap_units
        self.map = VectorDecoupledMap(assoc, channels, cap, bw, cap_units,
                                      num_sets=ctrl.cfg.num_sets)

        if self.enable_tokens:
            if self.per_channel_tokens:
                self.faucet = PerChannelFaucets(ctrl.cfg.slow.channels,
                                                self.tok_frac)
            else:
                self.faucet = TokenFaucet(self.tok_frac)
            self.faucet.sink = self.telemetry

        if self.enable_tuner:
            # Order matters: the hill climber cycles moves in domain order,
            # and tok/bw trials are far cheaper to back out of than cap
            # trials (which flush blocks).
            domains: dict[str, tuple[float, ...]] = {}
            if self.enable_tokens:
                domains["tok"] = TOKEN_LEVELS
            domains["bw"] = tuple(range(0, channels))
            # QoS floor: each class keeps at least one capacity unit, as in
            # the paper (no configuration ever starves the CPU or the GPU).
            domains["cap"] = tuple(range(1, cap_units))
            space = ParamSpace(domains, is_valid=lambda cfg: (
                cfg["cap"] >= _min_cap(cfg["bw"], cap_units, channels)))
            start: dict[str, float] = {"cap": cap, "bw": bw}
            if self.enable_tokens:
                start["tok"] = self.tok_frac
            self.tuner = HillClimber(space, start, eps=self.eps,
                                     sink=self.telemetry)

        if self.swap_mode == "ideal":
            ctrl.ideal_swap = True
        if self.ideal_reconfig:
            ctrl.ideal_reconfig = True

    # -- geometry ------------------------------------------------------------------

    # ``self.map`` is None only before ``attach``; the asserts narrow the
    # Optional for type checkers and vanish under ``python -O``.

    @inlined("decoupled-map")
    def way_channel(self, set_id: int, way: int) -> int:
        assert self.map is not None
        return self.map.channel(set_id, way)

    @inlined("decoupled-map")
    def way_owner(self, set_id: int, way: int) -> str:
        assert self.map is not None
        return self.map.owner(set_id, way)

    @inlined("decoupled-map")
    def eligible_ways(self, set_id: int, klass: str) -> tuple[int, ...]:
        assert self.map is not None
        return self.map.ways_of(set_id, klass)

    @inlined("channel-fixed")
    def channel_changed(self, set_id: int, way: int, gen: int) -> bool:
        # The way->channel assignment is invariant across reconfigurations
        # (Section IV-D); only ownership moves, handled via way_owner.
        return False

    # -- migration ------------------------------------------------------------------

    @inlined("token-guard")
    def allow_migration(self, klass: str, block: int, cost: int,
                        is_write: bool) -> bool:
        if klass != "gpu" or self.faucet is None:
            return True
        if self.per_channel_tokens:
            ch = block % self.ctrl.cfg.slow.channels
            return self.faucet.try_consume(ch, cost)
        return self.faucet.try_consume(cost)

    # -- fast-memory swap (Section IV-A) -----------------------------------------------

    @inlined("hydrogen-swap")
    def on_fast_hit(self, set_id: int, way: int, entry: list[Any],
                    klass: str) -> int | None:
        if klass != "cpu" or self.swap_mode == "off":
            return None
        if entry[KLASS] != "cpu":
            # A CPU hit on a GPU-fetched (shared-data) block must not
            # promote it: its alloc bit says GPU, so parking it in a
            # CPU-dedicated way would break ownership and force a lazy
            # invalidation on the next touch.
            return None
        m = self.map
        assert m is not None
        if m.bw == 0 or m.channel(set_id, way) < m.bw:
            return None  # no dedicated channels / already dedicated
        if entry[HITS] < self.swap_threshold:
            return None
        if self.swap_mode == "prob" and self._rng.random() < 0.5:
            return None
        store = self.ctrl.store
        dedicated = m.dedicated_cpu_ways(set_id)
        if not dedicated:
            return None
        target = store.free_way(set_id, dedicated)
        if target is None:
            target = store.lru_way(set_id, dedicated)
            tentry = store.entry(set_id, target)
            # Hysteresis: promote only with a clear hotness margin over the
            # coldest dedicated block, otherwise promotion/demotion
            # ping-pongs and floods the dedicated channel with swap traffic.
            if tentry is not None and entry[HITS] < tentry[HITS] + self.swap_threshold:
                return None
        return target

    # -- adaptation -----------------------------------------------------------------

    def on_epoch(self, now: float, metrics: dict[str, float]) -> None:
        if self.tuner is None:
            return
        new = self.tuner.on_epoch(metrics["weighted_ipc"])
        if new is None:
            return
        self._apply(new)

    def on_phase(self, now: float) -> None:
        if self.tuner is not None:
            self.tuner.reset()
            if self.telemetry.enabled:
                self.telemetry.event("tuner.phase_reset",
                                     watchdog_resets=self.tuner.watchdog_resets)

    def on_faucet(self, now: float) -> None:
        if self.faucet is None:
            return
        # Refill amount tracks GPU *requests* (paper: "how many GPU-induced
        # migrations are allowed in this period" as a share of its traffic);
        # basing it on accesses rather than misses keeps the allowance
        # stable when the hit rate swings, so a post-reconfiguration miss
        # burst can actually refill the cache and recover.
        accesses = self.ctrl.live_count("gpu", "accesses")
        delta = accesses - self._last_gpu_misses
        self._last_gpu_misses = accesses
        if self.per_channel_tokens:
            per = int(delta) // len(self.faucet.faucets)
            for i in range(len(self.faucet.faucets)):
                self.faucet.observe(i, per)
        else:
            self.faucet.observe(int(delta))
        amount = self.faucet.refill()
        if self.telemetry.enabled:
            self.telemetry.event("faucet.refill", amount=amount,
                                 tokens=self.faucet.tokens,
                                 frac=self.faucet.frac,
                                 granted=self.faucet.granted,
                                 denied=self.faucet.denied)

    def _apply(self, cfg: Config) -> None:
        # cap/bw values come from integer domains; cap is in cap_units.
        self.reconfigurator.apply(int(cfg["cap"]), int(cfg["bw"]))
        if self.faucet is not None and "tok" in cfg:
            self.faucet.frac = cfg["tok"]

    # -- telemetry ---------------------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        assert self.map is not None
        d: dict[str, Any] = {"policy": self.name, "cap": self.map.cap,
                             "bw": self.map.bw, "swap_mode": self.swap_mode}
        if self.faucet is not None:
            d["tok"] = self.faucet.frac
            d["tokens_denied"] = self.faucet.denied
            d["tokens_banked"] = self.faucet.tokens
        if self.tuner is not None:
            d["tuner_steps"] = self.tuner.steps_taken
            d["converged"] = self.tuner.converged
        return d


def metadata_overhead(cfg: SystemConfig) -> dict[str, Any]:
    """Hydrogen's hardware cost (Section IV-F "Hardware cost").

    The only per-block state Hydrogen adds is one ``alloc`` bit per way in
    the remap table; everything else is a handful of registers.  Returns
    the storage overhead relative to the fast-memory data it manages —
    the paper reports 0.049% for 256 B blocks.
    """
    alloc_bits = cfg.fast.capacity // cfg.hybrid.block  # 1 bit per block
    overhead = alloc_bits / 8 / cfg.fast.capacity
    return {
        "alloc_bits": alloc_bits,
        "alloc_bytes": alloc_bits / 8,
        "overhead_frac": overhead,
        "registers": {
            "current_config": 3,      # cap, bw, tok
            "trial_config": 3,        # hill-climbing comparison set
            "scores": 2,              # base + trial weighted IPC
            "token_counter": 1,
            "channel_partition": 1,   # dedicated/shared channel mask
        },
    }


def _min_cap(bw: int, cap_units: int, channels: int) -> int:
    """Smallest valid cap (in cap_units) for a bw: the CPU's capacity share
    must cover at least its dedicated-channel share."""
    return -(-bw * cap_units // channels)
