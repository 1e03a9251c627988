"""Top-level simulation: agents -> hybrid memory controller -> devices.

Wires one :class:`WorkloadMix` to a :class:`HybridMemoryController` under a
given partitioning policy, drives the epoch / faucet / phase clocks of
Section IV-C, and reduces the run into a :class:`SimResult` with the
per-class cycle counts the paper's evaluation (artifact task T3) reports.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.config import SystemConfig
from repro.engine.agents import TraceAgent
from repro.engine.events import EventQueue
from repro.engine.stats import Stats, weighted_ipc
from repro.hybrid.controller import HybridMemoryController
from repro.hybrid.policies.base import PartitionPolicy
from repro.mem.energy import EnergyBreakdown, energy_breakdown
from repro.sanitize import NULL_SANITIZER, NullSanitizer, StateRecorder
from repro.telemetry import NULL_SINK, Telemetry
from repro.traces.mixes import WorkloadMix

#: Hard safety cap on simulated cycles (runaway-configuration backstop).
MAX_CYCLES_DEFAULT = 50_000_000.0

#: Consecutive zero-progress epochs tolerated before the non-progress
#: watchdog raises :class:`SimulationStalled`.  Generous on purpose:
#: any legitimate workload retires instructions every epoch, so only a
#: genuinely wedged memory path or pathological configuration trips it.
STALL_EPOCHS_DEFAULT = 500


class SimulationStalled(RuntimeError):
    """The simulation stopped making forward progress.

    Raised by the epoch-tick watchdog (reference and fast engines
    alike) when no agent retired a single instruction for
    ``stall_epochs`` consecutive epochs while agents are still
    unfinished — a diagnosable error instead of spinning until the
    ``max_cycles`` backstop, which on a pathological configuration can
    be effectively forever.
    """

#: Stats counters sampled (as per-epoch deltas) into telemetry epoch
#: records; requested explicitly so quiescent epochs report zeros
#: (see ``Stats.delta``).
_TELEMETRY_DELTA_KEYS = (
    "cpu.fast_hits", "cpu.fast_misses", "gpu.fast_hits", "gpu.fast_misses",
    "gpu.migration_tokens", "gpu.bypasses", "gpu.queue_bypasses",
    "reconfig.lazy_invalidations",
)


@dataclass
class SimResult:
    """Reduced outcome of one simulation run.

    Metric names follow the repo-wide ``<metric>_<class>`` snake_case
    vocabulary (``cycles_cpu``, ``ipc_cpu``, ...) shared with sweep row
    keys and telemetry epoch records.
    """

    mix: str
    policy: str
    cycles_cpu: float | None
    cycles_gpu: float | None
    ipc_cpu: float
    ipc_gpu: float
    elapsed: float
    stats: dict[str, float]
    energy: EnergyBreakdown
    agent_ipc: dict[str, float] = field(default_factory=dict)
    agent_latency: dict[str, float] = field(default_factory=dict)
    policy_state: dict = field(default_factory=dict)
    epochs: list[dict] = field(default_factory=list)

    def hit_rate(self, klass: str) -> float:
        hits = self.stats.get(f"{klass}.fast_hits", 0.0)
        total = hits + self.stats.get(f"{klass}.fast_misses", 0.0)
        return hits / total if total else 0.0


class Simulation:
    """One co-run (or solo run) of a workload mix under a policy."""

    #: Component classes; the fast engine (repro.engine.fastpath)
    #: substitutes specialized, behavior-identical implementations.
    _controller_cls: type = HybridMemoryController
    _eq_cls: type = EventQueue

    def __init__(self, cfg: SystemConfig, policy: PartitionPolicy,
                 mix: WorkloadMix, max_cycles: float = MAX_CYCLES_DEFAULT,
                 record_epochs: bool = False, warmup_cpu: float = 0.25,
                 warmup_gpu: float = 0.35,
                 telemetry: Telemetry | None = None,
                 stall_epochs: int | None = STALL_EPOCHS_DEFAULT,
                 sanitize: "StateRecorder | NullSanitizer | None" = None
                 ) -> None:
        self.cfg = cfg
        self.mix = mix
        self.max_cycles = max_cycles
        self.record_epochs = record_epochs
        self.eq = self._eq_cls()
        self.stats = Stats()
        self.telemetry = telemetry if telemetry is not None else NULL_SINK
        self.telemetry.bind(lambda: self.eq.now)
        #: Divergence sanitizer (repro.sanitize): NULL_SANITIZER costs one
        #: attribute check per boundary tick; a StateRecorder digests
        #: canonical engine state at every epoch/faucet/phase boundary.
        self.sanitizer = sanitize if sanitize is not None else NULL_SANITIZER
        self.ctrl = self._controller_cls(cfg, self.eq, self.stats, policy,
                                         telemetry=self.telemetry)
        self.policy = policy
        self.agents: list[TraceAgent] = []
        for i, tr in enumerate(mix.cpu_traces):
            self.agents.append(self._make_agent(f"cpu{i}-{tr.name}", tr,
                                                cfg.cpu.mlp, warmup_cpu, 1.0))
        gpu_scale = cfg.gpu.execution_units / cfg.cpu.cores
        for i, tr in enumerate(mix.gpu_traces):
            self.agents.append(self._make_agent(f"gpu{i}-{tr.name}", tr,
                                                cfg.gpu.mlp, warmup_gpu,
                                                gpu_scale))
        if not self.agents:
            raise ValueError("mix has no traces")
        self._remaining = len(self.agents)
        for agent in self.agents:
            agent.on_done = self._agent_done
        self._last_retired = {"cpu": 0.0, "gpu": 0.0}
        self.stall_epochs = stall_epochs
        self._stall_count = 0
        self._stall_retired = -1.0
        self.epoch_log: list[dict] = []
        # Telemetry epoch-delta state (touched only when a sink is enabled).
        self._epoch_index = 0
        self._tele_stats_snap: dict[str, float] = {}
        self._tele_busy_snap = {"fast": 0.0, "slow": 0.0}

    def _make_agent(self, name: str, trace, mlp: int, warmup_frac: float,
                    instr_scale: float) -> TraceAgent:
        return TraceAgent(name, trace, mlp, self.eq, self.ctrl.access,
                          warmup_frac, instr_scale=instr_scale)

    def _agent_done(self) -> None:
        self._remaining -= 1

    # -- clocks -----------------------------------------------------------------

    def _epoch_tick(self) -> None:
        if self.sanitizer.enabled:
            # Before flush_stats: the digest's merged-counter view is
            # flush-invariant, and pre-callback state is what must agree
            # across engines at a policy-visible boundary.
            self.sanitizer.boundary("epoch", self)
        now = self.eq.now
        ep = self.cfg.epochs.epoch_cycles
        self.ctrl.flush_stats()  # adaptive policies read fresh counters
        metrics = self._epoch_metrics(ep)
        self.policy.on_epoch(now, metrics)
        if self.telemetry.enabled:
            # After on_epoch, so the sample reflects any reconfiguration
            # the tuner just applied (matching record_epochs semantics);
            # the tuner.*/reconfig.* events of this decision precede it.
            self.telemetry.epoch(self._telemetry_sample(now, ep, metrics))
        self._epoch_index += 1
        if self.record_epochs:
            metrics["t"] = now
            metrics.update(self.policy.describe())
            self.epoch_log.append(metrics)
        if not self._all_done():
            self._check_progress(now)
            self.eq.after(ep, self._epoch_tick)

    def _check_progress(self, now: float) -> None:
        """Non-progress watchdog: every live epoch must retire something.

        ``_last_retired`` is already epoch-fresh here (``_epoch_metrics``
        updated it this tick), so a flat cumulative total across
        ``stall_epochs`` consecutive epochs means the memory path is
        wedged, not slow.
        """
        if not self.stall_epochs:
            return
        total = self._last_retired["cpu"] + self._last_retired["gpu"]
        if total > self._stall_retired:
            self._stall_retired = total
            self._stall_count = 0
            return
        self._stall_count += 1
        if self._stall_count >= self.stall_epochs:
            raise SimulationStalled(
                f"no instructions retired for {self._stall_count} epochs "
                f"(mix={self.mix.name!r}, policy={self.policy.name!r}, "
                f"epoch={self._epoch_index}, t={now:g}, "
                f"{self._remaining}/{len(self.agents)} agents unfinished)")

    def _epoch_metrics(self, epoch_cycles: float) -> dict:
        ipc = {}
        for klass in ("cpu", "gpu"):
            retired = sum(a.retired for a in self.agents if a.klass == klass)
            ipc[klass] = (retired - self._last_retired[klass]) / epoch_cycles
            self._last_retired[klass] = retired
        return {
            "ipc_cpu": ipc["cpu"],
            "ipc_gpu": ipc["gpu"],
            "weighted_ipc": weighted_ipc(ipc["cpu"], ipc["gpu"],
                                         self.cfg.weight_cpu,
                                         self.cfg.weight_gpu),
        }

    def _telemetry_sample(self, now: float, epoch_cycles: float,
                          metrics: dict) -> dict:
        """Rich per-epoch sample (docs/telemetry.md ``epoch`` record).

        Only computed when a sink is enabled; pure reads, so enabling
        telemetry never perturbs simulation results.
        """
        d = self.stats.delta(self._tele_stats_snap,
                             keys=_TELEMETRY_DELTA_KEYS)
        self._tele_stats_snap = self.stats.snapshot()

        def rate(klass: str) -> float:
            hits = d[f"{klass}.fast_hits"]
            total = hits + d[f"{klass}.fast_misses"]
            return hits / total if total else 0.0

        def util(tier: str) -> float:
            dev = self.ctrl.fast if tier == "fast" else self.ctrl.slow
            busy = dev.total_busy_cycles
            delta = busy - self._tele_busy_snap[tier]
            self._tele_busy_snap[tier] = busy
            return delta / (epoch_cycles * len(dev.channels))

        occ = self.ctrl.occupancy_by_class()
        ways_total = self.cfg.num_sets * self.cfg.hybrid.assoc
        sample = {
            "epoch": self._epoch_index,
            "t": now,
            "ipc_cpu": metrics["ipc_cpu"],
            "ipc_gpu": metrics["ipc_gpu"],
            "weighted_ipc": metrics["weighted_ipc"],
            "hit_rate_cpu": rate("cpu"),
            "hit_rate_gpu": rate("gpu"),
            "util_fast": util("fast"),
            "util_slow": util("slow"),
            "tokens_spent": d["gpu.migration_tokens"],
            "tokens_bypassed": d["gpu.bypasses"],
            "tokens_banked": 0.0,
            "occ_cpu": occ.get("cpu", 0) / ways_total,
            "occ_gpu": occ.get("gpu", 0) / ways_total,
            "lazy_invalidations": d["reconfig.lazy_invalidations"],
            "reloc_backlog": self.ctrl.relocation_backlog(),
        }
        # Policy state last: Hydrogen's describe() contributes cap/bw/tok,
        # tokens_banked (the live bank) and tuner state; other policies
        # leave the zero defaults in place.
        sample.update(self.policy.describe())
        return sample

    def _faucet_tick(self) -> None:
        if self.sanitizer.enabled:
            self.sanitizer.boundary("faucet", self)
        self.policy.on_faucet(self.eq.now)
        if not self._all_done():
            self.eq.after(self.cfg.epochs.faucet_cycles, self._faucet_tick)

    def _phase_tick(self) -> None:
        if self.sanitizer.enabled:
            self.sanitizer.boundary("phase", self)
        self.policy.on_phase(self.eq.now)
        if not self._all_done():
            self.eq.after(self.cfg.epochs.phase_cycles, self._phase_tick)

    def _all_done(self) -> bool:
        return self._remaining == 0

    # -- run ------------------------------------------------------------------------

    def run(self) -> SimResult:
        ep = self.cfg.epochs
        for agent in self.agents:
            agent.start()
        self.eq.after(ep.epoch_cycles, self._epoch_tick)
        self.eq.after(ep.faucet_cycles, self._faucet_tick)
        self.eq.after(ep.phase_cycles, self._phase_tick)
        self.eq.run(until=self.max_cycles, stop=self._all_done)
        return self._result()

    def _result(self) -> SimResult:
        self.ctrl.flush_stats()
        elapsed = self.eq.now

        def klass_cycles(klass: str) -> float | None:
            """Longest post-warmup measurement window of the class."""
            times = [(a.measured_cycles if a.measured_cycles is not None
                      else elapsed - a.warm_time)
                     for a in self.agents if a.klass == klass]
            return max(times) if times else None

        def klass_ipc(klass: str) -> float:
            agents = [a for a in self.agents if a.klass == klass]
            if not agents:
                return 0.0
            cycles = klass_cycles(klass)
            instr = sum(a.measured_instructions for a in agents)
            return instr / cycles if cycles else 0.0

        return SimResult(
            mix=self.mix.name,
            policy=self.policy.name,
            cycles_cpu=klass_cycles("cpu"),
            cycles_gpu=klass_cycles("gpu"),
            ipc_cpu=klass_ipc("cpu"),
            ipc_gpu=klass_ipc("gpu"),
            elapsed=elapsed,
            stats=self.stats.as_dict(),
            energy=energy_breakdown(self.stats, self.cfg.fast, self.cfg.slow,
                                    elapsed),
            agent_ipc={a.name: a.ipc for a in self.agents},
            agent_latency={a.name: a.mean_latency for a in self.agents},
            policy_state=self.policy.describe(),
            epochs=self.epoch_log,
        )


#: Recognized engine names (``resolve_engine``).
ENGINES = ("reference", "fast", "batch")


def resolve_engine(engine: str | None) -> str:
    """Resolve an engine selector: an explicit name wins, then the
    ``REPRO_ENGINE`` environment variable, then ``"reference"``."""
    eng = engine if engine is not None else os.environ.get("REPRO_ENGINE")
    eng = eng or "reference"
    if eng not in ENGINES:
        raise ValueError(f"unknown engine {eng!r}; known: {ENGINES}")
    return eng


def simulate(cfg: SystemConfig, policy: PartitionPolicy, mix: WorkloadMix,
             engine: str | None = None, **kw) -> SimResult:
    """Convenience one-shot runner.

    ``engine`` selects the simulation core: ``"reference"`` (the scalar
    event loop), ``"fast"`` (the vectorized fast path) or ``"batch"``
    (the fused-interpreter batch engine; on a single simulation it runs
    as a one-cell batch) — both alternatives bit-exact with the
    reference (see docs/api.md).  ``None`` defers to the
    ``REPRO_ENGINE`` environment variable, defaulting to ``"reference"``.
    """
    eng = resolve_engine(engine)
    if eng == "fast":
        from repro.engine.fastpath import FastSimulation
        return FastSimulation(cfg, policy, mix, **kw).run()
    if eng == "batch":
        from repro.engine.batch import simulate_batch
        return simulate_batch(cfg, policy, mix, **kw)
    return Simulation(cfg, policy, mix, **kw).run()
