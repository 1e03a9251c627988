"""ProFess baseline (Knyaginin et al., HPCA 2018), as characterized in the
Hydrogen paper (Sections III-C, V, VI).

ProFess is a probabilistic hybrid-memory management framework targeting
multi-process fairness.  The mechanisms reproduced here, at the fidelity
Hydrogen compares against:

* **Probabilistic migration decisions** — each class (CPU / GPU) migrates a
  missed block with probability ``p[class]``, drawn per miss.
* **Fairness-driven adaptation** — every epoch, each class's *migration
  efficiency* (fast hits earned per migration) is estimated; when the slow
  tier is under pressure the class wasting migrations is throttled one
  probability step and the class benefiting is boosted, which is the
  "bypass policy to ameliorate performance for the processes experiencing
  the most hit-rate degradation or migration cost" behaviour.
* **MDM-style replacement** — victims are chosen by fewest hits since
  insertion (reuse-aware) rather than strict LRU; the Hydrogen paper notes
  Profess would do worse with plain LRU.

Per the paper's methodology (Section V) it is ported to the cache mode,
4-way associativity, and the shared HBM+DDR configuration.
"""

from __future__ import annotations

import random

from repro.hybrid.policies.base import PartitionPolicy, inlined

#: Slow-tier bus utilization above which migrations are considered to be
#: fighting over slow bandwidth.
PRESSURE_THRESHOLD = 0.55


class ProfessPolicy(PartitionPolicy):
    """Probabilistic migration control with fairness adaptation."""

    name = "profess"
    #: Discrete migration-probability ladder, indexed by ``levels``.
    #: ProFess's majority-decision mechanism is deliberately conservative:
    #: it tempers migration rates for fairness but never collapses a
    #: process's caching ability, so the ladder floor stays at a workable
    #: probability.
    ladder: tuple[float, ...] = (0.35, 0.5, 0.65, 0.8, 0.9, 1.0)

    def __init__(self, seed: int = 23, start_level: int = 5) -> None:
        super().__init__()
        self._rng = random.Random(seed)
        self.levels = {"cpu": start_level, "gpu": start_level}
        self._last = {"cpu": (0.0, 0.0), "gpu": (0.0, 0.0)}
        self._last_busy = 0.0
        self._last_epoch_at = 0.0

    # -- migration --------------------------------------------------------------

    @inlined("profess-ladder")
    def p_of(self, klass: str) -> float:
        return self.ladder[self.levels[klass]]

    @inlined("profess-ladder")
    def allow_migration(self, klass: str, block: int, cost: int,
                        is_write: bool) -> bool:
        return self._rng.random() < self.p_of(klass)

    @inlined("fewest-hits")
    def pick_victim(self, set_id: int, klass: str) -> int | None:
        store = self.ctrl.store
        cands = self.eligible_ways(set_id, klass)
        free = store.free_way(set_id, cands)
        if free is not None:
            return free
        return store.min_hits_way(set_id, cands)  # MDM reuse-aware victim

    # -- adaptation ----------------------------------------------------------------

    def on_epoch(self, now: float, metrics: dict) -> None:
        stats = self.ctrl.stats
        elapsed = max(1.0, now - self._last_epoch_at)
        self._last_epoch_at = now

        busy = self.ctrl.slow.total_busy_cycles
        slow_util = (busy - self._last_busy) / (
            elapsed * self.ctrl.cfg.slow.channels)
        self._last_busy = busy

        eff = {}
        for klass in ("cpu", "gpu"):
            hits = stats.get(f"{klass}.fast_hits")
            migs = stats.get(f"{klass}.migrations")
            lh, lm = self._last[klass]
            self._last[klass] = (hits, migs)
            eff[klass] = (hits - lh) / max(1.0, migs - lm)

        if slow_util > PRESSURE_THRESHOLD:
            lo = "cpu" if eff["cpu"] <= eff["gpu"] else "gpu"
            hi = "gpu" if lo == "cpu" else "cpu"
            self._step(lo, -1)
            self._step(hi, +1)
        else:
            # Bandwidth is plentiful: migrations are cheap, let both classes
            # cache more.
            self._step("cpu", +1)
            self._step("gpu", +1)

    def _step(self, klass: str, direction: int) -> None:
        self.levels[klass] = min(len(self.ladder) - 1,
                                 max(0, self.levels[klass] + direction))

    def describe(self) -> dict:
        return {"policy": self.name,
                "p_cpu": self.p_of("cpu"), "p_gpu": self.p_of("gpu")}
