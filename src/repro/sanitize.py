"""Divergence sanitizer: localize where two engines' states first differ.

The engine-equivalence tests (``tests/test_fastpath_equiv.py``) can say
*that* the reference and fast engines diverged — a mismatched
``SimResult`` at the end of a run — but not *where*: which epoch, which
channel, which component first went its own way.  This module adds an
opt-in instrumentation layer that answers exactly that question:

* :class:`StateRecorder` hashes a canonical projection of engine state
  (per-channel queues, set-assoc ways, the remap cache, faucet banks,
  merged Stats deltas, agent progress, policy state) at every
  policy-visible boundary — the epoch / faucet / phase ticks every
  engine fires at identical times;
* :func:`first_divergence` compares two recorded digest streams and
  reports the first boundary and component whose digests differ;
* :func:`sanitize_compare` is the driver: run a reference recording,
  run each candidate engine with its own recording, diff the streams.

Canonicalization is what makes the digests engine-portable: request
tuples drop their callback/tag/payload slot, and open-row state reads
the same whether it lives in a Python list or a NumPy array.  Every
other channel field has the one layout
:class:`~repro.mem.channel.Channel` declares for both engines.  When
the sanitizer is off (the default :data:`NULL_SANITIZER`, same pattern
as telemetry's ``NULL_SINK``) the engines pay one attribute check per
boundary tick and nothing else.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.engine.simulator import Simulation

__all__ = ["NullSanitizer", "NULL_SANITIZER", "StateRecorder",
           "BoundaryRecord", "Divergence", "DivergenceError",
           "digest_components", "first_divergence", "sanitize_compare",
           "SanitizeReport"]


class NullSanitizer:
    """Disabled sanitizer: one ``enabled`` check on the tick path.

    The engine hooks read :attr:`enabled` (a class attribute, False)
    and skip; :meth:`boundary` exists so a sanitizer-typed attribute is
    always safe to call.
    """

    enabled = False

    def boundary(self, kind: str, sim: "Simulation") -> None:
        """No-op (never reached through the guarded hook)."""


#: Shared disabled sanitizer (default for every Simulation).
NULL_SANITIZER = NullSanitizer()


@dataclass(frozen=True)
class BoundaryRecord:
    """Digests of every state component at one policy-visible boundary."""

    index: int
    kind: str                                 # "epoch" | "faucet" | "phase"
    t: float                                  # event-queue time of the tick
    components: tuple[tuple[str, str], ...]   # sorted (component, digest)


@dataclass(frozen=True)
class Divergence:
    """First point where two digest streams disagree."""

    index: int
    kind: str
    t: float
    component: str
    digest_a: str
    digest_b: str
    engine_a: str = "a"
    engine_b: str = "b"

    def format(self) -> str:
        """One-line human-readable report of the divergence point."""
        return (f"first divergence at boundary #{self.index} "
                f"({self.kind} tick, t={self.t:g}): component "
                f"{self.component!r} differs — {self.engine_a}="
                f"{self.digest_a} vs {self.engine_b}={self.digest_b}")


class DivergenceError(RuntimeError):
    """Raised by ``api.simulate(..., sanitize=True)`` on a divergence."""

    def __init__(self, divergence: Divergence) -> None:
        super().__init__(divergence.format())
        self.divergence = divergence


class StateRecorder:
    """Enabled sanitizer: appends a :class:`BoundaryRecord` per tick.

    One recorder instance belongs to one simulation run; pass it as the
    ``sanitize=`` keyword of :class:`~repro.engine.simulator.Simulation`
    (any engine) and read :attr:`records` afterwards.
    """

    enabled = True

    def __init__(self) -> None:
        self.records: list[BoundaryRecord] = []

    def boundary(self, kind: str, sim: "Simulation") -> None:
        """Digest ``sim``'s canonical state at one boundary tick."""
        comps = digest_components(sim)
        self.records.append(BoundaryRecord(
            index=len(self.records), kind=kind, t=sim.eq.now,
            components=tuple(sorted(comps.items()))))


# -- canonical state projection ---------------------------------------------

#: Request-tuple slots meaningful across engines: (klass, nbytes,
#: is_write, addr, extra, submit_time).  Slot 4 is the completion
#: callback (reference) or event tag (fast); slot 7, when present, is
#: the fast engine's event payload.  Both are engine-private.
_CANON_REQ = (0, 1, 2, 3, 5, 6)


def _digest(obj: Any) -> str:
    """Short stable hash of a canonical (repr-able) state projection."""
    return hashlib.blake2b(repr(obj).encode(), digest_size=8).hexdigest()


def _canon_req(req: tuple) -> tuple:
    """One request in canonical form: class plus float-normalized slots.

    Engines carry numerically equal values in different numeric types
    (an ``extra`` of ``38`` vs ``38.0``); digests hash reprs, so every
    non-class slot is normalized to float.
    """
    return (req[0],) + tuple(float(req[i]) for i in _CANON_REQ[1:])


def _canon_queue(ch: Any) -> tuple:
    """Per-class pending request tuples in canonical form."""
    return tuple(tuple(_canon_req(req) for req in q)
                 for q in (ch._qc, ch._qg))


def _canon_rows(ch: Any) -> tuple:
    """Open-row state per bank; -1 encodes a precharged bank."""
    arr = getattr(ch, "_rows_arr", None)
    if arr is not None:                          # compiled-kernel path
        return tuple(int(x) for x in arr)
    return tuple(-1 if row is None else row for row in ch._rows)


def _channel_state(ch: Any) -> tuple:
    return (_canon_queue(ch), ch.queue_depth, _canon_rows(ch), ch._rr,
            ch.busy_cycles, ch._bytes_read, ch._bytes_written,
            ch._accesses, ch._activations, ch._queue_wait,
            (ch._cb_cpu, ch._cb_gpu))


def _store_state(store: Any) -> tuple:
    return tuple(tuple(None if e is None else tuple(e) for e in ways)
                 for ways in store._ways)


def _remap_state(remap: Any) -> tuple:
    return (remap.capacity, tuple(remap._lru), remap.hits, remap.misses)


def _one_faucet(f: Any) -> tuple:
    return (f.tokens, f.observed, f.denied, f.granted, f.frac,
            f._steady_refill)


def _faucet_state(policy: Any) -> tuple | None:
    faucet = getattr(policy, "faucet", None)
    if faucet is None:
        return None
    banks = getattr(faucet, "faucets", None)
    if banks is not None:                        # per-channel faucets
        return tuple(_one_faucet(f) for f in banks)
    return (_one_faucet(faucet),)


def _stats_state(sim: "Simulation") -> tuple:
    """Flush-invariant merged counter view (registry + pending locals).

    The controller's per-class counters drain into :class:`Stats` only
    on epoch ticks; merging the pending locals makes the digest
    identical whether a flush just happened or not, so faucet/phase
    boundaries (which do not flush) digest cleanly too.
    """
    ctrl = sim.ctrl
    merged = dict(sim.stats.as_dict())
    for klass, counters in ctrl._cnt.items():
        for key, val in counters.items():
            if val:
                full = f"{klass}.{key}"
                merged[full] = merged.get(full, 0.0) + val
    if ctrl._lazy_invalidations:
        merged["reconfig.lazy_invalidations"] = (
            merged.get("reconfig.lazy_invalidations", 0.0)
            + ctrl._lazy_invalidations)
    if ctrl._swaps:
        merged["swap.count"] = merged.get("swap.count", 0.0) + ctrl._swaps
    return tuple(sorted((k, v) for k, v in merged.items() if v))


def _agents_state(sim: "Simulation") -> tuple:
    return tuple((a.name, a.idx, a.inflight, a.stream_t, a.retired,
                  a.refs_done, a.latency_sum, a.done_time)
                 for a in sim.agents)


def digest_components(sim: "Simulation") -> dict[str, str]:
    """Component-name -> digest map of one engine's canonical state.

    Components: ``channel.fast[i]`` / ``channel.slow[i]`` per memory
    channel, ``store`` (set-assoc ways), ``remap`` (remap-cache LRU and
    counters), ``faucet`` (token banks), ``stats`` (merged counters),
    ``agents`` (per-agent progress), ``policy`` (``describe()`` state).
    """
    ctrl = sim.ctrl
    comps: dict[str, str] = {}
    for prefix, dev in (("fast", ctrl.fast), ("slow", ctrl.slow)):
        for i, ch in enumerate(dev.channels):
            comps[f"channel.{prefix}[{i}]"] = _digest(_channel_state(ch))
    comps["store"] = _digest(_store_state(ctrl.store))
    comps["remap"] = _digest(_remap_state(ctrl.remap))
    comps["faucet"] = _digest(_faucet_state(sim.policy))
    comps["stats"] = _digest(_stats_state(sim))
    comps["agents"] = _digest(_agents_state(sim))
    comps["policy"] = _digest(tuple(sorted(
        (k, repr(v)) for k, v in sim.policy.describe().items())))
    return comps


# -- stream comparison -------------------------------------------------------


def first_divergence(a: list[BoundaryRecord], b: list[BoundaryRecord],
                     engine_a: str = "a",
                     engine_b: str = "b") -> Divergence | None:
    """First (boundary, component) where two digest streams disagree.

    ``None`` means the streams are identical (same boundaries, same
    digests); a truncated stream reports a ``stream-length`` component
    at the first unmatched boundary.
    """
    for ra, rb in zip(a, b):
        if (ra.kind, ra.t) != (rb.kind, rb.t):
            return Divergence(ra.index, ra.kind, ra.t, "boundary",
                              f"{ra.kind}@{ra.t:g}", f"{rb.kind}@{rb.t:g}",
                              engine_a, engine_b)
        if ra.components == rb.components:
            continue
        da, db = dict(ra.components), dict(rb.components)
        for name in sorted(set(da) | set(db)):
            if da.get(name, "<absent>") != db.get(name, "<absent>"):
                return Divergence(ra.index, ra.kind, ra.t, name,
                                  da.get(name, "<absent>"),
                                  db.get(name, "<absent>"),
                                  engine_a, engine_b)
    if len(a) != len(b):
        n = min(len(a), len(b))
        longer = a[n] if len(a) > len(b) else b[n]
        return Divergence(n, longer.kind, longer.t, "stream-length",
                          str(len(a)), str(len(b)), engine_a, engine_b)
    return None


@dataclass(frozen=True)
class SanitizeReport:
    """Outcome of :func:`sanitize_compare` for one engine pair."""

    mix: str
    design: str
    engine: str
    boundaries: int
    divergence: Divergence | None

    @property
    def ok(self) -> bool:
        """True when the candidate engine matched the reference."""
        return self.divergence is None


def sanitize_compare(*, mix: Any, design: str = "hydrogen",
                     cfg: Any = None, engines: tuple[str, ...] = ("fast",),
                     scale: float | None = None, seed: int = 7,
                     native_geometry: bool = True,
                     **sim_kw: Any) -> list[SanitizeReport]:
    """Replay one (mix, design) on the reference engine and each of
    ``engines``, recording boundary digests, and diff the streams.

    Each engine gets a fresh policy instance (policies are stateful).
    Returns one :class:`SanitizeReport` per candidate engine; a report
    with ``divergence`` set pinpoints the first (epoch, channel,
    component) mismatch.  Keyword arguments mirror ``api.simulate``.
    """
    from repro.api import coerce_mix
    from repro.experiments.runner import run_design

    built = coerce_mix(mix, scale, seed)

    def record(engine: str) -> StateRecorder:
        rec = StateRecorder()
        run_design(design, built, cfg, native_geometry=native_geometry,
                 engine=engine, sanitize=rec, **sim_kw)
        return rec

    ref = record("reference")
    reports = []
    for engine in engines:
        rec = record(engine)
        div = first_divergence(ref.records, rec.records,
                               "reference", engine)
        reports.append(SanitizeReport(mix=built.name, design=str(design),
                                      engine=engine,
                                      boundaries=len(rec.records),
                                      divergence=div))
    return reports
