"""Deterministic, seeded fault injection for resilience testing.

The sweep engine's recovery machinery (``repro.experiments.resilience``)
is only trustworthy if every failure path can be exercised *on demand
and reproducibly*.  This module provides that switchboard: a
:class:`FaultInjector` decides — as a pure function of ``(seed, kind,
key, attempt)`` — whether a given job attempt suffers an injected
fault, so a chaos run is exactly repeatable and a retried attempt
deterministically clears (or keeps hitting) its fault.

Fault kinds (``FAULT_KINDS``):

* ``crash``     — the worker process dies mid-job (``os._exit``),
  breaking the process pool; in the parent process (serial execution)
  it degrades to raising :class:`InjectedCrash` instead, because
  killing the caller is never acceptable.
* ``transient`` — the job raises :class:`InjectedFault`, modelling a
  recoverable worker exception (OOM kill survivors, flaky I/O).
* ``hang``      — the job sleeps past its wall-clock budget so the
  per-job timeout (``repro.experiments.resilience.time_limit``) fires.
* ``torn``      — a cache write is truncated after landing, modelling
  a crash or disk-full mid-write; the next read must quarantine it.

Service-level fault kinds (exercised by ``tests/test_service_chaos.py``;
see docs/service.md):

* ``kill``      — the campaign *server process* dies abruptly
  (``os._exit``) right after journaling a cell completion, modelling a
  crash / OOM-kill / power loss mid-campaign.  Honored only by a
  server started with ``killable=True`` (the foreground ``repro
  serve`` process); an in-thread server never kills its host process.
* ``drop``      — a streaming response connection is severed after a
  specific row, modelling a flaky network path mid-stream.
* ``journal``   — a journal append raises ``OSError``, modelling a
  full or failing disk under the write-ahead job journal.

Activation is either programmatic (:func:`install`) or via the
``$REPRO_FAULTS`` environment variable, which child worker processes
inherit.  The spec grammar (see :meth:`FaultInjector.parse`)::

    REPRO_FAULTS="crash:0.5,transient:0.6x2,torn:1~waypart@seed=11"

reads as: each job has probability 0.5 of crashing on its first
attempt, probability 0.6 of a transient exception on its first two
attempts, and every cache write whose key matches ``waypart`` is torn —
all decided by SHA-256 over the seed, never by live randomness.
Injection sites are ``repro.experiments.sweep._execute_job`` (job
faults) and ``repro.experiments.cache.SweepCache.put`` (torn writes);
``repro sweep --chaos`` drives the whole loop as a smoke test.
"""

from __future__ import annotations

import hashlib
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path

#: Environment variable carrying a fault spec (inherited by workers).
FAULTS_ENV = "REPRO_FAULTS"

#: Recognized fault kinds (see the module docstring).
FAULT_KINDS = ("crash", "transient", "hang", "torn",
               "kill", "drop", "journal")

#: Exit status used by an injected worker crash (distinctive on purpose).
CRASH_EXIT_CODE = 43

#: Process id of the process that first imported this module; forked
#: pool workers inherit the value but report a different ``getpid()``,
#: which is how :func:`in_worker` distinguishes parent from worker.
_MAIN_PID = os.getpid()

_ENTRY_RE = re.compile(
    r"^(?P<kind>[a-z]+)"
    r"(?::(?P<rate>[0-9.]+))?"
    r"(?:x(?P<times>\d+))?"
    r"(?:~(?P<match>[^,@]*))?$")


class FaultSpecError(ValueError):
    """A ``$REPRO_FAULTS`` spec string could not be parsed."""


class InjectedFault(RuntimeError):
    """Deterministic injected transient failure (retryable by design)."""


class InjectedCrash(RuntimeError):
    """Stand-in for a worker crash when raised in the parent process."""


@dataclass(frozen=True)
class FaultRule:
    """One line of a fault plan.

    ``rate`` is the fraction of keys selected (decided by seeded hash,
    not live randomness); ``times`` is how many leading attempts of a
    selected key fail before it deterministically succeeds; ``match``
    restricts the rule to keys containing the substring (empty = all).
    """

    kind: str
    rate: float = 1.0
    times: int = 1
    match: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultSpecError(
                f"unknown fault kind {self.kind!r}; known: "
                f"{', '.join(FAULT_KINDS)}")
        if not 0.0 <= self.rate <= 1.0:
            raise FaultSpecError(
                f"fault rate must be in [0, 1], got {self.rate}")
        if self.times < 1:
            raise FaultSpecError(
                f"fault times must be >= 1, got {self.times}")


def _unit(seed: int, kind: str, key: str) -> float:
    """Deterministic uniform-ish value in [0, 1) for a (seed, kind, key)."""
    digest = hashlib.sha256(f"{seed}|{kind}|{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


class FaultInjector:
    """Seeded decision engine: should fault ``kind`` hit ``key`` now?

    Stateless by construction — :meth:`should` is a pure function — so
    the same injector config gives identical decisions in the parent
    process, in forked pool workers, and across reruns.
    """

    def __init__(self, rules: "tuple[FaultRule, ...] | list[FaultRule]",
                 seed: int = 0) -> None:
        self.rules = tuple(rules)
        self.seed = seed
        self._by_kind: dict[str, list[FaultRule]] = {}
        for rule in self.rules:
            self._by_kind.setdefault(rule.kind, []).append(rule)

    @classmethod
    def parse(cls, spec: str) -> "FaultInjector":
        """Build an injector from a ``$REPRO_FAULTS`` spec string.

        Grammar: comma-separated ``kind[:rate][xTIMES][~MATCH]``
        entries, with an optional trailing ``@seed=N``.  Examples:
        ``"transient:0.5"``, ``"crash:1x1~hydrogen@C3,torn:0.25@seed=9"``.
        """
        spec = spec.strip()
        seed = 0
        if "@" in spec:
            spec, _, tail = spec.rpartition("@")
            m = re.fullmatch(r"seed=(\d+)", tail.strip())
            if not m:
                raise FaultSpecError(
                    f"expected '@seed=N' suffix, got {tail!r}")
            seed = int(m.group(1))
        rules = []
        for entry in spec.split(","):
            entry = entry.strip()
            if not entry:
                continue
            m = _ENTRY_RE.match(entry)
            if not m:
                raise FaultSpecError(
                    f"bad fault entry {entry!r}; expected "
                    f"kind[:rate][xTIMES][~MATCH]")
            rules.append(FaultRule(
                kind=m.group("kind"),
                rate=float(m.group("rate") or 1.0),
                times=int(m.group("times") or 1),
                match=m.group("match") or ""))
        if not rules:
            raise FaultSpecError(f"empty fault spec {spec!r}")
        return cls(rules, seed=seed)

    def should(self, kind: str, key: str, attempt: int = 1) -> bool:
        """True iff fault ``kind`` hits ``key`` on this attempt.

        Pure function of the injector config: selection is a seeded
        hash threshold over ``rate``, and a selected key fails its
        first ``times`` attempts, then succeeds forever.
        """
        for rule in self._by_kind.get(kind, ()):
            if rule.match and rule.match not in key:
                continue
            if attempt > rule.times:
                continue
            if _unit(self.seed, kind, key) < rule.rate:
                return True
        return False

    def describe(self) -> str:
        """Human-readable one-line summary of the active plan."""
        parts = [f"{r.kind}:{r.rate:g}x{r.times}"
                 + (f"~{r.match}" if r.match else "")
                 for r in self.rules]
        return ",".join(parts) + f"@seed={self.seed}"


#: Programmatically installed injector (beats the environment).
_installed: FaultInjector | None = None

#: Cache of the last environment parse, keyed on the raw env value.
_env_cache: tuple[str, FaultInjector] | None = None


def install(spec: "FaultInjector | str | None") -> FaultInjector | None:
    """Install (or with ``None`` clear) the process-wide injector.

    Accepts a spec string or a built :class:`FaultInjector`; returns
    the previously installed injector so callers can restore it.
    Forked pool workers inherit the installed injector; spawn-based
    pools only see ``$REPRO_FAULTS``.
    """
    global _installed
    previous = _installed
    if isinstance(spec, str):
        spec = FaultInjector.parse(spec)
    _installed = spec
    return previous


def active() -> FaultInjector | None:
    """The injector in effect: installed one, else ``$REPRO_FAULTS``."""
    global _env_cache
    if _installed is not None:
        return _installed
    raw = os.environ.get(FAULTS_ENV, "")
    if not raw:
        return None
    if _env_cache is None or _env_cache[0] != raw:
        _env_cache = (raw, FaultInjector.parse(raw))
    return _env_cache[1]


def in_worker() -> bool:
    """True when running inside a forked pool worker process."""
    return os.getpid() != _MAIN_PID


def maybe_fault(label: str, attempt: int,
                timeout: float | None = None) -> None:
    """Job-level injection point (start of every sweep job attempt).

    Checks ``crash``, then ``hang``, then ``transient`` against the
    active injector; a no-op when no injector is configured.
    """
    inj = active()
    if inj is None:
        return
    if inj.should("crash", label, attempt):
        if in_worker():
            os._exit(CRASH_EXIT_CODE)
        raise InjectedCrash(
            f"injected crash for {label} (attempt {attempt}, serial mode)")
    if inj.should("hang", label, attempt):
        # Sleep well past the job budget in small interruptible chunks;
        # the SIGALRM-based time_limit() guard cuts this short.
        budget = (timeout or 0.1) * 3.0
        deadline = time.monotonic() + min(60.0, budget)
        while time.monotonic() < deadline:
            time.sleep(0.02)
    if inj.should("transient", label, attempt):
        raise InjectedFault(
            f"injected transient fault for {label} (attempt {attempt})")


def maybe_kill(key: str, attempt: int = 1) -> None:
    """Server-crash injection point (after a journaled cell completion).

    Terminates the *whole process* with :data:`CRASH_EXIT_CODE` via
    ``os._exit`` — no atexit hooks, no flushes: exactly the crash the
    write-ahead journal must survive.  Callers gate this on running as
    a dedicated server process (``CampaignServer(killable=True)``); it
    must never fire inside a test runner's own process.  ``attempt``
    is the server's journal *generation* (1 on a fresh start, +1 per
    replay), so a ``kill:1xN`` rule crashes the first N incarnations
    and then lets the recovered run complete — no crash loops.
    """
    inj = active()
    if inj is not None and inj.should("kill", key, attempt):
        os._exit(CRASH_EXIT_CODE)


def maybe_drop(key: str) -> bool:
    """Stream-drop injection point: sever this connection now?

    The campaign server consults this after writing each stream row
    (key ``"<job_id>#row<i>"``), so a selected row deterministically
    cuts the connection mid-stream — the client's resume path must
    re-attach and continue from its last received row.
    """
    inj = active()
    return inj is not None and inj.should("drop", key)


def maybe_journal_fail(key: str) -> None:
    """Journal-write injection point: raise ``OSError`` before a write.

    Models a full or failing disk under the write-ahead job journal;
    the journal must degrade (warn + disable, surfacing data-loss on
    drain) rather than crash the server.
    """
    inj = active()
    if inj is not None and inj.should("journal", key):
        raise OSError(f"injected journal write failure for {key!r}")


def maybe_tear(path: "str | Path", key: str) -> None:
    """Cache-write injection point: truncate a just-landed entry.

    Models a crash or disk-full mid-write; the resulting half-entry
    must be quarantined (treated as a miss and deleted) by the next
    ``SweepCache.get``.  A no-op when no injector is configured.
    """
    inj = active()
    if inj is None or not inj.should("torn", key):
        return
    p = Path(path)
    data = p.read_bytes()
    p.write_bytes(data[:max(1, len(data) // 2)])
