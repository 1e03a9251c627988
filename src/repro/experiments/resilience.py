"""Resilience primitives for the sweep engine.

A paper-scale evaluation is thousands of independent ``(mix, design,
config)`` cells; at that scale workers crash, jobs hang, and disks
fill.  This module holds the pieces the sweep engine composes to
survive all of that without losing completed work:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  *seeded deterministic* jitter (no live randomness: the delay for a
  given ``(key, attempt)`` is a pure function of the policy).
* :func:`time_limit` — per-job wall-clock enforcement via ``SIGALRM``
  (main thread only; elsewhere it warns and runs unbounded), raising
  :class:`JobTimeout` so a hung job becomes an ordinary, retryable
  failure instead of wedging the whole sweep.
* :class:`JobFailure` — the per-job post-mortem record (kind, error,
  attempts, traceback tail).
* :class:`SweepReport` — what ``SweepEngine.run`` returns: the run's
  results and failure records in submission order, plus its job, cache
  and recovery counters.

The failure *policy* decides what a job failure does to the sweep:
``"raise"`` (fail fast, the historical behavior) re-raises the first
exhausted failure; ``"collect"`` records it and keeps going, so one
poisoned cell cannot abort a long campaign.  See docs/robustness.md.
"""

from __future__ import annotations

import hashlib
import signal
import threading
import traceback
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

#: Recognized failure policies for ``SweepEngine`` / ``api.sweep``.
FAILURE_POLICIES = ("raise", "collect")


def resolve_failure_policy(policy: str) -> str:
    """Validate a failure-policy name (``"raise"`` or ``"collect"``)."""
    if policy not in FAILURE_POLICIES:
        raise ValueError(f"unknown failure policy {policy!r}; known: "
                         f"{', '.join(FAILURE_POLICIES)}")
    return policy


class JobTimeout(RuntimeError):
    """A sweep job exceeded its per-job wall-clock budget."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter.

    ``max_attempts`` counts *total* tries (1 = never retry).  The delay
    before attempt ``n+1`` is ``backoff_base * backoff_factor**(n-1)``
    capped at ``backoff_max``, stretched by up to ``jitter`` of itself.
    The jitter term is a seeded hash of ``(seed, key, attempt)`` — not
    live randomness — so two runs of the same sweep back off
    identically and stay bit-reproducible end to end.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff durations must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def retryable(self, attempt: int) -> bool:
        """May a job that just failed its ``attempt``-th try run again?"""
        return attempt < self.max_attempts

    def delay(self, key: str, attempt: int) -> float:
        """Backoff (seconds) before re-running ``key`` after ``attempt``."""
        raw = self.backoff_base * self.backoff_factor ** max(0, attempt - 1)
        raw = min(self.backoff_max, raw)
        digest = hashlib.sha256(
            f"{self.seed}|{key}|{attempt}".encode()).digest()
        unit = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        return raw * (1.0 + self.jitter * unit)


def resolve_retry(retry: "RetryPolicy | int | None") -> RetryPolicy:
    """Normalize the user-facing ``retry`` argument.

    ``None`` -> no retries (single attempt); an ``int`` N -> up to N
    retries after the first attempt; a :class:`RetryPolicy` passes
    through unchanged.
    """
    if retry is None:
        return RetryPolicy(max_attempts=1)
    if isinstance(retry, RetryPolicy):
        return retry
    if isinstance(retry, int) and not isinstance(retry, bool):
        if retry < 0:
            raise ValueError(f"retry count must be >= 0, got {retry}")
        return RetryPolicy(max_attempts=retry + 1)
    raise TypeError(f"retry must be None, an int, or a RetryPolicy, "
                    f"got {type(retry).__name__}")


#: Budgets must stay below the interpreter's timer limit: CPython holds
#: times as int64 nanoseconds, so ``signal.setitimer`` and
#: ``socket.settimeout`` overflow from 2**63 ns (about 9.22e9 s) up.
TIMER_LIMIT_S = 2**63 / 1e9


def resolve_timeout(seconds: float | None) -> float | None:
    """Validate the user-facing ``job_timeout`` budget.

    ``None`` and 0 mean no budget.  A negative (or NaN) budget, and one
    that ``setitimer`` cannot arm (:data:`TIMER_LIMIT_S` or more, ``inf``
    included), raise ``ValueError`` here instead of failing every job.
    """
    if seconds is None:
        return None
    if not seconds >= 0:
        raise ValueError(f"job_timeout must be >= 0 seconds, got {seconds}")
    if seconds >= TIMER_LIMIT_S:
        raise ValueError(f"job_timeout must be >= 0 and below "
                         f"{TIMER_LIMIT_S:.4g} seconds, got {seconds}")
    return seconds


def _alarm_capable() -> bool:
    """SIGALRM timeouts need a main-thread POSIX context."""
    return (hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread())


@contextmanager
def time_limit(seconds: float | None, label: str = "job"):
    """Enforce a wall-clock budget on the enclosed block.

    Raises :class:`JobTimeout` from a ``SIGALRM`` handler when the
    block overruns; restores the previous handler and timer either
    way.  With ``seconds`` falsy the block runs unguarded.  The timer
    fires only on the main thread of a platform with ``SIGALRM``: that
    covers every pool worker and the in-process jobs of a main-thread
    sweep, but not the campaign server's in-process cells, which run on
    an executor thread.  Handed a budget it cannot enforce, the block
    runs unbounded and a ``RuntimeWarning`` says so (once per process
    under the default warning filters).  Cannot interrupt a single long
    uninterruptible C call; it bounds Python-level work (which is where
    simulations spend their time).
    """
    if not seconds or not _alarm_capable():
        if seconds:
            warnings.warn(
                "job_timeout needs SIGALRM on the main thread; jobs run "
                "in-process off it (or without SIGALRM) have no "
                "wall-clock budget", RuntimeWarning, stacklevel=3)
        yield
        return

    def _on_alarm(signum: int, frame: Any) -> None:
        raise JobTimeout(
            f"{label} exceeded its {seconds:g}s wall-clock budget")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds)
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass(frozen=True)
class JobFailure:
    """Post-mortem record for one job the sweep could not complete.

    ``kind`` is ``"timeout"`` (:class:`JobTimeout`) or ``"exception"``
    (anything else); ``error`` is the ``Type: message`` one-liner and
    ``detail`` a traceback tail for diagnosis.  ``job`` references the
    original spec so callers can resubmit, but stays out of
    equality/ordering.
    """

    label: str
    kind: str
    error: str
    attempts: int
    detail: str = ""
    job: Any = field(default=None, compare=False, repr=False)


def failure_from(job_label: str, exc: BaseException, attempts: int,
                 job: Any = None) -> JobFailure:
    """Build a :class:`JobFailure` from a caught exception."""
    kind = "timeout" if isinstance(exc, JobTimeout) else "exception"
    tail = "".join(traceback.format_exception(
        type(exc), exc, exc.__traceback__))[-2000:]
    return JobFailure(label=job_label, kind=kind,
                      error=f"{type(exc).__name__}: {exc}",
                      attempts=attempts, detail=tail, job=job)


@dataclass
class SweepReport:
    """The one record of a ``SweepEngine.run``: what it produced and how.

    ``results`` maps each successful job to its result and ``failures``
    holds one :class:`JobFailure` per job that exhausted its retries,
    both in submission order.  The counters: ``submitted`` jobs
    (duplicates included), ``deduped`` duplicates that collapsed onto an
    identical job, ``cache_hits`` recalled from the result cache,
    ``simulated`` run to completion, ``retries`` failed attempts that
    ran again, ``requeued`` in-flight jobs resubmitted after a pool
    death, ``pool_restarts``, and ``degraded`` (the run fell back to
    in-process execution after repeated pool deaths).  ``workers`` is
    the engine's worker count, ``wall`` the run's wall-clock seconds and
    ``job_walls`` each simulated job's.
    """

    results: dict[Any, Any] = field(default_factory=dict)
    failures: tuple[JobFailure, ...] = ()
    workers: int = 1
    submitted: int = 0
    deduped: int = 0
    cache_hits: int = 0
    simulated: int = 0
    retries: int = 0
    requeued: int = 0
    pool_restarts: int = 0
    degraded: bool = False
    wall: float = 0.0
    job_walls: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every submitted job produced a result."""
        return not self.failures

    def summary(self) -> str:
        """The run's counters as the lines ``repro sweep`` prints."""
        unique = self.submitted - self.deduped
        rate = self.cache_hits / unique if unique else 0.0
        lines = [f"sweep: {self.submitted} submitted, {unique} unique, "
                 f"{self.simulated} simulated, {self.cache_hits} cache hits "
                 f"({rate:.0%}), {self.workers} worker(s), "
                 f"{self.wall:.1f}s wall"]
        slowest = sorted(self.job_walls.items(), key=lambda kv: -kv[1])[:3]
        if slowest:
            lines.append("slowest jobs: " + ", ".join(
                f"{label} {dt:.2f}s" for label, dt in slowest))
        if self.retries or self.failures or self.pool_restarts \
                or self.degraded:
            timeouts = sum(f.kind == "timeout" for f in self.failures)
            bits = [f"{self.retries} retried, {len(self.failures)} failed "
                    f"({timeouts} timeout)",
                    f"{self.pool_restarts} pool restart(s) "
                    f"({self.requeued} requeued)"]
            if self.degraded:
                bits.append("degraded to serial")
            lines.append("resilience: " + ", ".join(bits))
        return "\n".join(lines)
