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
* :class:`SweepReport` — what ``SweepEngine.run`` returns: a
  ``Mapping`` over the successful results (drop-in compatible with the
  old plain dict) that also carries the failure records and recovery
  counters.

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
from collections.abc import Iterator, Mapping
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
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass(frozen=True)
class JobFailure:
    """Post-mortem record for one job the sweep could not complete.

    ``kind`` is ``"timeout"`` (:class:`JobTimeout`), ``"crash"``
    (worker/pool death) or ``"exception"`` (anything else); ``error``
    is the ``Type: message`` one-liner and ``detail`` a traceback tail
    for diagnosis.  ``job`` references the original spec so callers
    can resubmit, but stays out of equality/ordering.
    """

    label: str
    kind: str
    error: str
    attempts: int
    detail: str = ""
    job: Any = field(default=None, compare=False, repr=False)


def failure_from(job_label: str, exc: BaseException, attempts: int,
                 job: Any = None, kind: str | None = None) -> JobFailure:
    """Build a :class:`JobFailure` from a caught exception."""
    if kind is None:
        kind = "timeout" if isinstance(exc, JobTimeout) else "exception"
    tail = "".join(traceback.format_exception(
        type(exc), exc, exc.__traceback__))[-2000:]
    return JobFailure(label=job_label, kind=kind,
                      error=f"{type(exc).__name__}: {exc}",
                      attempts=attempts, detail=tail, job=job)


class SweepReport(Mapping):
    """Results of one ``SweepEngine.run`` batch, failures included.

    Behaves as a read-only mapping ``{job: result}`` over the
    *successful* jobs — drop-in compatible with the plain dict the
    engine used to return — while also carrying :attr:`failures` (one
    :class:`JobFailure` per unrecoverable job, submission order),
    :attr:`retries` / :attr:`requeued` / :attr:`pool_restarts`
    counters for this batch, and :attr:`degraded` (the batch fell back
    to serial execution after repeated pool deaths).  :attr:`deduped`
    counts submitted jobs that collapsed onto an identical job in the
    same batch and :attr:`cache_hits` counts jobs recalled from the
    result cache instead of simulated — together they make
    dedup-across-clients observable for the campaign server.  Compares
    equal to a plain mapping with the same results, so existing
    bit-identical assertions keep working.
    """

    def __init__(self, results: "Mapping[Any, Any]",
                 failures: "tuple[JobFailure, ...] | list[JobFailure]" = (),
                 retries: int = 0, requeued: int = 0,
                 pool_restarts: int = 0, degraded: bool = False,
                 deduped: int = 0, cache_hits: int = 0) -> None:
        self._results = dict(results)
        self.failures = tuple(failures)
        self.retries = retries
        self.requeued = requeued
        self.pool_restarts = pool_restarts
        self.degraded = degraded
        self.deduped = deduped
        self.cache_hits = cache_hits

    # -- mapping protocol --------------------------------------------------

    def __getitem__(self, job: Any) -> Any:
        return self._results[job]

    def __iter__(self) -> Iterator[Any]:
        return iter(self._results)

    def __len__(self) -> int:
        return len(self._results)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SweepReport):
            return (self._results == other._results
                    and self.failures == other.failures)
        if isinstance(other, Mapping):
            return self._results == dict(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable mapping contents

    # -- convenience -------------------------------------------------------

    @property
    def ok(self) -> bool:
        """True when every submitted job produced a result."""
        return not self.failures

    def summary(self) -> str:
        """One-line human summary (used by CLI reporting)."""
        bits = [f"{len(self._results)} result(s)",
                f"{len(self.failures)} failure(s)"]
        if self.retries:
            bits.append(f"{self.retries} retr"
                        + ("y" if self.retries == 1 else "ies"))
        if self.requeued:
            bits.append(f"{self.requeued} requeued")
        if self.pool_restarts:
            bits.append(f"{self.pool_restarts} pool restart(s)")
        if self.degraded:
            bits.append("degraded to serial")
        if self.deduped:
            bits.append(f"{self.deduped} deduped")
        if self.cache_hits:
            bits.append(f"{self.cache_hits} cache hit(s)")
        return ", ".join(bits)
