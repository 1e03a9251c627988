"""Parallel, cached experiment sweep engine.

Every figure in the paper's evaluation (Figs. 2, 5, 9-11) is a grid of
independent ``(mix, design, config)`` simulations.  This module fans
those cells out across cores with :class:`concurrent.futures.
ProcessPoolExecutor` — job specs are small picklable dataclasses, each
carrying its own deterministic seed — and backs them with the on-disk
:class:`repro.experiments.cache.SweepCache`, so re-running a figure
script only simulates what changed.

Because every simulation is deterministic given its spec, the parallel
path produces *bit-identical* results to the serial path; worker count
only affects wall-clock time.  Results are always returned in submission
order regardless of completion order.

Knobs
-----
* ``workers`` — process count; ``None`` reads ``$REPRO_SWEEP_JOBS``
  (default 1 = serial in-process), ``0`` means "all cores".
* ``cache`` — ``True`` (default directory, ``$REPRO_CACHE_DIR`` or
  ``~/.cache/repro/sweep``), a directory path, a
  :class:`~repro.experiments.cache.SweepCache`, or ``None``/``False``.
* ``progress`` — a ``callable(str)`` (e.g. ``print``) receiving queue /
  cache-hit / per-job-completion lines.
* ``retry`` / ``job_timeout`` / ``failures`` — resilience knobs (see
  :mod:`repro.experiments.resilience` and docs/robustness.md): bounded
  deterministic retries, a per-job wall-clock budget, and whether an
  exhausted job failure aborts the grid (``"raise"``, default) or is
  recorded in the returned :class:`~repro.experiments.resilience.
  SweepReport` (``"collect"``).

``run()`` additionally survives worker-pool deaths
(:class:`concurrent.futures.BrokenExecutor`): completed results are
kept, in-flight jobs are requeued into a respawned pool, and after
:data:`DEGRADE_AFTER` (3) consecutive pool deaths the rest of the run
executes in-process.  Completed jobs are always written to the cache as
they finish, so an interrupted sweep resumes from the cache on rerun;
Ctrl-C terminates the pool's workers.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import deque
from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor, Future,
                                ProcessPoolExecutor, wait)
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from repro import faults
from repro.config import SystemConfig, default_system
from repro.config_io import config_digest
from repro.engine.simulator import SimResult
from repro.experiments.cache import SweepCache, resolve_cache
from repro.experiments.designs import check_design
from repro.experiments.resilience import (JobFailure, RetryPolicy,
                                          SweepReport, failure_from,
                                          resolve_failure_policy,
                                          resolve_retry, resolve_timeout,
                                          time_limit)
from repro.experiments.runner import (run_design, slowdown_metrics,
                                      weighted_speedup)
from repro.telemetry import NULL_SINK, Telemetry
from repro.traces.mixes import (WorkloadMix, build_mix, check_scale,
                                check_seed, cpu_only, fill_copies, gpu_only)

#: Environment default for the worker count (used when ``workers=None``).
WORKERS_ENV = "REPRO_SWEEP_JOBS"

#: Consecutive worker-pool deaths after which the rest of a run
#: executes in-process on the calling thread.
DEGRADE_AFTER = 3


def resolve_workers(workers: int | None) -> int:
    """Normalize a worker count: ``None`` -> env/1, ``0``/neg -> all cores."""
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "")
        try:
            workers = int(raw) if raw else 1
        except ValueError:
            raise ValueError(
                f"${WORKERS_ENV} must be an integer, got {raw!r}") from None
    if workers <= 0:
        workers = os.cpu_count() or 1
    return workers


def freeze_kw(kw: dict) -> tuple:
    """Dict -> hashable, deterministically ordered (key, value) tuple."""
    return tuple(sorted(kw.items()))


@dataclass(frozen=True)
class MixSpec:
    """Picklable recipe for a workload mix: any name ``build_mix`` takes
    (Table II, LLM, or a custom ``"cpu1-cpu2:gpu"`` spec).

    Carries its own seed, so every job derived from it is deterministic;
    ``solo`` selects the CPU-only / GPU-only variant used by the Fig. 2
    co-run study.  ``None`` reference counts mean "the library default".
    Construction checks the name (``KeyError`` naming the known mixes),
    the seed (``ValueError`` when negative) and the scale (``ValueError``
    unless positive and finite), so a grid with a bad name, seed or
    scale fails before any cell simulates, and resolves
    ``cpu_copies=None`` to the copies that fill the 8 CPU cores (2 for
    every named mix).
    """

    name: str
    scale: float = 1.0
    seed: int = 7
    solo: str | None = None  # None | "cpu" | "gpu"
    cpu_refs: int | None = None
    gpu_refs: int | None = None
    footprint_scale: float = 1.0
    cpu_copies: int | None = None

    def __post_init__(self) -> None:
        copies = fill_copies(self.name)
        check_seed(self.seed)
        check_scale(self.scale)
        if self.cpu_copies is None:
            object.__setattr__(self, "cpu_copies", copies)

    @property
    def run_name(self) -> str:
        """Name of the built mix (solo variants get a -cpu/-gpu suffix)."""
        return self.name + (f"-{self.solo}" if self.solo else "")

    def build(self) -> WorkloadMix:
        kw = {"scale": self.scale, "seed": self.seed,
              "footprint_scale": self.footprint_scale,
              "cpu_copies": self.cpu_copies}
        if self.cpu_refs is not None:
            kw["cpu_refs"] = self.cpu_refs
        if self.gpu_refs is not None:
            kw["gpu_refs"] = self.gpu_refs
        mix = build_mix(self.name, **kw)
        if self.solo == "cpu":
            return cpu_only(mix)
        if self.solo == "gpu":
            return gpu_only(mix)
        return mix


def _mix_payload(mix: "MixSpec | WorkloadMix") -> dict:
    """Stable cache-key component identifying a mix.

    A :class:`MixSpec` is identified by its fields; an already-built
    :class:`WorkloadMix` by a content fingerprint of its traces (so two
    identical generations hash equally and any trace change invalidates).
    """
    if isinstance(mix, MixSpec):
        return {"spec": asdict(mix)}
    h = hashlib.sha256()
    for tr in mix.traces:
        h.update(f"{tr.name}|{tr.klass}|{tr.base}|{tr.footprint}|".encode())
        h.update(tr.addrs.tobytes())
        h.update(tr.writes.tobytes())
        h.update(tr.gaps.tobytes())
    return {"mix_name": mix.name, "traces_sha256": h.hexdigest()}


@dataclass(frozen=True)
class SweepJob:
    """One simulation cell: a design on a mix under a configuration.

    ``trace_dir`` optionally streams the job's epoch/event telemetry to
    ``<trace_dir>/<design>@<mix>.jsonl`` (the sink is created inside the
    worker process, so jobs stay picklable).  Tracing never enters the
    cache key — telemetry is a pure observation — so traced and untraced
    runs of the same cell share one cached result.  A cache *hit* recalls
    the result without re-simulating and therefore writes no trace; pass
    ``cache=None`` (CLI ``--no-cache``) to trace every cell.
    Construction checks the design name (``KeyError`` naming the known
    designs).
    """

    mix: "MixSpec | WorkloadMix"
    design: str
    cfg: SystemConfig
    native_geometry: bool = True
    sim_kw: tuple = ()
    trace_dir: str | None = None

    def __post_init__(self) -> None:
        check_design(self.design)

    @property
    def mix_name(self) -> str:
        return self.mix.run_name if isinstance(self.mix, MixSpec) \
            else self.mix.name

    @property
    def label(self) -> str:
        return f"{self.design}@{self.mix_name}"

    def run(self) -> SimResult:
        from repro.telemetry import JsonlSink
        mix = self.mix.build() if isinstance(self.mix, MixSpec) else self.mix
        kw = dict(self.sim_kw)
        sink = None
        if self.trace_dir:
            sink = JsonlSink(Path(self.trace_dir) / f"{self.label}.jsonl",
                             meta={"design": self.design,
                                   "mix": self.mix_name})
            kw["telemetry"] = sink
        try:
            return run_design(self.design, mix, self.cfg,
                              native_geometry=self.native_geometry, **kw)
        finally:
            if sink is not None:
                sink.close()

    def cache_payload(self) -> dict:
        # trace_dir is deliberately absent: telemetry does not change
        # results, so keys stay byte-identical with tracing on or off.
        # The engine choice is stripped for the same reason — fast and
        # reference replay are bit-exact, so they share cached cells.
        kw = dict(self.sim_kw)
        kw.pop("engine", None)
        return {"config": config_digest(self.cfg),
                "design": self.design,
                "native_geometry": self.native_geometry,
                "mix": _mix_payload(self.mix),
                "sim_kw": kw}


def _execute_job(job: SweepJob, timeout: float | None = None,
                 attempt: int = 1) -> tuple[SimResult, float]:
    """Worker entry point: run one job, measuring its wall time.

    ``timeout`` bounds the job's wall clock (``JobTimeout`` on overrun);
    ``attempt`` is the 1-based try number, consumed only by the fault
    injector so a retried attempt deterministically clears (or keeps
    hitting) an injected fault.
    """
    t0 = time.perf_counter()
    with time_limit(timeout, job.label):
        # Inside the guard: an injected hang must be interruptible by the
        # timeout exactly like a genuine in-job hang.
        faults.maybe_fault(job.label, attempt, timeout)
        res = job.run()
    return res, time.perf_counter() - t0


class SweepEngine:
    """Deduplicating, caching, process-pool runner for sweep jobs.

    Resilience knobs (module docstring, docs/robustness.md): ``retry``
    (``None`` = no retries, an int = that many retries, or a full
    :class:`~repro.experiments.resilience.RetryPolicy`), ``job_timeout``
    (per-job wall-clock budget in seconds; ``None`` or 0 = no budget,
    negative raises ``ValueError``), ``failures`` (``"raise"`` fail-fast
    vs ``"collect"``), and ``telemetry`` (a
    :class:`~repro.telemetry.Telemetry` sink receiving the ``sweep.*``
    events of docs/telemetry.md).
    """

    def __init__(self, workers: int | None = None, cache=None,
                 progress=None, retry: "RetryPolicy | int | None" = None,
                 job_timeout: float | None = None, failures: str = "raise",
                 telemetry: Telemetry | None = None,
                 on_result=None, on_failure=None) -> None:
        self.workers = resolve_workers(workers)
        self.cache: SweepCache | None = resolve_cache(cache)
        self.progress = progress
        self.retry = resolve_retry(retry)
        self.job_timeout = resolve_timeout(job_timeout)
        self.failures = resolve_failure_policy(failures)
        self.telemetry = telemetry if telemetry is not None else NULL_SINK
        #: Optional per-job hand-off hook: ``on_result(job, result, dt)``
        #: fires for every job that resolves — simulated, recalled from
        #: cache, or harvested after a pool death — as soon as the engine
        #: sees its result, in completion order.  The campaign server
        #: streams per-cell rows through this; ``dt`` is 0.0 for cache
        #: recalls.  Exceptions propagate (the hook is part of the run).
        self.on_result = on_result
        #: Optional failure hand-off hook: ``on_failure(job, failure)``
        #: fires the moment a job exhausts its retries (under the
        #: ``"collect"`` policy), before the run's ``SweepReport`` is
        #: assembled — the campaign server journals cell failures
        #: through this so a crash between job exhaustion and report
        #: delivery cannot lose the outcome.
        self.on_failure = on_failure
        #: The :class:`SweepReport` of the most recent :meth:`run` (an
        #: empty one before the first).
        self.report = SweepReport(workers=self.workers)

    def _say(self, msg: str) -> None:
        if self.progress is not None:
            self.progress(msg)

    def run(self, jobs) -> SweepReport:
        """Run (or recall) every job; returns results in submission order.

        Duplicate jobs — e.g. the shared baseline of several comparisons —
        are simulated once.  With ``workers > 1`` pending jobs execute in a
        process pool; completion order never affects the returned report.

        The return value is a :class:`~repro.experiments.resilience.
        SweepReport`: the successful jobs' results and the failure
        records, both in submission order, plus the run's counters.
        Every completed job is written to the cache as it finishes, so
        an aborted or interrupted sweep resumes from the cache on rerun.
        """
        t0 = time.perf_counter()
        jobs = list(jobs)
        ordered = list(dict.fromkeys(jobs))
        report = SweepReport(workers=self.workers, submitted=len(jobs),
                             deduped=len(jobs) - len(ordered))

        results: dict[SweepJob, SimResult] = {}
        pending: list[SweepJob] = []
        keys: dict[SweepJob, str] = {}
        for job in ordered:
            if self.cache is not None:
                key = self.cache.key(job.cache_payload())
                keys[job] = key
                hit = self.cache.get(key)
                if hit is not None:
                    results[job] = hit
                    report.cache_hits += 1
                    if self.on_result is not None:
                        self.on_result(job, hit, 0.0)
                    continue
            pending.append(job)

        self._say(f"sweep: {len(jobs)} job(s) queued "
                  f"({report.deduped} duplicate, "
                  f"{report.cache_hits} cached), "
                  f"running {len(pending)} on "
                  f"{min(self.workers, max(1, len(pending)))} worker(s)")

        def record(job: SweepJob, res: SimResult, dt: float) -> None:
            results[job] = res
            report.simulated += 1
            report.job_walls[job.label] = dt
            if self.cache is not None:
                self.cache.put(keys[job], res)
            if self.on_result is not None:
                self.on_result(job, res, dt)
            self._say(f"  [{report.simulated}/{len(pending)}] "
                      f"{job.label} ({dt:.2f}s)")

        failures: dict[SweepJob, JobFailure] = {}
        self._drain(pending, failures, record, report)

        report.results = {job: results[job] for job in ordered
                          if job in results}
        report.failures = tuple(failures[job] for job in ordered
                                if job in failures)
        report.wall = time.perf_counter() - t0
        self.report = report
        return report

    def _drain(self, pending, failures, record, report) -> None:
        """Run every pending job to an outcome, counting on ``report``.

        One loop over one queue.  With one worker or one pending job,
        each job runs in-process on the calling thread; otherwise every
        job goes to a process pool.  A pool death (``BrokenExecutor``)
        records what finished, requeues the rest in submission order —
        each with its attempt count bumped, so a deterministically
        injected crash clears — into a fresh pool, and after
        ``DEGRADE_AFTER`` consecutive deaths runs the rest in-process.
        Ctrl-C records what finished, then terminates the workers.
        """
        attempts = dict.fromkeys(pending, 0)   # completed tries per job
        outstanding = dict.fromkeys(pending)   # insertion-ordered set
        queue = deque(pending)
        inflight: dict[Future, SweepJob] = {}
        pooled = self.workers > 1 and len(pending) > 1
        pool: ProcessPoolExecutor | None = None
        deaths = 0

        def finish(job: SweepJob, res: SimResult, dt: float) -> None:
            nonlocal deaths
            attempts[job] += 1
            del outstanding[job]
            deaths = 0
            record(job, res, dt)

        def harvest() -> None:
            """Record the in-flight jobs that finished before the pool
            went away; forget the rest (they stay outstanding)."""
            for fut in list(inflight):
                job = inflight.pop(fut)
                if fut.done() and not fut.cancelled() \
                        and fut.exception() is None:
                    finish(job, *fut.result())

        try:
            while outstanding:
                broken = False
                # In-process, one job at a time, so each result is
                # recorded (and its hooks fire) before the next job runs.
                while queue and (pooled or not inflight):
                    job = queue[0]
                    if not pooled:
                        fut = _run_inline(job, self.job_timeout,
                                          attempts[job] + 1)
                    else:
                        if pool is None:
                            pool = ProcessPoolExecutor(max_workers=min(
                                self.workers, len(outstanding)))
                        try:
                            fut = pool.submit(_execute_job, job,
                                              self.job_timeout,
                                              attempts[job] + 1)
                        except BrokenExecutor:
                            broken = True
                            break
                    inflight[fut] = queue.popleft()
                ready = () if broken else wait(
                    inflight, return_when=FIRST_COMPLETED)[0]
                for fut in ready:
                    job = inflight.pop(fut)
                    try:
                        res, dt = fut.result()
                    except BrokenExecutor:
                        broken = True   # the job stays outstanding
                        continue
                    except Exception as exc:
                        attempts[job] += 1
                        if self.retry.retryable(attempts[job]):
                            report.retries += 1
                            self._note_retry(job, exc, attempts[job])
                            queue.appendleft(job)
                        else:
                            del outstanding[job]
                            self._fail(job, exc, attempts[job], failures)
                        continue
                    finish(job, res, dt)
                if not broken:
                    continue
                # The pool died: keep what finished, requeue the rest.
                harvest()
                _shut(pool, kill=True)
                pool = None
                deaths += 1
                queue = deque(outstanding)
                for job in queue:
                    attempts[job] += 1
                report.pool_restarts += 1
                report.requeued += len(queue)
                self.telemetry.event("sweep.pool_restart", deaths=deaths,
                                     requeued=len(queue))
                self._say(f"sweep: worker pool died ({deaths} "
                          f"consecutive); requeueing {len(queue)} job(s)")
                if deaths >= DEGRADE_AFTER and queue:
                    pooled = False
                    report.degraded = True
                    self.telemetry.event("sweep.degraded",
                                         pool_deaths=deaths,
                                         remaining=len(queue))
                    self._say(f"sweep: degrading to serial execution for "
                              f"{len(queue)} remaining job(s)")
        except KeyboardInterrupt:
            for fut in inflight:
                fut.cancel()
            harvest()
            raise
        finally:
            _shut(pool, kill=bool(outstanding))

    # -- resilience bookkeeping --------------------------------------------

    def _note_retry(self, job, exc: Exception, attempt: int) -> None:
        """Announce a retryable failure and apply its backoff delay."""
        delay = self.retry.delay(job.label, attempt)
        self.telemetry.event("sweep.retry", label=job.label,
                             attempt=attempt, delay=delay,
                             error=f"{type(exc).__name__}: {exc}")
        self._say(f"  retry {job.label} (attempt {attempt} failed: "
                  f"{type(exc).__name__}) after {delay:.2f}s")
        if delay > 0:
            time.sleep(delay)

    def _fail(self, job, exc: Exception, attempt: int, failures) -> None:
        """Record an exhausted job; re-raise under the "raise" policy."""
        failure = failure_from(job.label, exc, attempt, job=job)
        failures[job] = failure
        self.telemetry.event("sweep.failure", label=job.label,
                             attempts=attempt, reason=failure.kind,
                             error=failure.error)
        self._say(f"  FAILED {job.label} after {attempt} attempt(s): "
                  f"{failure.error}")
        if self.failures == "raise":
            raise exc
        if self.on_failure is not None:
            self.on_failure(job, failure)


def _run_inline(job: SweepJob, timeout: float | None,
                attempt: int) -> Future:
    """:func:`_execute_job` on the calling thread, as a finished future.

    Only ``Exception`` becomes the future's outcome: Ctrl-C and
    ``SystemExit`` propagate out of the sweep as they arrive.
    """
    fut: Future = Future()
    try:
        fut.set_result(_execute_job(job, timeout, attempt))
    except Exception as exc:
        fut.set_exception(exc)
    return fut


def _shut(pool: ProcessPoolExecutor | None, *, kill: bool) -> None:
    """Shut ``pool`` down; with ``kill``, cancel its queued jobs and
    terminate its workers instead of letting in-flight jobs finish."""
    if pool is None:
        return
    if not kill:
        pool.shutdown(wait=True)
        return
    # shutdown() drops the executor's process table: take it first.
    procs = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        proc.terminate()


def as_spec(mix, *, scale: float = 1.0, seed: int = 7):
    """Coerce a mix argument: a name becomes a :class:`MixSpec`; an
    existing spec or built :class:`WorkloadMix` passes through unchanged
    (``scale``/``seed`` apply only to names)."""
    if isinstance(mix, str):
        return MixSpec(mix, scale=scale, seed=seed)
    return mix


def _name_of(mix) -> str:
    return mix.run_name if isinstance(mix, MixSpec) else mix.name


def sweep_grid(mixes, designs, cfg: SystemConfig | None = None, *,
               scale: float = 1.0, seed: int = 7,
               native_geometry: bool = True,
               runner: SweepEngine | None = None,
               trace_dir: str | None = None,
               **sim_kw) -> dict[str, dict[str, "ComboResult"]]:
    """Grid submission behind :func:`repro.api.sweep`.

    Baseline + ``designs`` on every mix, submitted as one job list, so
    the per-mix baseline is simulated once and shared.  Returns
    ``{design: {mix_name: ComboResult}}`` (the Fig. 5 / perf.csv
    layout) with ``"baseline"`` first.

    ``runner`` is the :class:`SweepEngine` that runs the jobs (workers,
    cache, progress and resilience are its knobs); ``None`` builds one
    with its defaults.  A simulation-core selector travels inside
    ``sim_kw`` as ``engine=...``.  When the runner collects failures, a
    mix whose cell failed is simply absent from the affected design
    rows (and from every row, if its shared baseline failed); the
    per-job records live on ``runner.report.failures``.
    """
    cfg = cfg or default_system()
    runner = runner or SweepEngine()
    specs = [as_spec(m, scale=scale, seed=seed) for m in mixes]
    names = list(dict.fromkeys(("baseline",) + tuple(designs)))
    frozen = freeze_kw(sim_kw)

    def job(spec, design):
        return SweepJob(spec, design, cfg, native_geometry, frozen,
                        trace_dir)

    results = runner.run([job(s, d) for s in specs for d in names]).results
    out: dict[str, dict] = {d: {} for d in names}
    for spec in specs:
        base = results.get(job(spec, "baseline"))
        if base is None:
            continue   # baseline failed ("collect"): the mix has no rows
        for d in names:
            res = results.get(job(spec, d))
            if res is None:
                continue
            out[d][_name_of(spec)] = weighted_speedup(
                res, base, cfg.weight_cpu, cfg.weight_gpu)
    return out


def _solo_variant(mix, klass: str):
    """Solo spec/mix for one class, or ``None`` if the class is absent."""
    if isinstance(mix, MixSpec):
        return replace(mix, solo=klass)
    present = mix.cpu_traces if klass == "cpu" else mix.gpu_traces
    if not present:
        return None
    return cpu_only(mix) if klass == "cpu" else gpu_only(mix)


def corun_grid(mixes, cfg: SystemConfig | None = None, *,
               design: str = "baseline", scale: float = 1.0, seed: int = 7,
               runner: SweepEngine | None = None,
               trace_dir: str | None = None,
               **sim_kw) -> dict[str, dict[str, float]]:
    """Solo/co-run batching behind :func:`repro.api.corun`.

    ``runner`` is as in :func:`sweep_grid`.  When it collects failures,
    a mix whose co-run cell failed is absent from the output; a failed
    solo cell degrades that side's slowdown to NaN (the one-sided-mix
    semantics).
    """
    cfg = cfg or default_system()
    runner = runner or SweepEngine()
    frozen = freeze_kw(sim_kw)

    def job(mix):
        return SweepJob(mix, design, cfg, True, frozen, trace_dir)

    trios = []
    jobs = []
    for m in mixes:
        spec = as_spec(m, scale=scale, seed=seed)
        solo_cpu = _solo_variant(spec, "cpu")
        solo_gpu = _solo_variant(spec, "gpu")
        trios.append((spec, solo_cpu, solo_gpu))
        jobs.extend(job(s) for s in (solo_cpu, solo_gpu, spec)
                    if s is not None)

    results = runner.run(jobs).results
    out = {}
    for spec, solo_cpu, solo_gpu in trios:
        corun = results.get(job(spec))
        if corun is None:
            continue   # co-run cell failed ("collect"): no row for the mix
        out[_name_of(spec)] = slowdown_metrics(
            corun,
            results.get(job(solo_cpu)) if solo_cpu is not None else None,
            results.get(job(solo_gpu)) if solo_gpu is not None else None)
    return out
