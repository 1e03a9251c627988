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
``degrade_after`` consecutive pool deaths the engine falls back to
serial in-process execution.  Completed jobs are always written to the
cache as they finish, so an interrupted sweep resumes from the cache on
rerun.
"""

from __future__ import annotations

import hashlib
import os
import time
from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor,
                                ProcessPoolExecutor, wait)
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from repro import faults
from repro.config import SystemConfig, default_system
from repro.config_io import config_digest
from repro.engine.simulator import SimResult
from repro.experiments.cache import SweepCache, resolve_cache
from repro.experiments.resilience import (JobFailure, RetryPolicy,
                                          SweepReport, failure_from,
                                          resolve_failure_policy,
                                          resolve_retry, time_limit)
from repro.experiments.runner import (run_design, slowdown_metrics,
                                      weighted_speedup)
from repro.telemetry import NULL_SINK, Telemetry
from repro.traces.mixes import (CPU_COPIES, WorkloadMix, build_mix, cpu_only,
                                gpu_only)

#: Environment default for the worker count (used when ``workers=None``).
WORKERS_ENV = "REPRO_SWEEP_JOBS"


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
    """Picklable recipe for a Table II workload mix.

    Carries its own seed, so every job derived from it is deterministic;
    ``solo`` selects the CPU-only / GPU-only variant used by the Fig. 2
    co-run study.  ``None`` reference counts mean "the library default".
    """

    name: str
    scale: float = 1.0
    seed: int = 7
    solo: str | None = None  # None | "cpu" | "gpu"
    cpu_refs: int | None = None
    gpu_refs: int | None = None
    footprint_scale: float = 1.0
    cpu_copies: int = CPU_COPIES

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
    """

    mix: "MixSpec | WorkloadMix"
    design: str
    cfg: SystemConfig
    native_geometry: bool = True
    sim_kw: tuple = ()
    trace_dir: str | None = None

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


def _batch_shardable(job: SweepJob) -> bool:
    """True when a job can join a lock-step batch shard.

    Requires the ``engine="batch"`` selector in the job's ``sim_kw``
    and no per-cell telemetry trace (the JSONL sink is wired by the
    per-job path); anything else falls through to per-job execution.
    """
    return (dict(job.sim_kw).get("engine") == "batch"
            and job.trace_dir is None)


def _execute_batch_shard(jobs: "list[SweepJob]", attempts: "list[int]",
                         timeout: float | None
                         ) -> tuple[list, float]:
    """Run many batch-engine jobs as one lock-step batched kernel.

    Builds one :class:`~repro.engine.batch.BatchCell` per job and hands
    the whole shard to :class:`~repro.engine.batch.BatchSimulation`,
    which advances every cell between policy boundaries in one fused
    interpreter with shared trace decodes.  Returns one outcome per job
    (a :class:`SimResult`, or the ``Exception`` that cell raised —
    failures are isolated per cell) plus the amortized per-cell wall
    time.  ``timeout`` is a *per-cell* budget, applied to the shard as
    ``timeout * len(jobs)`` (cells run interleaved, so a per-cell wall
    clock does not exist inside a shard).
    """
    from repro.engine.batch import BatchCell, BatchSimulation
    from repro.experiments.designs import design_config, make_policy

    t0 = time.perf_counter()
    budget = timeout * len(jobs) if timeout is not None else None
    outcomes: list = [None] * len(jobs)
    cells: list = []
    slots: list[int] = []
    with time_limit(budget, f"batch shard ({len(jobs)} cells)"):
        for k, (job, attempt) in enumerate(zip(jobs, attempts)):
            try:
                faults.maybe_fault(job.label, attempt, timeout)
                mix = (job.mix.build() if isinstance(job.mix, MixSpec)
                       else job.mix)
                kw = dict(job.sim_kw)
                kw.pop("engine", None)
                if isinstance(job.design, str):
                    policy = make_policy(job.design)
                    cfg = design_config(job.design, job.cfg,
                                        job.native_geometry)
                else:
                    policy, cfg = job.design, job.cfg
                cells.append(BatchCell(cfg, policy, mix, **kw))
                slots.append(k)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                outcomes[k] = exc
        for k, res in zip(slots, BatchSimulation(cells).run_isolated()
                          if cells else ()):
            outcomes[k] = res
    dt = (time.perf_counter() - t0) / len(jobs)
    return outcomes, dt


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


@dataclass
class SweepStats:
    """Progress / reporting counters for one engine (cumulative)."""

    workers: int = 1
    submitted: int = 0     # jobs handed to run(), duplicates included
    unique: int = 0        # after deduplication
    cache_hits: int = 0
    cache_misses: int = 0  # unique jobs that had to simulate (cache on)
    simulated: int = 0
    completed: int = 0
    wall_total: float = 0.0               # engine wall-clock over run()s
    job_walls: dict[str, float] = field(default_factory=dict)
    # Resilience counters (see repro.experiments.resilience).
    retries: int = 0       # failed attempts that were re-run
    failed: int = 0        # jobs that exhausted their retries
    timeouts: int = 0      # subset of `failed` that ended on JobTimeout
    requeued: int = 0      # in-flight jobs resubmitted after a pool death
    pool_restarts: int = 0
    degraded: bool = False  # some run() fell back to serial execution

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.unique if self.unique else 0.0

    def slowest(self, n: int = 3) -> list[tuple[str, float]]:
        return sorted(self.job_walls.items(), key=lambda kv: -kv[1])[:n]


class SweepEngine:
    """Deduplicating, caching, process-pool runner for sweep jobs.

    Resilience knobs (module docstring, docs/robustness.md): ``retry``
    (``None`` = no retries, an int = that many retries, or a full
    :class:`~repro.experiments.resilience.RetryPolicy`), ``job_timeout``
    (per-job wall-clock budget in seconds), ``failures`` (``"raise"``
    fail-fast vs ``"collect"``), ``degrade_after`` (consecutive pool
    deaths tolerated before falling back to serial), and ``telemetry``
    (a :class:`~repro.telemetry.Telemetry` sink receiving the
    ``sweep.*`` events of docs/telemetry.md).
    """

    def __init__(self, workers: int | None = None, cache=None,
                 progress=None, retry: "RetryPolicy | int | None" = None,
                 job_timeout: float | None = None, failures: str = "raise",
                 degrade_after: int = 3,
                 telemetry: Telemetry | None = None,
                 on_result=None, on_failure=None) -> None:
        self.workers = resolve_workers(workers)
        self.cache: SweepCache | None = resolve_cache(cache)
        self.progress = progress
        self.retry = resolve_retry(retry)
        self.job_timeout = job_timeout
        self.failures = resolve_failure_policy(failures)
        if degrade_after < 1:
            raise ValueError(
                f"degrade_after must be >= 1, got {degrade_after}")
        self.degrade_after = degrade_after
        self.telemetry = telemetry if telemetry is not None else NULL_SINK
        #: Optional shard hand-off hook: ``on_result(job, result, dt)``
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
        self.stats = SweepStats(workers=self.workers)
        #: The :class:`SweepReport` of the most recent :meth:`run`.
        self.report: SweepReport | None = None

    def _say(self, msg: str) -> None:
        if self.progress is not None:
            self.progress(msg)

    def run(self, jobs) -> SweepReport:
        """Run (or recall) every job; returns results in submission order.

        Duplicate jobs — e.g. the shared baseline of several comparisons —
        are simulated once.  With ``workers > 1`` pending jobs execute in a
        process pool; completion order never affects the returned mapping.

        The return value is a :class:`~repro.experiments.resilience.
        SweepReport`: a mapping ``{job: result}`` over the successful
        jobs (equal to the plain dict previous versions returned) that
        also carries per-job failure records and recovery counters.
        Every completed job is written to the cache as it finishes, so
        an aborted or interrupted sweep resumes from the cache on rerun.
        """
        t0 = time.perf_counter()
        jobs = list(jobs)
        ordered = list(dict.fromkeys(jobs))
        self.stats.submitted += len(jobs)
        self.stats.unique += len(ordered)

        results: dict[SweepJob, SimResult] = {}
        pending: list[SweepJob] = []
        keys: dict[SweepJob, str] = {}
        run_hits = 0
        for job in ordered:
            if self.cache is not None:
                key = self.cache.key(job.cache_payload())
                keys[job] = key
                hit = self.cache.get(key)
                if hit is not None:
                    results[job] = hit
                    self.stats.cache_hits += 1
                    self.stats.completed += 1
                    run_hits += 1
                    if self.on_result is not None:
                        self.on_result(job, hit, 0.0)
                    continue
                self.stats.cache_misses += 1
            pending.append(job)

        self._say(f"sweep: {len(jobs)} job(s) queued "
                  f"({len(jobs) - len(ordered)} duplicate, "
                  f"{len(ordered) - len(pending)} cached), "
                  f"running {len(pending)} on "
                  f"{min(self.workers, max(1, len(pending)))} worker(s)")

        done = 0

        def record(job: SweepJob, res: SimResult, dt: float) -> None:
            nonlocal done
            done += 1
            results[job] = res
            self.stats.simulated += 1
            self.stats.completed += 1
            self.stats.job_walls[job.label] = dt
            if self.cache is not None:
                self.cache.put(keys[job], res)
            if self.on_result is not None:
                self.on_result(job, res, dt)
            self._say(f"  [{done}/{len(pending)}] {job.label} ({dt:.2f}s)")

        attempts = {job: 0 for job in pending}   # completed tries per job
        failures: dict[SweepJob, JobFailure] = {}
        counters = {"retries": 0, "requeued": 0, "pool_restarts": 0,
                    "degraded": 0}

        pending = self._run_batch_pass(pending, attempts, failures,
                                       counters, record)
        if self.workers > 1 and len(pending) > 1:
            self._run_pool(pending, attempts, failures, counters, record)
        else:
            self._run_serial(pending, attempts, failures, counters, record)

        self.stats.wall_total += time.perf_counter() - t0
        report = SweepReport(
            {job: results[job] for job in ordered if job in results},
            failures=tuple(failures[job] for job in ordered
                           if job in failures),
            retries=counters["retries"], requeued=counters["requeued"],
            pool_restarts=counters["pool_restarts"],
            degraded=bool(counters["degraded"]),
            deduped=len(jobs) - len(ordered), cache_hits=run_hits)
        self.report = report
        if not report.ok or counters["retries"] or counters["pool_restarts"]:
            self._say("sweep: " + report.summary())
        return report

    # -- execution backends ------------------------------------------------

    def _run_batch_pass(self, pending, attempts, failures, counters,
                        record) -> "list[SweepJob]":
        """Hand ``engine="batch"`` jobs to lock-step batched kernels.

        Eligible jobs (:func:`_batch_shardable`) are split into
        ``workers`` interleaved shards, each executed as one
        :class:`~repro.engine.batch.BatchSimulation` (in a process pool
        when ``workers > 1``, in-process otherwise).  Per-cell failures
        re-enter the ordinary retry/failure machinery: a retryable cell
        is returned to the caller's queue and re-runs through the
        per-job backends (which carry the full resilience semantics); an
        exhausted one is recorded via :meth:`_fail`.  A shard-level
        surprise (pool death, shard timeout) demotes that shard's jobs
        to per-job execution rather than failing them.  Returns the jobs
        the per-job backends still have to run.
        """
        shardable = [j for j in pending if _batch_shardable(j)]
        if not shardable:
            return pending
        rest = [j for j in pending if not _batch_shardable(j)]
        n_shards = min(self.workers, len(shardable))
        shards = [shardable[i::n_shards] for i in range(n_shards)]
        self._say(f"sweep: batching {len(shardable)} cell(s) into "
                  f"{n_shards} lock-step shard(s)")

        def harvest(shard, outcomes, dt):
            for job, outcome in zip(shard, outcomes):
                attempts[job] += 1
                if isinstance(outcome, Exception):
                    if self.retry.retryable(attempts[job]):
                        self._note_retry(job, outcome, attempts[job],
                                         counters)
                        rest.append(job)
                    else:
                        self._fail(job, outcome, attempts[job], failures)
                else:
                    record(job, outcome, dt)

        if n_shards == 1:
            shard = shards[0]
            try:
                outcomes, dt = _execute_batch_shard(
                    shard, [attempts[j] + 1 for j in shard],
                    self.job_timeout)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception:
                # Shard-level failure (e.g. shard timeout): per-cell
                # attribution is unknown, so re-run per job.
                rest.extend(shard)
            else:
                harvest(shard, outcomes, dt)
            return rest

        with ProcessPoolExecutor(max_workers=n_shards) as pool:
            futs = []
            try:
                for shard in shards:
                    futs.append((pool.submit(
                        _execute_batch_shard, shard,
                        [attempts[j] + 1 for j in shard],
                        self.job_timeout), shard))
            except BrokenExecutor:
                pass   # unsubmitted shards fall through below
            submitted = set()
            for fut, shard in futs:
                submitted.update(shard)
                try:
                    outcomes, dt = fut.result()
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception:
                    rest.extend(shard)
                else:
                    harvest(shard, outcomes, dt)
            rest.extend(j for j in shardable
                        if j not in submitted and j not in rest)
        return rest

    def _run_serial(self, queue, attempts, failures, counters,
                    record) -> None:
        """In-process execution with the same retry/failure semantics."""
        for job in queue:
            while True:
                try:
                    res, dt = _execute_job(job, self.job_timeout,
                                           attempts[job] + 1)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as exc:
                    attempts[job] += 1
                    if self.retry.retryable(attempts[job]):
                        self._note_retry(job, exc, attempts[job], counters)
                        continue
                    self._fail(job, exc, attempts[job], failures)
                    break
                attempts[job] += 1
                record(job, res, dt)
                break

    def _run_pool(self, pending, attempts, failures, counters,
                  record) -> None:
        """Process-pool execution surviving worker and pool deaths.

        Runs generations of pools: jobs still outstanding after a pool
        death (``BrokenExecutor``) are requeued — with their attempt
        counter bumped, so a deterministically injected crash clears —
        into a fresh pool; after ``degrade_after`` consecutive deaths
        the remainder runs serially in-process.
        """
        outstanding = dict.fromkeys(pending)   # insertion-ordered set
        pool_deaths = 0
        while outstanding:
            queue = [j for j in pending if j in outstanding]
            pool = ProcessPoolExecutor(
                max_workers=min(self.workers, len(queue)))
            # Submission can itself find the pool broken (a worker
            # crashing on an early job while later jobs are still being
            # submitted): that is a pool death, not a sweep error.
            inflight = {}
            broken = False
            try:
                for j in queue:
                    try:
                        inflight[pool.submit(_execute_job, j,
                                             self.job_timeout,
                                             attempts[j] + 1)] = j
                    except BrokenExecutor:
                        broken = True
                        break
                while inflight and not broken:
                    ready, _ = wait(list(inflight),
                                    return_when=FIRST_COMPLETED)
                    for fut in ready:
                        job = inflight.pop(fut)
                        try:
                            res, dt = fut.result()
                        except BrokenExecutor:
                            broken = True
                            continue
                        except Exception as exc:
                            attempts[job] += 1
                            if self.retry.retryable(attempts[job]):
                                self._note_retry(job, exc, attempts[job],
                                                 counters)
                                try:
                                    inflight[pool.submit(
                                        _execute_job, job, self.job_timeout,
                                        attempts[job] + 1)] = job
                                except BrokenExecutor:
                                    # Pool died under the resubmission;
                                    # the job stays outstanding and is
                                    # requeued into the next pool.
                                    broken = True
                            else:
                                del outstanding[job]
                                self._fail(job, exc, attempts[job],
                                           failures)
                            continue
                        attempts[job] += 1
                        del outstanding[job]
                        pool_deaths = 0
                        record(job, res, dt)
            except KeyboardInterrupt:
                self._flush_on_interrupt(pool, inflight, attempts,
                                         outstanding, record)
                raise
            except Exception:
                pool.shutdown(wait=False, cancel_futures=True)
                raise
            if not broken:
                pool.shutdown(wait=True)
                return
            # Pool died.  Harvest results that finished before the death
            # (nothing completed may be lost), then requeue the rest.
            for fut in list(inflight):
                job = inflight[fut]
                if fut.done() and not fut.cancelled() \
                        and fut.exception() is None:
                    res, dt = fut.result()
                    attempts[job] += 1
                    del outstanding[job]
                    record(job, res, dt)
            pool.shutdown(wait=False, cancel_futures=True)
            pool_deaths += 1
            self.stats.pool_restarts += 1
            counters["pool_restarts"] += 1
            requeued = [j for j in pending if j in outstanding]
            counters["requeued"] += len(requeued)
            self.stats.requeued += len(requeued)
            for j in requeued:
                attempts[j] += 1   # clears a deterministic injected crash
            self.telemetry.event("sweep.pool_restart", deaths=pool_deaths,
                                 requeued=len(requeued))
            self._say(f"sweep: worker pool died ({pool_deaths} "
                      f"consecutive); requeueing {len(requeued)} job(s)")
            if pool_deaths >= self.degrade_after and outstanding:
                counters["degraded"] = 1
                self.stats.degraded = True
                remaining = [j for j in pending if j in outstanding]
                self.telemetry.event("sweep.degraded",
                                     pool_deaths=pool_deaths,
                                     remaining=len(remaining))
                self._say(f"sweep: degrading to serial execution for "
                          f"{len(remaining)} remaining job(s)")
                self._run_serial(remaining, attempts, failures, counters,
                                 record)
                return

    # -- resilience bookkeeping --------------------------------------------

    def _note_retry(self, job, exc: Exception, attempt: int,
                    counters) -> None:
        """Account for a retryable failure and apply its backoff delay."""
        delay = self.retry.delay(job.label, attempt)
        counters["retries"] += 1
        self.stats.retries += 1
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
        self.stats.failed += 1
        if failure.kind == "timeout":
            self.stats.timeouts += 1
        self.telemetry.event("sweep.failure", label=job.label,
                             attempts=attempt, reason=failure.kind,
                             error=failure.error)
        self._say(f"  FAILED {job.label} after {attempt} attempt(s): "
                  f"{failure.error}")
        if self.failures == "raise":
            raise exc
        if self.on_failure is not None:
            self.on_failure(job, failure)

    def _flush_on_interrupt(self, pool, inflight, attempts, outstanding,
                            record) -> None:
        """Ctrl-C during a parallel sweep: keep finished work, then die.

        Cancels not-yet-running futures, records (and therefore caches)
        results that already finished but were not yet collected, and
        tears the pool down without waiting so no worker process is
        left orphaned; the caller re-raises the ``KeyboardInterrupt``.
        """
        for fut in list(inflight):
            fut.cancel()
        for fut in list(inflight):
            job = inflight[fut]
            if fut.done() and not fut.cancelled() \
                    and fut.exception() is None:
                res, dt = fut.result()
                attempts[job] += 1
                if job in outstanding:
                    del outstanding[job]
                record(job, res, dt)
        pool.shutdown(wait=False, cancel_futures=True)
        procs = getattr(pool, "_processes", None) or {}
        for proc in list(procs.values()):
            try:
                proc.terminate()
            except (OSError, AttributeError):
                pass


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
               workers: int | None = None, cache=None, progress=None,
               trace_dir: str | None = None,
               retry=None, job_timeout: float | None = None,
               failures: str = "raise", sweep_telemetry=None,
               **sim_kw) -> dict[str, dict[str, "ComboResult"]]:
    """Grid submission behind :func:`repro.api.sweep`.

    Baseline + ``designs`` on every mix, submitted as one job list, so
    the per-mix baseline is simulated once and shared.  Returns
    ``{design: {mix_name: ComboResult}}`` (the Fig. 5 / perf.csv
    layout) with ``"baseline"`` first.

    ``runner`` is the :class:`SweepEngine`; a simulation-core selector
    travels inside ``sim_kw`` as ``engine=...`` (the names differ so the
    two kinds of engine can be passed together).  Under
    ``failures="collect"`` a mix whose cell failed is simply absent from
    the affected design rows (and from every row, if its shared baseline
    failed); the per-job records live on ``runner.report.failures``.
    """
    cfg = cfg or default_system()
    runner = runner or SweepEngine(workers=workers, cache=cache,
                                   progress=progress, retry=retry,
                                   job_timeout=job_timeout,
                                   failures=failures,
                                   telemetry=sweep_telemetry)
    specs = [as_spec(m, scale=scale, seed=seed) for m in mixes]
    names = list(dict.fromkeys(("baseline",) + tuple(designs)))
    frozen = freeze_kw(sim_kw)

    def job(spec, design):
        return SweepJob(spec, design, cfg, native_geometry, frozen,
                        trace_dir)

    results = runner.run([job(s, d) for s in specs for d in names])
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
               workers: int | None = None, cache=None, progress=None,
               trace_dir: str | None = None,
               retry=None, job_timeout: float | None = None,
               failures: str = "raise", sweep_telemetry=None,
               **sim_kw) -> dict[str, dict[str, float]]:
    """Solo/co-run batching behind :func:`repro.api.corun`.

    Under ``failures="collect"`` a mix whose co-run cell failed is
    absent from the output; a failed solo cell degrades that side's
    slowdown to NaN (the one-sided-mix semantics).
    """
    cfg = cfg or default_system()
    runner = runner or SweepEngine(workers=workers, cache=cache,
                                   progress=progress, retry=retry,
                                   job_timeout=job_timeout,
                                   failures=failures,
                                   telemetry=sweep_telemetry)
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

    results = runner.run(jobs)
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
