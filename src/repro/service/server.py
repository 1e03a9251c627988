"""Asyncio HTTP/JSON campaign server over the sweep engine.

Stdlib-only serving tier (``asyncio`` streams + hand-rolled HTTP/1.1 —
no new runtime dependencies): clients POST a
:class:`~repro.service.schema.CampaignSpec`, the server expands it into
grid cells, deduplicates them against every in-flight and completed
cell (and, through the content-addressed
:class:`~repro.experiments.cache.SweepCache`, against previous runs),
drains them through the weighted-fair
:class:`~repro.service.queue.FairQueue`, and executes batches on one
persistent :class:`~repro.experiments.sweep.SweepEngine` — so the
retry / timeout / chaos semantics of docs/robustness.md apply to
served campaigns unchanged.  Results stream back as JSONL
(:class:`~repro.service.schema.CellRow` per line) over chunked
responses; a polling endpoint serves
:class:`~repro.service.schema.JobStatus` built from the engine's
:class:`~repro.experiments.resilience.SweepReport` accounting.

Crash safety (docs/service.md "Operations"): with ``journal=DIR`` the
server runs over a :class:`~repro.service.journal.Journal` — accepted
campaigns are journaled *before* they are acknowledged and every cell
outcome is journaled *before* its row is streamed, so a restarted
server replays the journal on startup, resolves already-computed cells
from the result store its engine writes, re-enqueues the rest, and streams
rows bit-identical to an uninterrupted run (stream clients resume with
``?from=N``).  Admission control (``max_queued_cells`` -> 429 +
``Retry-After``) bounds the backlog, and :meth:`CampaignServer.drain`
implements graceful shutdown: stop admitting, finish the in-flight
engine batch, flush live streams, exit — with data loss (journal
disabled, or no journal and unfinished work) surfaced through
:attr:`CampaignServer.data_loss` and a nonzero ``repro serve`` exit.

Endpoints (all JSON, see docs/service.md):

* ``GET  /v1/health`` — a :class:`~repro.service.health.HealthReport`:
  drain state, queue depths, in-flight cells, journal lag.
* ``POST /v1/campaigns`` — submit a ``CampaignSpec``; returns the
  initial ``JobStatus`` (with ``job_id``).  ``?attach=1`` makes the
  submit idempotent on the spec digest: a byte-identical spec attaches
  to the existing (possibly journal-recovered) job instead of opening
  a new one.  429 when the queue is full, 503 while draining.
* ``GET  /v1/campaigns/<id>`` — poll a ``JobStatus``.
* ``GET  /v1/campaigns/<id>/stream`` — chunked JSONL: one
  ``{"type": "row", ...CellRow...}`` line per resolved cell (stored
  rows replay first, so late or reconnecting clients lose nothing;
  ``?from=N`` skips the first N rows for resumption), then one final
  ``{"type": "status", ...JobStatus...}`` line.

Concurrency model: one scheduler task serializes engine batches (the
engine is not reentrant); fairness comes from draining the queue at
most ``batch_cells`` cells per batch, so an interactive campaign
arriving behind a heavy one is served in the next batch rather than
after the whole backlog.  The engine runs in a worker thread
(``run_in_executor``) and simulates each cell on its own, so rows
stream as each cell finishes: per-cell delivery hops back onto the
loop via ``call_soon_threadsafe`` from the engine's ``on_result`` /
``on_failure`` hooks.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import re
import signal
import threading
import urllib.parse
import warnings
from typing import Any

from repro import faults
from repro.config import SystemConfig, default_system
from repro.engine.simulator import resolve_engine
from repro.experiments.cache import stable_key
from repro.experiments.runner import weighted_speedup
from repro.experiments.sweep import MixSpec, SweepEngine, SweepJob, freeze_kw
from repro.service.health import HealthReport
from repro.service.journal import resolve_journal
from repro.service.queue import FairQueue
from repro.service.schema import (SCHEMA_VERSION, CampaignSpec, CellKey,
                                  CellRow, JobStatus, SchemaError)
from repro.telemetry import NULL_SINK, Telemetry

#: Default TCP port for ``repro serve`` (0 = ephemeral, used by tests).
DEFAULT_PORT = 8642

#: ``Retry-After`` seconds advertised with 429/503 responses.
RETRY_AFTER = 1

_MAX_HEAD = 64 * 1024
_MAX_BODY = 8 * 1024 * 1024


class _Cell:
    """One unique simulation unit, shared by every campaign that needs it.

    ``state`` walks queued -> running -> done|failed; ``waiters`` are
    ``(campaign, CellKey)`` pairs to deliver to on resolution.
    """

    __slots__ = ("digest", "job", "state", "result", "failure", "waiters")

    def __init__(self, digest: str, job: SweepJob) -> None:
        self.digest = digest
        self.job = job
        self.state = "queued"
        self.result: Any = None
        self.failure: dict[str, Any] | None = None
        self.waiters: list[tuple["_Campaign", CellKey]] = []


class _Campaign:
    """Server-side state of one submitted campaign."""

    def __init__(self, job_id: str, spec: CampaignSpec,
                 cfg: SystemConfig) -> None:
        self.job_id = job_id
        self.spec = spec
        self.cfg = cfg
        self.cells = spec.cells()
        self.done_cells = 0
        self.deduped = 0
        self.cache_hits = 0
        self.started = False
        self.rows: list[CellRow] = []
        self.failures: list[dict[str, Any]] = []
        self.cond = asyncio.Condition()
        # Per-mix row assembly: a row needs both the cell's own result
        # and the same-mix baseline (the normalization denominator).
        self._base: dict[str, Any] = {}          # mix -> baseline SimResult
        self._base_dead: set[str] = set()        # baseline failed: no rows
        self._held: dict[str, list[tuple[CellKey, Any]]] = {}

    @property
    def done(self) -> bool:
        return self.done_cells >= len(self.cells)

    @property
    def state(self) -> str:
        if self.done:
            return "done"
        return "running" if self.started else "queued"

    def status(self) -> JobStatus:
        """Snapshot as the wire-facing :class:`JobStatus`."""
        return JobStatus(job_id=self.job_id, state=self.state,
                         total_cells=len(self.cells),
                         done_cells=self.done_cells, rows=len(self.rows),
                         deduped=self.deduped, cache_hits=self.cache_hits,
                         failures=tuple(self.failures))

    # -- cell resolution (loop thread only) -------------------------------

    def resolve(self, key: CellKey, result: Any) -> None:
        """A cell of this campaign produced a result; emit rows."""
        self.done_cells += 1
        if key.design == "baseline":
            self._base[key.mix] = result
            self._emit(key, result, result)
            for held_key, held_res in self._held.pop(key.mix, ()):
                self._emit(held_key, held_res, result)
        else:
            base = self._base.get(key.mix)
            if base is not None:
                self._emit(key, result, base)
            elif key.mix not in self._base_dead:
                self._held.setdefault(key.mix, []).append((key, result))

    def fail(self, key: CellKey, failure: dict[str, Any]) -> None:
        """A cell of this campaign exhausted its retries."""
        self.done_cells += 1
        self.failures.append(failure)
        if key.design == "baseline":
            # No denominator: the mix can produce no rows (matches the
            # sweep_grid failures="collect" semantics).
            self._base_dead.add(key.mix)
            self._held.pop(key.mix, None)

    def _emit(self, key: CellKey, result: Any, base: Any) -> None:
        combo = weighted_speedup(result, base, self.cfg.weight_cpu,
                                 self.cfg.weight_gpu)
        self.rows.append(CellRow.from_combo(key.design, key.mix, combo))


class CampaignServer:
    """The asyncio campaign server (see module docstring).

    ``workers`` / ``cache`` / ``retry`` / ``job_timeout`` are the
    server-level :class:`~repro.experiments.sweep.SweepEngine` knobs —
    one engine serves every campaign, always under
    ``failures="collect"`` so a poisoned cell never kills the stream
    (a ``failures="raise"`` *spec* is surfaced client-side instead).
    ``batch_cells`` bounds how many queued cells one engine batch may
    drain (the fairness granularity).

    Robustness knobs: ``journal`` (``None`` | directory path |
    :class:`~repro.service.journal.Journal`) enables the write-ahead
    job journal — when set and ``cache`` is unset or ``False``, the
    engine writes results into the journal's own store; a ``cache``
    naming another store holds them instead, and replay resolves
    ``done`` records from whichever store the engine writes.
    ``max_queued_cells`` caps the fair-queue backlog (admission
    control; excess submits get 429).
    ``killable=True`` (only ever set by the foreground ``repro serve``
    process) arms the ``kill`` fault-injection point so chaos tests
    can crash a real server process mid-campaign.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 workers: int | None = None, cache: Any = None,
                 retry: Any = None, job_timeout: float | None = None,
                 batch_cells: int = 32, journal: Any = None,
                 max_queued_cells: int | None = None,
                 killable: bool = False,
                 telemetry: Telemetry | None = None) -> None:
        if batch_cells < 1:
            raise ValueError(f"batch_cells must be >= 1, got {batch_cells}")
        if max_queued_cells is not None and max_queued_cells < 1:
            raise ValueError(f"max_queued_cells must be >= 1, "
                             f"got {max_queued_cells}")
        self.host = host
        self._port = port
        self.cfg = default_system()
        self.telemetry = telemetry if telemetry is not None else NULL_SINK
        self.journal = resolve_journal(journal)
        if self.journal is not None and (cache is None or cache is False):
            cache = self.journal.cache
        self.engine = SweepEngine(workers=workers, cache=cache,
                                  retry=retry, job_timeout=job_timeout,
                                  failures="collect", telemetry=telemetry)
        self.batch_cells = batch_cells
        self.max_queued_cells = max_queued_cells
        self.killable = killable
        #: Server incarnation over this journal: 1 on a fresh start,
        #: +1 per restart-with-replay.  Doubles as the ``attempt``
        #: fed to the ``kill`` fault point, so ``kill:1xN`` crashes
        #: the first N incarnations and then lets the run complete.
        self.generation = 1
        #: True once a drain started: no new admissions, scheduler
        #: winds down after the in-flight batch.
        self.draining = False
        self._queue = FairQueue()
        self._cells: dict[str, _Cell] = {}
        self._jobs: dict[str, _Campaign] = {}
        self._attach: dict[str, str] = {}        # spec digest -> job_id
        self._ids = itertools.count(1)
        self._active_streams = 0
        self._server: asyncio.AbstractServer | None = None
        self._stopped: asyncio.Event | None = None
        self._wake: asyncio.Event | None = None
        self._task: asyncio.Task | None = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Replay the journal (if any), bind the socket, start scheduling."""
        self._wake = asyncio.Event()
        self._stopped = asyncio.Event()
        if self.journal is not None:
            self._replay()
        self._server = await asyncio.start_server(self._handle, self.host,
                                                  self._port)
        self._task = asyncio.get_running_loop().create_task(
            self._scheduler())

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``port=0`` ephemeral binds)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def data_loss(self) -> bool:
        """True iff shutting down now would lose accepted state.

        Unfinished campaigns survive a restart as long as the journal
        is present and still writable; with no journal — or a journal
        that had to disable itself after a failed append — any
        incomplete campaign is gone the moment the process exits.
        """
        incomplete = any(not c.done for c in self._jobs.values())
        if self.journal is not None and not self.journal.disabled:
            return False
        return incomplete

    async def drain(self) -> None:
        """Graceful shutdown: stop admitting, finish in-flight, flush.

        New submissions already get 503 once :attr:`draining` is set;
        the scheduler exits after the batch it is currently running
        (cells still queued stay journaled for the next incarnation),
        live streams are woken to emit their final status line, and
        the listening socket closes once they have flushed.
        """
        if self.draining:
            return
        self.draining = True
        if self._wake is not None:
            self._wake.set()
        if self._task is not None:
            await self._task
        for camp in self._jobs.values():
            self._notify(camp)
        while self._active_streams:
            await asyncio.sleep(0.05)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        incomplete = sum(1 for c in self._jobs.values() if not c.done)
        self.telemetry.event("service.drain", jobs=len(self._jobs),
                             incomplete=incomplete,
                             data_loss=self.data_loss)

    async def stop(self) -> None:
        """Stop accepting, cancel the scheduler, release the socket."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.journal is not None:
            self.journal.close()
        if self._stopped is not None:
            self._stopped.set()

    async def wait_stopped(self) -> None:
        """Block until the server is stopped (used by
        :func:`serve_in_thread`)."""
        assert self._stopped is not None, "server not started"
        await self._stopped.wait()

    # -- journal replay ----------------------------------------------------

    def _replay(self) -> None:
        """Reconstruct server state from the journal (loop thread).

        A deterministic event replay: ``campaign`` records re-register
        (and re-enqueue) in admission order, ``done`` / ``failed``
        records then resolve cells in their original completion order —
        so each campaign's row list is rebuilt in exactly the order an
        uninterrupted server streamed it, which is what makes
        ``?from=N`` stream resumption valid across restarts.  A
        ``done`` record resolves through the store the engine writes
        results into; one whose result is missing there (torn entry,
        cleared cache) is simply ignored: the cell stays queued and is
        recomputed bit-identically.
        """
        assert self.journal is not None
        records = self.journal.replay()
        top = 0
        campaigns = recovered = 0
        for rec in records:
            kind = rec.get("type")
            if kind == "restart":
                self.generation += 1
            elif kind == "campaign":
                try:
                    job_id = str(rec["job_id"])
                    spec = CampaignSpec.from_json(rec["spec"])
                    self.submit(spec, job_id=job_id, journal=False)
                except (SchemaError, KeyError, ValueError) as exc:
                    warnings.warn(
                        f"journal replay: dropping unreadable campaign "
                        f"record ({type(exc).__name__}: {exc})",
                        RuntimeWarning, stacklevel=2)
                    continue
                m = re.fullmatch(r"job-(\d+)", job_id)
                if m:
                    top = max(top, int(m.group(1)))
                campaigns += 1
            elif kind in ("done", "failed"):
                cell = self._cells.get(str(rec.get("digest", "")))
                if cell is None or cell.state not in ("queued", "running"):
                    continue
                if kind == "failed":
                    self._cell_failed(cell, dict(rec.get("failure") or {}),
                                      journal=False)
                    recovered += 1
                    continue
                result = self.engine.cache.get(cell.digest)
                if result is None:
                    continue               # result store miss: recompute
                self._cell_done(cell, result, True, journal=False)
                recovered += 1
        self._ids = itertools.count(top + 1)
        if records:
            # Prior incarnations = 1 fresh start + one restart record
            # per replaying startup before this one; we are the next.
            self.generation += 1
            self.journal.restart()
            requeued = sum(1 for c in self._cells.values()
                           if c.state == "queued")
            self.telemetry.event("service.replay", campaigns=campaigns,
                                 recovered=recovered, requeued=requeued,
                                 generation=self.generation)
            if self._wake is not None and requeued:
                self._wake.set()

    # -- submission --------------------------------------------------------

    def submit(self, spec: CampaignSpec, *, job_id: str | None = None,
               journal: bool = True) -> _Campaign:
        """Register a campaign: dedup its cells, queue the fresh ones.

        Loop-thread only.  Cells whose digest matches an in-flight or
        completed cell attach as waiters (computed once, streamed to
        everyone — the ``deduped`` counter observes this); fresh cells
        are pushed into the fair queue under the spec's priority.
        ``engine`` never enters the digest (engines are bit-exact), so
        campaigns dedup across engine choices too.

        With a journal, the acceptance is write-ahead: the campaign
        record is durable *before* any state is built, so a crash at
        any later point can only lose work the journal already names.
        ``job_id`` / ``journal=False`` are the replay path re-admitting
        an already-journaled campaign under its original id.  An unknown
        engine (``ValueError``) or mix or design name (``KeyError``)
        raises before anything is journaled or queued.
        """
        resolve_engine(spec.engine)
        sim_kw = freeze_kw({"engine": spec.engine})
        mixes = {m: MixSpec(m, scale=spec.scale, seed=spec.seed)
                 for m in spec.mixes}
        jobs = [SweepJob(mixes[key.mix], key.design, self.cfg,
                         spec.native_geometry, sim_kw, None)
                for key in spec.cells()]
        jid = job_id if job_id is not None else f"job-{next(self._ids)}"
        if journal and self.journal is not None:
            self.journal.campaign(jid, spec.to_json())
        camp = _Campaign(jid, spec, self.cfg)
        self._jobs[camp.job_id] = camp
        self._attach.setdefault(stable_key(spec.to_json()), camp.job_id)
        fresh = 0
        shared = 0
        for key, job in zip(camp.cells, jobs):
            digest = stable_key(job.cache_payload())
            cell = self._cells.get(digest)
            if cell is None:
                cell = _Cell(digest, job)
                self._cells[digest] = cell
                cell.waiters.append((camp, key))
                self._queue.push(digest, priority=spec.priority)
                fresh += 1
                continue
            shared += 1
            camp.deduped += 1
            if cell.state == "done":
                camp.resolve(key, cell.result)
            elif cell.state == "failed":
                camp.fail(key, dict(cell.failure or {}))
            else:
                cell.waiters.append((camp, key))
        if camp.done_cells:
            camp.started = True
        self.telemetry.event("service.queue", job_id=camp.job_id,
                             priority=spec.priority, cells=len(camp.cells),
                             fresh=fresh)
        if shared:
            self.telemetry.event("service.dedup", job_id=camp.job_id,
                                 shared=shared, source="memory")
        if fresh and self._wake is not None:
            self._wake.set()
        if camp.done:
            self._notify(camp)
        return camp

    # -- scheduling --------------------------------------------------------

    async def _scheduler(self) -> None:
        """Drain the fair queue, one serialized engine batch at a time."""
        assert self._wake is not None
        while True:
            await self._wake.wait()
            self._wake.clear()
            while not self.draining:
                batch: list[_Cell] = []
                while self._queue and len(batch) < self.batch_cells:
                    cell = self._cells[self._queue.pop()]
                    if cell.state != "queued":
                        continue
                    cell.state = "running"
                    batch.append(cell)
                if not batch:
                    break
                for cell in batch:
                    for camp, _key in cell.waiters:
                        camp.started = True
                await self._run_batch(batch)
            if self.draining:
                return

    async def _run_batch(self, batch: list[_Cell]) -> None:
        """Run one engine batch in a worker thread; deliver per cell."""
        loop = asyncio.get_running_loop()
        by_job = {cell.job: cell for cell in batch}

        def on_result(job: SweepJob, res: Any, dt: float) -> None:
            # Engine thread -> loop thread; dt == 0.0 marks a cache
            # recall (the engine never reports 0.0 for a simulated run).
            loop.call_soon_threadsafe(self._cell_done, by_job[job], res,
                                      dt == 0.0)

        def on_failure(job: SweepJob, failure: Any) -> None:
            loop.call_soon_threadsafe(self._cell_failed, by_job[job], {
                "label": failure.label, "kind": failure.kind,
                "error": failure.error, "attempts": failure.attempts})

        self.engine.on_result = on_result
        self.engine.on_failure = on_failure
        try:
            report = await loop.run_in_executor(
                None, self.engine.run, [cell.job for cell in batch])
        finally:
            self.engine.on_result = None
            self.engine.on_failure = None
        if report.cache_hits:
            self.telemetry.event("service.dedup", shared=report.cache_hits,
                                 source="cache")

    def _cell_done(self, cell: _Cell, result: Any, cached: bool,
                   journal: bool = True) -> None:
        if cell.state not in ("queued", "running"):
            return
        cell.state = "done"
        cell.result = result
        if journal and self.journal is not None:
            # Durable before visible: the row may only reach a stream
            # after the outcome would survive a crash right here...
            self.journal.done(cell.digest)
        if journal and self.killable:
            # ...which is exactly where the kill fault point proves it.
            faults.maybe_kill(cell.job.label, self.generation)
        for camp, key in cell.waiters:
            camp.resolve(key, result)
            if cached:
                camp.cache_hits += 1
            self._notify(camp)
        cell.waiters.clear()
        # Late campaigns resolve from cell.result at submit time.

    def _cell_failed(self, cell: _Cell, failure: dict[str, Any],
                     journal: bool = True) -> None:
        if cell.state not in ("queued", "running"):
            return
        cell.state = "failed"
        cell.failure = failure
        if journal and self.journal is not None:
            self.journal.failed(cell.digest, failure)
        for camp, key in cell.waiters:
            camp.fail(key, dict(failure))
            self._notify(camp)
        cell.waiters.clear()

    def _notify(self, camp: _Campaign) -> None:
        async def _wake_streams() -> None:
            async with camp.cond:
                camp.cond.notify_all()
        asyncio.get_running_loop().create_task(_wake_streams())

    # -- HTTP --------------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        status = 500
        method = path = "-"
        try:
            method, path, query, body = await self._read_request(reader)
            status = await self._route(method, path, query, body, writer)
        except _HttpError as exc:
            status = exc.status
            await _send_json(writer, exc.status, {"error": exc.detail},
                             headers=exc.headers)
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                ConnectionError, asyncio.TimeoutError):
            status = 0   # client went away mid-request; nothing to send
        except Exception as exc:  # last-resort 500 boundary
            try:
                await _send_json(writer, 500,
                                 {"error": f"{type(exc).__name__}: {exc}"})
            except ConnectionError:
                pass
        finally:
            self.telemetry.event("service.request", method=method,
                                 path=path, status=status)
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> tuple[str, str, str, bytes]:
        head = await reader.readuntil(b"\r\n\r\n")
        if len(head) > _MAX_HEAD:
            raise _HttpError(431, "request head too large")
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            raise _HttpError(400, f"bad request line {lines[0]!r}") from None
        headers = {}
        for line in lines[1:]:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        length = _int_param(headers.get("content-length"), "Content-Length")
        if length > _MAX_BODY:
            raise _HttpError(413, "request body too large")
        body = await reader.readexactly(length) if length else b""
        path, _, query = target.partition("?")
        return method, path, query, body

    async def _route(self, method: str, path: str, query: str, body: bytes,
                     writer: asyncio.StreamWriter) -> int:
        params = urllib.parse.parse_qs(query)
        if path == "/v1/health":
            if method != "GET":
                raise _HttpError(405, f"{method} not allowed")
            report = HealthReport.from_server(self)
            await _send_json(writer, 200, report.to_json())
            return 200
        if path == "/v1/campaigns":
            if method != "POST":
                raise _HttpError(405, f"{method} not allowed")
            return await self._route_submit(params, body, writer)
        if path.startswith("/v1/campaigns/"):
            if method != "GET":
                raise _HttpError(405, f"{method} not allowed")
            rest = path[len("/v1/campaigns/"):]
            job_id, _, tail = rest.partition("/")
            camp = self._jobs.get(job_id)
            if camp is None or tail not in ("", "stream"):
                raise _HttpError(404, f"no such resource {path!r}")
            if tail == "stream":
                start = _int_param(params.get("from", [None])[-1],
                                   "'from' parameter")
                await self._stream(camp, writer, start=start)
                return 200
            await _send_json(writer, 200, camp.status().to_json())
            return 200
        raise _HttpError(404, f"no such resource {path!r}")

    async def _route_submit(self, params: dict[str, list[str]],
                            body: bytes,
                            writer: asyncio.StreamWriter) -> int:
        try:
            data = json.loads(body.decode() or "null")
            spec = CampaignSpec.from_json(data)
        except (SchemaError, ValueError) as exc:
            raise _HttpError(400, str(exc)) from None
        if params.get("attach", ["0"])[-1] not in ("", "0"):
            # Idempotent resubmission: a byte-identical spec attaches
            # to the live (or journal-recovered) job instead of
            # recomputing.  Read-only, so it works even while draining.
            jid = self._attach.get(stable_key(spec.to_json()))
            if jid is not None:
                await _send_json(writer, 200,
                                 self._jobs[jid].status().to_json())
                return 200
        if self.draining:
            raise _HttpError(
                503, "server is draining; retry against its successor",
                headers={"Retry-After": str(RETRY_AFTER)})
        if (self.max_queued_cells is not None
                and len(self._queue) >= self.max_queued_cells):
            raise _HttpError(
                429, f"queue full ({len(self._queue)} cells queued, "
                     f"limit {self.max_queued_cells}); retry later",
                headers={"Retry-After": str(RETRY_AFTER)})
        try:
            camp = self.submit(spec)
        except (KeyError, ValueError) as exc:
            # args[0]: a KeyError's str() would quote the message.
            raise _HttpError(400, exc.args[0]) from None
        await _send_json(writer, 200, camp.status().to_json())
        return 200

    async def _stream(self, camp: _Campaign, writer: asyncio.StreamWriter,
                      start: int = 0) -> None:
        """Chunked JSONL: replay stored rows, then follow to completion.

        ``start`` skips rows a resuming client already holds.  A drain
        unblocks the wait and sends the final (possibly non-``done``)
        status so clients know to reconnect to the next incarnation.
        """
        self._active_streams += 1
        try:
            writer.write(b"HTTP/1.1 200 OK\r\n"
                         b"Content-Type: application/jsonl\r\n"
                         b"Transfer-Encoding: chunked\r\n"
                         b"Connection: close\r\n\r\n")
            await writer.drain()
            sent = start
            async with camp.cond:
                while True:
                    while sent < len(camp.rows):
                        line = {"type": "row", **camp.rows[sent].to_json()}
                        await _send_chunk(writer, line)
                        if faults.maybe_drop(f"{camp.job_id}#row{sent}"):
                            # Injected network failure: sever the
                            # connection mid-stream, no final status.
                            writer.transport.abort()
                            return
                        sent += 1
                    if camp.done or self.draining:
                        break
                    await camp.cond.wait()
                final = {"type": "status", **camp.status().to_json()}
            await _send_chunk(writer, final)
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        finally:
            self._active_streams -= 1


class _HttpError(Exception):
    """An HTTP error response (status + JSON detail + extra headers)."""

    def __init__(self, status: int, detail: str,
                 headers: dict[str, str] | None = None) -> None:
        super().__init__(detail)
        self.status = status
        self.detail = detail
        self.headers = headers


def _int_param(raw: str | None, name: str) -> int:
    """A query parameter or header value as an int >= 0 (0 when absent
    or empty); anything else is a 400 naming ``name``."""
    try:
        value = int(raw or 0)
    except ValueError:
        raise _HttpError(400, f"bad {name} {raw!r}") from None
    if value < 0:
        raise _HttpError(400, f"{name} must be >= 0, got {value}")
    return value


_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            429: "Too Many Requests",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error", 503: "Service Unavailable"}


async def _send_json(writer: asyncio.StreamWriter, status: int, obj: Any,
                     headers: dict[str, str] | None = None) -> None:
    payload = json.dumps(obj).encode()
    reason = _REASONS.get(status, "Error")
    extra = "".join(f"{k}: {v}\r\n" for k, v in (headers or {}).items())
    writer.write(f"HTTP/1.1 {status} {reason}\r\n"
                 f"Content-Type: application/json\r\n"
                 f"Content-Length: {len(payload)}\r\n"
                 f"{extra}"
                 f"Connection: close\r\n\r\n".encode())
    writer.write(payload)
    await writer.drain()


async def _send_chunk(writer: asyncio.StreamWriter, obj: Any) -> None:
    line = json.dumps(obj).encode() + b"\n"
    writer.write(f"{len(line):x}\r\n".encode() + line + b"\r\n")
    await writer.drain()


def serve(server: CampaignServer) -> int:
    """Run ``server`` in the foreground (the ``repro serve`` CLI).

    Blocks until stopped.  The server is built by the caller, so a
    knob its constructor refuses raises before any socket is bound.
    SIGTERM / SIGINT trigger a graceful drain: stop admitting, finish
    the in-flight batch, flush streams, close.  Returns the process
    exit code — nonzero only when shutting down lost accepted state
    (:attr:`CampaignServer.data_loss`).
    """

    async def _main() -> None:
        await server.start()
        print(f"repro service listening on http://{server.host}:"
              f"{server.port} (schema v{SCHEMA_VERSION})", flush=True)
        loop = asyncio.get_running_loop()
        interrupted = asyncio.Event()
        hooked = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, interrupted.set)
                hooked.append(sig)
            except (NotImplementedError, RuntimeError):
                pass   # platform without loop signal support
        try:
            await interrupted.wait()
            print("repro service draining (finishing in-flight "
                  "batches)...", flush=True)
            await server.drain()
        finally:
            for sig in hooked:
                loop.remove_signal_handler(sig)
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass   # platforms where SIGINT could not be hooked
    return 1 if server.data_loss else 0


class ServiceHandle:
    """A campaign server running on a background thread (tests/bench).

    ``base_url`` is the bound address; :meth:`stop` shuts the server
    down and joins the thread, recording whether that succeeded in
    :attr:`stopped_cleanly`.  Context-manager friendly.
    """

    def __init__(self, server: CampaignServer,
                 loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread) -> None:
        self.server = server
        self.loop = loop
        self.thread = thread
        #: False once :meth:`stop` timed out joining the server thread
        #: (the thread is leaked, not silently forgotten).
        self.stopped_cleanly = True

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def drain(self, timeout: float = 60.0) -> None:
        """Run a graceful drain on the server loop and wait for it."""
        fut = asyncio.run_coroutine_threadsafe(self.server.drain(),
                                               self.loop)
        fut.result(timeout=timeout)

    def stop(self, timeout: float = 30.0) -> bool:
        """Shut the server down and join its thread.

        Returns ``True`` when the thread exited within ``timeout``;
        on a timeout the (daemon) thread is left running, a warning
        names it, and :attr:`stopped_cleanly` flips False — callers
        that care (CI teardown, benchmarks) can fail loudly instead
        of silently leaking an engine thread per iteration.
        """
        if self.thread.is_alive():
            def _stop() -> None:
                assert self.server._stopped is not None
                self.server._stopped.set()
            self.loop.call_soon_threadsafe(_stop)
            self.thread.join(timeout=timeout)
            if self.thread.is_alive():
                self.stopped_cleanly = False
                warnings.warn(
                    f"campaign server thread {self.thread.name!r} did "
                    f"not stop within {timeout:.0f}s; leaking a daemon "
                    f"thread (in-flight engine batch still running?)",
                    RuntimeWarning, stacklevel=2)
        return self.stopped_cleanly

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()


def serve_in_thread(**kw: Any) -> ServiceHandle:
    """Start a :class:`CampaignServer` on a daemon thread.

    Binds an ephemeral port unless ``port=`` says otherwise and returns
    once the socket is listening.  The in-process path used by the e2e
    tests and the benchmark's ``service`` workload.
    """
    started = threading.Event()
    box: dict[str, Any] = {}

    def _runner() -> None:
        async def _main() -> None:
            server = CampaignServer(**kw)
            await server.start()
            box["server"] = server
            box["loop"] = asyncio.get_running_loop()
            started.set()
            try:
                await server.wait_stopped()
            finally:
                await server.stop()
        try:
            asyncio.run(_main())
        except Exception as exc:   # pragma: no cover - startup failure
            box["error"] = exc
            started.set()

    thread = threading.Thread(target=_runner, name="repro-service",
                              daemon=True)
    thread.start()
    started.wait(timeout=30)
    if "error" in box:
        raise box["error"]
    if "server" not in box:
        raise RuntimeError("campaign server failed to start in time")
    return ServiceHandle(box["server"], box["loop"], thread)
