"""Benchmark workloads: what each one runs, why, and how a pass executes.

A *pass* runs one workload either until a deadline (the timed run:
``--trace 0``) or for a fixed quota (the two passes of a ``--trace 1``
run, whose ``model.*`` counters must therefore be exact functions of
the seed).  Grid workloads drive ``SweepEngine`` + ``sweep_grid`` the
way ``repro.api.sweep`` does, one mix per call, timing each cell through
the engine's ``on_result`` hook; the service workload drives
``serve_in_thread`` with closed-loop ``ServiceClient`` threads.  Every
simulated fast tier starts empty, and the engine excludes its warmup
fractions (0.25 CPU / 0.35 GPU of each trace) from simulated cycles.
"""

from __future__ import annotations

import math
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from repro import api
from repro.config import default_system
from repro.experiments.cache import SweepCache
from repro.experiments.designs import FIG5_DESIGNS, KVCACHE_DESIGNS
from repro.experiments.sweep import MixSpec, SweepEngine, sweep_grid
from repro.service.client import ServiceClient, ServiceError
from repro.service.schema import CampaignSpec, CellRow, SchemaError
from repro.service.server import serve_in_thread
from repro.traces.llm import LLM_MIX_NAMES
from repro.traces.mixes import ALL_MIXES

#: Priority class of each closed-loop service client (one thread each).
CLIENT_PRIORITIES = ("interactive", "batch")

#: Trace scale of the untimed warm cell of every set-up, and of --smoke.
SMALL_SCALE = 0.02


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Grid workloads run chunk ``i`` = ``mixes[i % len(mixes)]`` at seed
    ``S + i // len(mixes)`` under baseline + ``designs``, so a timed run
    never repeats a cell.  The service workload submits 2-cell campaigns
    (one mix x ``designs``) with a fresh seed each, so nothing dedups.
    ``quota`` is the work of one ``--trace`` pass (grid chunks, or
    campaigns per client); ``min_units`` floors the cells or campaigns
    of a timed run so its 75th percentile has >= 10 samples beyond it.
    """

    name: str
    why: str
    mixes: tuple[str, ...]
    designs: tuple[str, ...]
    scale: float
    quota: int
    min_units: int
    cache: bool = False
    service: bool = False

    def smoke(self) -> "Workload":
        """The self-test's variant: hydrogen only, tiny traces, one unit."""
        return replace(self, designs=self.designs[-1:], scale=SMALL_SCALE,
                       quota=1, min_units=1)

    def chunk(self, i: int, seed: int) -> tuple[str, int]:
        """Mix and seed of grid chunk ``i``."""
        return self.mixes[i % len(self.mixes)], seed + i // len(self.mixes)

    def campaign(self, client: int, k: int, seed: int) -> CampaignSpec:
        """Campaign ``k`` of service client ``client``."""
        mix = self.mixes[(k + 6 * client) % len(self.mixes)]
        return CampaignSpec(mixes=(mix,), designs=self.designs,
                            scale=self.scale,
                            seed=seed * 10_000 + client * 1_000 + k,
                            priority=CLIENT_PRIORITIES[client])


WORKLOADS = {w.name: w for w in (
    Workload("fig5",
             "the paper's headline grid: read-dominant SPEC+Rodinia mixes on "
             "the fast engine with a cold on-disk sweep cache",
             ALL_MIXES, FIG5_DESIGNS, scale=0.1, quota=3, min_units=40,
             cache=True),
    Workload("kvcache",
             "the same engine layers under write-heavy LLM KV-cache streams "
             "through the kv-* policy hooks, cache off",
             LLM_MIX_NAMES, KVCACHE_DESIGNS, scale=0.1, quota=4,
             min_units=40),
    Workload("fullscale",
             "full-length traces, the only workload where the online tuner "
             "and reconfigurator act; per-cell fixed costs vanish",
             ("C1", "C5", "C8", "C11"), ("hydrogen-dp-token", "hydrogen"),
             scale=1.0, quota=1, min_units=6),
    Workload("service",
             "campaign server with journal: HTTP/JSON, fair queue, lock-step "
             "batch engine and per-cell fsync under two closed-loop clients",
             ALL_MIXES, ("hydrogen",), scale=0.02, quota=8, min_units=40,
             service=True),
)}


@dataclass
class Cell:
    """One simulated cell as the grid pass saw it."""

    mix: MixSpec
    design: str
    result: Any
    dt: float
    end: float


@dataclass
class Campaign:
    """One service campaign as its client saw it."""

    client: int
    spec: CampaignSpec
    submit: float
    first_row: float | None = None
    end: float = 0.0
    rows: list[CellRow] = field(default_factory=list)
    final: Any = None
    error: str | None = None


@dataclass
class Pass:
    """Outcome of one pass over a workload."""

    start: float
    wall: float = 0.0
    #: Seconds inside the pass spent on the benchmark's own canary.
    paused: float = 0.0
    cells: list[Cell] = field(default_factory=list)
    campaigns: list[Campaign] = field(default_factory=list)
    #: SimResults behind the model counters (grid cells / service cells).
    results: list[Any] = field(default_factory=list)
    #: Hydrogen's weighted speedup over baseline, one per mix run.
    speedups: list[float] = field(default_factory=list)
    failed: int = 0

    @property
    def latencies(self) -> list[float]:
        """Per-unit wall times: cell ``dt``, or submit to final status."""
        if self.campaigns:
            return [c.end - c.submit for c in self.campaigns]
        return [c.dt for c in self.cells]

    def mix_specs(self) -> list[MixSpec]:
        """The mix of every completed cell (one entry per cell)."""
        if self.campaigns:
            return [MixSpec(row.mix, scale=c.spec.scale, seed=c.spec.seed)
                    for c in self.campaigns for row in c.rows]
        return [c.mix for c in self.cells]


class _Deadline(Exception):
    """Raised from the timing hook to end a timed grid pass."""


def warm_cell(w: Workload, seed: int, scratch: Path) -> None:
    """A grid's untimed set-up cell: baseline on its first mix."""
    runner = SweepEngine(workers=1,
                         cache=SweepCache(scratch) if w.cache else None)
    sweep_grid([w.mixes[0]], (), default_system(), scale=SMALL_SCALE,
               seed=seed, runner=runner, engine="fast")


def grid_pass(w: Workload, seed: int, *, scratch: Path,
              deadline: float | None = None, between=None) -> Pass:
    """Run grid chunks until ``deadline`` (and ``w.min_units`` cells),
    or ``w.quota`` chunks without a deadline; ``scratch`` holds a fresh
    cache when the workload caches.  ``between()`` runs after each cell
    and returns the seconds it took, which the pass's wall leaves out."""
    cfg = default_system()
    cache = SweepCache(scratch / "cache") if w.cache else None
    out = Pass(start=time.perf_counter())

    def on_result(job, res, dt: float) -> None:
        now = time.perf_counter()
        out.cells.append(Cell(job.mix, job.design, res, dt, now))
        out.results.append(res)
        if deadline is not None and now >= deadline \
                and len(out.cells) >= w.min_units:
            raise _Deadline
        if between is not None:
            out.paused += between()

    def on_failure(job, failure) -> None:
        out.failed += 1

    i = 0
    try:
        while deadline is not None or i < w.quota:
            mix, chunk_seed = w.chunk(i, seed)
            runner = SweepEngine(workers=1, cache=cache, failures="collect",
                                 on_result=on_result, on_failure=on_failure)
            grid = sweep_grid([mix], w.designs, cfg, scale=w.scale,
                              seed=chunk_seed, runner=runner, engine="fast")
            out.speedups.extend(c.weighted_speedup
                                for c in grid.get("hydrogen", {}).values())
            i += 1
    except _Deadline:
        pass
    out.wall = (out.cells[-1].end if out.cells else time.perf_counter()) \
        - out.start - out.paused
    return out


class RecordingCache(SweepCache):
    """The journal's own result store, also remembering what it stores.

    Points at ``<journal>/cache`` exactly like the store the server
    builds for itself, so the served configuration is unchanged; the
    recorded results give the service workload its model counters.
    """

    def __init__(self, root: Path) -> None:
        super().__init__(root)
        self.stored: list[Any] = []

    def put(self, key: str, value) -> bool:
        self.stored.append(value)
        return super().put(key, value)


class Server:
    """A journaled campaign server for one pass (``workers=1``)."""

    def __init__(self, journal: Path) -> None:
        self.cache = RecordingCache(journal / "cache")
        self.handle = serve_in_thread(port=0, workers=1, journal=journal,
                                      cache=self.cache)
        ServiceClient(self.handle.host, self.handle.port).wait_ready()

    def client(self) -> ServiceClient:
        return ServiceClient(self.handle.host, self.handle.port,
                             timeout=60.0)

    def stop(self) -> bool:
        return self.handle.stop()


def run_campaign(client: ServiceClient, spec: CampaignSpec,
                 index: int) -> Campaign:
    """Submit ``spec`` and stream it to its final status line."""
    rec = Campaign(client=index, spec=spec, submit=time.perf_counter())
    try:
        status = client.submit(spec)
        for row in client.stream(status.job_id):
            if rec.first_row is None:
                rec.first_row = time.perf_counter()
            rec.rows.append(row)
        rec.final = client.last_status
    except (ServiceError, SchemaError, OSError) as exc:
        rec.error = f"{type(exc).__name__}: {exc}"
    rec.end = time.perf_counter()
    return rec


def warm_campaign(w: Workload, server: Server, seed: int) -> None:
    """The untimed set-up campaign (a seed no timed campaign uses)."""
    spec = replace(w.campaign(0, 0, seed), scale=SMALL_SCALE,
                   seed=seed * 10_000 + 9_999)
    run_campaign(server.client(), spec, 0)


def service_pass(w: Workload, seed: int, server: Server, *,
                 deadline: float | None = None) -> Pass:
    """Closed-loop clients against ``server`` until ``deadline`` (and
    ``w.min_units`` campaigns), or ``w.quota`` campaigns each without a
    deadline."""
    out = Pass(start=time.perf_counter())
    stored_before = len(server.cache.stored)
    lock = threading.Lock()

    def loop(index: int) -> None:
        client = server.client()
        k = 0
        while deadline is not None or k < w.quota:
            if deadline is not None and time.perf_counter() >= deadline \
                    and len(out.campaigns) >= w.min_units:
                return
            rec = run_campaign(client, w.campaign(index, k, seed), index)
            with lock:
                out.campaigns.append(rec)
            k += 1

    def guarded(index: int) -> None:
        try:
            loop(index)
        except Exception as exc:  # a client thread must report, not die
            with lock:
                out.failed += 1
            print(f"bench: client {index} crashed: {exc!r}",
                  file=sys.stderr, flush=True)

    threads = [threading.Thread(target=guarded, args=(i,),
                                name=f"bench-client-{i}")
               for i in range(len(CLIENT_PRIORITIES))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=150)
        if t.is_alive():
            out.failed += 1
    ends = [c.end for c in out.campaigns]
    out.wall = (max(ends) if ends else time.perf_counter()) - out.start
    out.results = list(server.cache.stored[stored_before:])
    out.speedups = [row.weighted_speedup for c in out.campaigns
                    for row in c.rows if row.design == "hydrogen"]
    return out


def check_grid(p: Pass, w: Workload, inject: bool) -> int:
    """Rerun fixed cells on the reference engine; returns mismatches.

    The first, middle and last cell in submission order (on fullscale
    only the cheapest, by simulated accesses) must equal their
    reference replay field for field.
    """
    if not p.cells:
        return 1
    if w.name == "fullscale":
        picked = [min(p.cells, key=lambda c: _accesses(c.result))]
    else:
        n = len(p.cells)
        picked = [p.cells[i] for i in sorted({0, n // 2, n - 1})]
    bad = 0
    for k, cell in enumerate(picked):
        ref = api.simulate(mix=cell.mix.name, design=cell.design,
                           scale=cell.mix.scale, seed=cell.mix.seed,
                           engine="reference")
        got = cell.result
        if inject and k == 0:
            got = replace(got, elapsed=got.elapsed + 1.0)
        bad += ref != got
    return bad


def check_service(p: Pass, inject: bool) -> int:
    """Per-campaign, per-row and reference checks; returns failed cells.

    A campaign fails when it errored, did not end ``done``, lost or
    failed cells, has a row that does not survive the JSON round trip,
    or — for each client's first campaign — differs from the rows of
    ``api.sweep(engine="batch", cache=None)``.
    """
    failed = 0
    firsts = {}
    for rec in p.campaigns:
        firsts.setdefault(rec.client, rec)
    for rec in p.campaigns:
        rows = list(rec.rows)
        if inject and rec is p.campaigns[0] and rows:
            rows[0] = replace(rows[0], weighted_speedup=math.pi)
        ok = (rec.error is None and rec.final is not None
              and rec.final.state == "done" and not rec.final.failures
              and len(rows) == rec.final.total_cells
              and all(CellRow.from_json(r.to_json()) == r for r in rows))
        if ok and firsts.get(rec.client) is rec:
            spec = rec.spec
            ref = api.sweep(mixes=spec.mixes, designs=spec.designs,
                            scale=spec.scale, seed=spec.seed,
                            engine="batch", cache=None).rows()
            ok = _sorted_rows(ref) == _sorted_rows(rows)
        failed += 0 if ok else len(rec.spec.cells())
    return failed


def _sorted_rows(rows):
    return sorted(rows, key=lambda r: (r.design, r.mix))


def _accesses(res) -> float:
    return res.stats.get("cpu.accesses", 0.0) \
        + res.stats.get("gpu.accesses", 0.0)
