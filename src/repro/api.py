"""Stable keyword-only facade over the simulation and sweep machinery.

This module is the supported entry point for programmatic use.  Every
function takes keyword-only arguments, accepts mixes by Table II name or
as built :class:`~repro.traces.mixes.WorkloadMix` objects, and defaults
to the vectorized fast-path engine; ``engine="batch"`` selects the
fused-interpreter batch engine instead (both bit-exact with the
reference event loop — see docs/api.md).

Quick tour::

    from repro import api

    res = api.simulate(mix="C1", design="hydrogen", scale=0.05)
    grid = api.sweep(mixes=("C1", "C2"), designs=("hydrogen",), scale=0.05)
    per = api.compare(mix="C1", designs=("hydrogen", "waypart"), scale=0.05)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SystemConfig, default_system
from repro.engine.simulator import ENGINES, SimResult, resolve_engine
from repro.experiments.designs import FIG5_DESIGNS
from repro.experiments.runner import (ComboResult, compare_on_mix,
                                      corun_metrics, env_scale, geomean,
                                      run_design)
from repro.experiments.resilience import (JobFailure, RetryPolicy,
                                          SweepReport)
from repro.experiments.sweep import SweepEngine, SweepStats, sweep_grid
from repro.service.schema import CellRow
from repro.traces.mixes import WorkloadMix, build_mix

__all__ = ["simulate", "sweep", "compare", "corun", "SweepResult",
           "SimResult", "ComboResult", "CellRow", "ENGINES",
           "RetryPolicy", "JobFailure", "SweepReport"]


def _resolve_scale(scale: float | None) -> float:
    """Explicit ``scale`` wins; ``None`` defers to ``$REPRO_SCALE`` / 1.0."""
    return scale if scale is not None else env_scale()


def coerce_mix(mix: str | WorkloadMix, scale: float | None,
               seed: int) -> WorkloadMix:
    """A Table II name becomes a built mix; a built mix passes through."""
    if isinstance(mix, str):
        return build_mix(mix, scale=_resolve_scale(scale), seed=seed)
    return mix


def simulate(*, mix: str | WorkloadMix, design: str = "hydrogen",
             cfg: SystemConfig | None = None, engine: str | None = "fast",
             scale: float | None = None, seed: int = 7,
             native_geometry: bool = True, sanitize: bool = False,
             **sim_kw) -> SimResult:
    """Run one design on one mix; returns a :class:`SimResult`.

    ``mix`` is a Table II name (built with ``scale``/``seed``; ``scale``
    ``None`` defers to ``$REPRO_SCALE``) or an already-built
    :class:`~repro.traces.mixes.WorkloadMix`.  ``design`` is a registry
    name or a policy instance.  ``engine`` selects the simulation core:
    ``"fast"`` (the default) and ``"batch"`` (the fused-interpreter
    batch engine of :mod:`repro.engine.batch`; a single simulation runs
    as a one-cell batch) are both bit-exact with ``"reference"``;
    ``None`` defers to ``$REPRO_ENGINE``.  ``sanitize=True`` replays
    the run on the reference engine with boundary-state digests
    (:mod:`repro.sanitize`) and raises
    :class:`~repro.sanitize.DivergenceError` localizing the first
    divergent (boundary, component) if the engines disagree (registry-
    name designs only — a policy instance cannot be rebuilt for the
    reference replay).  Extra keywords — e.g. ``telemetry=`` or a
    ``sanitize=`` :class:`~repro.sanitize.StateRecorder` on the
    simulator — pass through to the simulator.
    """
    eng = resolve_engine(engine)  # fail fast on typos, pre-mix-build
    built = coerce_mix(mix, scale, seed)
    if sanitize is True:
        from repro.sanitize import (DivergenceError, StateRecorder,
                                    first_divergence)
        if not isinstance(design, str):
            raise ValueError("sanitize=True needs a registry-name design "
                             "(a policy instance cannot be rebuilt for "
                             "the reference replay)")
        rec = StateRecorder()
        res = run_design(design, built, cfg,
                         native_geometry=native_geometry,
                         engine=eng, sanitize=rec, **sim_kw)
        if eng != "reference":
            ref = StateRecorder()
            run_design(design, built, cfg,
                       native_geometry=native_geometry,
                       engine="reference", sanitize=ref, **sim_kw)
            div = first_divergence(ref.records, rec.records,
                                   "reference", eng)
            if div is not None:
                raise DivergenceError(div)
        return res
    return run_design(design, built, cfg,
                      native_geometry=native_geometry, engine=engine,
                      **sim_kw)


@dataclass(frozen=True)
class SweepResult:
    """Typed result of :func:`sweep`: the full (design x mix) grid.

    ``grid`` maps ``design -> {mix_name -> ComboResult}`` with
    ``"baseline"`` first; ``stats`` carries the engine's cache/parallel
    counters for reporting.
    """

    grid: dict[str, dict[str, ComboResult]]
    mixes: tuple[str, ...]
    designs: tuple[str, ...]
    stats: SweepStats
    #: Per-job failure records when ``failures="collect"`` let the sweep
    #: outlive failing cells (empty on a fully successful run).
    failures: tuple[JobFailure, ...] = ()

    @property
    def ok(self) -> bool:
        """True when every cell of the grid simulated successfully."""
        return not self.failures

    def geomean_speedups(self) -> dict[str, float]:
        """Per-design geometric-mean weighted speedup across the mixes."""
        return {design: geomean(c.weighted_speedup for c in by_mix.values())
                for design, by_mix in self.grid.items()}

    def rows(self) -> list[CellRow]:
        """Flat per-cell rows in the versioned schema-v1 vocabulary.

        Returns :class:`~repro.service.schema.CellRow` dataclasses —
        the same objects ``report.perf_csv_rows`` consumes and the
        campaign server streams.
        """
        return [CellRow.from_combo(design, mix_name, combo)
                for design, by_mix in self.grid.items()
                for mix_name, combo in by_mix.items()]


def sweep(*, mixes, designs: tuple[str, ...] = FIG5_DESIGNS,
          cfg: SystemConfig | None = None, engine: str | None = "fast",
          scale: float | None = None, seed: int = 7,
          native_geometry: bool = True, jobs: int | None = None,
          cache=None, progress=None, trace_dir: str | None = None,
          retry: "RetryPolicy | int | None" = None,
          job_timeout: float | None = None, failures: str = "raise",
          sweep_telemetry=None, **sim_kw) -> SweepResult:
    """Baseline + ``designs`` on every mix, as one batched grid.

    Mixes are names or built mixes; the whole grid (shared baselines
    included) goes through one :class:`~repro.experiments.sweep.
    SweepEngine` batch, so ``jobs`` fans cells out across processes and
    ``cache`` recalls previously simulated cells from disk.  With
    ``engine="batch"`` the engine hands whole shards of the grid to one
    lock-step :class:`~repro.engine.batch.BatchSimulation` per worker
    instead of dispatching cells one by one (bit-exact either way;
    cached cells are shared across engines).  ``trace_dir`` streams one
    telemetry JSONL per simulated cell.  Returns a :class:`SweepResult`.

    Resilience (docs/robustness.md): ``retry`` re-runs failed cells
    (an int retry count or a :class:`RetryPolicy`), ``job_timeout``
    bounds each cell's wall clock, and ``failures="collect"`` records
    unrecoverable cells on ``SweepResult.failures`` instead of aborting
    the grid.  ``sweep_telemetry`` receives the engine's ``sweep.*``
    recovery events (distinct from per-cell simulation telemetry).
    """
    resolve_engine(engine)
    cfg = cfg or default_system()
    runner = SweepEngine(workers=jobs, cache=cache, progress=progress,
                         retry=retry, job_timeout=job_timeout,
                         failures=failures, telemetry=sweep_telemetry)
    grid = sweep_grid(list(mixes), tuple(designs), cfg,
                      scale=_resolve_scale(scale), seed=seed,
                      native_geometry=native_geometry, runner=runner,
                      trace_dir=trace_dir, engine=engine, **sim_kw)
    first = next(iter(grid.values()), {})
    report = runner.report
    return SweepResult(grid=grid, mixes=tuple(first),
                       designs=tuple(grid), stats=runner.stats,
                       failures=report.failures if report else ())


def compare(*, mix: str | WorkloadMix, designs: tuple[str, ...],
            cfg: SystemConfig | None = None, engine: str | None = "fast",
            scale: float | None = None, seed: int = 7,
            jobs: int | None = None, cache=None, progress=None,
            trace_dir: str | None = None,
            retry: "RetryPolicy | int | None" = None,
            job_timeout: float | None = None, failures: str = "raise",
            **sim_kw) -> dict[str, ComboResult]:
    """Baseline + ``designs`` on one mix, normalized to the baseline.

    A thin single-mix convenience over :func:`sweep`; returns
    ``{design: ComboResult}`` with ``"baseline"`` first.  The
    ``retry`` / ``job_timeout`` / ``failures`` knobs behave as in
    :func:`sweep`; under ``"collect"`` failed designs are absent from
    the mapping.
    """
    resolve_engine(engine)
    return compare_on_mix(coerce_mix(mix, scale, seed), tuple(designs),
                          cfg, jobs=jobs, cache=cache, progress=progress,
                          trace_dir=trace_dir, retry=retry,
                          job_timeout=job_timeout, failures=failures,
                          engine=engine, **sim_kw)


def corun(*, mix: str | WorkloadMix, design="baseline",
          cfg: SystemConfig | None = None, engine: str | None = "fast",
          scale: float | None = None, seed: int = 7, jobs: int | None = None,
          cache=None, progress=None,
          retry: "RetryPolicy | int | None" = None,
          job_timeout: float | None = None, failures: str = "raise",
          **sim_kw) -> dict[str, float]:
    """Fig. 2(a): per-class slowdown of co-running vs running alone.

    ``design`` is a registry name or a zero-argument policy factory.
    Returns ``{"slowdown_cpu", "slowdown_gpu", "corun_cycles_cpu",
    "corun_cycles_gpu"}``; absent classes report NaN.  The ``retry`` /
    ``job_timeout`` / ``failures`` knobs behave as in :func:`sweep`
    (registry-name designs only — factories run serially without the
    sweep engine).
    """
    resolve_engine(engine)
    if isinstance(design, str):
        return corun_metrics(coerce_mix(mix, scale, seed), cfg, design,
                             jobs=jobs, cache=cache, progress=progress,
                             retry=retry, job_timeout=job_timeout,
                             failures=failures, engine=engine, **sim_kw)
    return corun_metrics(coerce_mix(mix, scale, seed), cfg, design,
                         jobs=jobs, cache=cache, progress=progress,
                         engine=engine, **sim_kw)

