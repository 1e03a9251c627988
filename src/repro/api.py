"""Stable keyword-only facade over the simulation and sweep machinery.

This module is the supported entry point for programmatic use.  Every
function takes keyword-only arguments, accepts mixes by name (Table II,
LLM or a custom ``"cpu1-cpu2:gpu"`` spec) or as built
:class:`~repro.traces.mixes.WorkloadMix` objects, and defaults
to the fast engine, which is bit-exact with the reference event loop
(see docs/api.md).

Quick tour::

    from repro import api

    res = api.simulate(mix="C1", design="hydrogen", scale=0.05)
    grid = api.sweep(mixes=("C1", "C2"), designs=("hydrogen",), scale=0.05)
    per = api.compare(mix="C1", designs=("hydrogen", "waypart"), scale=0.05)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SystemConfig
from repro.engine.simulator import ENGINES, SimResult, resolve_engine
from repro.experiments.designs import FIG5_DESIGNS
from repro.experiments.runner import (ComboResult, env_scale, geomean,
                                      run_design)
from repro.experiments.resilience import (JobFailure, RetryPolicy,
                                          SweepReport)
from repro.experiments.sweep import SweepEngine, corun_grid, sweep_grid
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
    """A mix name becomes a built mix; a built mix passes through."""
    if isinstance(mix, str):
        return build_mix(mix, scale=_resolve_scale(scale), seed=seed)
    return mix


def simulate(*, mix: str | WorkloadMix, design: str = "hydrogen",
             cfg: SystemConfig | None = None, engine: str = "fast",
             scale: float | None = None, seed: int = 7,
             native_geometry: bool = True, sanitize: bool = False,
             **sim_kw) -> SimResult:
    """Run one design on one mix; returns a :class:`SimResult`.

    ``mix`` is a mix name (built with ``scale``/``seed``; ``scale``
    ``None`` defers to ``$REPRO_SCALE``) or an already-built
    :class:`~repro.traces.mixes.WorkloadMix`.  ``design`` is a registry
    name or a policy instance.  ``engine`` selects the simulation core:
    ``"fast"`` (the default, bit-exact with ``"reference"``; ``"batch"``
    is its one-release alias) or ``"reference"``.  ``sanitize=True``
    replays the run on the reference engine with boundary-state digests
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
                      native_geometry=native_geometry, engine=eng,
                      **sim_kw)


@dataclass(frozen=True)
class SweepResult:
    """Typed result of :func:`sweep`: the full (design x mix) grid.

    ``grid`` maps ``design -> {mix_name -> ComboResult}`` with
    ``"baseline"`` first; ``report`` is the engine's
    :class:`~repro.experiments.resilience.SweepReport` for the grid: its
    cache and job counters, and the per-job failure records when
    ``failures="collect"`` let the sweep outlive failing cells.
    """

    grid: dict[str, dict[str, ComboResult]]
    mixes: tuple[str, ...]
    designs: tuple[str, ...]
    report: SweepReport

    @property
    def ok(self) -> bool:
        """True when every cell of the grid simulated successfully."""
        return self.report.ok

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
          cfg: SystemConfig | None = None, engine: str = "fast",
          scale: float | None = None, seed: int = 7,
          native_geometry: bool = True, jobs: int | None = None,
          cache=None, progress=None, trace_dir: str | None = None,
          retry: "RetryPolicy | int | None" = None,
          job_timeout: float | None = None, failures: str = "raise",
          **sim_kw) -> SweepResult:
    """Baseline + ``designs`` on every mix, as one batched grid.

    Mixes are names, :class:`~repro.experiments.sweep.MixSpec` recipes
    or built mixes; the whole grid (shared baselines included) goes
    through one :class:`~repro.experiments.sweep.SweepEngine` batch, so
    ``jobs`` fans cells out across processes and ``cache`` recalls
    previously simulated cells from disk (cached cells are shared
    across engines).  ``trace_dir`` streams one telemetry JSONL per
    simulated cell.  Returns a :class:`SweepResult`.

    Resilience (docs/robustness.md): ``retry`` re-runs failed cells
    (an int retry count or a :class:`RetryPolicy`), ``job_timeout``
    bounds each cell's wall clock, and ``failures="collect"`` records
    unrecoverable cells on ``SweepResult.report.failures`` instead of
    aborting the grid.
    """
    resolve_engine(engine)
    runner = SweepEngine(workers=jobs, cache=cache, progress=progress,
                         retry=retry, job_timeout=job_timeout,
                         failures=failures)
    grid = sweep_grid(list(mixes), tuple(designs), cfg,
                      scale=_resolve_scale(scale), seed=seed,
                      native_geometry=native_geometry, runner=runner,
                      trace_dir=trace_dir, engine=engine, **sim_kw)
    first = next(iter(grid.values()), {})
    return SweepResult(grid=grid, mixes=tuple(first), designs=tuple(grid),
                       report=runner.report)


def compare(*, mix: str | WorkloadMix, designs: tuple[str, ...],
            **kw) -> dict[str, ComboResult]:
    """Baseline + ``designs`` on one mix, normalized to the baseline.

    :func:`sweep` on the single mix, taking the same keywords; returns
    ``{design: ComboResult}`` with ``"baseline"`` first.  Under
    ``failures="collect"`` failed designs are absent from the mapping.
    """
    grid = sweep(mixes=[mix], designs=designs, **kw).grid
    return {design: combo for design, by_mix in grid.items()
            for combo in by_mix.values()}


def corun(*, mix: str | WorkloadMix, design: str = "baseline",
          cfg: SystemConfig | None = None, engine: str = "fast",
          scale: float | None = None, seed: int = 7, jobs: int | None = None,
          cache=None, progress=None,
          retry: "RetryPolicy | int | None" = None,
          job_timeout: float | None = None, failures: str = "raise",
          **sim_kw) -> dict[str, float]:
    """Fig. 2(a): per-class slowdown of co-running vs running alone.

    ``design`` is a registry name.  Returns ``{"slowdown_cpu",
    "slowdown_gpu", "corun_cycles_cpu", "corun_cycles_gpu"}``; absent
    classes report NaN, and so does a mix whose co-run cell failed
    under ``failures="collect"``.  The ``jobs`` / ``cache`` /
    ``progress`` / ``retry`` / ``job_timeout`` / ``failures`` knobs
    behave as in :func:`sweep`.
    """
    resolve_engine(engine)
    runner = SweepEngine(workers=jobs, cache=cache, progress=progress,
                         retry=retry, job_timeout=job_timeout,
                         failures=failures)
    out = corun_grid([mix], cfg, design=design,
                     scale=_resolve_scale(scale), seed=seed, runner=runner,
                     engine=engine, **sim_kw)
    return next(iter(out.values()), {"slowdown_cpu": float("nan"),
                                     "slowdown_gpu": float("nan"),
                                     "corun_cycles_cpu": None,
                                     "corun_cycles_gpu": None})
