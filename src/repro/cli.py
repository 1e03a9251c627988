"""Command-line interface: ``python -m repro <command>``.

The CLI mirrors the paper artifact's three tasks: trace generation (T1),
simulation (T2), and result extraction (T3), plus figure regeneration.

Commands
--------
``run``      simulate one design on one mix (or custom mix spec)
``compare``  run several designs on one mix, normalized to the baseline
``sweep``    run a (mixes x designs) grid through the parallel, cached
             sweep engine with progress reporting
``trace``    run one design with epoch telemetry on and print the epoch
             timeline + tuner/reconfig decision events
``fig``      regenerate one of the paper's figures/tables
``traces``   generate and save the traces of a mix (artifact T1)
``config``   dump the (possibly overridden) system configuration as JSON
``report``   summarize a perf.csv (task T3): geomean weighted speedup per
             design
``designs``  list available designs and workloads
``lint``     run the AST invariant linter (docs/analysis.md) over paths
``sanitize`` replay engines with boundary-state digests and report the
             first divergent (epoch, channel, component)
             (docs/sanitize.md)
``serve``    run the async campaign server in the foreground
             (docs/service.md)
``submit``   submit a campaign to a running server and stream its rows

``run``/``compare``/``sweep`` additionally take ``--trace PATH|DIR`` to
stream per-run telemetry JSONL (schema: docs/telemetry.md).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import NoReturn

from repro import api, faults
from repro.analysis import default_rules, rules_by_id, run_rules
from repro.config import default_system, hbm3
from repro.config_io import apply_overrides, config_from_json, config_to_json
from repro.engine.simulator import ENGINES, resolve_engine
from repro.experiments import figures
from repro.experiments.cache import SweepCache, resolve_cache
from repro.experiments.designs import (ALL_DESIGNS, FIG5_DESIGNS,
                                       check_design)
from repro.experiments.report import (PERF_HEADERS, epoch_table,
                                      format_events, format_table,
                                      perf_csv_rows, to_csv)
from repro.experiments.resilience import resolve_retry, resolve_timeout
from repro.experiments.runner import geomean, weighted_speedup
from repro.experiments.sweep import MixSpec, SweepEngine
from repro.service.queue import PRIORITIES
from repro.service.server import DEFAULT_PORT
from repro.telemetry import EpochRecorder, JsonlSink, TeeSink
from repro.traces.cpu import CPU_SPECS
from repro.traces.gpu import GPU_SPECS
from repro.traces.io import save_mix
from repro.traces.llm import LLM_MIX_NAMES, LLM_SPECS
from repro.traces.mixes import ALL_MIXES, check_scale, check_seed


def _usage_error(args, message: str) -> NoReturn:
    """Exit 2, the status argparse gives a usage error, after one
    ``repro <cmd>: <message>`` line on stderr; 1 stays the status of
    lint findings, failed cells and service errors."""
    print(f"repro {args.command}: {message}", file=sys.stderr)
    raise SystemExit(2)


def _load_cfg(args) -> "SystemConfig":
    """The system config from ``--config``, ``--hbm3`` and ``--set``; a
    missing file, an unknown key or an invalid value is a usage error."""
    try:
        cfg = config_from_json(args.config) if args.config \
            else default_system()
        if args.hbm3:
            cfg = cfg.with_fast(hbm3())
        overrides = {}
        for item in args.set or []:
            key, eq, value = item.partition("=")
            if not eq:
                raise ValueError(f"--set expects key=value, got {item!r}")
            try:
                overrides[key] = json.loads(value)
            except ValueError:
                raise ValueError(f"--set {item}: the value is not "
                                 f"JSON") from None
        return apply_overrides(cfg, overrides) if overrides else cfg
    except (OSError, KeyError, ValueError) as exc:
        # str() of a KeyError quotes its message.
        _usage_error(args, exc.args[0] if isinstance(exc, KeyError)
                     else str(exc))


def _mix_specs(args, mixes, designs=()) -> list[MixSpec]:
    """Recipes for ``mixes`` at ``--scale``/``--seed``, every mix and
    design name checked first: an unknown one is a usage error naming
    the known ones, raised before anything simulates."""
    try:
        for design in designs:
            check_design(design)
        return [MixSpec(m, scale=args.scale, seed=args.seed) for m in mixes]
    except KeyError as exc:
        _usage_error(args, exc.args[0])


def _build_mix(args):
    return _mix_specs(args, [args.mix])[0].build()


def _resolve_cli_cache(args, *, default_on: bool):
    """Cache setting from --no-cache / --cache / --cache-dir flags."""
    if args.no_cache:
        return None
    if args.cache_dir:
        return args.cache_dir
    if args.cache or default_on:
        return True
    return None


def _check_resilience(args) -> None:
    """A negative ``--retries``, or a ``--timeout`` that is negative or
    too large to arm, is a usage error, found by the sweep engine's own
    checks before any cell runs."""
    try:
        resolve_retry(args.retries)
        resolve_timeout(args.timeout)
    except ValueError as exc:
        _usage_error(args, str(exc))


def _run_grid(args, specs, designs, cache, progress=None):
    """``api.sweep`` of ``specs`` x ``designs`` for ``compare`` and
    ``sweep``: their config, engine and resilience flags, under the
    ``--faults`` plan while it runs."""
    cfg = _load_cfg(args)
    try:
        prev = faults.install(args.faults) if args.faults else None
    except faults.FaultSpecError as exc:
        _usage_error(args, f"--faults: {exc}")
    try:
        return api.sweep(
            mixes=specs, designs=designs, cfg=cfg, engine=args.engine,
            scale=args.scale, seed=args.seed, jobs=args.jobs, cache=cache,
            progress=progress, trace_dir=args.trace, retry=args.retries,
            job_timeout=args.timeout,
            failures="collect" if args.collect_failures else "raise")
    finally:
        if args.faults:
            faults.install(prev)


def _print_failures(failures) -> None:
    for f in failures:
        print(f"FAILED {f.label}: {f.error} "
              f"[{f.kind}, {f.attempts} attempt(s)]")


def cmd_run(args) -> int:
    cfg = _load_cfg(args)
    mix = _build_mix(args)
    sim_kw = {}
    sink = None
    if args.trace:
        sink = JsonlSink(args.trace, meta={"design": args.design,
                                           "mix": mix.name,
                                           "seed": args.seed})
        sim_kw["telemetry"] = sink
    try:
        res = api.simulate(mix=mix, design=args.design, cfg=cfg,
                           engine=args.engine, **sim_kw)
    finally:
        if sink is not None:
            sink.close()
    out = {
        "mix": res.mix, "design": res.policy,
        "cycles_cpu": res.cycles_cpu, "cycles_gpu": res.cycles_gpu,
        "ipc_cpu": round(res.ipc_cpu, 4), "ipc_gpu": round(res.ipc_gpu, 4),
        "hit_rate_cpu": round(res.hit_rate("cpu"), 4),
        "hit_rate_gpu": round(res.hit_rate("gpu"), 4),
        "energy_uj": round(res.energy.total_nj / 1e3, 2),
        "policy_state": res.policy_state,
    }
    print(json.dumps(out, indent=2))
    return 0


def cmd_compare(args) -> int:
    _check_resilience(args)
    designs = tuple(args.designs.split(",")) if args.designs else FIG5_DESIGNS
    # One-mix sweep, so its cells are shared with `sweep`.
    res = _run_grid(args, _mix_specs(args, [args.mix], designs), designs,
                    _resolve_cli_cache(args, default_on=False))
    out = {design: combo for design, by_mix in res.grid.items()
           for combo in by_mix.values()}
    rows = [[name, c.weighted_speedup, c.speedup_cpu, c.speedup_gpu,
             c.result.hit_rate("cpu"), c.result.hit_rate("gpu")]
            for name, c in out.items()]
    print(format_table(
        ["design", "weighted", "CPU", "GPU", "cpu hit", "gpu hit"], rows))
    missing = [d for d in ("baseline",) + designs if d not in out]
    if missing:
        print(f"missing (failed) designs: {', '.join(missing)}")
    _print_failures(res.report.failures)
    return 1 if missing else 0


def cmd_sweep(args) -> int:
    """Run a (mixes x designs) grid through the sweep engine (cached by
    default) and print the Fig. 5-style table plus the run's report."""
    _check_resilience(args)
    if args.chaos is not None:
        return _run_chaos(args)
    cache = resolve_cache(_resolve_cli_cache(args, default_on=True))
    if args.clear_cache:
        target = cache or SweepCache()
        print(f"cleared {target.clear()} cached result(s) from {target.root}")
        if not args.mixes and not args.designs:
            return 0  # bare --clear-cache: don't launch the full default grid

    mixes = args.mixes.split(",") if args.mixes else list(ALL_MIXES)
    designs = tuple(args.designs.split(",")) if args.designs else FIG5_DESIGNS
    res = _run_grid(args, _mix_specs(args, mixes, designs), designs, cache,
                    progress=None if args.quiet else print)
    results = res.grid

    def cell(design: str, mix_name: str) -> float:
        combo = results[design].get(mix_name)
        return combo.weighted_speedup if combo is not None else float("nan")

    names = list(results)
    rows = [[m] + [cell(d, m) for d in names] for m in mixes]
    rows.append(["geomean"] + [
        geomean([cell(d, m) for m in mixes]) for d in names])
    print(format_table(["mix"] + names, rows))
    if args.csv:
        to_csv(PERF_HEADERS, perf_csv_rows(results), args.csv)
        print(f"perf rows written to {args.csv}")
    print(res.report.summary())
    _print_failures(res.report.failures)
    return 0 if res.ok else 1


#: Fault plan used by ``repro sweep --chaos`` when no spec is given:
#: worker crashes and (twice-repeating) transient exceptions on roughly
#: half the jobs — selected by job label, so stable across --scale —
#: plus every cache write torn, seeded so the smoke run is exactly
#: repeatable.
DEFAULT_CHAOS_SPEC = "crash:0.6,transient:0.6x2,torn:1@seed=11"


def _run_chaos(args) -> int:
    """Chaos smoke behind ``repro sweep --chaos``.

    Runs a small grid three times — (1) under the installed fault plan
    with retries, pool respawns, and failure collection on; (2) again
    against the surviving (possibly torn) cache with faults off, to
    prove resume-from-cache quarantines damaged entries; (3) fault-free
    against a fresh cache — and verifies all three grids are
    bit-identical.  Exits 0 only when they are, no job was lost, and at
    least one recovery path actually fired (otherwise the smoke would
    be vacuous).
    """
    import tempfile

    from repro.api import RetryPolicy

    mixes = args.mixes.split(",") if args.mixes else ["C1"]
    designs = tuple(args.designs.split(",")) if args.designs \
        else ("waypart",)
    specs = _mix_specs(args, mixes, designs)
    cfg = _load_cfg(args)
    jobs = args.jobs if args.jobs is not None else 2
    say = None if args.quiet else print
    retry = RetryPolicy(max_attempts=4, backoff_base=0.01)

    try:
        prev = faults.install(args.chaos)
    except faults.FaultSpecError as exc:
        _usage_error(args, f"--chaos: {exc}")
    env_prev = os.environ.pop(faults.FAULTS_ENV, None)
    try:
        print(f"chaos: injecting {faults.active().describe()}")
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as chaos_dir:
            chaotic = api.sweep(mixes=specs, designs=designs, cfg=cfg,
                                engine=args.engine, jobs=jobs,
                                cache=chaos_dir, progress=say, retry=retry,
                                job_timeout=args.timeout,
                                failures="collect")
            faults.install(None)
            # Resume against the survived cache: torn entries must be
            # quarantined and re-simulated, not returned half-read.
            resumed = api.sweep(mixes=specs, designs=designs, cfg=cfg,
                                engine=args.engine, jobs=1, cache=chaos_dir)
        with tempfile.TemporaryDirectory(prefix="repro-clean-") as clean_dir:
            clean = api.sweep(mixes=specs, designs=designs, cfg=cfg,
                              engine=args.engine, jobs=1, cache=clean_dir)
    finally:
        faults.install(prev)
        if env_prev is not None:
            os.environ[faults.FAULTS_ENV] = env_prev

    rep = chaotic.report
    identical = chaotic.grid == clean.grid and resumed.grid == clean.grid
    print(f"chaos: {rep.retries} retries, {rep.pool_restarts} pool "
          f"restart(s), {int(rep.degraded)} degradation(s), "
          f"{len(rep.failures)} lost job(s); bit-identical to clean run: "
          f"{identical}")
    _print_failures(rep.failures)
    if not (rep.retries or rep.pool_restarts or rep.degraded):
        print("chaos: no recovery path fired — the fault spec selected "
              "nothing; tune rates/seed")
        return 1
    return 0 if identical and rep.ok else 1


def cmd_trace(args) -> int:
    """Run one design with epoch telemetry and print the timeline.

    The in-memory :class:`EpochRecorder` always runs; ``--jsonl`` tees the
    same stream to a structured trace file (schema: docs/telemetry.md) and
    ``--csv`` flattens the epoch samples into a spreadsheet-friendly file.
    """
    cfg = _load_cfg(args)
    mix = _build_mix(args)
    recorder = EpochRecorder()
    sink = recorder
    jsonl = None
    if args.jsonl:
        jsonl = JsonlSink(args.jsonl, meta={"design": args.design,
                                            "mix": mix.name,
                                            "seed": args.seed})
        sink = TeeSink(recorder, jsonl)
    try:
        res = api.simulate(mix=mix, design=args.design, cfg=cfg,
                           engine=args.engine, telemetry=sink)
    finally:
        if jsonl is not None:
            jsonl.close()

    print(f"# {args.design} on {mix.name}: {len(recorder.epochs)} epochs, "
          f"{len(recorder.events)} events")
    print(epoch_table(recorder.epochs, last=args.last))
    print()
    print("decision events (tuner.* / reconfig.*):")
    print(format_events(recorder.events))
    if args.csv:
        keys = sorted({k for e in recorder.epochs for k in e})
        rows = [[e.get(k, "") for k in keys] for e in recorder.epochs]
        to_csv(keys, rows, args.csv)
        print(f"\nepoch samples written to {args.csv}")
    if args.jsonl:
        print(f"\nJSONL trace written to {args.jsonl}")
    print(f"\nend state: {json.dumps(res.policy_state, default=str)}")
    return 0


#: ``repro fig`` drivers: ``(args, runner) -> rows``; the grid-shaped
#: ones run their cells on the one ``SweepEngine`` that ``cmd_fig``
#: builds from ``--jobs`` and the cache flags.
FIG_DRIVERS = {
    "table2": lambda a, r: figures.table2_workloads(seed=a.seed),
    "fig2a": lambda a, r: figures.fig2_slowdowns(scale=a.scale, seed=a.seed,
                                                 runner=r),
    "fig2bcd": lambda a, r: figures.fig2_sensitivity(scale=a.scale,
                                                     seed=a.seed, runner=r),
    "fig5": lambda a, r: figures.fig5_summary(
        figures.fig5_overall(scale=a.scale, seed=a.seed, runner=r)),
    "fig5-hbm3": lambda a, r: figures.fig5_summary(
        figures.fig5_overall(fast="hbm3", scale=a.scale, seed=a.seed,
                             runner=r)),
    "fig6": lambda a, r: figures.fig6_energy(scale=a.scale, seed=a.seed,
                                             runner=r),
    "fig7": lambda a, r: figures.fig7_overheads(scale=a.scale, seed=a.seed),
    "fig8": lambda a, r: figures.fig8_search(scale=a.scale, seed=a.seed),
    "fig9": lambda a, r: figures.fig9_epochs(scale=a.scale, seed=a.seed,
                                             runner=r),
    "fig10": lambda a, r: figures.fig10_weights_cores(
        scale=a.scale, seed=a.seed, runner=r),
    "fig11": lambda a, r: figures.fig11_geometry(scale=a.scale, seed=a.seed,
                                                 runner=r),
    "kvcache": lambda a, r: figures.kvcache_grid(scale=a.scale, seed=a.seed,
                                                 runner=r),
}


def cmd_fig(args) -> int:
    driver = FIG_DRIVERS.get(args.name)
    if driver is None:
        _usage_error(args, f"unknown figure {args.name!r}; "
                           f"known: {', '.join(FIG_DRIVERS)}")
    runner = SweepEngine(workers=args.jobs,
                         cache=_resolve_cli_cache(args, default_on=False))
    result = driver(args, runner)
    print(json.dumps(result, indent=2, default=str))
    return 0


def cmd_traces(args) -> int:
    mix = _build_mix(args)
    paths = save_mix(mix, args.out)
    for p in paths:
        print(p)
    return 0


def cmd_config(args) -> int:
    print(config_to_json(_load_cfg(args)))
    return 0


def cmd_report(args) -> int:
    """Summarize a perf.csv produced by the Fig. 5 benchmark (task T3)."""
    import csv
    from collections import defaultdict

    by_design = defaultdict(list)
    with open(args.csv) as fh:
        for row in csv.DictReader(fh):
            by_design[row["design"]].append(float(row["weighted_speedup"]))
    rows = [[d, geomean(v), max(v), min(v), len(v)]
            for d, v in by_design.items()]
    rows.sort(key=lambda r: -r[1])
    print(format_table(["design", "geomean", "max", "min", "mixes"], rows))
    return 0


def cmd_lint(args) -> int:
    """Run the AST invariant linter (``repro.analysis``) over paths.

    Exit code 0 when clean, 1 on findings, 2 on a usage error (an
    unknown flag, rule or path).  KEY01 finds the Stats counter
    registry by searching upward from the linted files for
    ``docs/telemetry.md``.
    """
    paths = args.paths or (["src"] if Path("src").is_dir() else ["."])
    try:
        rules = rules_by_id(args.rules) if args.rules else default_rules()
    except ValueError as exc:
        _usage_error(args, str(exc))
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        _usage_error(args, f"no such path(s): {', '.join(missing)}")
    findings = run_rules(paths, rules)
    for f in findings:
        print(f.format())
    n_err = sum(1 for f in findings if f.severity == "error")
    print(f"repro lint: {len(findings)} finding(s) "
          f"({n_err} error, {len(findings) - n_err} warning) over "
          f"{', '.join(paths)}")
    return 1 if findings else 0


def cmd_sanitize(args) -> int:
    """Replay engines with boundary digests; report first divergences.

    Runs each (design, engine) pair against a reference-engine
    recording of the same cell and prints either ``ok`` or the first
    divergent (boundary, component) with both digests.  Exit code 0
    when every pair matches, 1 otherwise, 2 on a usage error.
    """
    from repro.sanitize import sanitize_compare

    cfg = _load_cfg(args)
    engines = tuple(e.strip() for e in args.engines.split(",") if e.strip())
    for eng in engines:
        if eng not in ENGINES:
            _usage_error(args, f"unknown engine {eng!r}; "
                               f"known: {', '.join(ENGINES)}")
    # Aliases resolve first, so "fast,batch" replays the engine once.
    engines = tuple(dict.fromkeys(resolve_engine(e) for e in engines))
    designs = tuple(d.strip() for d in args.designs.split(",") if d.strip())
    mix = _mix_specs(args, [args.mix], designs)[0].build()
    failures = 0
    for design in designs:
        reports = sanitize_compare(mix=mix, design=design, cfg=cfg,
                                   engines=engines)
        for rep in reports:
            head = (f"sanitize: {rep.mix} x {design} "
                    f"[{rep.engine} vs reference]")
            if rep.ok:
                print(f"{head}: ok ({rep.boundaries} boundaries, "
                      f"0 divergences)")
            else:
                failures += 1
                print(f"{head}: FAIL — {rep.divergence.format()}")
    return 1 if failures else 0


def cmd_serve(args) -> int:
    """Run the campaign server in the foreground (docs/service.md).

    A knob the server refuses (a negative ``--retries``/``--timeout``,
    a ``--timeout`` too large to arm, ``--batch-cells`` or
    ``--max-queued-cells`` below 1) is a usage error, raised before the
    port is bound.  This is the dedicated server process, so the
    ``kill`` fault point may crash it.
    """
    from repro.service.server import CampaignServer, serve

    try:
        server = CampaignServer(
            args.host, args.port, workers=args.jobs,
            cache=_resolve_cli_cache(args, default_on=False),
            retry=args.retries, job_timeout=args.timeout,
            batch_cells=args.batch_cells, journal=args.journal,
            max_queued_cells=args.max_queued_cells, killable=True)
    except ValueError as exc:
        _usage_error(args, str(exc))
    return serve(server)


def cmd_submit(args) -> int:
    """Submit one campaign to a running server and stream its rows.

    A ``--timeout`` or ``--retries`` the client refuses is a usage
    error, raised before any request is sent."""
    from repro.service.client import ServiceClient, ServiceError
    from repro.service.schema import CampaignSpec

    try:
        client = ServiceClient(args.host, args.port, timeout=args.timeout,
                               retry=args.retries)
    except ValueError as exc:
        _usage_error(args, str(exc))
    rows = []
    try:
        if args.resume:
            job_id = args.resume
        else:
            mixes = tuple(m.strip() for m in args.mixes.split(",")
                          if m.strip())
            designs = tuple(d.strip() for d in
                            (args.designs
                             or ",".join(FIG5_DESIGNS)).split(",")
                            if d.strip())
            spec = CampaignSpec(mixes=mixes, designs=designs,
                                scale=args.scale, seed=args.seed,
                                engine=args.engine,
                                priority=args.priority)
            status = client.submit(spec, attach=args.attach)
            job_id = status.job_id
            if not args.wait:
                print(f"campaign {job_id}: {status.state}, "
                      f"{status.done_cells}/{status.total_cells} cell(s) "
                      f"done; stream later with "
                      f"`repro submit --resume {job_id}`")
                return 0
        for row in client.stream(job_id):
            rows.append(row)
            if not args.quiet:
                print(f"{row.design:>12s} x {row.mix:<8s} "
                      f"w_speedup={row.weighted_speedup:.4f}")
        final = client.last_status
    except ServiceError as exc:
        raise SystemExit(f"repro submit: {exc}")
    if args.csv:
        to_csv(PERF_HEADERS, perf_csv_rows(rows), args.csv)
        print(f"wrote {args.csv}")
    assert final is not None
    print(f"campaign {final.job_id}: {final.rows} row(s), "
          f"{final.deduped} deduped, {final.cache_hits} cache hit(s)")
    if final.failures:
        # A partially failed campaign must not look like success to
        # shells and CI wrappers, whatever the failure policy was.
        for f in final.failures:
            print(f"FAILED {f.get('label')}: {f.get('error')}")
        return 1
    if final.state != "done":
        print(f"campaign {final.job_id} incomplete "
              f"({final.done_cells}/{final.total_cells} cells); resume "
              f"with `repro submit --resume {final.job_id}`")
        return 1
    return 0


def cmd_designs(args) -> int:
    print("designs: ", ", ".join(ALL_DESIGNS))
    print("mixes:   ", ", ".join(ALL_MIXES),
          " (or custom 'cpu1-cpu2:gpu' specs)")
    print("llm mixes:", ", ".join(LLM_MIX_NAMES),
          " (docs/workloads.md)")
    print("cpu workloads:", ", ".join(sorted(CPU_SPECS)))
    print("gpu workloads:", ", ".join(sorted(GPU_SPECS)))
    print("llm workloads:", ", ".join(sorted(LLM_SPECS)))
    return 0


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Hydrogen (SC 2024) reproduction command line")
    sub = p.add_subparsers(dest="command", required=True)

    # Each subcommand declares only the flags it reads, so argparse
    # rejects the rest instead of ignoring them.
    def workload_opts(sp, mix=True):
        sp.add_argument("--seed", type=int, default=7,
                        help="trace seed, >= 0 (default 7)")
        sp.add_argument("--scale", type=float, default=1.0,
                        help="trace-length scale (1.0 = default runs); "
                             "must be positive and finite")
        if mix:
            sp.add_argument("--mix", default="C1",
                            help="C1..C12, an LLM mix (kvcache, "
                                 "kvcache-prefill, kvcache-batch, "
                                 "kvcache-long), or a custom "
                                 "'cpu1-cpu2:gpu' spec, e.g. "
                                 "'gcc-mcf:backprop'")

    def config_opts(sp):
        sp.add_argument("--config", help="system config JSON file")
        sp.add_argument("--hbm3", action="store_true",
                        help="use the HBM3 fast tier (Fig. 5b)")
        sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config field, e.g. hybrid.assoc=8; "
                             "a system the engines cannot run (block or "
                             "assoc < 1, no set, epoch/phase/faucet "
                             "cycles <= 0, mlp < 1) is refused")

    def common(sp, mix=True):
        workload_opts(sp, mix)
        config_opts(sp)

    def engine_opt(sp):
        sp.add_argument("--engine", choices=list(ENGINES), default="fast",
                        help="simulation core: 'fast' (the default; "
                             "bit-exact, 'batch' is its alias) or "
                             "'reference'")

    def sweep_opts(sp):
        sp.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the sweep engine "
                             "(default $REPRO_SWEEP_JOBS or 1; 0 = all "
                             "cores)")
        sp.add_argument("--cache", action="store_true",
                        help="enable the on-disk result cache "
                             "($REPRO_CACHE_DIR or ~/.cache/repro/sweep)")
        sp.add_argument("--cache-dir", metavar="DIR",
                        help="enable the result cache in DIR")
        sp.add_argument("--no-cache", action="store_true",
                        help="disable the result cache")

    def resilience_opts(sp):
        sp.add_argument("--retries", type=int, default=None, metavar="N",
                        help="re-run a failed cell up to N >= 0 extra "
                             "times with deterministic backoff (default 0; "
                             "see docs/robustness.md)")
        sp.add_argument("--timeout", type=float, default=None, metavar="SEC",
                        help="per-job wall-clock budget in seconds "
                             "(overruns fail the job as a timeout); 0 = "
                             "none, a negative budget or one of 9.2e9 s "
                             "or more (inf) is refused")
        sp.add_argument("--collect-failures", action="store_true",
                        help="record unrecoverable cells and keep going "
                             "instead of aborting the grid (exit 1 if any)")
        sp.add_argument("--faults", metavar="SPEC",
                        help="install a deterministic fault-injection plan, "
                             "e.g. 'transient:0.5x2@seed=3' "
                             "(kinds: crash, transient, hang, torn; "
                             "see docs/robustness.md)")

    sp = sub.add_parser("run", help="simulate one design on one mix")
    common(sp)
    engine_opt(sp)
    sp.add_argument("--design", default="hydrogen",
                    choices=list(ALL_DESIGNS))
    sp.add_argument("--trace", metavar="PATH",
                    help="stream telemetry JSONL to PATH "
                         "(schema: docs/telemetry.md)")
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("compare", help="compare designs on one mix")
    common(sp)
    engine_opt(sp)
    sp.add_argument("--designs", help="comma-separated design names")
    sweep_opts(sp)
    resilience_opts(sp)
    sp.add_argument("--trace", metavar="DIR",
                    help="write one telemetry JSONL per run into DIR "
                         "(cache hits skip the run, so combine with "
                         "--no-cache to trace every cell)")
    sp.set_defaults(fn=cmd_compare)

    sp = sub.add_parser(
        "trace", help="run one design with telemetry; print epoch timeline")
    common(sp)
    engine_opt(sp)
    sp.add_argument("--design", default="hydrogen",
                    choices=list(ALL_DESIGNS))
    sp.add_argument("--last", type=int, default=None, metavar="N",
                    help="show only the last N epoch rows")
    sp.add_argument("--jsonl", metavar="PATH",
                    help="also stream the structured trace to PATH")
    sp.add_argument("--csv", metavar="PATH",
                    help="also write flattened epoch samples to PATH")
    sp.set_defaults(fn=cmd_trace)

    sp = sub.add_parser(
        "sweep", help="run a (mixes x designs) grid via the sweep engine")
    common(sp, mix=False)
    engine_opt(sp)
    sp.add_argument("--mixes", help="comma-separated mix names: Table II, "
                                    "LLM or custom 'cpu1-cpu2:gpu' specs "
                                    "(default: all 12 Table II)")
    sp.add_argument("--designs", help="comma-separated design names "
                                      "(default: the Fig. 5 set)")
    sweep_opts(sp)
    resilience_opts(sp)
    sp.add_argument("--chaos", nargs="?", const=DEFAULT_CHAOS_SPEC,
                    default=None, metavar="SPEC",
                    help="chaos smoke: run a small grid (default mix C1, "
                         "design waypart) under injected faults, then "
                         "verify results are bit-identical to a clean run "
                         "(default spec exercises crash/transient/torn)")
    sp.add_argument("--clear-cache", action="store_true",
                    help="empty the result cache before running")
    sp.add_argument("--csv", metavar="PATH",
                    help="also write artifact-style perf rows to PATH")
    sp.add_argument("--quiet", action="store_true",
                    help="suppress per-job progress lines")
    sp.add_argument("--trace", metavar="DIR",
                    help="write one telemetry JSONL per simulated run into "
                         "DIR (cache hits skip the run)")
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("fig", help="regenerate a paper figure/table")
    workload_opts(sp, mix=False)
    sp.add_argument("name", help="table2, fig2a, fig2bcd, fig5, fig5-hbm3, "
                                 "fig6, fig7, fig8, fig9, fig10, fig11, "
                                 "kvcache (--jobs and the cache flags "
                                 "apply to all but table2, fig7 and fig8, "
                                 "which still run in-process)")
    sweep_opts(sp)
    sp.set_defaults(fn=cmd_fig)

    sp = sub.add_parser("traces", help="generate and save a mix's traces")
    workload_opts(sp)
    sp.add_argument("--out", default="traces-out", help="output directory")
    sp.set_defaults(fn=cmd_traces)

    sp = sub.add_parser("config", help="dump the system configuration JSON")
    config_opts(sp)
    sp.set_defaults(fn=cmd_config)

    sp = sub.add_parser("report", help="summarize a perf.csv (task T3)")
    sp.add_argument("csv", nargs="?", default="perf.csv")
    sp.set_defaults(fn=cmd_report)

    sp = sub.add_parser(
        "lint", help="run the AST invariant linter (docs/analysis.md)")
    sp.add_argument("paths", nargs="*",
                    help="files/directories to lint (default: src)")
    sp.add_argument("--rules", metavar="SPEC",
                    help="comma-separated rule ids/names or the groups "
                         "domain|style|all (default: all)")
    sp.set_defaults(fn=cmd_lint)

    sp = sub.add_parser(
        "sanitize", help="replay engines with boundary-state digests and "
                         "localize the first divergence (docs/sanitize.md)")
    common(sp)
    sp.add_argument("--engines", default="fast",
                    help="comma-separated engines to check against the "
                         "reference recording (default: fast)")
    sp.add_argument("--designs", default="hydrogen",
                    help="comma-separated design names (default: hydrogen)")
    sp.set_defaults(fn=cmd_sanitize)

    sp = sub.add_parser(
        "serve", help="run the async campaign server in the foreground "
                      "(docs/service.md)")
    sp.add_argument("--host", default="127.0.0.1")
    sp.add_argument("--port", type=int, default=DEFAULT_PORT,
                    help=f"listening port (default {DEFAULT_PORT}; 0 = "
                         f"ephemeral)")
    sweep_opts(sp)
    sp.add_argument("--retries", type=int, default=None, metavar="N",
                    help="re-run a failed cell up to N >= 0 extra times")
    sp.add_argument("--timeout", type=float, default=None, metavar="SEC",
                    help="per-cell wall-clock budget in seconds (0 = "
                         "none, a negative budget or one of 9.2e9 s or "
                         "more is refused); binds "
                         "only cells run in the worker pool (--jobs > 1, "
                         "batches of 2+ cells), others run unbounded "
                         "(docs/service.md)")
    sp.add_argument("--batch-cells", type=int, default=32, metavar="N",
                    help="max cells (N >= 1) drained from the fair queue "
                         "into one engine batch (default 32)")
    sp.add_argument("--journal", metavar="DIR",
                    help="write-ahead job journal directory: accepted "
                         "campaigns and cell outcomes survive a crash; "
                         "on restart the journal is replayed and "
                         "unfinished cells re-run (docs/service.md)")
    sp.add_argument("--max-queued-cells", type=int, default=None,
                    metavar="N",
                    help="admission control: reject submissions with "
                         "429 + Retry-After while N >= 1 cells are queued "
                         "(default: unlimited)")
    sp.set_defaults(fn=cmd_serve)

    sp = sub.add_parser(
        "submit", help="submit a campaign to a running server and stream "
                       "its rows (docs/service.md)")
    sp.add_argument("--host", default="127.0.0.1")
    sp.add_argument("--port", type=int, default=DEFAULT_PORT)
    sp.add_argument("--mixes", default="C1",
                    help="comma-separated mix names: Table II, LLM or "
                         "custom 'cpu1-cpu2:gpu' specs")
    sp.add_argument("--designs", help="comma-separated design names "
                                      "(default: the Fig. 5 set)")
    sp.add_argument("--scale", type=float, default=0.05,
                    help="trace-length scale, positive and finite "
                         "(default 0.05)")
    sp.add_argument("--seed", type=int, default=7,
                    help="trace seed, >= 0 (default 7)")
    sp.add_argument("--engine", choices=list(ENGINES), default="fast",
                    help="engine the server runs the cells on "
                         "(default fast)")
    sp.add_argument("--priority", choices=sorted(PRIORITIES),
                    default="batch",
                    help="fair-queue class (weights: docs/service.md)")
    sp.add_argument("--timeout", type=float, default=300.0, metavar="SEC",
                    help="max silence between stream rows (default 300); "
                         "must be > 0 and below 9.2e9 s")
    sp.add_argument("--csv", metavar="PATH",
                    help="also write artifact-style perf rows to PATH")
    sp.add_argument("--quiet", action="store_true",
                    help="suppress per-row progress lines")
    sp.add_argument("--wait", action=argparse.BooleanOptionalAction,
                    default=True,
                    help="--no-wait submits and exits immediately, "
                         "printing the job id to resume later")
    sp.add_argument("--resume", metavar="JOB_ID",
                    help="skip submission; stream an existing campaign "
                         "(e.g. after --no-wait, or a server restart)")
    sp.add_argument("--attach", action="store_true",
                    help="idempotent submit: attach to an existing "
                         "campaign with the byte-identical spec instead "
                         "of opening a new one")
    sp.add_argument("--retries", type=int, default=3, metavar="N",
                    help="client-side retries for transient service "
                         "failures: connection errors, 429 queue-full, "
                         "503 draining, broken streams (default 3)")
    sp.set_defaults(fn=cmd_submit)

    sp = sub.add_parser("designs", help="list designs and workloads")
    sp.set_defaults(fn=cmd_designs)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    # Every command taking --seed or --scale builds traces from them
    # (``submit`` through the server): refuse a negative seed and a
    # scale that is not positive and finite before anything runs.
    try:
        if "seed" in args:
            check_seed(args.seed)
        if "scale" in args:
            check_scale(args.scale)
    except ValueError as exc:
        _usage_error(args, str(exc))
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
