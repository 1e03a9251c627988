#!/usr/bin/env python3
"""Repository benchmark: end-to-end host metrics and per-layer time.

Run every workload (each in its own subprocess, tracing off), print every
end-to-end metric with its unit, check the outputs, and exit non-zero if
any cell fails or mismatches::

    python bench/run.py --seed 7
    python bench/run.py --trace          # per-layer numbers instead
    python bench/run.py --seed 7 --out bench/results/<commit>.json

One workload, the form a benchmark driver uses; the last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``::

    python bench/run.py --workload fig5 --seed 7 --seconds 20 --trace 0

``--trace 0`` measures for ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` runs a fixed quota of the workload twice, once
plain and once under a per-thread profiler, and reports the per-layer
metrics (see bench/README.md).  The program is imported from the
``src/`` next to this directory; without it the benchmark exits non-zero.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()   # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Knobs the library reads from the environment; a run never inherits them.
PINNED_ENV = ("REPRO_ENGINE", "REPRO_SCALE", "REPRO_SWEEP_JOBS",
              "REPRO_FAULTS", "REPRO_CACHE_DIR", "REPRO_SWEEP_CACHE")

#: Measured seconds of a timed run (BENCHMARK.json ``run_seconds``).
DEFAULT_SECONDS = 20

#: Set-up samples behind ``setup_s``: this process plus fresh children.
SETUP_CHILDREN = 2

#: Canary runs just before and just after a timed pass (more run during
#: it, one per half second; see canary.py).
CANARY_CALLS = 2

E2E_UNITS = {
    "setup_s": "s",
    "cells_per_s": "cells/s",
    "sim_minstr_per_s": "Minstr/s",
    "latency_s_p50": "s",
    "latency_s_p75": "s",
    "peak_rss_mb": "MB",
}

#: model.<name> -> unit; exact sums over each cell's SimResult.stats.
MODEL_UNITS = {
    "accesses": "count", "fast_hit_rate_cpu": "ratio",
    "fast_hit_rate_gpu": "ratio", "migrations": "count",
    "bypasses": "count", "migration_tokens": "count",
    "remap_fills": "count", "writebacks": "count",
    "queue_wait_fast": "cycles", "queue_wait_slow": "cycles",
    "bytes_fast": "bytes", "bytes_slow": "bytes",
    "activations": "count", "reconfig_count": "count",
    "lazy_invalidations": "count", "hydrogen_speedup": "x",
}

BENCH_UNITS = {
    "engine.ns_per_access": "ns",
    "service.campaign_s_p50.interactive": "s",
    "service.campaign_s_p50.batch": "s",
    "bench.trace_overhead": "x",
    "bench.coverage": "ratio",
    "bench.samples": "count",
}


def layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, in report order."""
    from layers import LAYERS
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
        units[f"{layer}.calls"] = "count"
    units.update({f"model.{k}": u for k, u in MODEL_UNITS.items()})
    units.update(BENCH_UNITS)
    return units


def environment() -> dict:
    """What a result depends on besides the code: commit and toolchain."""
    import numpy
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count()}


# -- metrics ---------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(p25, p50, p75); a single sample is its own quartiles."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def instructions(specs) -> float:
    """Simulated instructions behind cells run on ``specs`` (one per cell)."""
    memo: dict = {}
    total = 0.0
    for spec in specs:
        if spec not in memo:
            memo[spec] = sum(t.instructions for t in spec.build().traces)
        total += memo[spec]
    return total


def model_counters(results, speedups) -> dict[str, float]:
    """The ``model.*`` counters: sums over every cell's SimResult.stats."""
    from repro.experiments.runner import geomean
    tot: dict[str, float] = {}
    for res in results:
        for key, val in res.stats.items():
            tot[key] = tot.get(key, 0.0) + val

    def both(name: str) -> float:
        return tot.get(f"cpu.{name}", 0.0) + tot.get(f"gpu.{name}", 0.0)

    def rate(klass: str) -> float:
        hits = tot.get(f"{klass}.fast_hits", 0.0)
        seen = hits + tot.get(f"{klass}.fast_misses", 0.0)
        return hits / seen if seen else 0.0

    def tier(name: str) -> float:
        return tot.get(f"{name}.bytes_read", 0.0) \
            + tot.get(f"{name}.bytes_written", 0.0)

    return {
        "model.accesses": both("accesses"),
        "model.fast_hit_rate_cpu": rate("cpu"),
        "model.fast_hit_rate_gpu": rate("gpu"),
        "model.migrations": both("migrations"),
        "model.bypasses": both("bypasses"),
        "model.migration_tokens": both("migration_tokens"),
        "model.remap_fills": both("remap_fills"),
        "model.writebacks": both("writebacks"),
        "model.queue_wait_fast": tot.get("fast.queue_wait", 0.0),
        "model.queue_wait_slow": tot.get("slow.queue_wait", 0.0),
        "model.bytes_fast": tier("fast"),
        "model.bytes_slow": tier("slow"),
        "model.activations": tot.get("fast.activations", 0.0)
        + tot.get("slow.activations", 0.0),
        "model.reconfig_count": tot.get("reconfig.count", 0.0),
        "model.lazy_invalidations": tot.get("reconfig.lazy_invalidations",
                                            0.0),
        "model.hydrogen_speedup": geomean(speedups),
    }


def per_layer(plain, traced, stats) -> dict[str, float]:
    """Per-layer metrics from a plain and a profiled pass of one quota."""
    from layers import LAYERS, LayerMap, attribute
    folded = attribute(stats, LayerMap(SRC / "repro"))
    total = sum(v["self_s"] for v in folded.values()) or 1.0
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = folded[layer]["self_s"]
        out[f"{layer}.share"] = folded[layer]["self_s"] / total
        out[f"{layer}.calls"] = round(folded[layer]["calls"])
    out.update(model_counters(plain.results, plain.speedups))
    by_class = {"interactive": [], "batch": []}
    for rec in plain.campaigns:
        by_class[rec.spec.priority].append(rec.end - rec.submit)
    out["engine.ns_per_access"] = \
        plain.wall / max(out["model.accesses"], 1.0) * 1e9
    for klass, lat in by_class.items():
        out[f"service.campaign_s_p50.{klass}"] = \
            statistics.median(lat) if lat else 0.0
    out["bench.trace_overhead"] = traced.wall / plain.wall
    out["bench.coverage"] = 1.0 - out["other.share"]
    out["bench.samples"] = float(len(plain.latencies))
    return out


def spans(w, p) -> list[dict]:
    """The traced pass's spans: workload, then cells or campaigns."""
    out = [{"id": 0, "name": f"workload:{w.name}", "parent": None,
            "start": 0.0, "end": p.wall}]
    for cell in p.cells:
        out.append({"id": len(out), "name": "cell", "parent": 0,
                    "label": f"{cell.design}@{cell.mix.name}"
                             f"#{cell.mix.seed}",
                    "start": cell.end - cell.dt - p.start,
                    "end": cell.end - p.start})
    for rec in p.campaigns:
        first = None if rec.first_row is None else rec.first_row - p.start
        out.append({"id": len(out), "name": "campaign", "parent": 0,
                    "client": rec.client, "priority": rec.spec.priority,
                    "label": f"{rec.spec.mixes[0]}#{rec.spec.seed}",
                    "start": rec.submit - p.start, "first_row": first,
                    "end": rec.end - p.start})
    return out


# -- one workload -----------------------------------------------------------

def setup_samples(args, own: float) -> tuple[list[float], int]:
    """``setup_s`` samples: this process plus fresh child processes."""
    samples, failed = [own], 0
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120)
        try:
            samples.append(json.loads(
                proc.stdout.strip().splitlines()[-1])["setup_s"])
        except (IndexError, ValueError, KeyError):
            failed += 1
            sys.stderr.write(proc.stderr)
    return samples, failed


def timed_run(args, w, scratch, server, setup):
    """``--trace 0``: measure for ``--seconds``, then check outputs."""
    from canary import REF_S, Canary
    from workloads import check_grid, check_service, grid_pass, service_pass
    canary = Canary()
    canary.run(CANARY_CALLS)
    deadline = time.perf_counter() + args.seconds
    if w.service:
        with canary.alongside():
            p = service_pass(w, args.seed, server, deadline=deadline)
        attempted = sum(len(c.spec.cells()) for c in p.campaigns)
    else:
        p = grid_pass(w, args.seed, scratch=scratch / "timed",
                      deadline=deadline, between=canary.tick)
        attempted = len(p.cells) + p.failed
    canary.run(CANARY_CALLS)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = p.failed
    if server is not None:
        failed += not server.stop()
        failed += check_service(p, args.inject_mismatch)
    else:
        failed += check_grid(p, w, args.inject_mismatch)
    setup_all, setup_failed = setup_samples(args, setup)
    _, p50, p75 = quartiles(p.latencies)
    raw = {
        "setup_s": statistics.median(setup_all),
        "cells_per_s": len(p.mix_specs()) / p.wall,
        "sim_minstr_per_s": instructions(p.mix_specs()) / p.wall / 1e6,
        "latency_s_p50": p50,
        "latency_s_p75": p75,
    }
    # Host seconds -> reference-host seconds: times shrink and rates grow
    # by the factor the canary ran slow by, around and during this pass.
    slow = canary.slowdown
    metrics = {name: value * slow if name.endswith("_per_s")
               else value / slow for name, value in raw.items()}
    metrics["peak_rss_mb"] = rss_mb
    unit = "campaigns" if w.service else "cells"
    notes = [f"{len(p.latencies)} {unit} in {p.wall:.2f} s; latency "
             f"percentiles over n={len(p.latencies)}; setup_s median of "
             f"{len(setup_all)} set-ups",
             f"host ran x{slow:.3f} slower than the reference (median of "
             f"{len(canary.samples)} canary runs, reference "
             f"{REF_S * 1e3:.1f} ms); times below are reference-host "
             f"times; as measured: "
             + ", ".join(f"{k}={v:.6g}" for k, v in raw.items())]
    return metrics, E2E_UNITS, attempted, failed + setup_failed, notes


def traced_run(args, w, scratch):
    """``--trace 1``: a fixed quota untraced, then again profiled."""
    from layers import ThreadProfiler
    from workloads import (Server, check_grid, check_service, grid_pass,
                           service_pass)
    failed = 0

    def one_pass(name: str):
        nonlocal failed
        if not w.service:
            return grid_pass(w, args.seed, scratch=scratch / name)
        server = Server(scratch / name)
        try:
            return service_pass(w, args.seed, server)
        finally:
            failed += not server.stop()

    plain = one_pass("plain")
    profiler = ThreadProfiler()
    profiler.start()
    try:
        traced = one_pass("traced")
    finally:
        stats = profiler.stop()
    failed += plain.failed + traced.failed
    failed += (check_service(plain, args.inject_mismatch) if w.service
               else check_grid(plain, w, args.inject_mismatch))
    counters = model_counters(plain.results, plain.speedups)
    if counters != model_counters(traced.results, traced.speedups):
        print("bench: profiling changed the simulated results",
              file=sys.stderr)
        failed += 1
    metrics = per_layer(plain, traced, stats)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{w.name}.spans.json").write_text(
        json.dumps(spans(w, traced), indent=1) + "\n")
    attempted = sum(len(p.mix_specs()) + p.failed for p in (plain, traced))
    notes = [f"quota pass: {len(plain.latencies)} units, untraced "
             f"{plain.wall:.2f} s, traced {traced.wall:.2f} s; spans in "
             f"{(OUT / f'{w.name}.spans.json').relative_to(ROOT)}"]
    if w.name == "fig5":
        notes.append(f"model.hydrogen_speedup "
                     f"{metrics['model.hydrogen_speedup']:.3f}x over "
                     f"baseline (paper Fig. 5: 1.24x); the model is not "
                     f"validated against hardware")
    return metrics, layer_units(), attempted, failed, notes


def run_workload(args) -> int:
    """One workload in this process; prints the result JSON last."""
    from workloads import WORKLOADS, Server, warm_campaign, warm_cell
    w = WORKLOADS.get(args.workload)
    if w is None:
        print(f"bench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.smoke:
        w = w.smoke()
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=OUT))
    server = None
    try:
        if w.service:
            server = Server(scratch / "journal")
            warm_campaign(w, server, args.seed)
        else:
            warm_cell(w, args.seed, scratch / "warm")
        setup = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup}))
            return 0
        if args.trace:
            if server is not None:       # each pass starts its own server
                server.stop()
                server = None
            metrics, units, attempted, failed, notes = traced_run(
                args, w, scratch)
        else:
            metrics, units, attempted, failed, notes = timed_run(
                args, w, scratch, server, setup)
            server = None
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(scratch, ignore_errors=True)
    env = environment()
    print(f"{w.name}: seed={args.seed} scale={w.scale} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{w.name}: every cell starts with an empty fast tier; warmup "
          f"(0.25 CPU / 0.35 GPU of each trace) is excluded from "
          f"simulated cycles")
    for note in notes:
        print(f"{w.name}: {note}")
    for name, value in metrics.items():
        print(f"{w.name:<10} {name:<36} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}), flush=True)
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own subprocess; one summary JSON last."""
    from workloads import WORKLOADS
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=900)
        lines = proc.stdout.splitlines() or [""]
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[name] = json.loads(lines[-1])
        except ValueError:
            results[name] = {"correct": False, "attempted": 1, "failed": 1,
                             "metrics": {}}
        if proc.returncode or not results[name]["correct"]:
            status = 1
            print(f"{name}: FAILED (exit {proc.returncode}, "
                  f"{results[name]['failed']} failed)", flush=True)
    summary = {**environment(), "seed": args.seed, "trace": args.trace,
               "seconds": args.seconds, "smoke": args.smoke,
               "workloads": results}
    if args.out is not None:
        record = {"runs": []}
        if args.out.exists():
            record = json.loads(args.out.read_text())
        record["runs"].append(summary)
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(summary), flush=True)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run one workload in-process")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured seconds of a timed run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: per-layer metrics from a profiled rerun")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the self-test")
    parser.add_argument("--out", type=Path,
                        help="append this run to a results JSON file")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--inject-mismatch", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload:
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
