"""One driver per table/figure of the paper's evaluation (Section VI).

Every function regenerates the corresponding exhibit's rows/series from
fresh simulations and returns plain dicts; the benchmarks print them via
:mod:`repro.experiments.report`.  Reference-count scale is controlled by
the ``scale`` argument (and ``$REPRO_SCALE`` through the benchmarks).
The grid-shaped drivers take ``runner=``, the
:class:`~repro.experiments.sweep.SweepEngine` that runs their cells
(its workers and cache are the caller's choice; ``None`` builds one
with the engine's defaults).

Naming: ``fig2_motivation`` etc. match the per-experiment index in
DESIGN.md section 4.
"""

from __future__ import annotations

from dataclasses import replace

from repro.config import MB, SystemConfig, default_system, hbm2e, hbm3
from repro.core.hydrogen import HydrogenPolicy
from repro.engine.simulator import simulate
from repro.experiments.designs import FIG5_DESIGNS, KVCACHE_DESIGNS
from repro.experiments.runner import (ComboResult, geomean, run_design,
                                      weighted_speedup)
from repro.experiments.sweep import (MixSpec, SweepEngine, SweepJob,
                                     corun_grid, sweep_grid)
from repro.traces.base import characterize
from repro.traces.mixes import ALL_MIXES, build_mix

#: Representative subset used by the geomean-style figures when a full
#: 12-combination sweep would be disproportionate (documented in
#: EXPERIMENTS.md; pass ``mixes=ALL_MIXES`` for the full set).
DEFAULT_SUBSET = ("C1", "C3", "C5", "C11")


def table2_workloads(*, cpu_refs: int = 10_000, gpu_refs: int = 40_000,
                     seed: int = 7) -> list[dict]:
    """Table II: generate every combination and characterize its traces."""
    rows = []
    for name in ALL_MIXES:
        mix = build_mix(name, cpu_refs=cpu_refs, gpu_refs=gpu_refs, seed=seed)
        cpu_names = sorted({t.name for t in mix.cpu_traces})
        g = characterize(mix.gpu_traces[0])
        rows.append({
            "mix": name,
            "cpu_workloads": "-".join(cpu_names),
            "gpu_workload": mix.gpu_traces[0].name,
            "footprint_mb": mix.footprint / MB,
            "gpu_refs_per_block": round(g["refs_per_block"], 2),
            "gpu_write_frac": round(g["write_frac"], 3),
        })
    return rows


def fig2_slowdowns(mixes=ALL_MIXES, *, scale: float = 1.0,
                   cfg: SystemConfig | None = None, seed: int = 7,
                   runner: SweepEngine | None = None) -> list[dict]:
    """Fig. 2(a): co-run slowdown of CPU and GPU vs running alone.

    All 3 x len(mixes) runs go through one ``runner`` batch.
    """
    sd = corun_grid([MixSpec(n, scale=scale, seed=seed) for n in mixes],
                    cfg, runner=runner)
    return [{"mix": name,
             "slowdown_cpu": sd[name]["slowdown_cpu"],
             "slowdown_gpu": sd[name]["slowdown_gpu"]} for name in mixes]


def fig2_sensitivity(mix_name: str = "C1", *, scale: float = 1.0,
                     seed: int = 7, runner: SweepEngine | None = None
                     ) -> dict[str, list[dict]]:
    """Fig. 2(b-d): C1 performance vs fast BW, fast capacity, slow BW.

    Following the paper, CPU and GPU sensitivities are measured in the
    shared (co-run) system; each point is normalized to the full-resource
    configuration.  All points go through one ``runner`` batch, so the
    ones that repeat the full-resource configuration are simulated once.
    """
    base = default_system()
    spec = MixSpec(mix_name, scale=scale, seed=seed)
    points = {
        "fast_bw": [("fast_channels", ch,
                     base.with_fast(replace(base.fast, channels=ch)))
                    for ch in (4, 2, 1)],
        "fast_cap": [("capacity_frac", frac, base.with_fast(replace(
                         base.fast, capacity=int(base.fast.capacity * frac))))
                     for frac in (1.0, 0.5, 0.25, 0.125)],
        "slow_bw": [("slow_channels", ch,
                     replace(base, slow=replace(base.slow, channels=ch)))
                    for ch in (4, 2, 1)],
    }

    def job(cfg):
        return SweepJob(spec, "baseline", cfg)

    results = (runner or SweepEngine()).run(
        [job(base)] + [job(cfg) for pts in points.values()
                       for _, _, cfg in pts]).results
    ref = results[job(base)]
    out: dict[str, list[dict]] = {}
    for series, pts in points.items():
        out[series] = []
        for key, value, cfg in pts:
            r = results[job(cfg)]
            row = {key: value,
                   "perf_cpu": ref.cycles_cpu / r.cycles_cpu,
                   "perf_gpu": ref.cycles_gpu / r.cycles_gpu}
            if series == "fast_cap":
                row.update(hit_cpu=r.hit_rate("cpu"),
                           hit_gpu=r.hit_rate("gpu"))
            out[series].append(row)
    return out


def fig5_overall(mixes=ALL_MIXES, *, fast: str = "hbm2e", scale: float = 1.0,
                 designs=FIG5_DESIGNS, seed: int = 7,
                 runner: SweepEngine | None = None
                 ) -> dict[str, dict[str, ComboResult]]:
    """Fig. 5: weighted speedups of every design on every mix.

    The whole (mix x design) grid is one ``runner`` batch — the per-mix
    baseline is simulated once and shared by every comparison — so a
    multi-worker runner parallelizes across mixes as well as designs.
    Returns ``{design: {mix: ComboResult}}`` (the perf.csv layout).
    """
    cfg = default_system()
    if fast == "hbm3":
        cfg = cfg.with_fast(hbm3())
    return sweep_grid([MixSpec(n, scale=scale, seed=seed) for n in mixes],
                      tuple(designs), cfg, runner=runner)


def fig5_summary(results: dict[str, dict[str, ComboResult]]) -> list[dict]:
    """Geomean/max rows of a fig5_overall result (the text in Section VI-A)."""
    rows = []
    for design, by_mix in results.items():
        ws = [c.weighted_speedup for c in by_mix.values()]
        rows.append({"design": design,
                     "geomean_speedup": geomean(ws),
                     "max_speedup": max(ws) if ws else 0.0,
                     "min_speedup": min(ws) if ws else 0.0})
    return rows


def fig6_energy(mixes=ALL_MIXES, *, scale: float = 1.0, seed: int = 7,
                runner: SweepEngine | None = None) -> list[dict]:
    """Fig. 6: memory energy of HAShCache / ProFess / Hydrogen, normalized
    to HAShCache per the paper.  The whole grid is one ``runner`` batch."""
    cfg = default_system()
    designs = ("hashcache", "profess", "hydrogen")

    def job(name, design):
        return SweepJob(MixSpec(name, scale=scale, seed=seed), design, cfg)

    results = (runner or SweepEngine()).run(
        [job(n, d) for n in mixes for d in designs]).results
    rows = []
    for name in mixes:
        energies = {d: results[job(name, d)].energy.total_nj
                    for d in designs}
        ref = energies["hashcache"]
        rows.append({"mix": name,
                     **{d: e / ref for d, e in energies.items()}})
    return rows


def fig7_overheads(mixes=DEFAULT_SUBSET, *, scale: float = 1.0,
                   seed: int = 7) -> dict[str, list[dict]]:
    """Fig. 7: (a) fast-memory swap methods, (b) reconfiguration cost.

    Geomean weighted speedups over ``mixes``, each normalized to the
    non-partitioned baseline of the same mix.
    """
    cfg = default_system()
    swap_variants = {
        "ideal": dict(swap_mode="ideal"),
        "hydrogen": dict(swap_mode="on"),
        "prob": dict(swap_mode="prob"),
        "noswap": dict(swap_mode="off"),
    }
    recfg_variants = {
        "ideal-reconfig": dict(ideal_reconfig=True),
        "hydrogen": dict(),
    }

    def sweep(variants):
        acc = {v: [] for v in variants}
        for name in mixes:
            mix = build_mix(name, scale=scale, seed=seed)
            base = run_design("baseline", mix, cfg)
            for vname, kw in variants.items():
                pol = HydrogenPolicy.full(**kw)
                res = simulate(cfg, pol, mix)
                combo = weighted_speedup(res, base, cfg.weight_cpu,
                                         cfg.weight_gpu)
                acc[vname].append(combo.weighted_speedup)
        return [{"variant": v, "geomean_speedup": geomean(ws)}
                for v, ws in acc.items()]

    return {"swap": sweep(swap_variants), "reconfig": sweep(recfg_variants)}


def fig8_search(mix_name: str = "C5", *, scale: float = 1.0, seed: int = 7,
                caps=(1, 2, 3, 4), bws=(0, 1, 2), toks=(0.05, 0.15, 0.5)
                ) -> dict:
    """Fig. 8: exhaustive (cap, bw, tok) search vs Hydrogen's online choice
    on C5.  Returns the grid, the best/median static configs, and the
    online result, normalized to the online result per the paper."""
    cfg = default_system()
    mix = build_mix(mix_name, scale=scale, seed=seed)
    base = run_design("baseline", mix, cfg)

    grid = []
    for cap in caps:
        for bw in bws:
            if cap < -(-bw * 4 // 4):
                continue
            for tok in toks:
                pol = HydrogenPolicy(cap=cap, bw=bw, tok_frac=tok,
                                     enable_tokens=True, enable_tuner=False)
                res = simulate(cfg, pol, mix)
                combo = weighted_speedup(res, base, cfg.weight_cpu,
                                         cfg.weight_gpu)
                grid.append({"cap": cap, "bw": bw, "tok": tok,
                             "weighted_speedup": combo.weighted_speedup})

    online = weighted_speedup(simulate(cfg, HydrogenPolicy.full(), mix),
                              base, cfg.weight_cpu, cfg.weight_gpu)
    speeds = sorted(g["weighted_speedup"] for g in grid)
    best = speeds[-1]
    median = speeds[len(speeds) // 2]
    return {
        "grid": grid,
        "online_speedup": online.weighted_speedup,
        "best_static": best,
        "median_static": median,
        "online_vs_best": online.weighted_speedup / best,
        "best_vs_median": best / median,
    }


def fig9_epochs(mixes=DEFAULT_SUBSET, *, scale: float = 1.0, seed: int = 7,
                epoch_lengths=(2_000.0, 10_000.0, 50_000.0, 200_000.0),
                phase_lengths=(50_000.0, 200_000.0, 400_000.0, 1_000_000.0),
                runner: SweepEngine | None = None
                ) -> dict[str, list[dict]]:
    """Fig. 9: sensitivity to sampling-epoch and phase lengths."""
    base_cfg = default_system()
    specs = [MixSpec(n, scale=scale, seed=seed) for n in mixes]

    def sweep(param: str, values) -> list[dict]:
        out = []
        for v in values:
            epochs = replace(base_cfg.epochs, **{param: v})
            cfg = replace(base_cfg, epochs=epochs)
            per = sweep_grid(specs, ("hydrogen",), cfg, runner=runner)
            speeds = [per["hydrogen"][n].weighted_speedup for n in mixes]
            out.append({param: v, "geomean_speedup": geomean(speeds)})
        return out

    return {"epoch": sweep("epoch_cycles", epoch_lengths),
            "phase": sweep("phase_cycles", phase_lengths)}


def fig10_weights_cores(mix_name: str = "C6", *, scale: float = 1.0,
                        seed: int = 7,
                        weight_ratios=(1, 4, 12, 32),
                        core_counts=(4, 8, 16),
                        runner: SweepEngine | None = None
                        ) -> dict[str, list[dict]]:
    """Fig. 10: (a) CPU:GPU IPC weight sweep on C6 (slowdowns vs solo);
    (b) CPU core-count scaling (weighted speedup vs baseline).  Column (a)
    — the weight points and both solo baselines — is one ``runner``
    batch, and each core count of (b) is another."""
    out: dict[str, list[dict]] = {"weights": [], "cores": []}
    base_cfg = default_system()
    runner = runner or SweepEngine()
    spec = MixSpec(mix_name, scale=scale, seed=seed)
    solo = [SweepJob(replace(spec, solo=k), "baseline", base_cfg)
            for k in ("cpu", "gpu")]
    weighted = {w: SweepJob(spec, "hydrogen", replace(
        base_cfg, weight_cpu=float(w), weight_gpu=1.0))
        for w in weight_ratios}
    results = runner.run(solo + list(weighted.values())).results
    solo_cpu, solo_gpu = (results[j] for j in solo)

    for w, job in weighted.items():
        res = results[job]
        out["weights"].append({
            "weight_ratio": w,
            "slowdown_cpu": res.cycles_cpu / solo_cpu.cycles_cpu,
            "slowdown_gpu": res.cycles_gpu / solo_gpu.cycles_gpu,
        })

    for cores in core_counts:
        copies = max(1, cores // 4)
        cfg = replace(base_cfg, cpu=replace(base_cfg.cpu, cores=cores),
                      weight_cpu=float(12 * copies / 2), weight_gpu=1.0)
        spec = MixSpec(mix_name, scale=scale, seed=seed, cpu_copies=copies)
        per = sweep_grid([spec], ("profess", "hydrogen"), cfg, runner=runner)
        out["cores"].append({
            "cpu_cores": cores,
            "hydrogen_speedup": per["hydrogen"][mix_name].weighted_speedup,
            "profess_speedup": per["profess"][mix_name].weighted_speedup,
        })
    return out


def fig11_geometry(mixes=("C1", "C5"), *, scale: float = 1.0, seed: int = 7,
                   assocs=(1, 4, 16), blocks=(64, 256, 2048),
                   runner: SweepEngine | None = None) -> list[dict]:
    """Fig. 11: associativity (A) x block size (B) sweep.

    Each cell reports HAShCache / ProFess / Hydrogen weighted speedups
    normalized to the non-partitioned baseline of the *same* geometry.
    HAShCache runs on the sweep geometry (chaining only at A=1) per the
    paper's methodology.
    """
    rows = []
    base_cfg = default_system()
    specs = [MixSpec(n, scale=scale, seed=seed) for n in mixes]
    for a in assocs:
        for b in blocks:
            cfg = base_cfg.with_geometry(assoc=a, block=b)
            per = sweep_grid(specs, ("hashcache", "profess", "hydrogen"),
                             cfg, native_geometry=False, runner=runner)
            rows.append({"assoc": a, "block": b,
                         **{d: geomean([per[d][n].weighted_speedup
                                        for n in mixes])
                            for d in ("hashcache", "profess", "hydrogen")}})
    return rows


def kvcache_grid(mixes=("kvcache", "kvcache-batch", "kvcache-long"), *,
                 scale: float = 1.0, seed: int = 7,
                 capacities_mb=(2, 4, 8), designs=KVCACHE_DESIGNS,
                 runner: SweepEngine | None = None) -> list[dict]:
    """KV-cache serving grid: serving shape x HBM capacity x design.

    The mixes vary sequence length and batch size (``kvcache`` = the
    balanced decode stream, ``kvcache-batch`` = four interleaved
    requests, ``kvcache-long`` = double context budget), and each is run
    at several fast-tier capacities — the token-placement analogue of
    the paper's Fig. 11 geometry sweep.  Each row reports per-design
    weighted speedups normalized to the non-partitioned baseline of the
    same capacity.
    """
    rows = []
    base_cfg = default_system()
    specs = [MixSpec(n, scale=scale, seed=seed) for n in mixes]
    for cap in capacities_mb:
        cfg = base_cfg.with_fast(hbm2e(capacity=cap * MB))
        per = sweep_grid(specs, tuple(designs), cfg, runner=runner)
        for n in mixes:
            rows.append({"capacity_mb": cap, "mix": n,
                         **{d: per[d][n].weighted_speedup
                            for d in designs}})
    return rows
