"""Experiment runner: solo runs, co-runs, and the paper's speedup math.

The paper's artifact (task T3) computes, per combination and design,
per-class cycle counts, normalizes them to the non-partitioned baseline,
and reports the weighted sum as the design's speedup — these helpers do the
same reduction.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from repro.config import SystemConfig, default_system
from repro.engine.simulator import SimResult, simulate
from repro.experiments.designs import design_config, make_policy
from repro.hybrid.policies.base import PartitionPolicy
from repro.traces.mixes import WorkloadMix


def env_scale(default: float = 1.0) -> float:
    """Global run-length scale, overridable via $REPRO_SCALE.

    Malformed or non-positive values fail with a clear message instead of
    a bare ``ValueError`` deep inside a sweep.
    """
    raw = os.environ.get("REPRO_SCALE")
    if raw is None:
        return float(default)
    try:
        scale = float(raw)
    except ValueError:
        raise ValueError(
            f"$REPRO_SCALE must be a number (e.g. 0.4), got {raw!r}"
        ) from None
    if not math.isfinite(scale) or scale <= 0:
        raise ValueError(
            f"$REPRO_SCALE must be a positive finite number, got {raw!r}")
    return scale


@dataclass(frozen=True)
class ComboResult:
    """A design's outcome on one mix, normalized to the baseline run."""

    mix: str
    design: str
    result: SimResult
    speedup_cpu: float
    speedup_gpu: float
    weighted_speedup: float


def run_design(design: str | PartitionPolicy, mix: WorkloadMix,
               cfg: SystemConfig | None = None, *,
               native_geometry: bool = True, **sim_kw) -> SimResult:
    """Run one design (by registry name or as a policy instance) on a mix.

    The positional single-cell primitive behind :func:`repro.api.
    simulate` — the facade adds mix coercion, engine resolution, and the
    sanitize replay; library code that already holds a built mix may
    call this directly.
    """
    cfg = cfg or default_system()
    if isinstance(design, str):
        policy = make_policy(design)
        cfg = design_config(design, cfg, native_geometry)
    else:
        policy = design
    return simulate(cfg, policy, mix, **sim_kw)


def weighted_speedup(res: SimResult, base: SimResult,
                     w_cpu: float, w_gpu: float) -> ComboResult:
    """Per-class cycle speedups vs baseline, weighted per artifact T3."""
    s_cpu = (base.cycles_cpu / res.cycles_cpu
             if res.cycles_cpu and base.cycles_cpu else 1.0)
    s_gpu = (base.cycles_gpu / res.cycles_gpu
             if res.cycles_gpu and base.cycles_gpu else 1.0)
    total_w = w_cpu + w_gpu
    ws = (w_cpu * s_cpu + w_gpu * s_gpu) / total_w
    return ComboResult(res.mix, res.policy, res, s_cpu, s_gpu, ws)


def _cycle_ratio(num: float | None, den: float | None) -> float:
    """``num / den`` with NaN for absent classes (None or zero cycles)."""
    if num is None or not den:
        return float("nan")
    return num / den


def slowdown_metrics(corun: SimResult, solo_cpu: SimResult | None,
                     solo_gpu: SimResult | None) -> dict[str, float]:
    """Fig. 2(a) reduction of one co-run cell and its solo runs.

    A class with no agents (GPU-only or CPU-only mix) has no solo run and
    ``None`` co-run cycles; its slowdown is NaN rather than a TypeError.
    """
    return {
        "slowdown_cpu": _cycle_ratio(
            corun.cycles_cpu, solo_cpu.cycles_cpu if solo_cpu else None),
        "slowdown_gpu": _cycle_ratio(
            corun.cycles_gpu, solo_gpu.cycles_gpu if solo_gpu else None),
        "corun_cycles_cpu": corun.cycles_cpu,
        "corun_cycles_gpu": corun.cycles_gpu,
    }


def geomean(values) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))

