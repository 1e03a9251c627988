"""Experiment harness: the design registry, runners with the artifact's
weighted-speedup math, the parallel/cached sweep engine, per-figure
drivers, and report rendering.

The single-cell / grid primitives live here under public names
(``run_design``, ``sweep_grid``, ``corun_grid``); the keyword-only
:mod:`repro.api` facade is the supported entry point, builds the
:class:`SweepEngine` and passes it to them as ``runner=``.
"""

from repro.experiments.cache import SweepCache
from repro.experiments.designs import (ALL_DESIGNS, FIG5_DESIGNS,
                                       KVCACHE_DESIGNS, make_policy)
from repro.experiments.resilience import (JobFailure, JobTimeout,
                                          RetryPolicy, SweepReport)
from repro.experiments.runner import run_design, weighted_speedup
from repro.experiments.sweep import (MixSpec, SweepEngine, SweepJob,
                                     corun_grid, sweep_grid)

__all__ = ["ALL_DESIGNS", "FIG5_DESIGNS", "KVCACHE_DESIGNS", "make_policy",
           "run_design", "sweep_grid", "corun_grid", "weighted_speedup",
           "MixSpec", "SweepCache", "SweepEngine", "SweepJob", "RetryPolicy",
           "JobFailure", "JobTimeout", "SweepReport"]
