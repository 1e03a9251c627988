"""Shared benchmark configuration.

Each benchmark regenerates one of the paper's tables/figures from fresh
simulations and prints the same rows/series the paper reports.  Simulated
trace length is controlled by ``$REPRO_SCALE`` (1.0 = the library's default
scaled run; the benchmarks default to 0.4 so the full suite finishes in
tens of minutes — see EXPERIMENTS.md for the fidelity discussion).

Sweep-engine knobs: ``--jobs N`` fans the figure grids out over N worker
processes (results are bit-identical to serial; only wall-clock changes)
and ``--no-cache`` pins cache-free runs even when ``$REPRO_SWEEP_CACHE``
opts into the on-disk result cache.  The session builds one
``SweepEngine`` from them and every grid-shaped figure driver runs on it
(``runner=``).  The defaults — single process, no cache — are what
tier-1 and committed benchmark runs want: every number is freshly
simulated and deterministic.
"""

import os

import pytest

from repro.experiments.runner import env_scale
from repro.experiments.sweep import SweepEngine

#: Benchmark-default reference-count scale (overridable via $REPRO_SCALE).
BENCH_SCALE = env_scale(0.4)

#: Deterministic seed for every benchmark.
SEED = 7


def pytest_addoption(parser):
    parser.addoption("--jobs", type=int, default=None,
                     help="sweep-engine worker processes (default "
                          "$REPRO_SWEEP_JOBS or 1 = serial; 0 = all cores)")
    parser.addoption("--no-cache", action="store_true",
                     help="disable the on-disk sweep result cache even if "
                          "$REPRO_SWEEP_CACHE enables it")


@pytest.fixture(scope="session")
def sweep_runner(pytestconfig) -> SweepEngine:
    """The one ``SweepEngine`` the figure drivers share (``runner=``).

    Resolution order: pytest flags (``--jobs`` / ``--no-cache``), then the
    ``$REPRO_SWEEP_JOBS`` and ``$REPRO_SWEEP_CACHE`` environment knobs
    (``REPRO_SWEEP_CACHE=1`` uses the default cache directory, any other
    value is taken as a directory path), then the deterministic default:
    one process, no cache.
    """
    jobs = pytestconfig.getoption("--jobs")
    if jobs is None:
        jobs = int(os.environ.get("REPRO_SWEEP_JOBS") or 1)
    cache = None
    if not pytestconfig.getoption("--no-cache"):
        env_cache = os.environ.get("REPRO_SWEEP_CACHE", "")
        if env_cache:
            cache = True if env_cache.lower() in ("1", "true", "yes") \
                else env_cache
    return SweepEngine(workers=jobs, cache=cache)


def run_once(benchmark, fn, *args, **kwargs):
    """Run a whole-figure driver exactly once under pytest-benchmark.

    These are end-to-end experiment regenerations (tens of seconds), not
    microbenchmarks, so a single round is the right measurement.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture(scope="session")
def scale():
    return BENCH_SCALE
