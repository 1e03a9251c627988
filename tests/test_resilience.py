"""Tests for the sweep resilience layer (docs/robustness.md).

Covers the retry/timeout/failure-policy primitives, the deterministic
fault injector, pool-death recovery and degradation in the engine, the
cache-flush-on-interrupt contract, the simulation stall watchdog, and
the end-to-end ``repro sweep --chaos`` acceptance check.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import replace

import pytest

from repro import faults
from repro.cli import main as cli_main
from repro.config import default_system
from repro.engine.batch import FastSimulation
from repro.engine.simulator import Simulation, SimulationStalled, simulate
from repro.experiments.cache import SweepCache
from repro.experiments.resilience import (JobTimeout, RetryPolicy,
                                          SweepReport, failure_from,
                                          resolve_failure_policy,
                                          resolve_retry, time_limit)
from repro.experiments.sweep import MixSpec, SweepEngine, SweepJob
from repro.experiments.designs import make_policy
from repro.telemetry import EpochRecorder

CFG = default_system()

TINY = dict(cpu_refs=1200, gpu_refs=6000)

#: Zero-backoff policy so retry-path tests don't sleep.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0)


def spec(name="C1", **kw):
    return MixSpec(name, **{"seed": 4, **TINY, **kw})


def job(design="baseline", **kw):
    return SweepJob(spec(), design, CFG, **kw)


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    """No injector leaks into (or out of) any test."""
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    previous = faults.install(None)
    yield
    faults.install(previous)


# ------------------------------------------------------------- RetryPolicy

def test_retry_policy_delay_is_deterministic():
    rp = RetryPolicy(max_attempts=4, seed=9)
    assert rp.delay("waypart@C1", 1) == rp.delay("waypart@C1", 1)
    assert rp.delay("waypart@C1", 1) != rp.delay("waypart@C1", 2)
    assert rp.delay("waypart@C1", 1) != rp.delay("baseline@C1", 1)
    # Identical policies (any instance) agree: pure function of config.
    assert RetryPolicy(seed=9).delay("x", 1) == \
        RetryPolicy(seed=9).delay("x", 1)


def test_retry_policy_backoff_grows_and_caps():
    rp = RetryPolicy(max_attempts=9, backoff_base=0.1, backoff_factor=2.0,
                     backoff_max=0.3, jitter=0.0)
    assert rp.delay("j", 1) == pytest.approx(0.1)
    assert rp.delay("j", 2) == pytest.approx(0.2)
    assert rp.delay("j", 5) == pytest.approx(0.3)  # capped


def test_retry_policy_validation():
    with pytest.raises(ValueError, match="max_attempts"):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError, match="jitter"):
        RetryPolicy(jitter=1.5)
    with pytest.raises(ValueError, match="backoff"):
        RetryPolicy(backoff_base=-1.0)
    assert RetryPolicy(max_attempts=1).retryable(1) is False
    assert RetryPolicy(max_attempts=2).retryable(1) is True


def test_resolve_retry_forms():
    assert resolve_retry(None).max_attempts == 1
    assert resolve_retry(2).max_attempts == 3  # N retries = N+1 attempts
    rp = RetryPolicy(max_attempts=5)
    assert resolve_retry(rp) is rp
    with pytest.raises(ValueError, match="retry count"):
        resolve_retry(-1)
    with pytest.raises(TypeError, match="RetryPolicy"):
        resolve_retry(True)  # bools are not retry counts
    with pytest.raises(TypeError, match="RetryPolicy"):
        resolve_retry("twice")


def test_resolve_failure_policy():
    assert resolve_failure_policy("raise") == "raise"
    assert resolve_failure_policy("collect") == "collect"
    with pytest.raises(ValueError, match="failure policy"):
        resolve_failure_policy("ignore")


# -------------------------------------------------------------- time_limit

def test_time_limit_raises_jobtimeout():
    with pytest.raises(JobTimeout, match="budget"):
        with time_limit(0.05, "sleepy"):
            time.sleep(5.0)


def test_time_limit_none_is_noop():
    with time_limit(None, "free"):
        pass
    with time_limit(0, "zero"):
        pass


def test_failure_from_kinds():
    f = failure_from("j", JobTimeout("late"), attempts=2)
    assert f.kind == "timeout" and f.attempts == 2
    g = failure_from("j", ValueError("boom"), attempts=1)
    assert g.kind == "exception" and "ValueError: boom" in g.error
    # `job` stays out of equality so records compare by content.
    assert failure_from("j", ValueError("boom"), 1, job=object()) == \
        failure_from("j", ValueError("boom"), 1, job=object())


# ---------------------------------------------------------- fault injector

def test_fault_spec_parse_roundtrip():
    inj = faults.FaultInjector.parse(
        "crash:0.5,transient:0.6x2~waypart,torn@seed=11")
    assert inj.seed == 11
    assert inj.describe() == "crash:0.5x1,transient:0.6x2~waypart,torn:1x1@seed=11"


def test_fault_spec_errors():
    for bad in ("explode", "crash:1.5", "crash x2", "transient:1x0",
                "crash@seed=nope", ""):
        with pytest.raises(faults.FaultSpecError):
            faults.FaultInjector.parse(bad)


def test_fault_should_is_pure_and_attempt_bounded():
    inj = faults.FaultInjector.parse("transient:1x2@seed=3")
    assert inj.should("transient", "k", attempt=1)
    assert inj.should("transient", "k", attempt=2)
    assert not inj.should("transient", "k", attempt=3)  # times exhausted
    assert not inj.should("crash", "k", attempt=1)      # kind not planned
    # Same decisions from an identically configured injector.
    again = faults.FaultInjector.parse("transient:1x2@seed=3")
    assert [inj.should("transient", "k", a) for a in (1, 2, 3)] == \
        [again.should("transient", "k", a) for a in (1, 2, 3)]


def test_fault_match_restricts_keys():
    inj = faults.FaultInjector.parse("transient:1~waypart@seed=0")
    assert inj.should("transient", "waypart@C1")
    assert not inj.should("transient", "baseline@C1")


def test_install_and_env_activation(monkeypatch):
    assert faults.active() is None
    monkeypatch.setenv(faults.FAULTS_ENV, "transient:1@seed=2")
    assert faults.active().seed == 2
    installed = faults.FaultInjector.parse("crash:1@seed=7")
    faults.install(installed)
    assert faults.active() is installed  # programmatic beats environment
    faults.install(None)
    assert faults.active().seed == 2


# ----------------------------------------------- engine: retries and faults

def test_transient_fault_retried_to_identical_result():
    rec = EpochRecorder()
    faults.install("transient:1x1@seed=0")
    eng = SweepEngine(retry=FAST_RETRY, telemetry=rec)
    rep = eng.run([job("waypart")])
    faults.install(None)
    clean = SweepEngine().run([job("waypart")])
    assert rep.ok and rep.retries == 1
    assert rep.results == clean.results  # recovery never changes results
    events = rec.events_of("sweep.")
    assert [e["kind"] for e in events] == ["sweep.retry"]
    assert events[0]["label"] == "waypart@C1"


def test_hang_fault_times_out_and_retries():
    faults.install("hang:1x1@seed=0")
    eng = SweepEngine(retry=FAST_RETRY, job_timeout=1.0)
    rep = eng.run([job("waypart")])
    assert rep.ok and rep.retries == 1


def test_exhausted_timeout_collected_as_timeout_failure():
    faults.install("hang:1x9@seed=0")
    eng = SweepEngine(job_timeout=0.5, failures="collect")
    rep = eng.run([job("waypart")])
    assert not rep.ok and rep.failures[0].kind == "timeout"
    assert len(rep.failures) == 1 and rep.simulated == 0
    assert "1 failed (1 timeout)" in rep.summary()


def test_raise_policy_fails_fast_collect_keeps_going():
    faults.install("transient:1x9~waypart@seed=0")
    with pytest.raises(faults.InjectedFault):
        SweepEngine().run([job("waypart")])
    eng = SweepEngine(failures="collect")
    rep = eng.run([job("waypart"), job("baseline")])
    assert len(rep.failures) == 1
    assert rep.failures[0].label == "waypart@C1"
    assert rep.failures[0].job == job("waypart")  # resubmittable
    assert list(rep.results) == [job("baseline")]  # the healthy one ran


def test_one_run_report_counts_each_job_once(tmp_path):
    """One run's report, pinned: a duplicate, a cache recall, a fault
    retried once and a job that exhausts its retries, each counted once,
    with results and failures in submission order."""
    SweepEngine(cache=SweepCache(tmp_path)).run([job("baseline")])
    faults.install("transient:1x1~waypart,transient:1x9~hydrogen")
    eng = SweepEngine(cache=SweepCache(tmp_path), failures="collect",
                      retry=RetryPolicy(max_attempts=2, backoff_base=0.0))
    rep = eng.run([job("waypart"), job("baseline"), job("hydrogen"),
                   job("waypart")])
    assert eng.report is rep and not rep.ok
    assert (rep.submitted, rep.deduped, rep.cache_hits, rep.simulated,
            rep.retries, rep.requeued, rep.pool_restarts, rep.degraded) \
        == (4, 1, 1, 1, 2, 0, 0, False)
    assert list(rep.results) == [job("waypart"), job("baseline")]
    assert [(f.label, f.kind, f.error, f.attempts) for f in rep.failures] \
        == [("hydrogen@C1", "exception", "InjectedFault: injected "
             "transient fault for hydrogen@C1 (attempt 2)", 2)]
    assert rep.failures[0].job == job("hydrogen")  # resubmittable
    assert rep.wall > 0 and list(rep.job_walls) == ["waypart@C1"]
    pinned = replace(rep, wall=1.5, job_walls={"waypart@C1": 0.5})
    assert pinned.summary().splitlines() == [
        "sweep: 4 submitted, 3 unique, 1 simulated, 1 cache hits (33%), "
        "1 worker(s), 1.5s wall",
        "slowest jobs: waypart@C1 0.50s",
        "resilience: 2 retried, 1 failed (0 timeout), "
        "0 pool restart(s) (0 requeued)"]
    assert SweepReport().ok and SweepReport().summary() == (
        "sweep: 0 submitted, 0 unique, 0 simulated, 0 cache hits (0%), "
        "1 worker(s), 0.0s wall")


# ------------------------------------------- engine: pool death / degrade

def test_pool_death_recovers_without_losing_jobs():
    faults.install("crash:1x1@seed=0")  # every first attempt kills a worker
    rec = EpochRecorder()
    jobs = [job(d) for d in ("baseline", "waypart", "hydrogen")]
    eng = SweepEngine(workers=2, telemetry=rec)
    rep = eng.run(jobs)
    faults.install(None)
    clean = SweepEngine().run(jobs)
    assert rep.ok and len(rep.results) == 3
    assert rep.pool_restarts >= 1 and rep.requeued >= 1
    assert rep.results == clean.results  # bit-identical through the respawn
    assert any(e["kind"] == "sweep.pool_restart"
               for e in rec.events_of("sweep."))


def test_repeated_pool_deaths_degrade_to_serial():
    faults.install("crash:1x3@seed=0")  # one crash per pool generation
    rec = EpochRecorder()
    jobs = [job("baseline"), job("waypart")]
    eng = SweepEngine(workers=2, retry=FAST_RETRY, telemetry=rec)
    rep = eng.run(jobs)
    faults.install(None)
    clean = SweepEngine().run(jobs)
    assert rep.ok and rep.degraded
    assert rep.results == clean.results
    assert any(e["kind"] == "sweep.degraded"
               for e in rec.events_of("sweep."))


# -------------------------------------------------- interrupt / torn cache

def test_keyboard_interrupt_flushes_completed_to_cache(tmp_path):
    jobs = [job(d) for d in ("baseline", "waypart", "hydrogen")]

    def boom(line):
        if "[1/" in line:  # fires after the first completion is cached
            raise KeyboardInterrupt

    eng = SweepEngine(workers=2, cache=SweepCache(tmp_path), progress=boom)
    with pytest.raises(KeyboardInterrupt):
        eng.run(jobs)
    flushed = len(SweepCache(tmp_path))
    assert flushed >= 1
    # Rerun resumes from the flushed entries instead of starting over.
    resumed = SweepEngine(cache=SweepCache(tmp_path))
    rep = resumed.run(jobs)
    assert rep.ok and rep.cache_hits == flushed


def test_keyboard_interrupt_terminates_pool_workers():
    """Ctrl-C mid-pool leaves no worker running its cell to the end."""
    slow = [SweepJob(MixSpec(m, scale=0.3, seed=4), "hydrogen", CFG)
            for m in ("C1", "C5", "C9")]
    before = set(multiprocessing.active_children())

    def boom(line):
        if "[1/" in line:   # the quick job is done; the slow ones run
            raise KeyboardInterrupt

    eng = SweepEngine(workers=2, progress=boom)
    with pytest.raises(KeyboardInterrupt):
        eng.run([job("baseline")] + slow)
    deadline = time.monotonic() + 1.0
    while set(multiprocessing.active_children()) - before \
            and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not set(multiprocessing.active_children()) - before


def test_job_budget_off_the_main_thread_warns():
    """SIGALRM budgets fire only on the main thread: an in-process job
    run from another thread is unbounded, and the engine says so."""
    eng = SweepEngine(job_timeout=5.0)
    worker = threading.Thread(target=eng.run, args=([job("baseline")],))
    with pytest.warns(RuntimeWarning, match="main thread"):
        worker.start()
        worker.join(timeout=60)
    assert not worker.is_alive() and eng.report.ok


def test_torn_cache_write_quarantined_on_resume(tmp_path):
    faults.install("torn:1@seed=0")  # truncate every cache entry written
    jobs = [job("baseline"), job("waypart")]
    first = SweepEngine(cache=SweepCache(tmp_path)).run(jobs)
    faults.install(None)
    resumed = SweepEngine(cache=SweepCache(tmp_path))
    rep = resumed.run(jobs)
    assert rep.cache_hits == 0                # every entry was torn
    assert rep.simulated == 2                 # quarantined and re-run
    assert rep.results == first.results       # to identical results
    # The re-simulated (untorn) entries now serve hits.
    third = SweepEngine(cache=SweepCache(tmp_path)).run(jobs)
    assert third.results == rep.results and third.cache_hits == 2


# ---------------------------------------------------------- stall watchdog

@pytest.mark.parametrize("sim_cls", [Simulation, FastSimulation])
def test_watchdog_raises_after_stalled_epochs(sim_cls):
    sim = sim_cls(CFG, make_policy("baseline"), spec().build(),
                  stall_epochs=2)
    sim._check_progress(0.0)  # first observation establishes the floor
    sim._check_progress(1.0)
    with pytest.raises(SimulationStalled, match="C1"):
        sim._check_progress(2.0)


def test_watchdog_resets_on_progress():
    sim = Simulation(CFG, make_policy("baseline"), spec().build(),
                     stall_epochs=2)
    sim._check_progress(0.0)
    sim._check_progress(1.0)
    sim._last_retired["cpu"] = 100.0  # progress arrives
    sim._check_progress(2.0)
    assert sim._stall_count == 0
    sim.stall_epochs = None  # disabled: never raises
    for t in range(10):
        sim._check_progress(float(t))


def test_watchdog_threads_through_simulate_and_stays_pure():
    mix = spec().build()
    guarded = simulate(CFG, make_policy("baseline"), mix)
    unguarded = simulate(CFG, make_policy("baseline"), mix,
                         stall_epochs=None)
    assert guarded == unguarded  # the watchdog observes, never perturbs


# ------------------------------------------------------------- chaos smoke

def test_cli_chaos_smoke_is_bit_identical():
    """The acceptance check: crashes + transients + torn writes recover
    to a grid bit-identical to the fault-free run (exit status 0)."""
    rc = cli_main(["sweep", "--chaos", "--mixes", "C1",
                   "--designs", "waypart", "--scale", "0.02", "--quiet"])
    assert rc == 0
