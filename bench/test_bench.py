"""Self-test of the benchmark: ``python -m pytest bench -q``.

Runs every workload at ``--smoke`` size through the same code path as a
real run (subprocesses, set-up children, checks, profiler) and checks
the benchmark's own contracts.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402
from layers import MODULES, LayerMap  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


SMOKE = ("--smoke", "--seconds", "1", "--seed", "3")

#: Benchmark invocations the tests inspect, started together to save time.
RUNS = {
    0: SMOKE + ("--trace", "0"),
    1: SMOKE + ("--trace", "1"),
    "fig5": SMOKE + ("--workload", "fig5", "--inject-mismatch"),
    "service": SMOKE + ("--workload", "service", "--inject-mismatch"),
}


@pytest.fixture(scope="module")
def runs():
    procs = {key: subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        for key, args in RUNS.items()}
    out = {}
    try:
        for key, proc in procs.items():
            stdout, _ = proc.communicate(timeout=150)
            out[key] = proc.returncode, stdout.strip().splitlines()
    finally:
        for proc in procs.values():
            proc.kill()
            proc.wait()
    return out


@pytest.mark.parametrize("trace", [0, 1], ids=["plain", "traced"])
def test_every_declared_metric_is_emitted_with_its_unit(runs, trace):
    status, lines = runs[trace]
    assert status == 0, "\n".join(lines[-20:])
    result = json.loads(lines[-1])
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["workloads"]) == set(WORKLOADS)
    for name, res in result["workloads"].items():
        assert res["correct"] and res["failed"] == 0, name
        assert res["attempted"] >= 1
        got = res["metrics"]
        assert list(got) == [m["name"] for m in declared], name
        for m in declared:
            assert got[m["name"]]["unit"] == m["unit"], (name, m["name"])
            if not trace:
                assert got[m["name"]]["value"] > 0, (name, m["name"])


def test_benchmark_json_matches_the_code():
    assert SPEC["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == run.layer_units()
    assert len(SPEC["per_layer"]) <= 128


@pytest.mark.parametrize("workload", ["fig5", "service"])
def test_injected_mismatch_fails_the_run(runs, workload):
    status, lines = runs[workload]
    result = json.loads(lines[-1])
    assert status != 0
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_layer_map_covers_every_module():
    src = ROOT / "src" / "repro"
    packages = ("traces", "engine", "hybrid", "core", "mem", "experiments",
                "service")
    modules = {p.relative_to(src).as_posix() for pkg in packages
               for p in (src / pkg).rglob("*.py")}
    assert modules - set(MODULES) == set(), "modules without a layer"
    assert {m for m in MODULES if not (src / m).is_file()} == set()
    LayerMap(src)   # every engine class override still exists


def test_percentiles_have_ten_samples_beyond_them():
    # A timed run continues past --seconds until min_units units are
    # done, so the 75th percentile always has >= 10 samples above it.
    # fullscale is the exception: ~7 cells of ~3 s fit in a run, and
    # bench/README.md says its percentiles rest on that few.
    for w in WORKLOADS.values():
        if w.name != "fullscale":
            assert w.min_units * (1 - 0.75) >= 10, w.name


def test_without_the_program_the_benchmark_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fig5", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_labels():
    base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    faster = [v * 1.2 for v in base]
    assert compare.label(base, faster, "higher", 0.1) == "improved"
    assert compare.label(faster, base, "higher", 0.1) == "worse"
    assert compare.label(base, list(base), "higher", 0.1) == "unchanged"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.label(base, noisy, "higher", 0.1) == "unresolved"
    assert compare.label(base, [v * 0.8 for v in base], "lower", 0.1) \
        == "improved"


def test_compare_flags_model_differences():
    def runs(value):
        return [{"seed": 7, "trace": 1, "workloads": {"fig5": {
            "correct": True, "metrics": {
                "model.accesses": {"value": value, "unit": "count"}}}}}]
    assert compare.model_diffs(runs(5.0), runs(5.0)) == []
    assert len(compare.model_diffs(runs(5.0), runs(6.0))) == 1
