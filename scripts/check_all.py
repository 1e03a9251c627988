#!/usr/bin/env python
"""One-shot repository gate: tests, invariant lint, docs, style, types.

Runs every check the project treats as build-blocking and prints a
PASS/FAIL/SKIP summary:

* ``pytest`` — the tier-1 suite (``PYTHONPATH=src python -X dev -m pytest
  -x -q``): dev mode shows the ``ResourceWarning`` of a file or socket
  never closed, which pyproject's ``filterwarnings`` turns into a
  failure;
* ``lint`` — the AST invariant linter over ``src`` (all rules; see
  docs/analysis.md);
* ``lint-aux`` — style-only lint over tests/benchmarks/scripts/examples;
* ``docs`` — public-API docstring/docs coverage (scripts/check_docs.py);
* ``bench`` — the frozen benchmark's self-test (``pytest -q bench``):
  fails when a change under ``src`` breaks what ``bench/run.py`` drives,
  e.g. a renamed engine class or a module missing from its layer map;
* ``ruff`` / ``mypy`` — external style and type gates, configured in
  pyproject.toml.  They are optional dependencies (the ``lint`` extra);
  when not installed the gate reports SKIP rather than failing, and the
  built-in ``lint`` gates remain the enforced floor.

Exit status is non-zero iff any executed gate FAILs.  ``--only`` and
``--skip`` select gates by name, e.g. ``--skip pytest`` for a fast
pre-commit pass or ``--only lint,docs`` while editing documentation.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: Gate name -> command (run from the repo root with src on PYTHONPATH).
GATES: dict[str, list[str]] = {
    "pytest": [sys.executable, "-X", "dev", "-m", "pytest", "-x", "-q"],
    "lint": [sys.executable, "-m", "repro", "lint", "src"],
    "lint-aux": [sys.executable, "-m", "repro", "lint", "--rules", "style",
                 "tests", "benchmarks", "scripts", "examples"],
    "docs": [sys.executable, "scripts/check_docs.py"],
    "bench": [sys.executable, "-m", "pytest", "-q", "bench"],
    "ruff": [sys.executable, "-m", "ruff", "check",
             "src", "tests", "benchmarks", "scripts", "examples"],
    "mypy": [sys.executable, "-m", "mypy"],
}

#: Gates whose runner is an optional dependency (absent -> SKIP).
OPTIONAL = {"ruff": "ruff", "mypy": "mypy"}


def available(gate: str) -> bool:
    """Can this gate run in the current environment?"""
    mod = OPTIONAL.get(gate)
    if mod is None:
        return True
    return importlib.util.find_spec(mod) is not None


def run_gate(name: str, cmd: list[str]) -> tuple[str, float, str]:
    """Execute one gate; returns (status, seconds, output tail)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=REPO, env=env,
                          capture_output=True, text=True)
    dt = time.perf_counter() - t0
    status = "PASS" if proc.returncode == 0 else "FAIL"
    tail = (proc.stdout + proc.stderr).strip()
    return status, dt, tail


def select_gates(only: str | None, skip: str | None) -> list[str]:
    names = list(GATES)
    if only:
        wanted = [t.strip() for t in only.split(",") if t.strip()]
        unknown = [t for t in wanted if t not in GATES]
        if unknown:
            raise SystemExit(f"check_all: unknown gate(s) {unknown}; "
                             f"known: {', '.join(GATES)}")
        names = [n for n in names if n in wanted]
    if skip:
        dropped = {t.strip() for t in skip.split(",") if t.strip()}
        unknown = [t for t in dropped if t not in GATES]
        if unknown:
            raise SystemExit(f"check_all: unknown gate(s) {unknown}; "
                             f"known: {', '.join(GATES)}")
        names = [n for n in names if n not in dropped]
    return names


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="check_all", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--only", metavar="GATES",
                        help="comma-separated gates to run (default: all)")
    parser.add_argument("--skip", metavar="GATES",
                        help="comma-separated gates to leave out")
    parser.add_argument("--verbose", "-v", action="store_true",
                        help="print each gate's output even on PASS")
    args = parser.parse_args(argv)

    results: list[tuple[str, str, float]] = []
    for name in select_gates(args.only, args.skip):
        if not available(name):
            print(f"check_all: {name:8s} SKIP (not installed; "
                  f"pip install -e .[lint])")
            results.append((name, "SKIP", 0.0))
            continue
        status, dt, tail = run_gate(name, GATES[name])
        print(f"check_all: {name:8s} {status} ({dt:.1f}s)")
        if tail and (status == "FAIL" or args.verbose):
            print("\n".join(f"    {line}" for line in tail.splitlines()))
        results.append((name, status, dt))

    failed = [n for n, s, _ in results if s == "FAIL"]
    n_pass = sum(1 for _, s, _ in results if s == "PASS")
    n_skip = sum(1 for _, s, _ in results if s == "SKIP")
    print(f"check_all: {n_pass} passed, {len(failed)} failed, "
          f"{n_skip} skipped")
    if failed:
        print(f"check_all: FAILED gates: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
