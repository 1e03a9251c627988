"""Smoke tests for scripts/check_all.py (the one-shot repo gate)."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "scripts"))

import check_all  # noqa: E402 - path set up above


def test_gate_selection():
    assert list(check_all.GATES) == ["pytest", "lint", "lint-aux", "docs",
                                     "bench", "ruff", "mypy"]
    assert check_all.select_gates(None, None) == list(check_all.GATES)
    assert check_all.select_gates("lint,docs", None) == ["lint", "docs"]
    assert "pytest" not in check_all.select_gates(None, "pytest")
    with pytest.raises(SystemExit):
        check_all.select_gates("no-such-gate", None)
    with pytest.raises(SystemExit):
        check_all.select_gates(None, "no-such-gate")


def test_optional_gates_skip_cleanly(capsys):
    """ruff/mypy must SKIP (not FAIL) when the tool is not installed."""
    for gate in check_all.OPTIONAL:
        if not check_all.available(gate):
            rc = check_all.main(["--only", gate])
            out = capsys.readouterr().out
            assert rc == 0
            assert "SKIP" in out


def test_lint_gates_pass(capsys):
    """The shipped tree passes its own invariant linter, via the gate.

    Skips pytest (this test *is* the pytest gate — recursing would
    deadlock the worker) and docs/ruff/mypy (covered elsewhere).
    """
    rc = check_all.main(["--only", "lint,lint-aux"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "failed" in out and "0 failed" in out
