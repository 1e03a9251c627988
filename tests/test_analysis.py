"""Tests for repro.analysis — the AST invariant linter.

One fixture module per domain rule (a single known violation each,
asserted by rule id, file, and line), the clean-tree guarantee over
``src/repro``, and the ``repro lint`` CLI contract (text report, exit
codes).
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (DeterminismRule, FloatOrderRule,
                            MutableDefaultRule, PrivateImportRule,
                            RobustnessRule, Rule,
                            SeedFlowRule, StateIsolationRule,
                            StatsKeyRegistryRule, SweepPicklabilityRule,
                            TelemetryPurityRule, UnusedImportRule,
                            default_rules, rules_by_id, run_rules)

REPO = Path(__file__).resolve().parents[1]

#: Minimal registry document for KEY01 fixtures.
FIXTURE_DOCS = textwrap.dedent("""\
    # Telemetry

    ## Stats counter registry

    | Key | Producer | Meaning |
    | --- | --- | --- |
    | `cpu.accesses` | controller | requests |
    | `gpu.accesses` | controller | requests |
    """)


def lint_source(tmp_path: Path, source: str, rule: Rule,
                name: str = "mod.py") -> list:
    """Write one fixture module and run a single rule over it."""
    target = tmp_path / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return run_rules([target], [rule])


def test_det01_unseeded_rng(tmp_path):
    findings = lint_source(tmp_path, """\
        import random

        rng = random.Random()
        """, DeterminismRule())
    assert [f.rule_id for f in findings] == ["DET01"]
    assert findings[0].line == 3
    assert findings[0].path.endswith("mod.py")


def test_det01_wallclock_scoped_to_sim_state_dirs(tmp_path):
    source = """\
        import time

        def now():
            return time.time()
        """
    scoped = lint_source(tmp_path, source, DeterminismRule(),
                         name="core/clock.py")
    assert [f.rule_id for f in scoped] == ["DET01"]
    assert scoped[0].line == 4
    # The same code outside core/engine/hybrid/mem is fine (tools,
    # scripts, and the sweep engine may read the host clock).
    unscoped = lint_source(tmp_path, source, DeterminismRule(),
                           name="tools/clock.py")
    assert unscoped == []


def test_det01_set_iteration_in_sim_state(tmp_path):
    findings = lint_source(tmp_path, """\
        def drain(blocks):
            for b in {1, 2, 3}:
                blocks.append(b)
        """, DeterminismRule(), name="hybrid/drain.py")
    assert [f.rule_id for f in findings] == ["DET01"]
    assert findings[0].line == 2


def test_det01_seeded_rng_is_clean(tmp_path):
    findings = lint_source(tmp_path, """\
        import random

        def make(seed):
            return random.Random(seed)
        """, DeterminismRule(), name="core/rngs.py")
    assert findings == []


def test_tel01_emission_in_assignment(tmp_path):
    findings = lint_source(tmp_path, """\
        class Policy:
            def on_epoch(self):
                got = self.telemetry.event("tuner.trial")
                return got
        """, TelemetryPurityRule())
    assert [f.rule_id for f in findings] == ["TEL01"]
    assert findings[0].line == 3


def test_tel01_bare_statement_is_clean(tmp_path):
    findings = lint_source(tmp_path, """\
        class Policy:
            def on_epoch(self):
                if self.telemetry.enabled:
                    self.telemetry.event("tuner.trial")
        """, TelemetryPurityRule())
    assert findings == []


def test_pck01_lambda_into_sweep_entry(tmp_path):
    findings = lint_source(tmp_path, """\
        from repro.experiments import sweep_grid

        def drive(mixes, designs, cfg):
            return sweep_grid(mixes, designs, cfg,
                              telemetry=lambda: None)
        """, SweepPicklabilityRule())
    assert [f.rule_id for f in findings] == ["PCK01"]
    assert findings[0].line == 5


def test_pck01_lambda_into_corun_grid(tmp_path):
    findings = lint_source(tmp_path, """\
        from repro.experiments import corun_grid

        def drive(mixes, cfg):
            return corun_grid(mixes, cfg, telemetry=lambda: None)
        """, SweepPicklabilityRule())
    assert [f.rule_id for f in findings] == ["PCK01"]
    assert findings[0].line == 4


def test_pck01_nested_function_into_sweep_entry(tmp_path):
    findings = lint_source(tmp_path, """\
        from repro.experiments import sweep_grid

        def drive(mixes, designs, cfg):
            def shaper(cell):
                return cell
            return sweep_grid(mixes, designs, cfg, shaper)
        """, SweepPicklabilityRule())
    assert [f.rule_id for f in findings] == ["PCK01"]
    assert findings[0].line == 6


def test_pck01_progress_callback_is_parent_side(tmp_path):
    findings = lint_source(tmp_path, """\
        from repro.experiments import SweepEngine, sweep_grid

        def drive(mixes, designs, cfg):
            return sweep_grid(
                mixes, designs, cfg,
                runner=SweepEngine(progress=lambda done: print(done)))
        """, SweepPicklabilityRule())
    assert findings == []


def test_pck01_progress_lambda_into_sweep_grid(tmp_path):
    # sweep_grid has no progress= of its own: the callback would land in
    # the pickled job's sim_kw.
    findings = lint_source(tmp_path, """\
        from repro.experiments import sweep_grid

        def drive(mixes, designs, cfg):
            return sweep_grid(mixes, designs, cfg,
                              progress=lambda done: print(done))
        """, SweepPicklabilityRule())
    assert [f.rule_id for f in findings] == ["PCK01"]
    assert findings[0].line == 5


def test_key01_undocumented_key(tmp_path):
    docs = tmp_path / "telemetry.md"
    docs.write_text(FIXTURE_DOCS)
    findings = lint_source(tmp_path, """\
        def record(stats):
            stats.add("cpu.accesses")
            stats.add("gpu.accesses")
            stats.add("cpu.bogus_counter")
        """, StatsKeyRegistryRule(docs))
    assert [f.rule_id for f in findings] == ["KEY01"]
    assert findings[0].line == 4
    assert "cpu.bogus_counter" in findings[0].message


def test_key01_stale_documented_row(tmp_path):
    docs = tmp_path / "telemetry.md"
    docs.write_text(FIXTURE_DOCS + "| `ghost.counter` | nobody | gone |\n")
    findings = lint_source(tmp_path, """\
        def record(stats):
            stats.add("cpu.accesses")
            stats.add("gpu.accesses")
        """, StatsKeyRegistryRule(docs))
    assert [f.rule_id for f in findings] == ["KEY01"]
    assert findings[0].path == str(docs)
    assert "ghost.counter" in findings[0].message


def test_key01_fstring_key_matches_placeholder_rows(tmp_path):
    docs = tmp_path / "telemetry.md"
    docs.write_text(FIXTURE_DOCS)
    findings = lint_source(tmp_path, """\
        def record(stats, klass):
            stats.add(f"{klass}.accesses")
        """, StatsKeyRegistryRule(docs))
    assert findings == []


def test_mut01_mutable_default(tmp_path):
    findings = lint_source(tmp_path, """\
        def collect(x, acc=[]):
            acc.append(x)
            return acc
        """, MutableDefaultRule())
    assert [f.rule_id for f in findings] == ["MUT01"]
    assert findings[0].line == 1


def test_mut01_unsorted_iteration_in_hashing_path(tmp_path):
    source = """\
        def digest_parts(overrides):
            out = []
            for key, value in overrides.items():
                out.append((key, value))
            return out
        """
    findings = lint_source(tmp_path, source, MutableDefaultRule(),
                           name="config_io.py")
    assert [f.rule_id for f in findings] == ["MUT01"]
    assert findings[0].line == 3
    # The same loop outside the digest/cache modules is unremarkable.
    assert lint_source(tmp_path, source, MutableDefaultRule(),
                       name="report.py") == []


def test_mut01_chainmap_default(tmp_path):
    findings = lint_source(tmp_path, """\
        from collections import ChainMap

        def layered(base, scopes=ChainMap()):
            return scopes.new_child(base)
        """, MutableDefaultRule())
    assert [f.rule_id for f in findings] == ["MUT01"]
    assert findings[0].line == 3
    assert "ChainMap()" in findings[0].message


def test_mut01_set_algebra_loop_in_hashing_path(tmp_path):
    findings = lint_source(tmp_path, """\
        def changed_keys(a, b):
            out = []
            for k in set(a) | set(b):
                out.append(k)
            return out
        """, MutableDefaultRule(), name="config_io.py")
    assert [f.rule_id for f in findings] == ["MUT01"]
    assert findings[0].line == 3


def test_sty03_unused_import(tmp_path):
    findings = lint_source(tmp_path, """\
        import os
        import sys

        print(sys.argv)
        """, UnusedImportRule())
    assert [f.rule_id for f in findings] == ["STY03"]
    assert findings[0].line == 1
    assert "os" in findings[0].message


def test_noqa_suppression(tmp_path):
    findings = lint_source(tmp_path, """\
        import random

        rng = random.Random()  # noqa: DET01 -- fixture, order irrelevant
        """, DeterminismRule())
    assert findings == []


def test_api02_cross_module_private_name(tmp_path):
    findings = lint_source(tmp_path, """\
        from repro.experiments.sweep import _solo_variant
        """, PrivateImportRule(), name="repro/experiments/runner.py")
    assert [f.rule_id for f in findings] == ["API02"]
    assert "_solo_variant" in findings[0].message


def test_api02_cross_package_private_module(tmp_path):
    findings = lint_source(tmp_path, """\
        from repro.engine._kernels import drain
        import repro.engine._kernels
        """, PrivateImportRule(), name="repro/experiments/sweep.py")
    assert [f.rule_id for f in findings] == ["API02", "API02"]
    assert "_kernels" in findings[0].message


def test_api02_own_package_private_module_is_legal(tmp_path):
    findings = lint_source(tmp_path, """\
        from repro.engine import _kernels
        from repro.engine._kernels import drain
        """, PrivateImportRule(), name="repro/engine/batch.py")
    assert findings == []


def test_api02_sibling_private_name_is_flagged(tmp_path):
    # Same *package* is not the same module: sweep reaching into its
    # sibling runner's privates is exactly the coupling API02 bans.
    findings = lint_source(tmp_path, """\
        from repro.experiments.runner import _cycle_ratio
        """, PrivateImportRule(), name="repro/experiments/sweep.py")
    assert [f.rule_id for f in findings] == ["API02"]


def test_api02_dunders_and_outsiders_are_exempt(tmp_path):
    inside = lint_source(tmp_path, """\
        from repro.config import __doc__ as blurb
        from collections import _tuplegetter
        """, PrivateImportRule(), name="repro/mod.py")
    assert inside == []
    outside = lint_source(tmp_path, """\
        from repro.experiments.sweep import _solo_variant
        """, PrivateImportRule(), name="external/mod.py")
    assert outside == []


def test_api02_noqa_suppression(tmp_path):
    findings = lint_source(tmp_path, """\
        from repro.experiments.sweep import _solo_variant  # noqa: API02
        """, PrivateImportRule(), name="repro/mod.py")
    assert findings == []


def test_rob01_bare_except(tmp_path):
    findings = lint_source(tmp_path, """\
        def run(job):
            try:
                return job()
            except:
                return None
        """, RobustnessRule(), name="repro/mod.py")
    assert [f.rule_id for f in findings] == ["ROB01"]
    assert findings[0].line == 4
    assert "bare except" in findings[0].message


def test_rob01_swallowed_baseexception(tmp_path):
    findings = lint_source(tmp_path, """\
        def run(job):
            try:
                return job()
            except (ValueError, BaseException) as exc:
                print(exc)
        """, RobustnessRule(), name="repro/mod.py")
    assert [f.rule_id for f in findings] == ["ROB01"]
    assert "re-raise" in findings[0].message


def test_rob01_reraising_baseexception_is_clean(tmp_path):
    findings = lint_source(tmp_path, """\
        def run(job, tmp):
            try:
                return job()
            except BaseException:
                tmp.unlink()
                raise
        """, RobustnessRule(), name="repro/mod.py")
    assert findings == []


def test_rob01_ignores_code_outside_repro(tmp_path):
    findings = lint_source(tmp_path, """\
        try:
            import fancy
        except:
            fancy = None
        """, RobustnessRule(), name="scripts/mod.py")
    assert findings == []


def test_rob01_noqa_suppression(tmp_path):
    findings = lint_source(tmp_path, """\
        def run(job):
            try:
                return job()
            except:  # noqa: ROB01
                return None
        """, RobustnessRule(), name="repro/mod.py")
    assert findings == []


def test_seed01_laundered_entropy_seed(tmp_path):
    findings = lint_source(tmp_path, """\
        import random
        import time

        def make():
            jitter = time.time_ns()
            return random.Random(jitter)
        """, SeedFlowRule())
    assert [f.rule_id for f in findings] == ["SEED01"]
    assert findings[0].line == 6


def test_seed01_seed_param_arithmetic_is_clean(tmp_path):
    findings = lint_source(tmp_path, """\
        import random

        def make(seed, idx):
            derived = seed * 1000 + idx if idx else seed
            return random.Random(derived)
        """, SeedFlowRule())
    # idx is a plain param with no seed pedigree, but the value still
    # *derives from* the seed — mixing in non-entropy params is fine.
    assert findings == []


def test_seed01_attr_seed_is_clean(tmp_path):
    findings = lint_source(tmp_path, """\
        import numpy as np

        class Gen:
            def fresh(self):
                return np.random.default_rng(self.rng_seed + 1)
        """, SeedFlowRule())
    assert findings == []


def test_seed01_non_seed_param(tmp_path):
    findings = lint_source(tmp_path, """\
        import random

        def make(n):
            return random.Random(n)
        """, SeedFlowRule())
    assert [f.rule_id for f in findings] == ["SEED01"]


def test_seed01_seed_mixed_with_entropy_is_tainted(tmp_path):
    findings = lint_source(tmp_path, """\
        import random
        import time

        def make(seed):
            return random.Random(seed ^ time.time_ns())
        """, SeedFlowRule())
    assert [f.rule_id for f in findings] == ["SEED01"]


def test_seed01_unseeded_is_det01s_finding(tmp_path):
    findings = lint_source(tmp_path, """\
        import random

        rng = random.Random()
        """, SeedFlowRule())
    assert findings == []


def test_iso01_module_level_mutable(tmp_path):
    findings = lint_source(tmp_path, """\
        __all__ = ["step"]

        _CACHE = {}

        def step(cell):
            return cell
        """, StateIsolationRule(), name="engine/batch.py")
    assert [f.rule_id for f in findings] == ["ISO01"]
    assert findings[0].line == 3
    assert "_CACHE" in findings[0].message


def test_iso01_qualified_constructor(tmp_path):
    findings = lint_source(tmp_path, """\
        import collections

        _PENDING = collections.deque()
        """, StateIsolationRule(), name="engine/queue.py")
    assert [f.rule_id for f in findings] == ["ISO01"]
    assert findings[0].line == 3
    assert "_PENDING" in findings[0].message


def test_iso01_class_level_mutable(tmp_path):
    source = """\
        class Tracker:
            seen = []

            def __init__(self):
                self.local = []
        """
    findings = lint_source(tmp_path, source, StateIsolationRule(),
                           name="hybrid/tracker.py")
    assert [f.rule_id for f in findings] == ["ISO01"]
    assert findings[0].line == 2
    assert "Tracker" in findings[0].message


def test_iso01_function_scope_mutation_of_module_global(tmp_path):
    findings = lint_source(tmp_path, """\
        _HITS = ()

        def bump(key):
            global _HITS
            _HITS = _HITS + (key,)
        """, StateIsolationRule(), name="hybrid/hits.py")
    assert [f.rule_id for f in findings] == ["ISO01"]
    assert findings[0].line == 5


def test_iso01_scoped_to_engine_core(tmp_path):
    source = """\
        _CACHE = {}
        """
    # Every simulation-state module is in scope; outside them the same
    # shape is MUT-territory at worst, not a cross-cell aliasing hazard.
    assert [f.rule_id for f in lint_source(
        tmp_path, source, StateIsolationRule(),
        name="engine/simulator.py")] == ["ISO01"]
    assert lint_source(tmp_path, source, StateIsolationRule(),
                       name="experiments/sweep.py") == []


def test_iso01_covers_core(tmp_path):
    findings = lint_source(tmp_path, """\
        class Faucet:
            banks = {}
        """, StateIsolationRule(), name="core/tokens.py")
    assert [f.rule_id for f in findings] == ["ISO01"]
    assert "Faucet" in findings[0].message


def test_iso01_covers_mem(tmp_path):
    findings = lint_source(tmp_path, """\
        STATIC = {"fast": 0.5}

        def retune(tier, value):
            STATIC[tier] = value
        """, StateIsolationRule(), name="mem/energy.py")
    assert [f.rule_id for f in findings] == ["ISO01", "ISO01"]
    assert [f.line for f in findings] == [1, 4]


def test_flt01_sum_over_dict_view(tmp_path):
    findings = lint_source(tmp_path, """\
        def total(latency):
            return sum(latency.values())
        """, FloatOrderRule(), name="core/metrics.py")
    assert [f.rule_id for f in findings] == ["FLT01"]
    assert findings[0].line == 2


def test_flt01_sorted_wrap_is_clean(tmp_path):
    findings = lint_source(tmp_path, """\
        def total(latency):
            return sum(sorted(latency.values()))
        """, FloatOrderRule(), name="core/metrics.py")
    assert findings == []


def test_flt01_fsum_over_set_and_genexp(tmp_path):
    findings = lint_source(tmp_path, """\
        import math

        def fold(weights):
            a = math.fsum({0.1, 0.2, 0.3})
            b = sum(w * 2 for w in weights.values())
            return a + b
        """, FloatOrderRule(), name="mem/fold.py")
    assert [f.rule_id for f in findings] == ["FLT01", "FLT01"]
    assert [f.line for f in findings] == [4, 5]


def test_flt01_scoped_to_sim_state(tmp_path):
    findings = lint_source(tmp_path, """\
        def total(latency):
            return sum(latency.values())
        """, FloatOrderRule(), name="experiments/report.py")
    assert findings == []


def test_noqa_covers_only_its_own_line(tmp_path):
    # The finding (the lambda) sits two lines below the marker: a marker
    # covers the line it is on, not the rest of a wrapped statement.
    source = """\
        from repro.experiments import sweep_grid

        def drive(mixes, designs, cfg):
            return sweep_grid(  # noqa: PCK01 -- fixture
                mixes, designs, cfg,
                on_result=lambda cell: cell)
        """
    findings = lint_source(tmp_path, source, SweepPicklabilityRule())
    assert [(f.rule_id, f.line) for f in findings] == [("PCK01", 6)]
    # On the finding's own line the same marker does suppress it.
    moved = source.replace("(  # noqa: PCK01 -- fixture", "(").replace(
        "lambda cell: cell)", "lambda cell: cell)  # noqa: PCK01")
    assert lint_source(tmp_path, moved, SweepPicklabilityRule()) == []


def test_noqa_in_compound_body_does_not_cover_header(tmp_path):
    source = """\
        def drain(blocks):
            for b in {1, 2, 3}:
                blocks.append(b)  # noqa: DET01
        """
    findings = lint_source(tmp_path, source, DeterminismRule(),
                           name="hybrid/drain.py")
    assert [f.rule_id for f in findings] == ["DET01"]
    assert findings[0].line == 2
    # On the header line itself the suppression does apply.
    header = source.replace("{1, 2, 3}:", "{1, 2, 3}:  # noqa: DET01")
    assert lint_source(tmp_path, header, DeterminismRule(),
                       name="hybrid/drain.py") == []


def test_rules_by_id_specs():
    assert [type(r) for r in rules_by_id("DET01")] == [DeterminismRule]
    assert [r.rule_id for r in rules_by_id("style")] == [
        "STY01", "STY02", "STY03"]
    assert len(rules_by_id("all")) == 13
    assert [type(r) for r in rules_by_id("seedflow")] == [SeedFlowRule]
    with pytest.raises(ValueError):
        rules_by_id("NOPE99")


def test_src_tree_is_clean():
    """The shipped tree satisfies every rule — the build gate itself."""
    findings = run_rules([REPO / "src"], default_rules())
    assert findings == [], "\n".join(f.format() for f in findings)


def run_cli(*argv: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, "-m", "repro", "lint", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True)


def test_cli_exit_code_on_findings(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nr = random.Random()\n")
    proc = run_cli(str(bad))
    assert proc.returncode == 1
    assert f"{bad}:2:5: DET01 " in proc.stdout, proc.stdout


def test_cli_clean_file_exits_zero(tmp_path):
    good = tmp_path / "good.py"
    good.write_text('GREETING = "hello"\n')
    proc = run_cli(str(good))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 finding(s)" in proc.stdout


def test_cli_finds_the_stats_registry_from_the_linted_tree(tmp_path):
    """With no flags, KEY01 finds docs/telemetry.md above the linted
    files — the `lint` gate of scripts/check_all.py relies on it."""
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "telemetry.md").write_text(FIXTURE_DOCS)
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(textwrap.dedent("""\
        def tally(stats):
            stats.add("cpu.accesses", 1)
            stats.add("gpu.accesses", 1)
            stats.add("cpu.typo_hits", 1)
        """))
    proc = run_cli(cwd=tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "src/pkg/mod.py:4:15: KEY01 " in proc.stdout, proc.stdout
    assert "'cpu.typo_hits'" in proc.stdout
    assert "1 finding(s)" in proc.stdout
