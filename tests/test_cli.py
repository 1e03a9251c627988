"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main, make_parser
from repro.experiments import runner
from repro.service.client import ServiceClient
from repro.service.server import CampaignServer


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_designs_listing(capsys):
    code, out = run_cli(capsys, "designs")
    assert code == 0
    assert "hydrogen" in out and "C12" in out and "backprop" in out


def test_config_dump_and_override(capsys):
    code, out = run_cli(capsys, "config", "--set", "hybrid.assoc=8")
    assert code == 0
    cfg = json.loads(out)
    assert cfg["hybrid"]["assoc"] == 8


def test_config_bad_override(capsys):
    with pytest.raises(SystemExit):
        main(["config", "--set", "hybrid.assoc"])  # missing =value


def test_run_outputs_json(capsys):
    code, out = run_cli(capsys, "run", "--mix", "C1", "--design", "baseline",
                        "--scale", "0.05")
    assert code == 0
    res = json.loads(out)
    assert res["design"] == "baseline"
    assert res["cycles_cpu"] > 0


def test_run_custom_mix(capsys):
    code, out = run_cli(capsys, "run", "--mix", "gcc-xz:lud",
                        "--design", "waypart", "--scale", "0.05")
    res = json.loads(out)
    assert res["mix"] == "gcc-xz:lud"


#: ``repro compare`` argv -> designs its table must list.  The kvcache
#: row drives the LLM workload family and the kv-* placement baselines
#: through the fast engine.
COMPARE_CASES = (
    (("--mix", "C1", "--scale", "0.05", "--designs", "waypart"),
     ("baseline", "waypart")),
    (("--mix", "kvcache", "--designs", "hydrogen,kv-windowpin,kv-tokenlru",
      "--engine", "fast", "--scale", "0.05", "--no-cache"),
     ("baseline", "hydrogen", "kv-windowpin", "kv-tokenlru")),
)


def test_compare_table(capsys):
    for argv, designs in COMPARE_CASES:
        code, out = run_cli(capsys, "compare", *argv)
        assert code == 0
        assert all(d in out for d in designs), out


def test_run_defaults_to_the_fast_engine(capsys, monkeypatch):
    import repro.engine.batch as batch_engine

    built = []

    class Spy(batch_engine.FastSimulation):
        def __init__(self, *args, **kw):
            built.append(self)
            super().__init__(*args, **kw)

    monkeypatch.setattr(batch_engine, "FastSimulation", Spy)
    argv = ("run", "--mix", "C1", "--design", "waypart", "--scale", "0.05")
    default = run_cli(capsys, *argv)
    assert default[0] == 0 and len(built) == 1
    assert run_cli(capsys, *argv, "--engine", "reference") == default
    assert len(built) == 1


def test_engine_batch_alias_prints_the_fast_output(capsys):
    argv = ("run", "--mix", "kvcache", "--design", "kv-windowpin",
            "--scale", "0.05", "--engine")
    fast = run_cli(capsys, *argv, "fast")
    alias = run_cli(capsys, *argv, "batch")
    assert fast[0] == 0
    assert alias == fast


def test_sweep_command_and_cache(capsys, tmp_path):
    cache_dir = str(tmp_path / "cache")
    args = ("sweep", "--mixes", "C1", "--designs", "waypart",
            "--scale", "0.05", "--jobs", "1", "--cache-dir", cache_dir)
    code, out = run_cli(capsys, *args)
    assert code == 0
    assert "baseline" in out and "waypart" in out and "geomean" in out
    assert "2 simulated" in out

    code, out = run_cli(capsys, *args)  # second invocation: cache-served
    assert code == 0
    assert "2 cache hits (100%)" in out and "0 simulated" in out


def test_sweep_no_cache_and_csv(capsys, tmp_path):
    csv_path = tmp_path / "sweep.csv"
    code, out = run_cli(capsys, "sweep", "--mixes", "C1", "--designs",
                        "waypart", "--scale", "0.05", "--no-cache",
                        "--csv", str(csv_path))
    assert code == 0
    assert csv_path.exists()
    assert "waypart,C1" in csv_path.read_text()


def test_sweep_clear_cache(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    run_cli(capsys, "sweep", "--mixes", "C1", "--designs", "waypart",
            "--scale", "0.05")
    code, out = run_cli(capsys, "sweep", "--clear-cache")
    assert code == 0
    assert "cleared 2 cached result(s)" in out


def test_sweep_unknown_mix(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--mixes", "C99"])


def test_compare_then_sweep_simulates_nothing(capsys, tmp_path):
    """`compare` keys a mix's cells like `sweep` does, so a sweep over
    the same cache directory recalls every cell — for a Table II name
    and for a custom spec alike."""
    for mix in ("C1", "gcc-xz:lud"):
        shared = ("--scale", "0.02", "--cache-dir", str(tmp_path / mix))
        code, _ = run_cli(capsys, "compare", "--mix", mix, "--designs",
                          "waypart", *shared)
        assert code == 0
        code, out = run_cli(capsys, "sweep", "--mixes", mix, "--designs",
                            "waypart", *shared)
        assert code == 0
        assert "2 cache hits (100%)" in out and "0 simulated" in out, mix


def test_compare_unknown_mix(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--mix", "C99"])
    assert exc.value.code == 2
    assert "unknown mix 'C99'" in capsys.readouterr().err


def test_compare_prints_why_a_design_is_missing(capsys, tmp_path):
    code, out = run_cli(capsys, "compare", "--mix", "C1", "--designs",
                        "waypart", "--scale", "0.02", "--no-cache",
                        "--collect-failures", "--faults", "transient:1~waypart")
    assert code == 1
    assert "missing (failed) designs: waypart" in out
    assert ("FAILED waypart@C1: InjectedFault: injected transient fault "
            "for waypart@C1 (attempt 1) [exception, 1 attempt(s)]") in out


#: Every command taking mix or design names, given one unknown name:
#: (argv, what the message names, a known name it must list).
UNKNOWN_NAME_CASES = [
    *(((cmd, "--mix", "C99"), "unknown mix 'C99'", "kvcache")
      for cmd in ("run", "trace", "traces", "sanitize", "compare")),
    (("sweep", "--mixes", "C1,C99"), "unknown mix 'C99'", "kvcache"),
    *(((cmd, "--mix", "C1", "--designs", "hydrogen,nosuch"),
       "unknown design 'nosuch'", "waypart")
      for cmd in ("compare", "sanitize")),
    (("sweep", "--mixes", "C1", "--designs", "hydrogen,nosuch"),
     "unknown design 'nosuch'", "waypart"),
]


@pytest.mark.parametrize(
    "argv, unknown, known", UNKNOWN_NAME_CASES,
    ids=[f"{argv[0]}-{unknown.split()[1]}"
         for argv, unknown, _ in UNKNOWN_NAME_CASES])
def test_unknown_name_is_one_usage_line_before_any_cell(
        argv, unknown, known, monkeypatch, tmp_path, capsys):
    def simulate(*args, **kw):
        raise AssertionError("a cell simulated before the name check")

    monkeypatch.setattr(runner, "simulate", simulate)
    monkeypatch.chdir(tmp_path)           # `traces` writes, sweep caches
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--scale", "0.02"])
    assert exc.value.code == 2
    msg = capsys.readouterr().err
    assert msg.startswith(f"repro {argv[0]}: {unknown}; known: "), msg
    assert known in msg and msg.count("\n") == 1


#: Usage errors outside the name checks: (argv, the one stderr line's
#: start).  Each exits 2, the status argparse gives a usage error, so a
#: wrapper can tell a typo from lint findings or failed cells (exit 1).
USAGE_ERROR_CASES = [
    (("lint", "--rules", "NOPE", "src"), "repro lint: unknown rule 'NOPE'"),
    (("lint", "nosuchdir"), "repro lint: no such path(s): nosuchdir"),
    (("fig", "fig99"), "repro fig: unknown figure 'fig99'; known: table2"),
    (("sanitize", "--engines", "nope"),
     "repro sanitize: unknown engine 'nope'; known: reference"),
    (("config", "--config", "/nonexistent/cfg.json"),
     "repro config: [Errno 2] No such file"),
    (("config", "--set", "hybrid.nope=1"),
     "repro config: unknown config field 'hybrid.nope'"),
    (("config", "--set", "hybrid.assoc=abc"),
     "repro config: --set hybrid.assoc=abc: the value is not JSON"),
    (("config", "--set", "hybrid.assoc=3"),
     "repro config: fast capacity must be a multiple of block*assoc"),
    (("config", "--set", "hybrid.assoc"),
     "repro config: --set expects key=value"),
    (("sweep", "--mixes", "C1", "--faults", "explode"),
     "repro sweep: --faults: unknown fault kind 'explode'"),
    (("sweep", "--mixes", "C1", "--retries", "-1"),
     "repro sweep: retry count must be >= 0, got -1"),
    (("compare", "--retries", "-1"),
     "repro compare: retry count must be >= 0, got -1"),
    (("sweep", "--mixes", "C1", "--timeout", "-1"),
     "repro sweep: job_timeout must be >= 0 seconds, got -1.0"),
    (("compare", "--timeout", "-1"),
     "repro compare: job_timeout must be >= 0 seconds, got -1.0"),
    (("sweep", "--chaos", "--timeout", "-1"),
     "repro sweep: job_timeout must be >= 0 seconds, got -1.0"),
    (("run", "--seed", "-1"), "repro run: seed must be >= 0, got -1"),
    (("compare", "--mix", "gcc-xz:lud", "--seed", "-7"),
     "repro compare: seed must be >= 0, got -7"),
    (("fig", "table2", "--seed", "-1"),
     "repro fig: seed must be >= 0, got -1"),
    (("submit", "--seed", "-1"), "repro submit: seed must be >= 0, got -1"),
    (("serve", "--port", "0", "--batch-cells", "0"),
     "repro serve: batch_cells must be >= 1, got 0"),
    (("serve", "--port", "0", "--max-queued-cells", "0"),
     "repro serve: max_queued_cells must be >= 1, got 0"),
    (("serve", "--port", "0", "--retries", "-1"),
     "repro serve: retry count must be >= 0, got -1"),
    (("serve", "--port", "0", "--timeout", "-1"),
     "repro serve: job_timeout must be >= 0 seconds, got -1.0"),
    # A budget setitimer cannot arm (2**63 ns or more).
    (("sweep", "--mixes", "C1", "--timeout", "inf"),
     "repro sweep: job_timeout must be >= 0 and below 9.223e+09 seconds, "
     "got inf"),
    (("compare", "--timeout", "1e10"),
     "repro compare: job_timeout must be >= 0 and below 9.223e+09 "
     "seconds, got 10000000000.0"),
    (("serve", "--port", "0", "--timeout", "inf"),
     "repro serve: job_timeout must be >= 0 and below 9.223e+09 seconds, "
     "got inf"),
    # The client's own knobs, refused before any request.
    (("submit", "--port", "1", "--retries", "-1"),
     "repro submit: retry count must be >= 0, got -1"),
    (("submit", "--port", "1", "--timeout", "-1"),
     "repro submit: timeout must be > 0 and below 9.223e+09 seconds, "
     "got -1.0"),
    (("submit", "--port", "1", "--timeout", "0"),
     "repro submit: timeout must be > 0 and below 9.223e+09 seconds, "
     "got 0.0"),
    (("submit", "--port", "1", "--timeout", "inf"),
     "repro submit: timeout must be > 0 and below 9.223e+09 seconds, "
     "got inf"),
    # build_mix would floor a scale <= 0 to 1,000/500 references.
    (("run", "--scale", "-1"),
     "repro run: scale must be positive and finite, got -1.0"),
    (("run", "--scale", "0"),
     "repro run: scale must be positive and finite, got 0.0"),
    (("run", "--scale", "nan"),
     "repro run: scale must be positive and finite, got nan"),
    (("sweep", "--scale", "-0.5"),
     "repro sweep: scale must be positive and finite, got -0.5"),
    (("fig", "fig2a", "--scale", "-1"),
     "repro fig: scale must be positive and finite, got -1.0"),
    (("traces", "--scale", "-1"),
     "repro traces: scale must be positive and finite, got -1.0"),
    (("submit", "--port", "1", "--scale", "0"),
     "repro submit: scale must be positive and finite, got 0.0"),
    # Systems the engines cannot run (a zero cadence used to hang).
    (("config", "--set", "epochs.faucet_cycles=0"),
     "repro config: epochs.faucet_cycles must be > 0, got 0"),
    (("config", "--set", "epochs.phase_cycles=0"),
     "repro config: epochs.phase_cycles must be > 0, got 0"),
    (("config", "--set", "epochs.epoch_cycles=-5000"),
     "repro config: epochs.epoch_cycles must be > 0, got -5000"),
    (("config", "--set", "hybrid.assoc=0"),
     "repro config: hybrid.block and hybrid.assoc must be >= 1, "
     "got 256 and 0"),
    (("config", "--set", "hybrid.block=0"),
     "repro config: hybrid.block and hybrid.assoc must be >= 1, "
     "got 0 and 4"),
    (("config", "--set", "hybrid.assoc=-4"),
     "repro config: hybrid.block and hybrid.assoc must be >= 1, "
     "got 256 and -4"),
    (("config", "--set", "fast.capacity=0"),
     "repro config: fast capacity 0 holds no set of block*assoc bytes"),
    (("config", "--set", "cpu.mlp=0"),
     "repro config: cpu.mlp and gpu.mlp must be >= 1, got 0 and 96"),
    (("config", "--set", "gpu.mlp=0"),
     "repro config: cpu.mlp and gpu.mlp must be >= 1, got 8 and 0"),
    (("run", "--scale", "0.02", "--set", "epochs.faucet_cycles=0"),
     "repro run: epochs.faucet_cycles must be > 0, got 0"),
]


@pytest.mark.parametrize("argv, line", USAGE_ERROR_CASES,
                         ids=[" ".join(a) for a, _ in USAGE_ERROR_CASES])
def test_usage_error_is_one_line_and_exit_two(argv, line, capsys,
                                             monkeypatch):
    def simulate(*args, **kw):
        raise AssertionError("a cell simulated despite the usage error")

    def start(self):
        raise AssertionError("a port was bound despite the usage error")

    def request(self, *args, **kw):
        raise AssertionError("a request was sent despite the usage error")

    monkeypatch.setattr(runner, "simulate", simulate)
    monkeypatch.setattr(CampaignServer, "start", start)
    monkeypatch.setattr(ServiceClient, "_request", request)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(line) and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ("fig", "table2", "--config", "/nonexistent.json"),
    ("fig", "fig5", "--hbm3"),
    ("fig", "table2", "--set", "hybrid.assoc=99"),
    ("traces", "--mix", "C1", "--set", "hybrid.assoc=99"),
    ("traces", "--mix", "C1", "--hbm3"),
    ("config", "--seed", "3"),
    ("config", "--scale", "0.5"),
], ids=" ".join)
def test_subcommands_reject_flags_they_ignore(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        make_parser().parse_args(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_traces_command(capsys, tmp_path):
    code, out = run_cli(capsys, "traces", "--mix", "C1", "--scale", "0.05",
                        "--out", str(tmp_path / "t"))
    assert code == 0
    assert out.count(".npz") == 9


def test_fig_unknown(capsys):
    with pytest.raises(SystemExit):
        main(["fig", "fig99"])


def test_hbm3_flag(capsys):
    code, out = run_cli(capsys, "config", "--hbm3")
    cfg = json.loads(out)
    assert cfg["fast"]["name"] == "HBM3"


def test_parser_structure():
    p = make_parser()
    args = p.parse_args(["run", "--mix", "C2", "--design", "hydrogen"])
    assert args.mix == "C2"
    with pytest.raises(SystemExit):
        p.parse_args(["run", "--design", "unknown-design"])


def test_report_command(capsys, tmp_path):
    csv_file = tmp_path / "perf.csv"
    csv_file.write_text(
        "design,mix,cycles_cpu,cycles_gpu,speedup_cpu,speedup_gpu,"
        "weighted_speedup\n"
        "baseline,C1,100,50,1.0,1.0,1.0\n"
        "hydrogen,C1,80,60,1.25,0.83,1.20\n"
        "hydrogen,C2,90,55,1.11,0.91,1.10\n")
    code, out = run_cli(capsys, "report", str(csv_file))
    assert code == 0
    assert "hydrogen" in out and "baseline" in out
    lines = out.strip().splitlines()
    assert lines[2].split()[0] == "hydrogen"  # sorted by geomean desc


def test_trace_command_prints_timeline(capsys):
    code, out = run_cli(capsys, "trace", "--mix", "C1", "--design",
                        "hydrogen", "--scale", "0.05", "--last", "3")
    assert code == 0
    assert "ipc_cpu" in out and "tok_spent" in out   # epoch table header
    assert "decision events" in out
    assert "end state" in out
    # --last 3 keeps the table to header + rule + <=3 rows.
    table = out.split("decision events")[0].strip().splitlines()
    assert len(table) <= 1 + 2 + 3  # banner + header + rule + 3 rows


def test_trace_command_jsonl_and_csv(capsys, tmp_path):
    from repro.telemetry import read_jsonl, validate_records
    jsonl = tmp_path / "t.jsonl"
    csv_path = tmp_path / "t.csv"
    code, out = run_cli(capsys, "trace", "--mix", "C1", "--design",
                        "baseline", "--scale", "0.05",
                        "--jsonl", str(jsonl), "--csv", str(csv_path))
    assert code == 0
    records = read_jsonl(jsonl)
    validate_records(records)
    meta = records[0]
    assert meta["design"] == "baseline" and meta["mix"] == "C1"
    n_epochs = sum(r["type"] == "epoch" for r in records)
    header, *rows = csv_path.read_text().strip().splitlines()
    assert "ipc_cpu" in header
    assert len(rows) == n_epochs


def test_run_trace_flag_writes_jsonl(capsys, tmp_path):
    from repro.telemetry import read_jsonl, validate_records
    path = tmp_path / "run.jsonl"
    code, _ = run_cli(capsys, "run", "--mix", "C1", "--design", "baseline",
                      "--scale", "0.05", "--trace", str(path))
    assert code == 0
    validate_records(read_jsonl(path))


def test_compare_trace_dir_one_file_per_run(capsys, tmp_path):
    from repro.telemetry import read_jsonl, validate_records
    out_dir = tmp_path / "traces"
    code, _ = run_cli(capsys, "compare", "--mix", "C1", "--scale", "0.05",
                      "--designs", "waypart", "--no-cache",
                      "--trace", str(out_dir))
    assert code == 0
    files = sorted(p.name for p in out_dir.glob("*.jsonl"))
    assert files == ["baseline@C1.jsonl", "waypart@C1.jsonl"]
    for p in out_dir.glob("*.jsonl"):
        validate_records(read_jsonl(p))
