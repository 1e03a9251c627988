"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main, make_parser


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
#: through the batch engine.
COMPARE_CASES = (
    (("--mix", "C1", "--scale", "0.05", "--designs", "waypart"),
     ("baseline", "waypart")),
    (("--mix", "kvcache", "--designs", "hydrogen,kv-windowpin,kv-tokenlru",
      "--engine", "batch", "--scale", "0.05", "--no-cache"),
     ("baseline", "hydrogen", "kv-windowpin", "kv-tokenlru")),
)


def test_compare_table(capsys):
    for argv, designs in COMPARE_CASES:
        code, out = run_cli(capsys, "compare", *argv)
        assert code == 0
        assert all(d in out for d in designs), out


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
