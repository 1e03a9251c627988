"""Service-level chaos: crash, signal, and network faults end to end.

The ``service-chaos`` gate (scripts/check_all.py).  Where
tests/test_service.py proves the happy path and in-process drains,
this harness attacks a *real* ``repro serve`` subprocess through the
fault kinds PR 10 added to :mod:`repro.faults`:

* ``kill``    — the server process dies (``os._exit``) right after
  journaling a cell completion; a restarted server must replay the
  journal and finish the campaign with rows **bit-identical** to an
  uninterrupted ``api.sweep(engine="fast")`` run, the recovered cells
  visible in the cache-hit accounting.
* SIGTERM     — graceful drain mid-campaign: exit 0 (journal intact,
  no data loss), restart serves the identical rows.
* ``drop``    — a streaming connection is severed mid-stream; the
  client resumes from its last received row with no gaps and no
  duplicate rows.
* ``journal`` — journal appends fail (disk full); the server degrades
  instead of dying and surfaces the loss through ``/v1/health``.

Everything is seeded injection — no live randomness, so a failing run
reproduces exactly.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any

import pytest

from repro import api, faults
from repro.service import (CampaignSpec, HealthReport, ServiceClient,
                           ServiceError)
from repro.service.journal import JOURNAL_FILE
from repro.service.server import serve_in_thread

ROOT = Path(__file__).resolve().parent.parent
TINY = dict(scale=0.02, seed=7)

_LISTEN_RE = re.compile(r"listening on http://[\d.]+:(\d+)")


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    """No injector leaks into (or out of) any test."""
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    previous = faults.install(None)
    yield
    faults.install(previous)


def start_server(journal: Path, *, fault_spec: str | None = None,
                 extra: tuple[str, ...] = ()) -> tuple[Any, int]:
    """Launch ``repro serve --journal ...`` and wait for its port."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep \
        + env.get("PYTHONPATH", "")
    env.pop(faults.FAULTS_ENV, None)
    if fault_spec:
        env[faults.FAULTS_ENV] = fault_spec
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
         "--journal", str(journal), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, cwd=str(ROOT))
    line = proc.stdout.readline()             # blocks until the banner
    m = _LISTEN_RE.search(line)
    if not m:
        _code, tail = finish(proc)
        raise AssertionError(f"server failed to start: {line + tail!r}")
    return proc, int(m.group(1))


def finish(proc, timeout: float = 60.0) -> tuple[int, str]:
    """Collect a server subprocess: (exit code, remaining output).

    Always closes the output pipe and reaps the process, so no path
    leaves an unclosed file or a running child behind.
    """
    try:
        out = proc.stdout.read() or ""
        code = proc.wait(timeout=timeout)
    finally:
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return code, out


# --------------------------------------------------- kill-and-restart

def test_kill_and_restart_streams_bit_identical_rows(tmp_path):
    """The tentpole acceptance proof (ISSUE 10).

    Generation 1 of the server is killed by fault injection right
    after it journals the ``waypart@C1`` completion; generation 2
    replays the journal, re-enqueues what is missing, and finishes the
    campaign — and the concatenated rows the client saw are
    bit-identical to an uninterrupted ``api.sweep(engine="fast")``.
    The spec asks for ``engine="batch"``, as journals written by earlier
    servers do: the restart replays that record under the alias.
    """
    journal = tmp_path / "journal"
    spec = CampaignSpec(mixes=("C1",), designs=("waypart", "hydrogen"),
                        engine="batch", **TINY)
    kill = "kill:1x1~waypart@seed=0"          # generation 1 only
    proc, port = start_server(journal, fault_spec=kill)
    client = ServiceClient("127.0.0.1", port, retry=0)
    rows = []
    submitted = client.submit(spec)
    with pytest.raises(ServiceError):
        for row in client.stream(submitted.job_id):
            rows.append(row)
    code, _out = finish(proc)
    assert code == faults.CRASH_EXIT_CODE     # died the injected death
    records = [json.loads(line) for line in
               (journal / JOURNAL_FILE).read_text().splitlines()]
    assert [r["spec"]["engine"] for r in records
            if r["type"] == "campaign"] == ["batch"]

    # Same fault plan on the restart: the rule only hits generation 1.
    proc2, port2 = start_server(journal, fault_spec=kill)
    try:
        client2 = ServiceClient("127.0.0.1", port2)
        client2.wait_ready()
        recovered = client2.submit(spec, attach=True)
        assert recovered.job_id == submitted.job_id   # attached, not new
        rows += list(client2.stream(recovered.job_id,
                                    from_row=len(rows)))
        final = client2.last_status
    finally:
        proc2.terminate()
        finish(proc2)
    assert final is not None and final.state == "done"
    assert not final.failures

    ref = api.sweep(mixes=["C1"], designs=("waypart", "hydrogen"),
                    engine="fast", cache=None, **TINY).rows()
    key = lambda r: (r.design, r.mix)         # noqa: E731
    assert sorted(rows, key=key) == sorted(ref, key=key)
    # The kill fired *after* the waypart@C1 done-record went durable,
    # so at least that cell was recovered from the journal, not re-run.
    assert final.cache_hits >= 1


def test_client_run_rides_through_the_crash_window(tmp_path):
    """`ServiceClient.run` itself survives a crash + quick restart."""
    journal = tmp_path / "journal"
    spec = CampaignSpec(mixes=("C1",), designs=("waypart",), **TINY)
    kill = "kill:1x1~waypart@seed=0"
    proc, port = start_server(journal, fault_spec=kill)
    client = ServiceClient("127.0.0.1", port, retry=6)
    status = client.submit(spec)

    rows = []
    restarted = None
    try:
        stream = client.stream(status.job_id)
        while True:
            try:
                rows.append(next(stream))
            except StopIteration:
                break
            except ServiceError:
                # Crash window: bring the successor up on the same
                # journal, then resume from the last received row.
                assert finish(proc)[0] == faults.CRASH_EXIT_CODE
                restarted, port2 = start_server(journal, fault_spec=kill)
                client2 = ServiceClient("127.0.0.1", port2, retry=6)
                client2.wait_ready()
                client2.submit(spec, attach=True)
                rows += list(client2.stream(status.job_id,
                                            from_row=len(rows)))
                client = client2
                break
        final = client.last_status
    finally:
        for p in (proc, restarted):
            if p is not None and not p.stdout.closed:
                p.terminate()
                finish(p)
    assert final is not None and final.state == "done"
    ref = api.sweep(mixes=["C1"], designs=("waypart",), engine="fast",
                    cache=None, **TINY).rows()
    key = lambda r: (r.design, r.mix)         # noqa: E731
    assert sorted(rows, key=key) == sorted(ref, key=key)


# -------------------------------------------------- SIGTERM drain

@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGINT])
def test_signal_drains_gracefully_and_restart_serves_identical(
        tmp_path, sig):
    """Satellite: signal mid-campaign -> exit 0, journal complete,
    restart streams rows bit-identical to the uninterrupted run."""
    journal = tmp_path / "journal"
    spec = CampaignSpec(mixes=("C1", "C2"), designs=("waypart",),
                        engine="fast", **TINY)
    # One-cell batches + first-attempt hangs stretch the campaign so
    # the signal reliably lands mid-flight.
    proc, port = start_server(journal, fault_spec="hang:1x1@seed=0",
                              extra=("--batch-cells", "1"))
    client = ServiceClient("127.0.0.1", port)
    submitted = client.submit(spec)
    proc.send_signal(sig)
    code, out = finish(proc)
    assert code == 0, f"drain reported data loss:\n{out}"
    assert "draining" in out

    proc2, port2 = start_server(journal)
    try:
        client2 = ServiceClient("127.0.0.1", port2)
        client2.wait_ready()
        health = HealthReport.from_json(client2.health())
        assert health.journal is not None and health.journal["ok"]
        recovered = client2.submit(spec, attach=True)
        assert recovered.job_id == submitted.job_id
        rows = list(client2.stream(recovered.job_id))
        final = client2.last_status
    finally:
        proc2.terminate()
        finish(proc2)
    assert final is not None and final.state == "done"
    ref = api.sweep(mixes=["C1", "C2"], designs=("waypart",),
                    engine="fast", cache=None, **TINY).rows()
    key = lambda r: (r.design, r.mix)         # noqa: E731
    assert sorted(rows, key=key) == sorted(ref, key=key)


# -------------------------------------------- connection drops (in-proc)

def test_dropped_stream_resumes_without_gaps_or_duplicates():
    spec = CampaignSpec(mixes=("C1",), designs=("waypart", "hydrogen"),
                        **TINY)
    with serve_in_thread(port=0, workers=1) as handle:
        clean, final = ServiceClient(handle.host, handle.port).run(spec)
        assert final.ok
    # Sever the connection right after row 0 of job-1, every time that
    # exact (job, row) pair is streamed; the resumed connection starts
    # at row 1 and never re-triggers the rule.
    faults.install("drop:1x9~row0@seed=0")
    try:
        with serve_in_thread(port=0, workers=1) as handle:
            chaos, final = ServiceClient(handle.host,
                                         handle.port).run(spec)
    finally:
        faults.install(None)
    assert final.ok and final.state == "done"
    assert [r.to_json() for r in chaos] == [r.to_json() for r in clean]


def test_dropped_stream_without_retry_budget_surfaces():
    faults.install("drop:1x9~row0@seed=0")
    try:
        with serve_in_thread(port=0, workers=1) as handle:
            client = ServiceClient(handle.host, handle.port, retry=0)
            spec = CampaignSpec(mixes=("C1",), designs=("waypart",),
                                **TINY)
            status = client.submit(spec)
            with pytest.raises(ServiceError, match="broke|without"):
                list(client.stream(status.job_id))
    finally:
        faults.install(None)


# ------------------------------------------- journal faults (in-proc)

def test_journal_write_failure_degrades_not_dies(tmp_path):
    faults.install("journal:1x9@seed=0")      # disk is gone
    try:
        with pytest.warns(RuntimeWarning, match="disabling the journal"):
            with serve_in_thread(port=0, workers=1,
                                 journal=tmp_path / "journal") as handle:
                client = ServiceClient(handle.host, handle.port)
                spec = CampaignSpec(mixes=("C1",), designs=("waypart",),
                                    engine="fast", **TINY)
                rows, final = client.run(spec)   # service still serves
                health = HealthReport.from_json(client.health())
    finally:
        faults.install(None)
    assert final.ok and len(rows) == 2
    assert health.journal is not None
    assert health.journal["ok"] is False      # ...but the loss is loud
    assert handle.server.journal.disabled
