"""End-to-end and unit tests for the campaign service (docs/service.md).

The load-bearing claims, in test form: schema-v1 payloads round-trip
bit-identically; the weighted-fair queue favors the interactive class
by its configured weight; an in-process server streams rows that are
*bit-identical* to ``api.sweep(engine="fast")``; overlapping
concurrent campaigns share cells (the dedup counter fires); and a
fault-injected campaign still completes its stream, with the failures
accounted on the final :class:`~repro.service.schema.JobStatus`.
"""

from __future__ import annotations

import asyncio
import math
import socket
import threading
import types

import pytest

from repro import api, faults
from repro.experiments.resilience import SweepReport
from repro.service import (CampaignSpec, CellKey, CellRow, FairQueue,
                           HealthReport, JobStatus, Journal, PRIORITIES,
                           SchemaError, ServiceClient, ServiceError)
from repro.service.schema import SCHEMA_VERSION
from repro.service.journal import resolve_journal
from repro.service.server import ServiceHandle, serve_in_thread

TINY = dict(scale=0.02, seed=7)


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    """No injector leaks into (or out of) any test."""
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    previous = faults.install(None)
    yield
    faults.install(previous)


# ------------------------------------------------------------- schema v1

def sample_row(**over) -> CellRow:
    kw = dict(design="waypart", mix="C1", cycles_cpu=123456.5,
              cycles_gpu=654321.25, speedup_cpu=1.0625,
              speedup_gpu=0.9375, weighted_speedup=1.015625)
    kw.update(over)
    return CellRow(**kw)


def test_cell_row_json_round_trip_is_bit_identical():
    row = sample_row(speedup_cpu=1.0000000000000002)  # non-representable
    again = CellRow.from_json(row.to_json())
    assert again == row                       # dataclass eq: bit-exact


def test_cell_row_nan_maps_to_none_on_the_wire():
    row = sample_row(cycles_cpu=None, speedup_cpu=float("nan"))
    wire = row.to_json()
    assert wire["cycles_cpu"] is None and wire["speedup_cpu"] is None
    again = CellRow.from_json(wire)
    assert math.isnan(again.speedup_cpu)
    assert again.cycles_cpu is None


def test_newer_schema_version_is_rejected():
    wire = sample_row().to_json()
    wire["schema_version"] = SCHEMA_VERSION + 1
    with pytest.raises(SchemaError, match="newer"):
        CellRow.from_json(wire)


def test_campaign_spec_round_trip_and_validation():
    spec = CampaignSpec(mixes=("C1", "C2"), designs=("waypart",),
                        priority="interactive", **TINY)
    again = CampaignSpec.from_json(spec.to_json())
    assert again == spec
    cells = spec.cells()                      # baseline auto-prepended
    assert cells[0] == CellKey(mix="C1", design="baseline")
    assert len(cells) == 4
    with pytest.raises(SchemaError, match="mixes"):
        CampaignSpec(mixes=(), designs=("waypart",)).validate()
    with pytest.raises(SchemaError, match="priority"):
        CampaignSpec(mixes=("C1",), designs=("waypart",),
                     priority="vip").validate()
    with pytest.raises(SchemaError, match="missing"):
        CampaignSpec.from_json({"mixes": ["C1"]})


def test_job_status_round_trip():
    st = JobStatus(job_id="job-9", state="running", total_cells=6,
                   done_cells=2, rows=2, deduped=1, cache_hits=1,
                   failures=({"label": "waypart@C1", "kind": "error",
                              "error": "boom", "attempts": 2},))
    again = JobStatus.from_json(st.to_json())
    assert again == st and not again.ok
    bad = st.to_json()
    bad["state"] = "exploded"
    with pytest.raises(SchemaError, match="state"):
        JobStatus.from_json(bad)


# --------------------------------------------------------- fair queue

def test_fair_queue_is_fifo_within_a_class():
    q = FairQueue()
    for item in "abc":
        q.push(item, priority="batch")
    assert [q.pop() for _ in range(3)] == list("abc")
    assert not q and len(q) == 0


def test_fair_queue_weights_favor_interactive():
    q = FairQueue()
    for i in range(8):
        q.push(("batch", i), priority="batch")
    for i in range(8):
        q.push(("inter", i), priority="interactive")
    order = [q.pop()[0] for _ in range(8)]
    # weight 4:1 -> the first 8 slots serve ~4 interactive per batch.
    ratio = PRIORITIES["interactive"] / PRIORITIES["batch"]
    assert order.count("inter") >= ratio      # at least its weight share


def test_fair_queue_unknown_priority_rejected():
    q = FairQueue()
    with pytest.raises(ValueError, match="unknown priority"):
        q.push("x", priority="vip")


# ------------------------------------------------- report dedup counters

def test_sweep_report_carries_dedup_counters():
    rep = SweepReport(submitted=5, deduped=3, cache_hits=2)
    assert rep.deduped == 3 and rep.cache_hits == 2
    assert "5 submitted, 2 unique" in rep.summary()
    assert "2 cache hits (100%)" in rep.summary()


# ------------------------------------------------------------- journal

def test_journal_append_and_replay_round_trip(tmp_path):
    with Journal(tmp_path / "j") as j:
        assert j.campaign("job-1", {"mixes": ["C1"]})
        assert j.done("digest-a")
        assert j.failed("digest-b", {"label": "x@C1", "kind": "error",
                                     "error": "boom", "attempts": 2})
        assert j.appended == 3
    records = Journal(tmp_path / "j").replay()
    assert [r["type"] for r in records] == ["campaign", "done", "failed"]
    assert all(r["schema_version"] == SCHEMA_VERSION for r in records)
    assert records[0]["job_id"] == "job-1"
    assert records[2]["failure"]["error"] == "boom"


def test_journal_quarantines_a_torn_tail(tmp_path):
    j = Journal(tmp_path / "j")
    j.campaign("job-1", {"mixes": ["C1"]})
    j.done("digest-a")
    j.close()
    blob = j.path.read_bytes()
    j.path.write_bytes(blob + b'{"type": "done", "dig')   # crash mid-append
    j2 = Journal(tmp_path / "j")
    with pytest.warns(RuntimeWarning, match="torn tail"):
        records = j2.replay()
    assert [r["type"] for r in records] == ["campaign", "done"]
    assert j2.quarantined == 1
    assert j2.path.read_bytes() == blob       # truncated back to intact
    # ...and a fresh replay of the repaired file is quiet and complete.
    assert len(Journal(tmp_path / "j").replay()) == 2


def test_journal_newer_schema_is_rejected_and_unknown_type_skipped(
        tmp_path):
    j = Journal(tmp_path / "j")
    j.append({"type": "campaign", "job_id": "job-1", "spec": {}})
    j.append({"type": "lease", "who": "future-feature"})
    j.close()
    with pytest.warns(RuntimeWarning, match="unknown record type"):
        records = Journal(tmp_path / "j").replay()
    assert [r["type"] for r in records] == ["campaign"]
    bad = Journal(tmp_path / "bad")
    bad.append({"type": "done", "digest": "d",
                "schema_version": SCHEMA_VERSION})
    bad.close()
    blob = bad.path.read_bytes().replace(
        f'"schema_version": {SCHEMA_VERSION}'.encode(),
        f'"schema_version": {SCHEMA_VERSION + 1}'.encode())
    bad.path.write_bytes(blob)
    with pytest.raises(SchemaError, match="newer"):
        Journal(tmp_path / "bad").replay()


def test_journal_write_failure_warns_once_and_disables(tmp_path):
    faults.install("journal:1x9@seed=0")      # every append raises OSError
    try:
        j = Journal(tmp_path / "j")
        with pytest.warns(RuntimeWarning, match="disabling the journal"):
            assert j.done("digest-a") is False
        assert j.disabled and j.appended == 0
        assert j.done("digest-b") is False    # silent no-op once disabled
    finally:
        faults.install(None)
    assert Journal(tmp_path / "j").replay() == []


def test_resolve_journal_normalizes(tmp_path):
    assert resolve_journal(None) is None
    j = resolve_journal(tmp_path / "j")
    assert isinstance(j, Journal) and resolve_journal(j) is j
    with pytest.raises(TypeError, match="journal must be"):
        resolve_journal(42)


# ---------------------------------------------------------- e2e service

@pytest.fixture(scope="module")
def service():
    with serve_in_thread(port=0, workers=1) as handle:
        yield handle


def test_health_endpoint(service):
    client = ServiceClient(service.host, service.port)
    health = client.health()
    assert health["ok"] is True
    assert health["schema_version"] == SCHEMA_VERSION


def test_concurrent_clients_bit_identical_and_deduped(service):
    """Two overlapping campaigns race; rows match api.sweep bit-for-bit."""
    spec_a = CampaignSpec(mixes=("C1", "C2"), designs=("waypart",),
                          **TINY)
    spec_b = CampaignSpec(mixes=("C1",), designs=("waypart", "hydrogen"),
                          priority="interactive", **TINY)
    results: dict[str, tuple] = {}

    def run(tag: str, spec: CampaignSpec) -> None:
        client = ServiceClient(service.host, service.port)
        results[tag] = client.run(spec)

    threads = [threading.Thread(target=run, args=("a", spec_a)),
               threading.Thread(target=run, args=("b", spec_b))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert set(results) == {"a", "b"}

    rows_a, final_a = results["a"]
    rows_b, final_b = results["b"]
    assert final_a.ok and final_b.ok
    assert final_a.state == final_b.state == "done"
    assert len(rows_a) == final_a.rows == 4   # baseline+waypart x C1,C2
    assert len(rows_b) == final_b.rows == 3   # baseline+2 designs x C1

    # The streams must be bit-identical to the in-process facade.
    ref_a = api.sweep(mixes=["C1", "C2"], designs=("waypart",),
                      engine="fast", cache=None, **TINY).rows()
    assert sorted(rows_a, key=lambda r: (r.design, r.mix)) == \
        sorted(ref_a, key=lambda r: (r.design, r.mix))
    ref_b = api.sweep(mixes=["C1"], designs=("waypart", "hydrogen"),
                      engine="fast", cache=None, **TINY).rows()
    assert sorted(rows_b, key=lambda r: (r.design, r.mix)) == \
        sorted(ref_b, key=lambda r: (r.design, r.mix))

    # The overlapping cells (baseline@C1, waypart@C1) were computed once
    # and shared: one of the two campaigns saw a nonzero dedup counter.
    assert final_a.deduped + final_b.deduped > 0


def test_resubmitting_a_finished_campaign_dedups_every_cell(service):
    spec = CampaignSpec(mixes=("C1",), designs=("waypart",), **TINY)
    client = ServiceClient(service.host, service.port)
    first_rows, _ = client.run(spec)
    again_rows, final = client.run(spec)
    assert final.deduped == final.total_cells == 2
    assert sorted(again_rows, key=lambda r: r.design) == \
        sorted(first_rows, key=lambda r: r.design)


def test_status_polling_and_unknown_job(service):
    client = ServiceClient(service.host, service.port)
    status = client.submit(CampaignSpec(mixes=("C1",),
                                        designs=("waypart",),
                                        **TINY))
    assert status.state in ("queued", "running", "done")
    assert status.total_cells == 2
    list(client.stream(status.job_id))        # drain to completion
    done = client.status(status.job_id)
    assert done.state == "done" and done.done_cells == 2
    with pytest.raises(ServiceError, match="404"):
        client.status("job-does-not-exist")
    with pytest.raises(ServiceError, match="400"):
        client.submit({"mixes": [], "designs": ["waypart"]})


def test_stream_from_row_skips_already_received_rows(service):
    spec = CampaignSpec(mixes=("C1",), designs=("waypart", "hydrogen"),
                        **TINY)
    client = ServiceClient(service.host, service.port)
    rows, final = client.run(spec)
    assert final.ok and len(rows) == 3
    resumed = list(client.stream(final.job_id, from_row=1))
    assert resumed == rows[1:]
    assert client.last_status is not None
    assert list(client.stream(final.job_id, from_row=99)) == []


def test_health_reports_queue_shape_and_no_journal(service):
    client = ServiceClient(service.host, service.port)
    health = HealthReport.from_json(client.health())
    assert health.ok and health.state == "serving"
    assert set(health.queued_by_class) == set(PRIORITIES)
    assert health.journal is None             # this fixture runs bare
    assert health.max_queued_cells is None


@pytest.mark.parametrize("length", ["abc", "-5"])
def test_bad_content_length_is_a_400(service, length):
    """A malformed or negative Content-Length is the client's error."""
    request = (f"POST /v1/campaigns HTTP/1.1\r\nHost: test\r\n"
               f"Content-Length: {length}\r\n\r\n").encode()
    with socket.create_connection((service.host, service.port),
                                  timeout=30) as sock:
        sock.sendall(request)
        with sock.makefile("rb") as stream:
            reply = stream.read()
    assert reply.startswith(b"HTTP/1.1 400 Bad Request\r\n"), reply[:60]
    assert b"Content-Length" in reply.partition(b"\r\n\r\n")[2]


def test_backpressure_returns_429_while_the_queue_is_full():
    # One-cell batches + a hang on every first attempt keep cells parked
    # in the queue long enough to observe admission control.
    faults.install("hang:1x1@seed=0")
    try:
        with serve_in_thread(port=0, workers=1, batch_cells=1,
                             max_queued_cells=1) as handle:
            client = ServiceClient(handle.host, handle.port, retry=None)
            first = client.submit(CampaignSpec(
                mixes=("C1", "C2"), designs=("waypart",), **TINY))
            with pytest.raises(ServiceError, match="429") as exc:
                client.submit(CampaignSpec(
                    mixes=("C3",), designs=("waypart",), **TINY))
            assert exc.value.status == 429
            # A retrying client rides out the backpressure window.
            patient = ServiceClient(handle.host, handle.port, retry=30)
            rows, final = patient.run(CampaignSpec(
                mixes=("C3",), designs=("waypart",), **TINY))
            assert final.ok and len(rows) == 2
            list(client.stream(first.job_id))
    finally:
        faults.install(None)


def test_drain_mid_campaign_then_restart_is_bit_identical(tmp_path):
    """In-process graceful drain: the journal hands off to a restart."""
    spec = CampaignSpec(mixes=("C1", "C2"), designs=("waypart",), **TINY)
    faults.install("hang:1x1@seed=0")         # slow cells: drain lands
    try:                                      # mid-campaign
        handle = serve_in_thread(port=0, workers=1, batch_cells=1,
                                 journal=tmp_path / "journal")
        client = ServiceClient(handle.host, handle.port)
        submitted = client.submit(spec)
        handle.drain()
        assert handle.server.draining
        assert not handle.server.data_loss    # journal holds the rest
        assert handle.stop() is True
    finally:
        faults.install(None)
    recovered = serve_in_thread(port=0, workers=1,
                                journal=tmp_path / "journal")
    with recovered:
        assert recovered.server.generation == 2
        client = ServiceClient(recovered.host, recovered.port)
        status = client.submit(spec, attach=True)
        assert status.job_id == submitted.job_id   # recovered, not new
        rows = list(client.stream(status.job_id))
        final = client.last_status
    assert final is not None and final.state == "done"
    ref = api.sweep(mixes=["C1", "C2"], designs=("waypart",),
                    engine="fast", cache=None, **TINY).rows()
    assert sorted(rows, key=lambda r: (r.design, r.mix)) == \
        sorted(ref, key=lambda r: (r.design, r.mix))


@pytest.mark.parametrize("cache", ["other", None])
def test_restart_keeps_row_order_whichever_store_holds_results(tmp_path,
                                                               cache):
    """Replay resolves ``done`` cells from the store the engine writes,
    so a resumed stream keeps its row order with a separate cache too."""
    store = tmp_path / cache if cache else None
    kw = dict(port=0, workers=1, journal=tmp_path / "journal", cache=store)
    first = CampaignSpec(mixes=("C1", "C2"), designs=("hydrogen",), **TINY)
    second = CampaignSpec(mixes=("C3", "C1"), designs=("hydrogen",),
                          priority="interactive", **TINY)
    with serve_in_thread(**kw) as handle:
        client = ServiceClient(handle.host, handle.port)
        client.run(first)
        rows, final = client.run(second)
    assert final.ok and len(rows) == 4
    with serve_in_thread(**kw) as handle:
        client = ServiceClient(handle.host, handle.port)
        job_id = client.submit(second, attach=True).job_id
        assert job_id == final.job_id
        assert list(client.stream(job_id)) == rows


@pytest.mark.parametrize("field, unknown, known", [
    ("mixes", "unknown mix 'C99'", "kvcache"),
    ("designs", "unknown design 'nosuch'", "waypart")])
def test_unknown_names_get_a_400_and_are_never_journaled(tmp_path, field,
                                                        unknown, known):
    bad = {"mixes": ("C1",), "designs": ("waypart",),
           field: (unknown.split("'")[1],)}
    with serve_in_thread(port=0, workers=1,
                         journal=tmp_path / "journal") as handle:
        client = ServiceClient(handle.host, handle.port, retry=None)
        with pytest.raises(ServiceError, match=unknown) as exc:
            client.submit(CampaignSpec(**bad, **TINY))
        assert exc.value.status == 400 and known in str(exc.value)
        assert handle.server.engine.report.submitted == 0
        assert client.health()["jobs"] == 0
    records = Journal(tmp_path / "journal").replay()
    assert [r for r in records if r["type"] == "campaign"] == []


def test_journal_store_backs_a_server_with_caching_off(tmp_path):
    with serve_in_thread(port=0, workers=1, journal=tmp_path / "journal",
                         cache=False) as handle:
        server = handle.server
        assert server.engine.cache is server.journal.cache


def test_submitting_while_draining_gets_503(tmp_path):
    # Flip the drain flag without running the full drain (which ends by
    # closing the socket): submissions inside the drain window get 503.
    with serve_in_thread(port=0, workers=1,
                         journal=tmp_path / "journal") as handle:
        client = ServiceClient(handle.host, handle.port, retry=None)
        done = threading.Event()

        def _flag() -> None:
            handle.server.draining = True
            done.set()

        handle.loop.call_soon_threadsafe(_flag)
        assert done.wait(timeout=10)
        with pytest.raises(ServiceError, match="503") as exc:
            client.submit(CampaignSpec(mixes=("C1",),
                                       designs=("waypart",), **TINY))
        assert exc.value.status == 503
        assert client.health()["state"] == "draining"


def test_service_handle_stop_timeout_warns_and_flags():
    hung = threading.Event()
    thread = threading.Thread(target=hung.wait, daemon=True)
    thread.start()
    server = types.SimpleNamespace(_stopped=asyncio.Event(),
                                   host="127.0.0.1")
    loop = types.SimpleNamespace(
        call_soon_threadsafe=lambda fn, *a: fn(*a))
    handle = ServiceHandle(server, loop, thread)   # type: ignore[arg-type]
    assert handle.stopped_cleanly is True
    with pytest.warns(RuntimeWarning, match="did not stop"):
        assert handle.stop(timeout=0.1) is False
    assert handle.stopped_cleanly is False
    hung.set()
    thread.join(timeout=5)


def test_chaos_stream_completes_with_failure_accounting():
    """Fault-injected campaign: stream still ends, failures accounted."""
    # Every attempt on waypart cells takes a transient fault; with no
    # retry budget those cells fail permanently, baseline survives.
    faults.install("transient:1x9~waypart@seed=0")
    try:
        with serve_in_thread(port=0, workers=1) as handle:
            client = ServiceClient(handle.host, handle.port)
            spec = CampaignSpec(mixes=("C1",), designs=("waypart",),
                                engine="fast", failures="collect", **TINY)
            rows, final = client.run(spec)
    finally:
        faults.install(None)
    assert final.state == "done"              # the stream completed
    assert [r.design for r in rows] == ["baseline"]
    assert len(final.failures) == 1
    failure = final.failures[0]
    assert failure["label"] == "waypart@C1"
    assert "transient" in failure["error"]
    # The same campaign under failures="raise" surfaces client-side.
    faults.install("transient:1x9~waypart@seed=0")
    try:
        with serve_in_thread(port=0, workers=1) as handle:
            client = ServiceClient(handle.host, handle.port)
            with pytest.raises(ServiceError, match="waypart@C1"):
                client.run(CampaignSpec(mixes=("C1",),
                                        designs=("waypart",),
                                        engine="fast", failures="raise",
                                        **TINY))
    finally:
        faults.install(None)


def test_chaos_with_retry_recovers_bit_identically():
    """One transient per cell + a retry -> same rows as a clean run."""
    spec = CampaignSpec(mixes=("C1",), designs=("waypart",),
                        engine="fast", **TINY)
    with serve_in_thread(port=0, workers=1) as handle:
        clean, final = ServiceClient(handle.host, handle.port).run(spec)
    assert final.ok
    faults.install("transient:1x1@seed=0")    # first attempt only
    try:
        with serve_in_thread(port=0, workers=1, retry=2) as handle:
            chaos, final = ServiceClient(handle.host,
                                         handle.port).run(spec)
    finally:
        faults.install(None)
    assert final.ok
    assert sorted(chaos, key=lambda r: r.design) == \
        sorted(clean, key=lambda r: r.design)
