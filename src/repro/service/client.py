"""Blocking convenience client for the campaign server.

Stdlib-only (``http.client`` speaks HTTP/1.1 chunked transfer
natively), so anything that can import :mod:`repro` can talk to a
campaign server with no extra dependencies.  Used by the ``repro
submit`` CLI subcommand, the e2e tests, and the benchmark's
``service`` workload; the wire vocabulary is
:mod:`repro.service.schema` on both sides.

The client carries the service-tier resilience discipline
(docs/service.md "Operations"):

* transient failures — connection refused/reset, 429 (queue full),
  503 (draining) — are retried under a seeded
  :class:`~repro.experiments.resilience.RetryPolicy` (exponential
  backoff, deterministic jitter: two identical runs back off
  identically);
* :meth:`ServiceClient.submit` with ``attach=True`` is idempotent on
  the spec digest — resubmitting after a server crash attaches to the
  journal-recovered job instead of recomputing it;
* :meth:`ServiceClient.stream` resumes a severed stream from the last
  row it received (``?from=N``), so a connection drop or server
  restart mid-stream costs a reconnect, not duplicate or missing rows;
* :meth:`ServiceClient.run` composes all three into submit + stream to
  completion across crashes, drains, and restarts.

Typical use (docs/service.md has the executed version)::

    client = ServiceClient(port=8642)
    status = client.submit(CampaignSpec(mixes=("C1",), designs=("hydrogen",)))
    for row in client.stream(status.job_id):
        print(row.design, row.mix, row.weighted_speedup)
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Iterator, Mapping

from repro.experiments.resilience import (TIMER_LIMIT_S, RetryPolicy,
                                          resolve_retry)
from repro.service.schema import (CampaignSpec, CellRow, JobStatus,
                                  SchemaError)

#: HTTP statuses the client treats as transient (retry with backoff).
TRANSIENT_STATUSES = (429, 503)


class ServiceError(RuntimeError):
    """The server answered with an error, or a stream ended abnormally."""

    def __init__(self, message: str, status: int | None = None) -> None:
        super().__init__(message)
        self.status = status


class ServiceClient:
    """Blocking HTTP client for one campaign server.

    One short-lived connection per call (the server closes after each
    response), so a client object is cheap and holds no sockets between
    calls.  ``timeout`` bounds each socket read — for :meth:`stream`
    that is the max silence *between* rows, not the total campaign
    duration; it must be positive and below
    :data:`~repro.experiments.resilience.TIMER_LIMIT_S` (0 would make the
    socket non-blocking).  ``retry`` (``None`` | retry count |
    ``RetryPolicy``) governs transient-failure handling everywhere:
    connection errors, 429/503 responses, and broken streams; the
    default allows three retries with seeded exponential backoff.  A
    bad ``timeout`` or a negative retry count raises ``ValueError``.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8642,
                 timeout: float = 300.0,
                 retry: "RetryPolicy | int | None" = 3) -> None:
        if not 0 < timeout < TIMER_LIMIT_S:
            raise ValueError(f"timeout must be > 0 and below "
                             f"{TIMER_LIMIT_S:.4g} seconds, got {timeout}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = resolve_retry(retry)
        #: Final :class:`JobStatus` of the most recent :meth:`stream`.
        self.last_status: JobStatus | None = None

    # -- transport ---------------------------------------------------------

    def _request(self, method: str, path: str, body: Any = None
                 ) -> http.client.HTTPResponse:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        payload = None
        headers = {}
        if body is not None:
            payload = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        try:
            conn.request(method, path, body=payload, headers=headers)
            resp = conn.getresponse()
        except OSError as exc:
            conn.close()
            raise ServiceError(
                f"cannot reach service at {self.host}:{self.port}: "
                f"{exc}") from exc
        if resp.status != 200:
            detail = ""
            try:
                detail = json.loads(resp.read().decode() or "{}") \
                    .get("error", "")
            except (ValueError, AttributeError):
                pass
            conn.close()
            raise ServiceError(
                f"{method} {path} -> {resp.status}"
                + (f": {detail}" if detail else ""), status=resp.status)
        return resp

    def _json(self, method: str, path: str, body: Any = None) -> Any:
        resp = self._request(method, path, body)
        try:
            return json.loads(resp.read().decode())
        finally:
            resp.close()

    def _retrying(self, key: str, call: Any) -> Any:
        """Run ``call`` under the retry policy for transient failures."""
        attempt = 0
        while True:
            attempt += 1
            try:
                return call()
            except ServiceError as exc:
                transient = (exc.status is None
                             or exc.status in TRANSIENT_STATUSES)
                if not transient or not self.retry.retryable(attempt):
                    raise
                delay = self.retry.delay(key, attempt)
                if delay > 0:
                    time.sleep(delay)

    # -- endpoints ---------------------------------------------------------

    def health(self) -> dict[str, Any]:
        """``GET /v1/health``: one unretried liveness/queue-depth probe."""
        return self._json("GET", "/v1/health")

    def wait_ready(self, timeout: float = 30.0) -> dict[str, Any]:
        """Poll :meth:`health` until the server answers (startup races).

        Retries only *connection*-level failures — an HTTP error status
        means the server is up and is raised immediately.
        """
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.health()
            except ServiceError as exc:
                if exc.status is not None or time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)

    def submit(self, spec: "CampaignSpec | Mapping[str, Any]", *,
               attach: bool = False) -> JobStatus:
        """Submit a campaign; returns its initial :class:`JobStatus`.

        ``attach=True`` makes the call idempotent on the spec digest:
        if the server already holds a campaign for the byte-identical
        spec — live, or recovered from its journal after a restart —
        the existing job's status comes back instead of a new job.
        Transient failures (connection errors, 429 queue-full, 503
        draining) are retried under the client's policy.
        """
        if isinstance(spec, CampaignSpec):
            spec = spec.to_json()
        path = "/v1/campaigns" + ("?attach=1" if attach else "")
        return JobStatus.from_json(self._retrying(
            f"submit@{self.host}:{self.port}",
            lambda: self._json("POST", path, body=dict(spec))))

    def status(self, job_id: str) -> JobStatus:
        """Poll one campaign's :class:`JobStatus` (retried if transient)."""
        return JobStatus.from_json(self._retrying(
            f"status#{job_id}",
            lambda: self._json("GET", f"/v1/campaigns/{job_id}")))

    # -- streaming ---------------------------------------------------------

    def _stream_once(self, job_id: str, from_row: int
                     ) -> Iterator[CellRow]:
        """One streaming connection; sets :attr:`last_status` at the end."""
        path = f"/v1/campaigns/{job_id}/stream"
        if from_row:
            path += f"?from={from_row}"
        resp = self._request("GET", path)
        try:
            for raw in resp:
                line = raw.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line.decode())
                except ValueError as exc:
                    raise ServiceError(
                        f"bad stream line {line[:100]!r}") from exc
                if data.get("type") == "status":
                    self.last_status = JobStatus.from_json(data)
                elif data.get("type") == "row":
                    yield CellRow.from_json(data)
                else:
                    raise SchemaError(
                        f"unknown stream line type {data.get('type')!r}")
        finally:
            resp.close()

    def stream(self, job_id: str, from_row: int = 0) -> Iterator[CellRow]:
        """Yield :class:`CellRow` per resolved cell until the job is done.

        Stored rows replay first (``from_row`` skips rows a resuming
        caller already holds), so streaming a finished or half-finished
        job is safe.  A severed connection — network drop, server
        restart — is resumed from the last received row under the retry
        policy: the row sequence seen by the caller has no gaps and no
        duplicates.  The final status line lands on :attr:`last_status`;
        running out of retries without one raises :class:`ServiceError`.
        """
        self.last_status = None
        received = from_row
        failures = 0
        while True:
            progressed = False
            try:
                for row in self._stream_once(job_id, received):
                    received += 1
                    progressed = True
                    yield row
                if self.last_status is not None:
                    return
                raise ServiceError(f"stream for {job_id} ended without "
                                   f"a final status line")
            except ServiceError as exc:
                if (exc.status is not None
                        and exc.status not in TRANSIENT_STATUSES):
                    raise          # 404 and friends: not transient
                err = exc
            except (OSError, http.client.HTTPException) as exc:
                err = ServiceError(
                    f"stream for {job_id} broke after {received} "
                    f"row(s): {type(exc).__name__}: {exc}")
            if progressed:
                failures = 0       # forward progress resets the budget
            failures += 1
            if not self.retry.retryable(failures):
                raise err
            delay = self.retry.delay(f"stream#{job_id}", failures)
            if delay > 0:
                time.sleep(delay)

    def run(self, spec: "CampaignSpec | Mapping[str, Any]", *,
            attach: bool = False) -> tuple[list[CellRow], JobStatus]:
        """Submit + stream to completion; returns ``(rows, final status)``.

        The resilient composition: transient submit failures retry, a
        broken stream resumes from the last received row, and a stream
        that ends *incomplete* (the server drained mid-campaign)
        re-attaches by spec digest — on the restarted server that finds
        the journal-recovered job — and picks up where it left off.

        With the spec's ``failures="raise"`` policy, a campaign that
        finished with failed cells raises :class:`ServiceError` (the
        server itself always completes the stream under ``"collect"``).
        """
        raise_on_failure = False
        if isinstance(spec, Mapping):
            raise_on_failure = spec.get("failures") == "raise"
        elif isinstance(spec, CampaignSpec):
            raise_on_failure = spec.failures == "raise"
        status = self.submit(spec, attach=attach)
        rows: list[CellRow] = []
        rounds = 0
        while True:
            rows.extend(self.stream(status.job_id, from_row=len(rows)))
            final = self.last_status
            assert final is not None   # stream() raised otherwise
            if final.state == "done":
                break
            # The server drained (or replied for a recovered job that
            # is still recomputing): re-attach and resume.
            rounds += 1
            if not self.retry.retryable(rounds):
                raise ServiceError(
                    f"campaign {final.job_id} still incomplete "
                    f"({final.done_cells}/{final.total_cells} cells) "
                    f"after {rounds} resume round(s)")
            delay = self.retry.delay(f"resume#{final.job_id}", rounds)
            if delay > 0:
                time.sleep(delay)
            status = self.submit(spec, attach=True)
        if raise_on_failure and final.failures:
            first = final.failures[0]
            raise ServiceError(
                f"campaign {final.job_id}: {len(final.failures)} cell(s) "
                f"failed; first: {first.get('label')} "
                f"({first.get('error')})")
        return rows, final
