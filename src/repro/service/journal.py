"""Durable write-ahead job journal for the campaign server.

PR 5 made the *sweep engine* fault-tolerant; this module extends the
same discipline one layer up.  Without it, every accepted campaign
lives only in server memory: a crash, deploy, or SIGTERM loses the
whole backlog and every client has to notice, resubmit, and recompute.
With it, the server's externally visible state is reconstructible from
disk:

* every accepted :class:`~repro.service.schema.CampaignSpec` is
  appended to ``<dir>/journal.jsonl`` *before* the submission is
  acknowledged (write-ahead), one fsync'd JSON line per record;
* every resolved cell appends a ``done`` (or ``failed``) record after
  its result landed in the engine's content-addressed result store —
  a :class:`~repro.experiments.cache.SweepCache` under ``<dir>/cache``
  unless the server names another, keyed by the same engine digests,
  so the journal never copies a ``SimResult``, it only marks one
  durable;
* on restart, :meth:`Journal.replay` returns the record sequence in
  append order and the server re-runs it as a deterministic event
  replay: campaigns re-register, ``done`` digests resolve from the
  result store (missing or torn entries simply re-enqueue — the
  simulation is deterministic, so a recomputed cell is bit-identical),
  and everything else re-enters the fair queue.

Torn tails are handled like the SweepCache's torn entries: a crash
mid-append leaves a partial last line, which :meth:`replay`
quarantines — the file is truncated back to the last intact record,
a warning names how many bytes were dropped, and recovery proceeds.
A failing append (disk full, permissions, injected via the ``journal``
fault kind of :mod:`repro.faults`) warns once and *disables* the
journal instead of killing the server: availability wins, but the
loss is surfaced — ``disabled`` makes the server's drain path exit
nonzero and the ``/v1/health`` journal block report ``ok: false``.

Record vocabulary (each line additionally carries ``schema_version``,
validated by :func:`~repro.service.schema.check_version` on replay):

=========== ==========================================================
``type``    payload
=========== ==========================================================
``campaign`` ``job_id``, ``spec`` (a ``CampaignSpec.to_json()`` dict)
``done``     ``digest`` — the cell's engine cache key; its result is
             durable in the journal's result store
``failed``   ``digest``, ``failure`` (label/kind/error/attempts dict)
``restart``  no payload — appended after each successful replay, so
             the journal records the server's restart history and the
             replaying server can count its own incarnation (the
             ``generation`` fed to the ``kill`` fault point)
=========== ==========================================================
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import Any, Mapping

from repro import faults
from repro.experiments.cache import SweepCache
from repro.service.schema import SCHEMA_VERSION, check_version

#: Journal record types understood by :meth:`Journal.replay`.
RECORD_TYPES = ("campaign", "done", "failed", "restart")

#: File name of the append-only record log inside the journal directory.
JOURNAL_FILE = "journal.jsonl"


class Journal:
    """Append-only, fsync'd JSONL job journal plus a result store.

    ``root`` is the journal directory (created on first use); the
    record log is ``<root>/journal.jsonl`` and completed cell results
    live in the content-addressed :class:`SweepCache` at
    ``<root>/cache`` (exposed as :attr:`cache` — the campaign server
    wires it in as the engine's result cache unless its ``cache=``
    names another store).

    Every appended record is flushed and fsync'd, so a record returned
    by :meth:`replay` survived a hard crash by construction.
    """

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root)
        self.path = self.root / JOURNAL_FILE
        self.cache = SweepCache(self.root / "cache")
        self._fh: Any = None
        #: Set once an append fails: the journal stops writing for the
        #: rest of the server's life and the loss is surfaced through
        #: health and the drain exit code, never hidden.
        self.disabled = False
        #: Records successfully appended by this process.
        self.appended = 0
        #: Records (and bytes) dropped by torn-tail quarantine.
        self.quarantined = 0

    # -- writing -----------------------------------------------------------

    def append(self, record: Mapping[str, Any]) -> bool:
        """Durably append one record; returns ``True`` on success.

        The record is stamped with ``schema_version``, written as one
        JSON line, flushed, and fsync'd before returning —
        write-ahead semantics for the caller.  An ``OSError`` (real or
        injected through the ``journal`` fault kind) warns once and
        disables the journal; it never propagates.
        """
        if self.disabled:
            return False
        line = json.dumps({"schema_version": SCHEMA_VERSION, **record},
                          sort_keys=True) + "\n"
        try:
            faults.maybe_journal_fail(str(record.get("type", "")))
            if self._fh is None:
                self.root.mkdir(parents=True, exist_ok=True)
                self._fh = open(self.path, "ab")
            self._fh.write(line.encode())
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except OSError as exc:
            self._disable(exc)
            return False
        self.appended += 1
        return True

    def campaign(self, job_id: str, spec_json: Mapping[str, Any]) -> bool:
        """Write-ahead record for an accepted campaign."""
        return self.append({"type": "campaign", "job_id": job_id,
                            "spec": dict(spec_json)})

    def done(self, digest: str) -> bool:
        """Record a resolved cell whose result is durable in the store."""
        return self.append({"type": "done", "digest": digest})

    def failed(self, digest: str, failure: Mapping[str, Any]) -> bool:
        """Record a cell that exhausted its retries."""
        return self.append({"type": "failed", "digest": digest,
                            "failure": dict(failure)})

    def restart(self) -> bool:
        """Mark a completed replay (one more server incarnation)."""
        return self.append({"type": "restart"})

    def _disable(self, exc: OSError) -> None:
        self.disabled = True
        self.close()
        warnings.warn(
            f"job journal append failed ({type(exc).__name__}: {exc}); "
            f"disabling the journal under {self.root} — the server keeps "
            f"serving, but state accepted from now on will NOT survive a "
            f"restart and graceful drain will report data loss",
            RuntimeWarning, stacklevel=3)

    # -- reading -----------------------------------------------------------

    def replay(self) -> list[dict[str, Any]]:
        """Read every intact record, in append order, quarantining tears.

        A partial or undecodable tail — the signature of a crash mid-
        append — is *truncated away* (mirroring the SweepCache's
        torn-entry handling: a record either fully landed or never
        happened) with a warning; everything before it is returned.
        Records from a newer schema raise
        :class:`~repro.service.schema.SchemaError` (do not resume a
        newer server's journal with an old binary); unknown
        record types from the *same* schema are skipped with a warning
        so a journal stays forward-extensible within a version.
        """
        if self._fh is not None:
            self.close()
        try:
            blob = self.path.read_bytes()
        except FileNotFoundError:
            return []
        records: list[dict[str, Any]] = []
        good_end = 0
        pos = 0
        while pos < len(blob):
            nl = blob.find(b"\n", pos)
            if nl < 0:
                break                      # partial tail: no newline landed
            line = blob[pos:nl]
            if line.strip():
                try:
                    rec = json.loads(line.decode())
                    if not isinstance(rec, dict):
                        raise ValueError("record is not an object")
                except (ValueError, UnicodeDecodeError):
                    break                  # torn mid-file: stop trusting
                check_version(rec, "journal record")
                if rec.get("type") not in RECORD_TYPES:
                    warnings.warn(
                        f"job journal: skipping unknown record type "
                        f"{rec.get('type')!r} in {self.path}",
                        RuntimeWarning, stacklevel=2)
                else:
                    records.append(rec)
            good_end = nl + 1
            pos = nl + 1
        if good_end < len(blob):
            dropped = len(blob) - good_end
            self.quarantined += 1
            warnings.warn(
                f"job journal: quarantined a torn tail of {dropped} "
                f"byte(s) in {self.path} (crash mid-append); truncating "
                f"back to the last intact record",
                RuntimeWarning, stacklevel=2)
            try:
                with open(self.path, "r+b") as fh:
                    fh.truncate(good_end)
            except OSError as exc:
                # Cannot repair in place: replay what we trust anyway,
                # but stop appending to a file we cannot truncate.
                self._disable(exc)
        return records

    def close(self) -> None:
        """Close the append handle (reopened lazily on the next write)."""
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def resolve_journal(journal: "Journal | str | Path | None",
                    ) -> Journal | None:
    """Normalize the user-facing ``journal`` argument.

    ``None`` -> journaling off; a path -> a :class:`Journal` rooted
    there; a built :class:`Journal` passes through unchanged.
    """
    if journal is None:
        return None
    if isinstance(journal, Journal):
        return journal
    if isinstance(journal, (str, Path)):
        return Journal(journal)
    raise TypeError(f"journal must be None, a path, or a Journal, "
                    f"got {type(journal).__name__}")
