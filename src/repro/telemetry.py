"""Epoch-level observability: structured telemetry sinks and trace I/O.

The paper's key claims are *dynamic* — the epoch-based hill climber
converges on ``(cap, bw, tok)`` within tens of epochs (Section IV-C,
Figs. 8/9) and token throttling shifts slow-tier bandwidth between
classes over time (Section IV-B) — so the simulator can stream a
structured trace of that trajectory instead of only end-of-run counters.

Three sinks implement one small protocol (:class:`Telemetry`):

* :class:`NullSink` — the default; disabled, zero overhead.  Every
  instrumentation site guards on :attr:`Telemetry.enabled`, so the
  default path computes nothing and numeric results are unchanged.
* :class:`EpochRecorder` — in-memory per-epoch samples (per-class IPC,
  fast-hit rate, channel utilization, token flow, alloc-bit occupancy,
  relocation backlog) plus the decision-event log.
* :class:`JsonlSink` — streams the same records as JSON lines for
  offline analysis (``repro trace --jsonl``, ``--trace`` on
  ``run``/``compare``/``sweep``).

:class:`TeeSink` fans one stream out to several sinks.  The record
schema — every field with its paper cross-reference — is documented in
``docs/telemetry.md``; :func:`validate_records` checks a record stream
against it and :func:`read_jsonl` loads one back from disk.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterable

#: Version stamped into every JSONL trace's leading ``meta`` record.
#: Bump when a documented field is renamed, retyped, or removed.
SCHEMA_VERSION = 1

#: Fields every ``epoch`` record carries (see docs/telemetry.md).  Sinks
#: receive them pre-computed from the simulator; quiescent counters are
#: explicit zeros (``Stats.delta(keys=...)``), so the schema is stable
#: across epochs and designs.
EPOCH_FIELDS = (
    "epoch", "t", "ipc_cpu", "ipc_gpu", "weighted_ipc",
    "hit_rate_cpu", "hit_rate_gpu", "util_fast", "util_slow",
    "tokens_spent", "tokens_bypassed", "tokens_banked",
    "occ_cpu", "occ_gpu", "reloc_backlog",
)


class Telemetry:
    """Sink protocol: per-epoch samples plus irregular decision events.

    Instrumented components (simulator, tuner, token faucet,
    reconfigurator) hold a sink and call :meth:`epoch` / :meth:`event`;
    they guard any non-trivial sample computation on :attr:`enabled`.
    The simulation binds its clock with :meth:`bind` so events emitted
    by components that do not know the time (e.g. the hill climber) are
    still stamped; when the run ends it rebinds a clock frozen at the
    final time, so a sink never keeps a finished simulation alive.
    """

    #: Whether emission sites should compute and send records at all.
    enabled = True

    def __init__(self) -> None:
        self._clock: Callable[[], float] | None = None

    def bind(self, clock: Callable[[], float]) -> None:
        """Attach the simulation clock used to stamp events."""
        self._clock = clock

    @property
    def now(self) -> float | None:
        """Current simulated time, or None when no clock is bound."""
        return self._clock() if self._clock is not None else None

    # -- emission ----------------------------------------------------------

    def epoch(self, sample: dict) -> None:
        """One per-epoch sample (keys per :data:`EPOCH_FIELDS` + policy
        ``describe()`` state)."""
        raise NotImplementedError

    def event(self, kind: str, **fields) -> None:
        """One irregular decision event (``tuner.*`` / ``reconfig.*`` /
        ``faucet.*``), stamped with the bound clock."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release any resources (files)."""


class NullSink(Telemetry):
    """Disabled sink: the zero-overhead default.

    ``enabled`` is False, so instrumentation sites skip building samples
    entirely; the methods are no-ops for call sites that do not guard.
    """

    enabled = False

    def bind(self, clock) -> None:  # noqa: ARG002 - deliberate no-op
        pass

    def epoch(self, sample: dict) -> None:
        pass

    def event(self, kind: str, **fields) -> None:
        pass


#: Shared disabled sink; components default to this instead of None so
#: emission sites never need a null check.
NULL_SINK = NullSink()


class EpochRecorder(Telemetry):
    """In-memory telemetry: a list of epoch samples and an event log.

    The programmatic companion of ``repro trace``: feed it to
    :func:`repro.simulate` via ``telemetry=`` and read ``epochs`` /
    ``events`` afterwards (see ``examples/online_tuning.py``).
    """

    def __init__(self) -> None:
        super().__init__()
        self.epochs: list[dict] = []
        self.events: list[dict] = []

    def epoch(self, sample: dict) -> None:
        self.epochs.append(dict(sample))

    def event(self, kind: str, **fields) -> None:
        self.events.append({"kind": kind, "t": self.now, **fields})

    # -- queries -----------------------------------------------------------

    def last(self, n: int) -> list[dict]:
        """The final ``n`` epoch samples (all of them if fewer)."""
        return self.epochs[-n:] if n else []

    def events_of(self, prefix: str) -> list[dict]:
        """Events whose kind starts with ``prefix`` (e.g. ``"tuner."``)."""
        return [e for e in self.events if e["kind"].startswith(prefix)]

    def records(self, meta: dict | None = None) -> list[dict]:
        """The run as a schema-conformant record stream (meta first)."""
        head = {"type": "meta", "schema": SCHEMA_VERSION, **(meta or {})}
        body = [{"type": "epoch", **e} for e in self.epochs]
        body += [{"type": "event", **e} for e in self.events]
        return [head] + body


def _json_default(obj):
    """Serialize numpy scalars and other numerics that slip into samples."""
    if hasattr(obj, "item"):
        return obj.item()
    return str(obj)


class JsonlSink(Telemetry):
    """Streams records to a JSON-lines file (one object per line).

    The first line is a ``meta`` record carrying the schema version and
    any caller-supplied run identity (design, mix, seed).  Subsequent
    lines are ``epoch`` and ``event`` records in emission order, so the
    decision events of epoch *N* precede epoch *N*'s sample.  Usable as
    a context manager; :func:`read_jsonl` loads the file back.
    """

    def __init__(self, path: str | Path, meta: dict | None = None) -> None:
        super().__init__()
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w")
        self._write({"type": "meta", "schema": SCHEMA_VERSION,
                     **(meta or {})})

    def _write(self, record: dict) -> None:
        self._fh.write(json.dumps(record, default=_json_default) + "\n")

    def epoch(self, sample: dict) -> None:
        self._write({"type": "epoch", **sample})

    def event(self, kind: str, **fields) -> None:
        self._write({"type": "event", "kind": kind, "t": self.now, **fields})

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TeeSink(Telemetry):
    """Fans every record out to several child sinks (e.g. record in
    memory for table rendering while also streaming JSONL to disk)."""

    def __init__(self, *sinks: Telemetry) -> None:
        super().__init__()
        self.sinks = tuple(sinks)

    def bind(self, clock) -> None:
        super().bind(clock)
        for s in self.sinks:
            s.bind(clock)

    def epoch(self, sample: dict) -> None:
        for s in self.sinks:
            s.epoch(sample)

    def event(self, kind: str, **fields) -> None:
        for s in self.sinks:
            s.event(kind, **fields)

    def close(self) -> None:
        for s in self.sinks:
            s.close()


# -- trace I/O and validation ---------------------------------------------


def read_jsonl(path: str | Path) -> list[dict]:
    """Load a :class:`JsonlSink` trace back into a list of records."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def validate_records(records: Iterable[dict]) -> None:
    """Check a record stream against the docs/telemetry.md schema.

    Raises :class:`ValueError` on the first violation: missing/unknown
    record type, wrong schema version, a non-numeric epoch field, or an
    event without a kind.
    """
    records = list(records)
    if not records:
        raise ValueError("empty telemetry stream")
    head = records[0]
    if head.get("type") != "meta":
        raise ValueError(f"first record must be meta, got {head!r}")
    if head.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"schema {head.get('schema')!r} != {SCHEMA_VERSION}")
    for i, rec in enumerate(records[1:], start=1):
        rtype = rec.get("type")
        if rtype == "epoch":
            for field in EPOCH_FIELDS:
                if field not in rec:
                    raise ValueError(f"record {i}: epoch missing {field!r}")
                if not isinstance(rec[field], (int, float)):
                    raise ValueError(
                        f"record {i}: {field}={rec[field]!r} not numeric")
        elif rtype == "event":
            if not isinstance(rec.get("kind"), str) or not rec["kind"]:
                raise ValueError(f"record {i}: event without kind: {rec!r}")
        elif rtype != "meta":
            raise ValueError(f"record {i}: unknown type {rtype!r}")
