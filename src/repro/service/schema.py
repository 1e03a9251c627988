"""Versioned wire/result schema shared by the API, CSV, and the wire.

Before this module, ``api.sweep`` rows, ``perf.csv``, and telemetry each
spoke their own ad-hoc dict vocabulary; a client had nothing stable to
program against.  Everything result-shaped now flows through one
family of frozen dataclasses stamped with :data:`SCHEMA_VERSION`:

* :class:`CellKey` — identity of one grid cell (mix x design), which
  the server keys its waiters by; it never crosses the wire.
* :class:`CellRow` — one cell's outcome: cycles, per-class speedups and
  the paper's weighted speedup.  Produced by ``api.SweepResult.rows``,
  consumed by ``report.perf_csv_rows`` and streamed verbatim by the
  campaign server.
* :class:`CampaignSpec` — what a client submits: a grid of mixes x
  designs plus run knobs.
* :class:`JobStatus` — the polling view of a submitted campaign,
  backed by the engine's :class:`~repro.experiments.resilience.
  SweepReport` accounting (failures, dedup and cache-hit counters).

Every class but ``CellKey`` round-trips through ``to_json`` /
``from_json``; the JSON layer is plain ``dict`` / ``list`` / ``str`` /
``float`` so any HTTP client can speak it.  ``from_json`` rejects
payloads from a *newer* schema than this library understands.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Any, Mapping

#: Version stamp carried by every wire payload.  Bump on any change to
#: the field vocabulary; ``from_json`` rejects newer-than-known
#: versions so an old client fails loudly instead of mis-parsing.
SCHEMA_VERSION = 1

#: Recognized failure policies (mirrors resilience.FAILURE_POLICIES
#: without importing the engine stack into the wire layer).
_FAILURE_POLICIES = ("raise", "collect")


class SchemaError(ValueError):
    """A payload failed schema validation or version negotiation."""


def check_version(data: Mapping[str, Any], what: str) -> None:
    """Reject payloads stamped with a schema newer than this library."""
    v = data.get("schema_version", SCHEMA_VERSION)
    if not isinstance(v, int) or v < 1:
        raise SchemaError(f"{what}: bad schema_version {v!r}")
    if v > SCHEMA_VERSION:
        raise SchemaError(f"{what}: schema_version {v} is newer than the "
                          f"supported version {SCHEMA_VERSION}; upgrade "
                          f"the client/server")


def _take(data: Mapping[str, Any], cls: type, what: str) -> dict[str, Any]:
    """Keep the keys ``cls`` knows; fail on missing required fields."""
    known = {f.name for f in fields(cls)}
    out = {k: v for k, v in data.items() if k in known}
    missing = [f.name for f in fields(cls)
               if f.default is MISSING and f.default_factory is MISSING
               and f.name not in out]
    if missing:
        raise SchemaError(f"{what}: missing field(s) {', '.join(missing)}")
    return out


@dataclass(frozen=True)
class CellKey:
    """Identity of one grid cell: which design ran on which mix."""

    mix: str
    design: str


#: Columns of a :class:`CellRow`, in wire and perf.csv order.
CELL_ROW_FIELDS = ("design", "mix", "cycles_cpu", "cycles_gpu",
                   "speedup_cpu", "speedup_gpu", "weighted_speedup")


@dataclass(frozen=True)
class CellRow:
    """One cell's outcome in the unified snake_case vocabulary.

    The single result row shared by ``api.SweepResult.rows()``,
    ``report.perf_csv_rows`` and the campaign server's JSONL stream.
    ``cycles_*`` are ``None`` for an absent class (CPU-only / GPU-only
    mixes); speedups are normalized to the same-mix baseline.
    """

    design: str
    mix: str
    cycles_cpu: float | None
    cycles_gpu: float | None
    speedup_cpu: float
    speedup_gpu: float
    weighted_speedup: float

    @classmethod
    def from_combo(cls, design: str, mix: str, combo: Any) -> "CellRow":
        """Build from a :class:`~repro.experiments.runner.ComboResult`."""
        return cls(design=design, mix=mix,
                   cycles_cpu=combo.result.cycles_cpu,
                   cycles_gpu=combo.result.cycles_gpu,
                   speedup_cpu=combo.speedup_cpu,
                   speedup_gpu=combo.speedup_gpu,
                   weighted_speedup=combo.weighted_speedup)

    def perf_csv(self) -> list[Any]:
        """The artifact-style perf.csv row (rounded, Nones as 0.0)."""
        return [self.design, self.mix,
                round(self.cycles_cpu or 0.0, 1),
                round(self.cycles_gpu or 0.0, 1),
                round(self.speedup_cpu, 4),
                round(self.speedup_gpu, 4),
                round(self.weighted_speedup, 4)]

    def to_json(self) -> dict[str, Any]:
        """Plain-dict wire form (schema-stamped).

        ``float`` repr round-trips exactly through JSON, so a row
        serialized here and parsed by :meth:`from_json` is bit-identical
        — the property the service's e2e tests assert.  NaN (absent
        speedup classes) is mapped to ``None`` on the wire and back.
        """
        out: dict[str, Any] = {"schema_version": SCHEMA_VERSION}
        for name in CELL_ROW_FIELDS:
            v = getattr(self, name)
            if isinstance(v, float) and math.isnan(v):
                v = None
            out[name] = v
        return out

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "CellRow":
        """Inverse of :meth:`to_json`; validates the version stamp."""
        check_version(data, "CellRow")
        kw = _take(data, cls, "CellRow")
        for name in ("speedup_cpu", "speedup_gpu", "weighted_speedup"):
            if kw.get(name) is None:
                kw[name] = float("nan")
        return cls(**kw)


@dataclass(frozen=True)
class CampaignSpec:
    """A client-submitted campaign: a grid of mixes x designs + knobs.

    ``mixes`` are mix names (Table II, LLM or custom ``"cpu1-cpu2:gpu"``
    specs); the server builds them at ``scale`` / ``seed``.  ``engine``
    picks the simulation core (``"batch"`` is accepted as an alias of
    ``"fast"``, so journals written by earlier servers still replay);
    ``priority`` selects the fair-queue class (``"interactive"``
    outweighs ``"batch"`` — see docs/service.md); ``failures`` is the
    client-visible policy: the server always runs the engine under
    ``"collect"`` so a stream completes, and a ``"raise"`` client
    surfaces the first failure locally instead.
    """

    mixes: tuple[str, ...]
    designs: tuple[str, ...]
    scale: float = 0.05
    seed: int = 7
    engine: str = "fast"
    priority: str = "batch"
    failures: str = "collect"
    native_geometry: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "mixes", tuple(self.mixes))
        object.__setattr__(self, "designs", tuple(self.designs))

    def validate(self) -> "CampaignSpec":
        """Structural validation (the server additionally checks the
        engine, mix and design names against the live registries, and
        rejects a campaign naming an unknown one before journaling it)."""
        if not self.mixes:
            raise SchemaError("CampaignSpec: mixes must be non-empty")
        if not self.designs:
            raise SchemaError("CampaignSpec: designs must be non-empty")
        for name in (*self.mixes, *self.designs):
            if not isinstance(name, str) or not name:
                raise SchemaError(
                    f"CampaignSpec: mix/design names must be non-empty "
                    f"strings, got {name!r}")
        if not (isinstance(self.scale, (int, float))
                and math.isfinite(self.scale) and self.scale > 0):
            raise SchemaError(
                f"CampaignSpec: scale must be positive and finite, "
                f"got {self.scale!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise SchemaError(f"CampaignSpec: seed must be an int, "
                              f"got {self.seed!r}")
        from repro.service.queue import PRIORITIES
        if self.priority not in PRIORITIES:
            raise SchemaError(
                f"CampaignSpec: unknown priority {self.priority!r}; "
                f"known: {', '.join(PRIORITIES)}")
        if self.failures not in _FAILURE_POLICIES:
            raise SchemaError(
                f"CampaignSpec: unknown failure policy {self.failures!r}; "
                f"known: {', '.join(_FAILURE_POLICIES)}")
        return self

    def cells(self) -> list[CellKey]:
        """Every (mix x design) cell of the grid, baseline included."""
        designs = self.designs
        if "baseline" not in designs:
            designs = ("baseline", *designs)
        return [CellKey(mix=m, design=d) for d in designs
                for m in self.mixes]

    def to_json(self) -> dict[str, Any]:
        """Plain-dict wire form (schema-stamped)."""
        out = asdict(self)
        out["mixes"] = list(self.mixes)
        out["designs"] = list(self.designs)
        out["schema_version"] = SCHEMA_VERSION
        return out

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        """Inverse of :meth:`to_json`; validates stamp and structure."""
        if not isinstance(data, Mapping):
            raise SchemaError(f"CampaignSpec: expected an object, "
                              f"got {type(data).__name__}")
        check_version(data, "CampaignSpec")
        kw = _take(data, cls, "CampaignSpec")
        for name in ("mixes", "designs"):
            if not isinstance(kw.get(name), (list, tuple)):
                raise SchemaError(f"CampaignSpec: {name} must be a list")
            kw[name] = tuple(kw[name])
        return cls(**kw).validate()


#: Lifecycle states of a submitted campaign job.
JOB_STATES = ("queued", "running", "done")


@dataclass(frozen=True)
class JobStatus:
    """Polling view of one submitted campaign.

    ``state`` walks :data:`JOB_STATES`; ``total_cells`` counts the
    campaign's grid cells (baseline included) and ``done_cells`` how
    many have resolved.  ``deduped`` counts cells this job shared with
    another in-flight or completed campaign (computed once, streamed to
    everyone) and ``cache_hits`` cells recalled from the on-disk result
    cache; ``failures`` carries the ``failures="collect"`` accounting
    as plain dicts (``label`` / ``kind`` / ``error`` / ``attempts``).
    """

    job_id: str
    state: str
    total_cells: int
    done_cells: int = 0
    rows: int = 0
    deduped: int = 0
    cache_hits: int = 0
    failures: tuple[dict[str, Any], ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        """True when the job finished with no failed cells."""
        return self.state == "done" and not self.failures

    def to_json(self) -> dict[str, Any]:
        """Plain-dict wire form (schema-stamped)."""
        out = asdict(self)
        out["failures"] = [dict(f) for f in self.failures]
        out["schema_version"] = SCHEMA_VERSION
        return out

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "JobStatus":
        """Inverse of :meth:`to_json`; validates the version stamp."""
        check_version(data, "JobStatus")
        kw = _take(data, cls, "JobStatus")
        if kw.get("state") not in JOB_STATES:
            raise SchemaError(f"JobStatus: unknown state "
                              f"{kw.get('state')!r}")
        kw["failures"] = tuple(dict(f) for f in kw.get("failures", ()))
        return cls(**kw)
