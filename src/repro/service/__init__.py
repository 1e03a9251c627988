"""Sweep-as-a-service: the asyncio campaign server and its wire schema.

The package turns the resilient :class:`~repro.experiments.sweep.
SweepEngine` into a serving tier: :mod:`repro.service.schema` defines
the versioned result vocabulary (``CellRow``) shared by ``api.sweep``
rows, ``perf.csv``, and the wire; :mod:`repro.service.server` is a
stdlib-only HTTP/1.1 campaign server that runs cells on the sweep
engine's worker pool, deduplicates identical cells across concurrent clients,
and streams per-cell rows as JSONL; :mod:`repro.service.queue` adds
weighted-fair priority queueing; :mod:`repro.service.journal` is the
write-ahead job journal that makes accepted campaigns survive crashes
and restarts; :mod:`repro.service.health` is the operational
``/v1/health`` schema; :mod:`repro.service.client` is the blocking,
retrying convenience client behind ``repro submit``.
See docs/service.md.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.health import HealthReport
from repro.service.journal import Journal
from repro.service.queue import PRIORITIES, FairQueue
from repro.service.schema import (SCHEMA_VERSION, CampaignSpec, CellKey,
                                  CellRow, JobStatus, SchemaError)
from repro.service.server import CampaignServer, serve

__all__ = [
    "SCHEMA_VERSION", "SchemaError", "CampaignSpec", "CellKey", "CellRow",
    "JobStatus", "FairQueue", "PRIORITIES", "CampaignServer", "serve",
    "ServiceClient", "ServiceError", "Journal", "HealthReport",
]
