"""Result rendering: text tables and the artifact-style ``perf.csv``.

The paper's artifact task T3 extracts per-design, per-combination CPU/GPU
cycles into a CSV whose weighted speedups are the bars of Fig. 5; these
helpers produce the same rows for every experiment driver.
"""

from __future__ import annotations

import csv
import io
from typing import Iterable, Mapping, Sequence

from repro.service.schema import CELL_ROW_FIELDS, CellRow


def format_table(headers: Sequence[str], rows: Iterable[Sequence],
                 floatfmt: str = "{:.3f}") -> str:
    """Plain-text table with right-aligned numeric columns."""
    str_rows = []
    for row in rows:
        str_rows.append([floatfmt.format(c) if isinstance(c, float) else str(c)
                         for c in row])
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.rjust(widths[i]) if i else cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def to_csv(headers: Sequence[str], rows: Iterable[Sequence],
           path: str | None = None) -> str:
    """Render rows as CSV; optionally also write to ``path``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(headers)
    for row in rows:
        writer.writerow(row)
    text = buf.getvalue()
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    return text


def perf_csv_rows(results) -> list[list]:
    """Artifact-style perf rows: design x mix -> cycles and speedups.

    ``results`` is either the grid mapping ``{design: {mix:
    ComboResult}}`` the figure drivers produce, or an iterable of
    :class:`~repro.service.schema.CellRow` (e.g. ``api.sweep(...).
    rows()`` or rows streamed from the campaign server) — every path
    funnels through the same schema-v1 ``CellRow.perf_csv`` rounding,
    so API, CSV, and wire agree cell for cell.
    """
    if isinstance(results, Mapping):
        results = [CellRow.from_combo(design, mix, combo)
                   for design, by_mix in results.items()
                   for mix, combo in by_mix.items()]
    return [row.perf_csv() for row in results]


#: perf.csv column names — single-sourced from the schema-v1 row.
PERF_HEADERS = list(CELL_ROW_FIELDS)

#: Epoch-timeline table columns: (header, sample key) in print order.
EPOCH_COLUMNS = (
    ("epoch", "epoch"), ("t(kcyc)", "t"),
    ("ipc_cpu", "ipc_cpu"), ("ipc_gpu", "ipc_gpu"), ("w_ipc", "weighted_ipc"),
    ("hit_cpu", "hit_rate_cpu"), ("hit_gpu", "hit_rate_gpu"),
    ("uf", "util_fast"), ("us", "util_slow"),
    ("tok_spent", "tokens_spent"), ("tok_byp", "tokens_bypassed"),
    ("tok_bank", "tokens_banked"),
    ("cap", "cap"), ("bw", "bw"), ("tok", "tok"),
)


def epoch_table(epochs, last: int | None = None) -> str:
    """Render telemetry epoch samples as a text timeline table.

    ``epochs`` are :class:`repro.telemetry.EpochRecorder` samples (or
    ``epoch`` records from a JSONL trace).  ``last`` keeps only the final
    N rows.  Columns absent from a sample (e.g. ``cap`` for a policy
    without a tuner) render as ``-``.
    """
    if last is not None:
        epochs = list(epochs)[-last:]
    rows = []
    for e in epochs:
        row = []
        for header, key in EPOCH_COLUMNS:
            v = e.get(key)
            if v is None:
                row.append("-")
            elif key == "t":
                row.append(f"{v / 1e3:.0f}")
            elif key in ("epoch", "tokens_spent", "tokens_bypassed"):
                row.append(f"{v:.0f}")
            else:
                row.append(v)
        rows.append(row)
    return format_table([h for h, _ in EPOCH_COLUMNS], rows)


def format_events(events, prefixes: tuple[str, ...] = ("tuner.",
                                                       "reconfig.")) -> str:
    """Render telemetry decision events as one line each.

    ``events`` are :class:`repro.telemetry.EpochRecorder` events (or
    ``event`` records from a JSONL trace); ``prefixes`` selects the kinds
    to show (the chatty ``faucet.*`` stream is off by default).
    """
    lines = []
    for e in events:
        kind = e.get("kind", "?")
        if prefixes and not kind.startswith(prefixes):
            continue
        t = e.get("t")
        stamp = f"{t / 1e3:10.0f}" if isinstance(t, (int, float)) else " " * 10
        detail = "  ".join(
            f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}"
            for k, v in e.items() if k not in ("kind", "t", "type"))
        lines.append(f"{stamp}  {kind:<22s} {detail}")
    if not lines:
        return "(no events)"
    return "\n".join(lines)

