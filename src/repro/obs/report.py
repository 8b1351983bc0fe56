"""Run-health report: ledger + span log + telemetry, fused.

Where ``repro status`` answers "how is it going *right now*",
``repro report`` answers "what happened, and where did it hurt":

- **slowest cells** — completion records ranked by elapsed seconds;
- **retry blame** — cells ranked by attempts beyond the first, plus
  the ``cell.retry`` events naming the exceptions that caused them;
- **fault timeline** — every supervision incident (lease grants only
  summarized; losses, stall kills, pool rebuilds, poisonings, torn
  lines) in wall-clock order, from ledger lease records and warning
  events;
- **per-phase time** — span durations aggregated by span name, the
  flat profile of the run;
- **cell peaks** — pool cells ranked by the worker's RSS high-water
  mark over the cell (Linux only; the section is left out where the
  kernel refuses the reset).

The report is a plain JSON-able dict (``--json``) with a text
rendering (:func:`format_report`); both are derived from on-disk
artifacts only, so a crashed run reports as well as a finished one.
"""

from __future__ import annotations

import os
from typing import Any

from ..resilience.ledger import LEASE, LOST, OK, QUARANTINED
from .export import read_span_log
from .runstatus import RunStatus, load_run_status
from .telemetry import SPAN_LOG_FILE, read_telemetry, telemetry_dir

#: How many cells the ranked sections keep.
_TOP_N = 10


def _ledger_sections(status: RunStatus, run_dir: str) -> dict[str, Any]:
    """Slowest cells, retry blame and lease incidents from the ledger."""
    from ..jsonlio import load_jsonl
    from ..resilience.ledger import LedgerRecord

    path = os.path.join(run_dir, "ledger.jsonl")
    records: list[Any] = []
    if os.path.exists(path):
        try:
            records, _ = load_jsonl(path, LedgerRecord.from_line)
        except Exception as exc:  # noqa: BLE001 - report, don't die
            status.problems.append(f"ledger unreadable for report: {exc}")
    completions = [r for r in records if r.status in (OK, QUARANTINED)]
    slowest = sorted(
        completions, key=lambda r: r.elapsed_seconds, reverse=True
    )[:_TOP_N]
    retries = sorted(
        (r for r in completions if r.attempts > 1),
        key=lambda r: r.attempts,
        reverse=True,
    )[:_TOP_N]
    incidents = []
    for record in records:
        if record.status not in (LEASE, LOST):
            continue
        meta = record.meta or {}
        if record.status == LOST:
            incidents.append(
                {
                    "kind": "lease.lost",
                    "cell": record.cell_key,
                    "reason": record.error or meta.get("reason"),
                    "blamed": meta.get("blamed"),
                    "crashes": meta.get("crashes"),
                    "wall": meta.get("wall"),
                }
            )
    return {
        "slowest_cells": [
            {
                "cell": r.cell_key,
                "status": r.status,
                "elapsed_seconds": round(r.elapsed_seconds, 6),
                "attempts": r.attempts,
            }
            for r in slowest
        ],
        "retry_blame": [
            {
                "cell": r.cell_key,
                "attempts": r.attempts,
                "status": r.status,
                "error": r.error,
            }
            for r in retries
        ],
        "lease_incidents": incidents,
    }


#: Warning-event kinds that belong on the fault timeline.
_FAULT_KINDS = (
    "pool.lease_stalled",
    "pool.worker_crash",
    "pool.poison",
    "ledger.torn",
    "sweep.drain",
    "cell.retry",
    "cell.quarantined",
)


def _span_sections(run_dir: str, status: RunStatus) -> dict[str, Any]:
    """Per-phase time breakdown and the event-sourced fault timeline."""
    path = os.path.join(run_dir, SPAN_LOG_FILE)
    if not os.path.exists(path):
        return {"phases": [], "fault_timeline": []}
    try:
        spans, events = read_span_log(path)
    except Exception as exc:  # noqa: BLE001 - report, don't die
        status.problems.append(f"span log unreadable for report: {exc}")
        return {"phases": [], "fault_timeline": []}
    phases: dict[str, dict[str, float]] = {}
    for span in spans:
        if span.end is None:
            continue
        bucket = phases.setdefault(
            span.name, {"count": 0, "total_seconds": 0.0, "errors": 0}
        )
        bucket["count"] += 1
        bucket["total_seconds"] += span.duration
        if span.status != "ok":
            bucket["errors"] += 1
    phase_rows = [
        {
            "phase": name,
            "count": int(stats["count"]),
            "total_seconds": round(stats["total_seconds"], 6),
            "mean_seconds": round(
                stats["total_seconds"] / stats["count"], 6
            ),
            "errors": int(stats["errors"]),
        }
        for name, stats in sorted(
            phases.items(),
            key=lambda item: item[1]["total_seconds"],
            reverse=True,
        )
    ]
    timeline = [
        {
            "kind": event.kind,
            "time": round(event.time, 6),
            "level": event.level,
            "message": event.message,
            **{
                k: v
                for k, v in event.fields.items()
                if k in ("cell", "pid", "crashes", "restarts", "signal")
            },
        }
        for event in sorted(events, key=lambda e: e.time)
        if event.kind in _FAULT_KINDS or event.level == "warning"
    ]
    return {"phases": phase_rows, "fault_timeline": timeline}


def _cell_peaks(run_dir: str) -> list[dict[str, Any]]:
    """Per-cell peak RSS from worker telemetry, highest first.

    Each pool worker closes its cell with a ``final`` sample carrying
    ``cell`` and ``cell_peak_rss_kib`` (the worker's RSS high-water
    mark over the cell, ``None`` where the kernel refused the reset);
    one row per cell (a re-dispatched cell keeps its worst peak).
    """
    peaks: dict[str, float] = {}
    for samples in read_telemetry(telemetry_dir(run_dir)).values():
        for sample in samples:
            cell = sample.get("cell")
            peak = sample.get("cell_peak_rss_kib")
            if not isinstance(cell, str) or not isinstance(
                peak, (int, float)
            ) or isinstance(peak, bool):
                continue
            peaks[cell] = max(peaks.get(cell, 0.0), float(peak))
    return [
        {"cell": cell, "cell_peak_rss_kib": round(peak, 3)}
        for cell, peak in sorted(
            peaks.items(), key=lambda item: item[1], reverse=True
        )
    ][:_TOP_N]


def run_report(run_dir: str) -> dict[str, Any]:
    """The full run-health report for one run directory."""
    status = load_run_status(run_dir)
    report: dict[str, Any] = {
        "run_dir": run_dir,
        "manifest": status.manifest,
        "cells": {
            "ok": status.cells_ok,
            "quarantined": status.cells_quarantined,
            "retried": status.cells_retried,
            "resumable": len(status.resumable),
            "planned": status.cells_planned,
        },
        "workers": [
            {
                "stream": w.stream,
                "role": w.role,
                "pid": w.pid,
                "samples": w.samples,
                "last_wall": w.last_wall,
                "rss_kib": w.rss_kib,
                "peak_rss_kib": w.peak_rss_kib,
                "cpu_seconds": w.cpu_seconds,
                "inflight": w.inflight,
            }
            for w in status.workers
        ],
    }
    cell_peaks = _cell_peaks(run_dir)
    if cell_peaks:
        report["cell_peaks"] = cell_peaks
    report.update(_ledger_sections(status, run_dir))
    report.update(_span_sections(run_dir, status))
    report["problems"] = status.problems
    return report


def format_report(report: dict[str, Any]) -> str:
    """Terminal rendering of :func:`run_report`'s dict."""
    lines = [f"run-health report: {report['run_dir']}"]
    manifest = report.get("manifest") or {}
    if manifest:
        lines.append(
            f"  experiment {manifest.get('experiment_id', '?')} — "
            f"{manifest.get('status', 'unknown')}"
        )
    cells = report["cells"]
    lines.append(
        f"  cells: {cells['ok']} ok, {cells['quarantined']} quarantined, "
        f"{cells['retried']} retried, {cells['resumable']} resumable"
    )
    if report.get("workers"):
        lines.append("  workers (peak rss):")
        for row in report["workers"]:
            peak = row.get("peak_rss_kib")
            rendered = f"{peak / 1024:.1f}MiB" if peak is not None else "?"
            lines.append(
                f"    {row['stream']:<18} pid {row['pid']:>7} "
                f"{row.get('role', 'worker'):<7} peak {rendered:>9}"
            )
    if report.get("cell_peaks"):
        lines.append("  cell peaks (worker RSS high-water mark, per cell):")
        for row in report["cell_peaks"]:
            lines.append(
                f"    {row['cell_peak_rss_kib'] / 1024:>9.1f}MiB  "
                f"{row['cell']}"
            )
    if report["slowest_cells"]:
        lines.append("  slowest cells:")
        for row in report["slowest_cells"]:
            lines.append(
                f"    {row['elapsed_seconds'] * 1e3:>9.1f}ms "
                f"x{row['attempts']} {row['status']:<12} {row['cell']}"
            )
    if report["retry_blame"]:
        lines.append("  retry blame:")
        for row in report["retry_blame"]:
            suffix = f" — {row['error']}" if row.get("error") else ""
            lines.append(
                f"    {row['attempts']} attempts  {row['cell']}{suffix}"
            )
    if report["lease_incidents"]:
        lines.append("  lease incidents:")
        for row in report["lease_incidents"]:
            lines.append(
                f"    {row['kind']}  {row['cell']}"
                + (f" — {row['reason']}" if row.get("reason") else "")
            )
    if report["fault_timeline"]:
        lines.append("  fault timeline:")
        for row in report["fault_timeline"]:
            lines.append(
                f"    t={row['time']:>10.3f} [{row['kind']}] "
                f"{row['message']}"
            )
    if report["phases"]:
        lines.append("  per-phase time:")
        for row in report["phases"][:12]:
            lines.append(
                f"    {row['phase']:<28} x{row['count']:<5} "
                f"total {row['total_seconds'] * 1e3:>9.1f}ms  "
                f"mean {row['mean_seconds'] * 1e3:>8.2f}ms"
                + (
                    f"  [{row['errors']} error(s)]"
                    if row["errors"]
                    else ""
                )
            )
    for problem in report.get("problems", ()):
        lines.append(f"  ! {problem}")
    return "\n".join(lines)
