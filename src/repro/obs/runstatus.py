"""RunStatus: one live (or post-mortem) picture of a sweep run.

:func:`load_run_status` reads ONLY on-disk run-directory artifacts —
manifest, ledger, heartbeat sidecars, telemetry streams — and fuses
them into a :class:`RunStatus`: cells done / quarantined / retried /
resumable, per-worker resource + liveness state, throughput and an
ETA from the completed-cell durations.  Nothing here talks to the run
process, so ``repro status`` works identically on a live sweep, an
interrupted one (SIGINT drain) and a crash's wreckage.

Readers are deliberately non-destructive: a torn final line in any
artifact is *dropped*, never truncated — the writing process may
still be alive and mid-append.  Only the run's own writers repair
their files.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any

from ..jsonlio import load_jsonl
from ..errors import CheckpointError
from ..parallel.supervise import last_beat
from ..resilience.ledger import (
    LEASE,
    LOST,
    OK,
    QUARANTINED,
    LedgerRecord,
)
from .telemetry import (
    LEDGER_FILE,
    MANIFEST_FILE,
    heartbeat_dir,
    read_telemetry,
    telemetry_dir,
)

#: A worker stream/heartbeat with no sample newer than this many
#: multiples of its flush interval is rendered as silent.
_SILENT_FACTOR = 3.0


@dataclass(frozen=True)
class WorkerView:
    """The last-known state of one telemetry stream (one process)."""

    stream: str                  # file stem, e.g. "worker-12345"
    role: str
    pid: int
    samples: int
    first_wall: float
    last_wall: float
    rss_kib: float | None
    #: High-water RSS over every sample in the stream (``ru_maxrss``
    #: is already monotone, but the max is robust to samplers that
    #: report instantaneous RSS instead).
    peak_rss_kib: float | None
    cpu_seconds: float | None
    inflight: str | None         # cell key annotated as in flight
    last_kind: str               # "sample" | "final" | "sweep"
    #: Monotonic-clock anchors of the first/last sample.  Monotonic
    #: values are only comparable *within* one stream (one process),
    #: but there a delta is a true duration — immune to the wall-clock
    #: steps (NTP, suspend) that made the old ETA math lie.
    first_mono: float | None = None
    last_mono: float | None = None

    def age(self, now_wall: float) -> float:
        """Seconds since this stream's last sample."""
        return max(0.0, now_wall - self.last_wall)

    def mono_span(self) -> float | None:
        """This stream's observed lifetime as a monotonic delta."""
        if self.first_mono is None or self.last_mono is None:
            return None
        return max(0.0, self.last_mono - self.first_mono)


@dataclass(frozen=True)
class HeartbeatView:
    """The last beat of one heartbeat sidecar (one dispatched cell)."""

    path: str
    key: str
    pid: int | None
    seq: int
    wall: float

    def age(self, now_wall: float) -> float:
        return max(0.0, now_wall - self.wall)


@dataclass
class RunStatus:
    """Everything ``repro status`` knows about one run directory."""

    run_dir: str
    generated_wall: float
    manifest: dict[str, Any] = field(default_factory=dict)
    #: Latest-status cell counts from the ledger.
    cells_ok: int = 0
    cells_quarantined: int = 0
    cells_retried: int = 0
    #: Cells whose latest ledger record is a (possibly lost) lease —
    #: dispatched but never finished; a resumed run re-executes these.
    resumable: list[str] = field(default_factory=list)
    #: Completed-cell durations (seconds), the ETA's raw material.
    durations: list[float] = field(default_factory=list)
    workers: list[WorkerView] = field(default_factory=list)
    heartbeats: list[HeartbeatView] = field(default_factory=list)
    #: Cells the pool planned to dispatch (from the parent stream's
    #: ``sweep`` records), when telemetry was enabled.
    cells_planned: int | None = None
    #: Non-fatal artifact trouble (corrupt ledger, unreadable files).
    problems: list[str] = field(default_factory=list)

    # -- derived -----------------------------------------------------

    @property
    def cells_completed(self) -> int:
        return self.cells_ok + self.cells_quarantined

    @property
    def running(self) -> bool:
        return self.manifest.get("status") == "running"

    def mean_cell_seconds(self) -> float | None:
        if not self.durations:
            return None
        return sum(self.durations) / len(self.durations)

    def elapsed_seconds(self) -> float | None:
        """How long the run has been (or was) executing.

        Anchored on the parent telemetry stream's monotonic span when
        one exists: within a single process a monotonic delta is a
        true duration, where wall-clock subtraction (the old math)
        breaks the moment NTP steps the clock or the host suspends —
        it produced negative throughput and ETAs in the past.  Runs
        without telemetry fall back to manifest wall math, clamped to
        never go negative.
        """
        for worker in self.workers:
            if worker.role != "parent":
                continue
            span = worker.mono_span()
            if span is not None and span > 0:
                return span
        started = self.manifest.get("started_wall")
        if started is None:
            return None
        end = self.manifest.get("ended_wall") or self.generated_wall
        return max(0.0, end - started)

    def throughput(self) -> float | None:
        """Completed cells per second over the run so far.

        ``None`` before the first completed cell and whenever elapsed
        time is unknown or degenerate — never a division by a clock
        artifact.
        """
        if not self.cells_completed:
            return None
        elapsed = self.elapsed_seconds()
        if elapsed is None or elapsed <= 0:
            return None
        return self.cells_completed / elapsed

    def eta_seconds(self) -> float | None:
        """Naive remaining-work estimate for a live run.

        remaining cells x mean completed-cell seconds / live workers,
        clamped at zero.  ``None`` when nothing has completed yet or
        the plan size / durations / live workers are unknown — an
        honest "can't say" beats a fabricated number.
        """
        if self.cells_planned is None or not self.running:
            return None
        if not self.cells_completed:
            return None
        mean = self.mean_cell_seconds()
        if mean is None:
            return None
        remaining = max(
            0, self.cells_planned + len(self.resumable) - self.cells_completed
        )
        if not remaining:
            return 0.0
        # Workers whose stream already closed ("final") are not coming
        # back; counting them deflated every ETA near the end of a run.
        live = [
            w
            for w in self.workers
            if w.role == "worker" and w.last_kind != "final"
        ]
        if not live:
            return None
        return max(0.0, remaining * mean / len(live))


def _maybe_float(value: Any) -> float | None:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


def _read_manifest(run_dir: str, status: RunStatus) -> None:
    path = os.path.join(run_dir, MANIFEST_FILE)
    try:
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        return
    except (OSError, json.JSONDecodeError) as exc:
        status.problems.append(f"unreadable manifest {path}: {exc}")
        return
    if isinstance(manifest, dict):
        status.manifest = manifest
    else:
        status.problems.append(f"manifest {path} is not a JSON object")


def _read_ledger(run_dir: str, status: RunStatus) -> None:
    path = os.path.join(run_dir, LEDGER_FILE)
    if not os.path.exists(path):
        return
    try:
        records, torn = load_jsonl(path, LedgerRecord.from_line)
    except (CheckpointError, OSError) as exc:
        status.problems.append(f"unreadable ledger {path}: {exc}")
        return
    if torn is not None:
        status.problems.append(
            f"ledger has a torn final line ({len(torn.line)} chars; "
            "a crash signature — resume will repair it)"
        )
    latest: dict[str, LedgerRecord] = {}
    for record in records:
        latest[record.cell_key] = record
        if record.status in (OK, QUARANTINED) and record.attempts > 1:
            status.cells_retried += 1
    for key, record in latest.items():
        if record.status == OK:
            status.cells_ok += 1
            status.durations.append(record.elapsed_seconds)
        elif record.status == QUARANTINED:
            status.cells_quarantined += 1
        elif record.status in (LEASE, LOST):
            status.resumable.append(key)
    status.resumable.sort()


def _read_workers(run_dir: str, status: RunStatus) -> None:
    streams = read_telemetry(telemetry_dir(run_dir))
    planned = 0
    saw_sweep = False
    for stream, samples in streams.items():
        last = samples[-1]
        rss_samples = []
        for sample in samples:
            if sample.get("kind") == "sweep":
                saw_sweep = True
                planned += int(sample.get("cells", 0))
            rss = sample.get("rss_kib")
            if isinstance(rss, (int, float)) and not isinstance(rss, bool):
                rss_samples.append(float(rss))
        status.workers.append(
            WorkerView(
                stream=stream,
                role=str(last.get("role", "worker")),
                pid=int(last.get("pid", 0)),
                samples=len(samples),
                first_wall=float(samples[0].get("wall", 0.0)),
                last_wall=float(last.get("wall", 0.0)),
                rss_kib=last.get("rss_kib"),
                peak_rss_kib=max(rss_samples) if rss_samples else None,
                cpu_seconds=last.get("cpu_seconds"),
                inflight=last.get("inflight"),
                last_kind=str(last.get("kind", "sample")),
                first_mono=_maybe_float(samples[0].get("mono")),
                last_mono=_maybe_float(last.get("mono")),
            )
        )
    status.workers.sort(key=lambda w: (w.role != "parent", w.pid))
    if saw_sweep:
        status.cells_planned = planned


def _read_heartbeats(run_dir: str, status: RunStatus) -> None:
    root = heartbeat_dir(run_dir)
    if not os.path.isdir(root):
        return
    for directory, _, names in sorted(os.walk(root)):
        for name in sorted(names):
            if not name.endswith(".jsonl"):
                continue
            path = os.path.join(directory, name)
            beat = last_beat(path)
            if beat is None:
                continue
            status.heartbeats.append(
                HeartbeatView(
                    path=os.path.relpath(path, run_dir),
                    key=str(beat.get("key", "?")),
                    pid=(
                        int(beat["pid"]) if beat.get("pid") is not None
                        else None
                    ),
                    seq=int(beat.get("seq", 0)),
                    wall=float(beat["wall"]),
                )
            )


def load_run_status(
    run_dir: str, now_wall: float | None = None
) -> RunStatus:
    """Fuse a run directory's artifacts into one :class:`RunStatus`.

    Works on live, interrupted and crashed runs alike; missing
    artifacts simply leave their section empty, and damaged ones are
    reported in ``status.problems`` instead of raising.
    """
    status = RunStatus(
        run_dir=run_dir,
        generated_wall=now_wall if now_wall is not None else time.time(),
    )
    _read_manifest(run_dir, status)
    _read_ledger(run_dir, status)
    _read_workers(run_dir, status)
    _read_heartbeats(run_dir, status)
    return status


# -- rendering -------------------------------------------------------


def _format_age(seconds: float) -> str:
    if seconds < 60:
        return f"{seconds:.1f}s"
    if seconds < 3600:
        return f"{seconds / 60:.1f}m"
    return f"{seconds / 3600:.1f}h"


def format_status(status: RunStatus) -> str:
    """The ``repro status`` terminal rendering of one run directory."""
    now = status.generated_wall
    manifest = status.manifest
    lines = [f"run {status.run_dir}"]
    if manifest:
        run_state = manifest.get("status", "unknown")
        lines.append(
            f"  experiment {manifest.get('experiment_id', '?')} — "
            f"{run_state}"
            + (
                f" ({manifest.get('outcome')})"
                if manifest.get("outcome")
                else ""
            )
        )
    else:
        lines.append("  (no manifest: not a run directory, or pre-run)")

    progress = (
        f"  cells: {status.cells_ok} ok, "
        f"{status.cells_quarantined} quarantined, "
        f"{status.cells_retried} retried, "
        f"{len(status.resumable)} resumable (unresolved leases)"
    )
    if status.cells_planned is not None:
        progress += f"; pool planned {status.cells_planned}"
    lines.append(progress)

    throughput = status.throughput()
    mean = status.mean_cell_seconds()
    eta = status.eta_seconds()
    rate_bits = []
    if throughput is not None:
        rate_bits.append(f"{throughput:.2f} cells/s")
    if mean is not None:
        rate_bits.append(f"mean cell {mean * 1e3:.1f}ms")
    if eta is not None:
        rate_bits.append(f"ETA {_format_age(eta)}")
    if rate_bits:
        lines.append("  rate: " + ", ".join(rate_bits))

    if status.workers:
        lines.append("  workers:")
        lines.append(
            "    {:<18} {:>8} {:>9} {:>10} {:>8}  {}".format(
                "stream", "pid", "age", "rss", "cpu", "in flight"
            )
        )
        for worker in status.workers:
            age = worker.age(now)
            silent = (
                worker.last_kind == "sample"
                and age > _SILENT_FACTOR * 1.0
            )
            rss = (
                f"{worker.rss_kib / 1024:.1f}MiB"
                if worker.rss_kib is not None
                else "?"
            )
            cpu = (
                f"{worker.cpu_seconds:.1f}s"
                if worker.cpu_seconds is not None
                else "?"
            )
            state = worker.inflight or (
                "(done)" if worker.last_kind == "final" else "-"
            )
            if silent:
                state += "  [silent]"
            lines.append(
                "    {:<18} {:>8} {:>9} {:>10} {:>8}  {}".format(
                    worker.stream,
                    worker.pid,
                    _format_age(age),
                    rss,
                    cpu,
                    state,
                )
            )
    if status.heartbeats:
        lines.append("  heartbeats (latest per dispatched cell):")
        for beat in status.heartbeats[-12:]:
            lines.append(
                f"    {beat.key:<40} pid {beat.pid or '?':>7} "
                f"seq {beat.seq:>4}  {_format_age(beat.age(now))} ago"
            )
    if status.resumable:
        lines.append("  resumable cells:")
        for key in status.resumable[:12]:
            lines.append(f"    {key}")
        if len(status.resumable) > 12:
            lines.append(
                f"    ... and {len(status.resumable) - 12} more"
            )
    for problem in status.problems:
        lines.append(f"  ! {problem}")
    return "\n".join(lines)
