"""Live run telemetry: per-process JSONL sample streams in a run dir.

The ledger says *what was computed*; the span log says *where the time
went* — but both only after the fact.  This module adds the live
third artifact: every process participating in a run (the parent and
each pool worker) periodically flushes one JSONL **sample** to its own
file under ``<run-dir>/telemetry/``, carrying

- a resource reading (RSS, CPU seconds, pid, role),
- the cell currently in flight (if any),
- the *delta* of every metrics-registry counter since the previous
  sample (so a tail of the file shows rates, not lifetime totals),
- current gauges and span/event counts.

Files are append-only and flushed without fsync — like heartbeats,
they are liveness telemetry, not resumable state — and readers
therefore tolerate a torn final line by *dropping* it (never
truncating: the writer may be alive and mid-append).

``repro status`` and ``repro report`` consume these files together
with the ledger and heartbeat sidecars; nothing here requires the run
to still be alive.  The disabled path is the design constraint, as
everywhere in ``repro.obs``: no run directory, no sink, and the only
cost left in the sweep engines is a ``None`` attribute check.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any

from ..clock import SYSTEM_CLOCK, Clock
from ..errors import ObservabilityError
from ..jsonlio import load_jsonl

#: Bump when the telemetry record layout changes incompatibly.
TELEMETRY_SCHEMA_VERSION = 1

#: Run-directory layout: the subdirectories/files every writer and
#: reader agrees on (the artifact contract in OBSERVABILITY.md).
TELEMETRY_DIR = "telemetry"
HEARTBEAT_DIR = "heartbeats"
LEDGER_FILE = "ledger.jsonl"
SPAN_LOG_FILE = "spans.jsonl"
MANIFEST_FILE = "run.json"
METRICS_JSON_FILE = "metrics.json"
TRACE_FILE = "trace.json"


def telemetry_dir(run_dir: str) -> str:
    return os.path.join(run_dir, TELEMETRY_DIR)


def heartbeat_dir(run_dir: str) -> str:
    return os.path.join(run_dir, HEARTBEAT_DIR)


def _rss_kib() -> float | None:
    """This process's resident set size in KiB, if observable."""
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        # ru_maxrss is KiB on Linux, bytes on macOS; either way it is
        # a usable high-water mark where /proc is unavailable.
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return float(peak)
    except Exception:  # pragma: no cover - platform without rusage
        return None


#: The kernel's per-process files behind :func:`reset_rss_peak` and
#: :func:`rss_peak_kib`.
_PROC_CLEAR_REFS = "/proc/self/clear_refs"
_PROC_STATUS = "/proc/self/status"


def reset_rss_peak() -> bool:
    """Reset this process's RSS high-water mark to its current RSS.

    Writes ``5`` to ``/proc/self/clear_refs`` (Linux); values 1-4
    would clear page referenced/soft-dirty bits instead.  Returns
    False where the write is refused (non-Linux, read-only ``/proc``):
    :func:`rss_peak_kib` then has no window to report.
    """
    try:
        with open(_PROC_CLEAR_REFS, "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def rss_peak_kib() -> float | None:
    """``VmHWM`` in KiB: peak RSS since the last :func:`reset_rss_peak`."""
    try:
        with open(_PROC_STATUS, "rb") as handle:
            for line in handle:
                if line.startswith(b"VmHWM:"):
                    return float(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return None


def _cpu_seconds() -> float:
    """User+system CPU seconds consumed by this process."""
    times = os.times()
    return times.user + times.system


class TelemetrySink:
    """One process's telemetry stream for one run.

    ``flush()`` appends one sample; ``start()`` adds a daemon thread
    flushing every ``interval`` seconds until ``stop()`` (which writes
    a final sample so the last line of a cleanly-stopped stream is
    always fresh).  ``annotate`` sets sticky fields — the pool worker
    marks the cell in flight, the parent marks the sweep phase — that
    ride on every subsequent sample.

    The sink never raises out of ``flush``: a telemetry line the
    process cannot write looks, to the reader, like a silent process —
    which is the honest signal for a writer whose disk is gone.
    """

    def __init__(
        self,
        path: str,
        *,
        role: str = "worker",
        obs: Any = None,
        interval: float = 1.0,
        clock: Clock = SYSTEM_CLOCK,
    ) -> None:
        self.path = path
        self.role = role
        self.obs = obs              # ObsContext duck-type (or None)
        self.interval = interval
        self.clock = clock
        self._seq = 0
        self._sticky: dict[str, Any] = {}
        self._last_counters: dict[str, float] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- sample construction -----------------------------------------

    def annotate(self, **fields: Any) -> None:
        """Set sticky fields carried by every subsequent sample.

        ``None`` removes a field, so ``annotate(inflight=None)`` marks
        the cell done.
        """
        with self._lock:
            for key, value in fields.items():
                if value is None:
                    self._sticky.pop(key, None)
                else:
                    self._sticky[key] = value

    def _sample(self, kind: str, extra: dict[str, Any]) -> dict[str, Any]:
        record: dict[str, Any] = {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "kind": kind,
            "seq": self._seq,
            "wall": time.time(),
            "mono": self.clock.monotonic(),
            "pid": os.getpid(),
            "role": self.role,
            "rss_kib": _rss_kib(),
            "cpu_seconds": round(_cpu_seconds(), 6),
        }
        record.update(self._sticky)
        if self.obs is not None:
            snapshot = self.obs.metrics.snapshot()
            counters = snapshot["counters"]
            delta = {
                name: round(value - self._last_counters.get(name, 0.0), 9)
                for name, value in counters.items()
                if value != self._last_counters.get(name, 0.0)
            }
            self._last_counters = dict(counters)
            record["counters_delta"] = delta
            record["counters_total"] = {
                name: counters[name]
                for name in ("cells.ok", "cells.quarantined", "cell.retries")
                if counters.get(name)
            }
            record["gauges"] = snapshot["gauges"]
            record["spans_total"] = len(self.obs.tracer.spans)
            record["events_total"] = len(self.obs.events.events)
        record.update(extra)
        self._seq += 1
        return record

    def flush(self, kind: str = "sample", **extra: Any) -> None:
        """Append one sample line (never raises)."""
        with self._lock:
            record = self._sample(kind, extra)
            try:
                line = json.dumps(record, sort_keys=True, default=str)
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(line + "\n")
                    handle.flush()
            except (OSError, TypeError, ValueError):
                pass

    # -- lifecycle ---------------------------------------------------

    def start(self) -> None:
        """Write an immediate first sample, then flush per interval."""
        self.flush()
        self._thread = threading.Thread(
            target=self._run,
            name=f"repro-telemetry-{os.path.basename(self.path)}",
            daemon=True,
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.flush()

    def stop(self, **extra: Any) -> None:
        """Stop the flusher and write a final sample."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(self.interval + 1.0)
            self._thread = None
        self.flush(kind="final", **extra)


def worker_telemetry_path(directory: str, role: str = "worker") -> str:
    """This process's telemetry file under ``directory``.

    Per-*process* naming (role + pid): a pool worker executing many
    cells appends every sample to the same file, which is what makes
    the stream a per-worker time series rather than per-cell confetti.
    """
    return os.path.join(directory, f"{role}-{os.getpid()}.jsonl")


def open_sink(
    directory: str,
    *,
    role: str,
    obs: Any = None,
    interval: float = 1.0,
) -> TelemetrySink | None:
    """Create (and start) a sink in ``directory``; None on failure.

    Telemetry must never take a run down: if the directory cannot be
    created the caller simply runs without a sink.
    """
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError:
        return None
    sink = TelemetrySink(
        worker_telemetry_path(directory, role),
        role=role,
        obs=obs,
        interval=interval,
    )
    sink.start()
    return sink


# -- reading ---------------------------------------------------------


def read_telemetry_file(path: str) -> list[dict[str, Any]]:
    """All parseable samples in one telemetry file, oldest first.

    Tolerates a torn final line by *dropping* it — the writer may be
    alive and mid-append, so unlike the ledger the file is never
    repaired in place.  Records with an unknown schema version are
    skipped (a newer writer's stream should degrade, not crash, an
    older reader).  Mid-file corruption raises: that means something
    other than live-append raced the reader.
    """

    def parse(line: str) -> dict[str, Any]:
        record = json.loads(line)
        if not isinstance(record, dict):
            raise ObservabilityError("telemetry record is not an object")
        return record

    try:
        records, _ = load_jsonl(path, parse)
    except OSError as exc:
        raise ObservabilityError(
            f"cannot read telemetry file {path!r}: {exc}"
        ) from exc
    except (json.JSONDecodeError, ObservabilityError) as exc:
        raise ObservabilityError(
            f"{path}: corrupt telemetry line: {exc}"
        ) from exc
    return [
        r for r in records
        if r.get("schema_version") == TELEMETRY_SCHEMA_VERSION
    ]


def read_telemetry(directory: str) -> dict[str, list[dict[str, Any]]]:
    """Stream-name -> samples for every telemetry file in a run dir.

    Returns ``{}`` when the directory does not exist (telemetry was
    not enabled for the run) — callers degrade to ledger-only views.
    """
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return {}
    streams: dict[str, list[dict[str, Any]]] = {}
    for name in names:
        if not name.endswith(".jsonl"):
            continue
        samples = read_telemetry_file(os.path.join(directory, name))
        if samples:
            streams[name[: -len(".jsonl")]] = samples
    return streams
