"""Structured observability: span tracing, metrics, run-trace export.

The harness-side analogue of the paper's measurement discipline: just
as the reproduction attributes *encoder* time to pipeline stages and
instruction classes, this package attributes *harness* time to
sessions, sweep cells, retry attempts and codec stages — as spans —
and aggregates the countable outcomes (retries, quarantines, cache/
branch event rates) in a metrics registry.

- :mod:`repro.obs.span` — the tracer: ``trace_span`` sites, parent/
  child nesting, monotonic timings, a one-global-read disabled path.
- :mod:`repro.obs.metrics` — counters, gauges, fixed-bucket
  histograms, one JSON-able snapshot.
- :mod:`repro.obs.events` — structured events replacing bare stderr
  warnings (still mirrored to stderr at warning level).
- :mod:`repro.obs.export` — JSONL span log, Chrome Trace Event
  (Perfetto-loadable) export, plain-text timing summary.
- :mod:`repro.obs.context` — :class:`ObsContext`, installed per
  ``run_experiment`` call like the resilience ``ExecutionContext``.
- :mod:`repro.obs.telemetry` — live per-process sample streams in a
  run directory (:class:`TelemetrySink`), the raw material of
  ``repro status``.
- :mod:`repro.obs.runstatus` / :mod:`repro.obs.report` — readers
  fusing the run-directory artifacts into a live status aggregate and
  a post-mortem run-health report (imported lazily by the CLI).

Capture a trace from the CLI::

    python -m repro experiment fig04 --trace-out trace.json
    python -m repro trace --validate trace.json
"""

from .context import ObsContext, activate_obs, current_obs, record_metric
from .events import Event, EventLog, emit, warn
from .export import (
    SPAN_LOG_SCHEMA_VERSION,
    chrome_trace,
    read_span_log,
    timing_summary,
    validate_chrome_trace,
    validate_chrome_trace_file,
    validate_span_log_file,
    write_chrome_trace,
    write_span_log,
)
from .telemetry import (
    TELEMETRY_SCHEMA_VERSION,
    TelemetrySink,
    read_telemetry,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .span import (
    Span,
    Tracer,
    active_tracer,
    attach_span,
    capture_span,
    trace_span,
    traced,
    walk,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "SPAN_LOG_SCHEMA_VERSION",
    "TELEMETRY_SCHEMA_VERSION",
    "TelemetrySink",
    "Counter",
    "Event",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsContext",
    "Span",
    "Tracer",
    "activate_obs",
    "active_tracer",
    "attach_span",
    "capture_span",
    "chrome_trace",
    "current_obs",
    "emit",
    "read_span_log",
    "read_telemetry",
    "record_metric",
    "timing_summary",
    "trace_span",
    "traced",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
    "validate_span_log_file",
    "walk",
    "warn",
    "write_chrome_trace",
    "write_span_log",
]
