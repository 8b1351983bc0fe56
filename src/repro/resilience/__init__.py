"""Resilient experiment execution.

The paper's artifacts come from long sweep grids; this package makes
those grids survive real-world failure: per-cell retry with
exponential backoff (:mod:`~repro.resilience.policy`), watchdog
deadlines and quarantine (:mod:`~repro.resilience.executor`), a
checkpointing JSONL run ledger with resume
(:mod:`~repro.resilience.ledger`), and a seeded, deterministic
fault-injection layer that proves all of it works
(:mod:`~repro.resilience.faults`).
"""

from ..clock import SYSTEM_CLOCK, Clock, FakeClock, SystemClock
from .executor import (
    CellOutcome,
    ExecutionContext,
    ExecutionPolicy,
    ResilienceGuard,
    activate,
    call_with_deadline,
    current_context,
)
from .faults import (
    Fault,
    FaultPlan,
    InjectedFatalError,
    InjectedTransientError,
    active_plan,
    fault_point,
    install,
    reload_from_env,
)
from .ledger import (
    LEASE,
    LEDGER_SCHEMA_VERSION,
    LOST,
    LedgerRecord,
    RunLedger,
)
from .policy import NO_RETRY, RetryPolicy, classify_error

__all__ = [
    "LEASE",
    "LEDGER_SCHEMA_VERSION",
    "LOST",
    "NO_RETRY",
    "SYSTEM_CLOCK",
    "CellOutcome",
    "Clock",
    "ExecutionContext",
    "ExecutionPolicy",
    "FakeClock",
    "Fault",
    "FaultPlan",
    "InjectedFatalError",
    "InjectedTransientError",
    "LedgerRecord",
    "ResilienceGuard",
    "RetryPolicy",
    "RunLedger",
    "SystemClock",
    "activate",
    "active_plan",
    "call_with_deadline",
    "classify_error",
    "current_context",
    "fault_point",
    "install",
    "reload_from_env",
]
