"""The resilient cell executor: retries, deadlines, checkpoint, resume.

A *cell* is one independent unit of a sweep grid (one
codec × video × CRF × preset characterization).  The executor wraps
each cell with, in order:

1. **fault injection** — the active :class:`~repro.resilience.faults.
   FaultPlan` may make the attempt raise or stall (inside the retry
   loop, so injected faults exercise the real policies);
2. **a watchdog deadline** — the attempt runs on a worker thread and a
   cell that exceeds ``cell_timeout`` raises
   :class:`~repro.errors.CellTimeoutError` instead of hanging the
   sweep;
3. **retry with exponential backoff** — transient failures are retried
   per the :class:`~repro.resilience.policy.RetryPolicy`, with
   deterministic jitter;
4. **checkpointing** — each completed cell is appended to the
   :class:`~repro.resilience.ledger.RunLedger`, and with ``resume``
   enabled, previously successful cells are replayed from their
   serialized payloads;
5. **quarantine** — a permanently failing cell raises
   :class:`~repro.errors.QuarantinedCellError`, which sweep loops
   catch and record in the experiment's provenance, keeping every
   other cell's work.

:func:`activate` installs an :class:`ExecutionContext` for the
duration of one ``run_experiment`` call;
:func:`repro.experiments.common.make_session` picks it up so the
policies reach every cell without threading arguments through each
experiment module.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from ..clock import SYSTEM_CLOCK, Clock
from ..errors import CellTimeoutError, QuarantinedCellError
from ..obs import events as obs_events
from ..obs.context import record_metric
from ..obs.span import attach_span, capture_span, trace_span
from .faults import FaultPlan, active_plan
from .ledger import LEASE, LOST, OK, QUARANTINED, LedgerRecord, RunLedger
from .policy import NO_RETRY, RetryPolicy

#: Outcome statuses recorded per cell (superset of the ledger's).
RESUMED = "resumed"


def call_with_deadline(
    fn: Callable[[], Any],
    seconds: float | None,
    key: str = "",
) -> Any:
    """Run ``fn`` with a watchdog; raise on exceeding ``seconds``.

    The work runs on a daemon thread and the caller waits at most
    ``seconds``.  Python cannot safely kill a thread, so a timed-out
    cell is *abandoned* (it keeps running to completion in the
    background and its result is discarded) — the sweep moves on, which
    is the property that matters.
    """
    if seconds is None:
        return fn()
    if seconds <= 0:
        raise ValueError("cell timeout must be positive")
    box: dict[str, Any] = {}
    # The attempt span was opened on this (dispatching) thread; adopt
    # it on the worker so the cell's inner spans still nest under it.
    parent_span = capture_span()

    def target() -> None:
        try:
            with attach_span(parent_span):
                box["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box["error"] = exc

    worker = threading.Thread(
        target=target, name=f"repro-cell-{key or 'anon'}", daemon=True
    )
    worker.start()
    worker.join(seconds)
    if worker.is_alive():
        raise CellTimeoutError(
            f"cell {key or '<anonymous>'} exceeded {seconds:g}s deadline"
        )
    if "error" in box:
        raise box["error"]
    return box["value"]


@dataclass(frozen=True)
class ExecutionPolicy:
    """Everything configurable about resilient execution."""

    retry: RetryPolicy = NO_RETRY
    cell_timeout: float | None = None
    ledger_path: str | None = None
    resume: bool = False
    clock: Clock = SYSTEM_CLOCK
    faults: FaultPlan | None = None  # None -> the process-wide plan

    def fault_plan(self) -> FaultPlan | None:
        return self.faults if self.faults is not None else active_plan()


@dataclass
class CellOutcome:
    """What happened to one cell, for provenance reporting."""

    key: str
    status: str                     # "ok" | "quarantined" | "resumed"
    attempts: int = 1
    elapsed_seconds: float = 0.0
    error: str | None = None


class ResilienceGuard:
    """Per-run executor state: ledger, resume cache, outcomes."""

    def __init__(
        self, policy: ExecutionPolicy, experiment_id: str = ""
    ) -> None:
        self.policy = policy
        self.experiment_id = experiment_id
        self.outcomes: list[CellOutcome] = []
        #: Worker deaths observed while holding a lease (pooled runs).
        self.worker_crashes = 0
        self.ledger: RunLedger | None = (
            RunLedger(policy.ledger_path) if policy.ledger_path else None
        )
        self._resumable: dict[str, Any] = (
            self.ledger.completed_payloads()
            if (self.ledger is not None and policy.resume)
            else {}
        )

    # -- bookkeeping -------------------------------------------------

    def _record(
        self,
        outcome: CellOutcome,
        payload: Any = None,
    ) -> None:
        self.outcomes.append(outcome)
        if self.ledger is not None and outcome.status != RESUMED:
            self.ledger.append(
                LedgerRecord(
                    cell_key=outcome.key,
                    status=outcome.status,
                    experiment_id=self.experiment_id,
                    attempts=outcome.attempts,
                    elapsed_seconds=round(outcome.elapsed_seconds, 6),
                    error=outcome.error,
                    payload=payload,
                )
            )

    def is_resumable(self, key: str) -> bool:
        """Whether ``key`` would replay from the ledger instead of run.

        The parallel engine asks this before dispatching, so resumable
        cells replay in the parent (cheap, deterministic) and only
        genuinely missing cells pay for a pool round-trip.
        """
        return key in self._resumable

    def grant_lease(self, key: str, **meta: Any) -> None:
        """Checkpoint that ``key`` was dispatched across the process
        boundary and may now be lost.

        A lease resolves when a later completion record lands for the
        same cell; until then resume treats it as never executed.
        No-op without a ledger — leases exist to survive the parent.
        """
        if self.ledger is not None:
            self.ledger.append(
                LedgerRecord(
                    cell_key=key,
                    status=LEASE,
                    experiment_id=self.experiment_id,
                    meta=meta or None,
                )
            )
        record_metric("counter", "pool.leases.granted")

    def lease_lost(self, key: str, reason: str, **meta: Any) -> None:
        """Checkpoint that the worker holding ``key`` died.

        The cell stays unresolved (it will be re-leased or poisoned);
        the record exists so a post-mortem can see *when* each crash
        happened, not just that the cell eventually completed.
        """
        self.worker_crashes += 1
        if self.ledger is not None:
            self.ledger.append(
                LedgerRecord(
                    cell_key=key,
                    status=LOST,
                    experiment_id=self.experiment_id,
                    error=reason,
                    meta=meta or None,
                )
            )
        record_metric("counter", "pool.leases.lost")

    def record_remote(self, outcome: CellOutcome, payload: Any = None) -> None:
        """Adopt the outcome of a cell executed in a pool worker.

        Ledger append and provenance bookkeeping only: the worker's own
        guard already bumped the cells.ok/quarantined/retry counters,
        and those arrive via the merged metrics snapshot — bumping them
        here too would double-count.
        """
        self._record(outcome, payload=payload)

    def quarantined_keys(self) -> list[str]:
        return [o.key for o in self.outcomes if o.status == QUARANTINED]

    def provenance(self) -> dict[str, Any]:
        """Summary dict merged into ``ExperimentResult.provenance``."""
        by_status: dict[str, int] = {}
        for outcome in self.outcomes:
            by_status[outcome.status] = by_status.get(outcome.status, 0) + 1
        return {
            "cells": len(self.outcomes),
            "executed": by_status.get(OK, 0),
            "resumed": by_status.get(RESUMED, 0),
            "quarantined": [
                {"cell": o.key, "error": o.error, "attempts": o.attempts}
                for o in self.outcomes
                if o.status == QUARANTINED
            ],
            "retries": sum(
                o.attempts - 1 for o in self.outcomes if o.status != RESUMED
            ),
            "worker_crashes": self.worker_crashes,
            "ledger": self.policy.ledger_path,
        }

    # -- execution ---------------------------------------------------

    def run_cell(
        self,
        key: str,
        compute: Callable[[], Any],
        serialize: Callable[[Any], Any] | None = None,
        deserialize: Callable[[Any], Any] | None = None,
    ) -> Any:
        """Execute one cell under the full policy stack.

        ``serialize``/``deserialize`` convert the cell result to/from a
        JSON-able payload for the ledger; omit them to checkpoint the
        raw value (it must then be JSON-serializable itself).
        """
        if key in self._resumable:
            payload = self._resumable[key]
            value = deserialize(payload) if deserialize else payload
            self._record(CellOutcome(key=key, status=RESUMED, attempts=0))
            record_metric("counter", "cells.resumed")
            obs_events.emit(
                "cell.resumed", f"cell {key} replayed from ledger", cell=key
            )
            return value

        policy = self.policy
        clock = policy.clock
        plan = policy.fault_plan()
        started = clock.monotonic()
        attempt = 0
        while True:
            try:
                with trace_span("attempt", cell=key, attempt=attempt + 1):
                    if plan is not None:
                        plan.check(key, sleep=clock.sleep)
                    value = call_with_deadline(
                        compute, policy.cell_timeout, key=key
                    )
            except (KeyboardInterrupt, SystemExit):
                # Killing the run must kill the run — the ledger keeps
                # what finished; quarantine is only for cell failures.
                raise
            except BaseException as exc:  # noqa: BLE001 - classified below
                if policy.retry.should_retry(exc, attempt):
                    record_metric("counter", "cell.retries")
                    obs_events.emit(
                        "cell.retry",
                        f"cell {key} attempt {attempt + 1} failed "
                        f"({type(exc).__name__}: {exc}); retrying",
                        cell=key,
                        attempt=attempt + 1,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    clock.sleep(policy.retry.delay(attempt, key))
                    attempt += 1
                    continue
                elapsed = clock.monotonic() - started
                self._record(
                    CellOutcome(
                        key=key,
                        status=QUARANTINED,
                        attempts=attempt + 1,
                        elapsed_seconds=elapsed,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
                record_metric("counter", "cells.quarantined")
                obs_events.emit(
                    "cell.quarantine",
                    f"cell {key} quarantined after {attempt + 1} "
                    f"attempt(s): {type(exc).__name__}: {exc}",
                    cell=key,
                    attempts=attempt + 1,
                    error=f"{type(exc).__name__}: {exc}",
                )
                raise QuarantinedCellError(key, exc) from exc
            elapsed = clock.monotonic() - started
            payload = serialize(value) if serialize else value
            self._record(
                CellOutcome(
                    key=key,
                    status=OK,
                    attempts=attempt + 1,
                    elapsed_seconds=elapsed,
                ),
                payload=payload,
            )
            record_metric("counter", "cells.ok")
            record_metric("histogram", "cell.seconds", elapsed)
            return value


@dataclass
class ExecutionContext:
    """One ``run_experiment`` invocation's resilience state."""

    policy: ExecutionPolicy
    experiment_id: str = ""
    guard: ResilienceGuard = field(init=False)

    def __post_init__(self) -> None:
        self.guard = ResilienceGuard(self.policy, self.experiment_id)


_current: ExecutionContext | None = None


def current_context() -> ExecutionContext | None:
    """The context installed by the innermost :func:`activate`."""
    return _current


@contextmanager
def activate(context: ExecutionContext) -> Iterator[ExecutionContext]:
    """Install ``context`` for the duration of one experiment run."""
    global _current
    previous = _current
    _current = context
    try:
        yield context
    finally:
        _current = previous
