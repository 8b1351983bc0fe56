"""Worker supervision primitives: heartbeats, leases, graceful drain.

The pooled sweep engine (:mod:`repro.parallel.pool`) guards the
process boundary with three mechanisms that live here:

**Heartbeats.**  Each dispatched cell gets a private JSONL sidecar
file; the worker appends a beat line (pid, sequence number, wall
time) from a daemon thread every ``heartbeat_interval`` seconds, with
the first beat written *synchronously* before compute starts so "the
worker picked this cell up" is observable immediately.  The parent
reads only the last line per tick.  Beats are deliberately kept out
of the fsync'd run ledger: they are liveness telemetry, not resumable
state, and an fsync per beat per worker would serialize the sweep on
the disk.  A wall clock is used on both sides — parent and workers
share a machine, and wall time survives the process boundary where a
monotonic reading does not.

**Leases.**  A :class:`Lease` is the parent-side record of one
dispatch: which cell, which heartbeat file, when, and whether the
supervisor itself killed the worker (a stall kill), which matters for
crash blame.  The durable half of the lease lives in the run ledger
(see :meth:`~repro.resilience.executor.ResilienceGuard.grant_lease`).

**Drain.**  :func:`drain_guard` converts the first SIGINT/SIGTERM
into an orderly stop — sweep loops poll :func:`drain_requested`
between cells, finish what is in flight, flush the ledger and raise
:class:`~repro.errors.SweepInterruptedError`; a second signal raises
:class:`KeyboardInterrupt` for users who mean it.  The state is
module-ambient so the serial loop, the pooled supervisor and nested
sweeps inside one experiment all observe the same request.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..core.session import CellSpec, RunKey
from ..obs import events as obs_events

#: Missed-beat factor: a lease is stalled after ``heartbeat_interval *
#: HEARTBEAT_MISSES`` seconds without a beat.  Generous — a false stall
#: kill costs a worker restart; a missed hang merely costs latency.
HEARTBEAT_MISSES = 20

#: Worker crashes one cell may cause before it is poison.
MAX_CELL_CRASHES = 2


# -- heartbeats ------------------------------------------------------


class HeartbeatWriter:
    """Worker-side beat emitter for one leased cell.

    ``start()`` writes beat 0 synchronously, then a daemon thread
    appends one line per interval until ``stop()``.  Append + flush
    only (no fsync): a beat that dies in the page cache dies with the
    machine, and a dead machine has no heartbeat either way.
    """

    def __init__(self, path: str, key: str, interval: float) -> None:
        self.path = path
        self.key = key
        self.interval = interval
        self._seq = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def beat(self) -> None:
        line = json.dumps(
            {
                "pid": os.getpid(),
                "key": self.key,
                "seq": self._seq,
                "wall": time.time(),
            },
            sort_keys=True,
        )
        self._seq += 1
        try:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
                handle.flush()
        except OSError:
            # A beat the worker cannot write looks, to the parent,
            # like a hang — which is the honest signal for a worker
            # whose disk is gone.
            pass

    def start(self) -> None:
        self.beat()
        self._thread = threading.Thread(
            target=self._run,
            name=f"repro-heartbeat-{self.key}",
            daemon=True,
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.beat()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(self.interval + 1.0)
            self._thread = None


def last_beat(path: str) -> dict[str, Any] | None:
    """The most recent parseable beat in ``path``, else ``None``.

    Tolerates a torn final line (the beat file is append-only and
    unsynced by design) by falling back to the previous line.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError:
        return None
    for line in reversed(raw.decode("utf-8", "replace").splitlines()):
        line = line.strip()
        if not line:
            continue
        try:
            beat = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(beat, dict) and "wall" in beat:
            return beat
    return None


# -- leases ----------------------------------------------------------


@dataclass
class Lease:
    """Parent-side state of one dispatched cell."""

    key: RunKey
    cell_key: str
    index: int
    spec: CellSpec
    hb_path: str
    granted_wall: float
    seq: int
    #: Set when the supervisor SIGKILLed this lease's worker for a
    #: stalled heartbeat — the subsequent pool break is then *this*
    #: cell's fault and no other in-flight cell takes crash blame.
    stall_killed: bool = False

    def started(self) -> bool:
        """Whether a worker ever picked this cell up (wrote a beat)."""
        return os.path.exists(self.hb_path)

    def stalled(self, now_wall: float, deadline: float) -> bool:
        """No beat within ``deadline`` seconds (measured from the last
        beat, or from the grant for a lease no worker ever started)."""
        beat = last_beat(self.hb_path)
        reference = beat["wall"] if beat is not None else self.granted_wall
        return now_wall - reference > deadline

    def beat_pid(self) -> int | None:
        """Pid of the worker that last beat for this lease, if any."""
        beat = last_beat(self.hb_path)
        return int(beat["pid"]) if beat is not None else None


# -- graceful drain --------------------------------------------------


@dataclass
class DrainState:
    """Ambient record of a pending stop request."""

    signal_name: str | None = None
    _owned_handlers: list[tuple[int, Any]] = field(default_factory=list)

    @property
    def requested(self) -> bool:
        return self.signal_name is not None

    def request(self, signal_name: str) -> None:
        if self.signal_name is None:
            self.signal_name = signal_name


_drain: DrainState | None = None


def drain_requested() -> str | None:
    """The signal name of a pending drain request, else ``None``."""
    return _drain.signal_name if _drain is not None else None


def request_drain(signal_name: str = "SIGTERM") -> None:
    """Programmatically request a drain (tests; embedding callers)."""
    if _drain is not None:
        _drain.request(signal_name)


@contextmanager
def drain_guard() -> Iterator[DrainState]:
    """Install signal-to-drain conversion for the enclosed run.

    Nested guards share the outermost state, so one experiment's many
    sweeps see a single drain request.  Handlers are only installed
    from the main thread (Python restricts ``signal.signal`` to it);
    elsewhere the guard still provides the ambient state for
    :func:`request_drain`.
    """
    global _drain
    if _drain is not None:
        yield _drain
        return
    state = DrainState()
    _drain = state
    is_main = threading.current_thread() is threading.main_thread()
    try:
        if is_main:
            for signum in (signal.SIGINT, signal.SIGTERM):
                previous = signal.signal(
                    signum, _make_handler(state, signum)
                )
                state._owned_handlers.append((signum, previous))
        yield state
    finally:
        for signum, previous in state._owned_handlers:
            signal.signal(signum, previous)
        _drain = None


def _make_handler(state: DrainState, signum: int):
    name = signal.Signals(signum).name

    def handler(_signum, _frame):
        if state.requested:
            # The user asked twice; stop being graceful.
            raise KeyboardInterrupt
        state.request(name)
        obs_events.warn(
            "sweep.drain",
            f"{name} received: draining (in-flight cells finish, "
            "then the run stops; repeat to abort immediately)",
            signal=name,
        )

    return handler
