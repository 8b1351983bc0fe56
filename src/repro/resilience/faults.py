"""Deterministic fault injection for testing the resilience machinery.

Every interesting call site in the library (sweep cells, encoder runs,
the measurement pass, the thread-scaling scheduler) announces itself
through :func:`fault_point` with a hierarchical site key such as
``"cell:svt-av1:desktop:10:4"``.  A :class:`FaultPlan` — installed
programmatically or parsed from the ``REPRO_FAULT_PLAN`` environment
variable — decides, deterministically, whether that call raises a
transient error, raises a fatal error, or stalls.  The plan is how the
test suite *proves* the retry, timeout and quarantine policies engage:
inject one transient fault per cell and the sweep must still complete.

Plan syntax (entries separated by ``;``, fields by ``@``)::

    <site-glob>@<kind>[@times=N|*][@p=0.5][@stall=SECONDS]

    cell:*@transient@times=1        # each cell fails once, then works
    cell:*:desktop:10:*@fatal       # one grid point fails permanently
    sim:schedule:*@stall@stall=0.2  # scheduler stalls 200 ms per call
    cell:*:game1:35:*@kill@times=1  # that cell SIGKILLs its worker once
    ledger:append:*@enospc@times=1  # first ledger write hits ENOSPC

``kind`` is one of:

in-process  ``transient`` raise, ``fatal`` raise, ``stall`` sleep
            (slow-running work; also the "worker runs slow" fault).
process     ``exit`` — ``os._exit(70)``, the worker vanishes without
            cleanup; ``kill`` — the process SIGKILLs itself, exactly an
            OOM-killer hit; ``hang`` — the process SIGSTOPs itself,
            freezing *every* thread (including its heartbeat writer) so
            the supervisor's staleness detection is tested honestly.
disk        ``enospc`` — raise ``OSError(ENOSPC)`` from the write path;
            ``torn`` — *cooperative*: :meth:`FaultPlan.check` returns
            the action and the instrumented writer (the run ledger)
            persists a partial final line then dies mid-write via
            :func:`crash_now`, the canonical power-cut artifact.

``times`` bounds injections *per site* (default 1; ``*`` = unlimited).
``p`` arms the fault probabilistically, but deterministically: the
decision hashes (seed, site, hit index), so the same plan replays
identically.

Process faults kill the worker, and the worker's hit counters die with
it — a ``kill@times=1`` fault would re-fire forever on re-dispatch.
The supervisor therefore ships each cell's observed crash count back
into the replacement worker, which calls :meth:`FaultPlan.prime` to
fast-forward the counters past the injections that already happened.
"""

from __future__ import annotations

import errno as _errno
import hashlib
import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Iterator

from ..errors import ExperimentError, FatalError, TransientError

_ENV_VAR = "REPRO_FAULT_PLAN"

TRANSIENT = "transient"
FATAL = "fatal"
STALL = "stall"
EXIT = "exit"
KILL = "kill"
HANG = "hang"
ENOSPC = "enospc"
TORN = "torn"
_KINDS = (TRANSIENT, FATAL, STALL, EXIT, KILL, HANG, ENOSPC, TORN)

#: Kinds that destroy the process they fire in (directly or, for
#: ``hang``, via the supervisor's stall-kill).  The supervisor primes
#: these on re-dispatch so a crashed injection is not repeated.
CRASH_KINDS = (EXIT, KILL, HANG)

#: Exit status used by ``exit``/``torn`` faults and :func:`crash_now` —
#: distinct from Python's 1 and the shell's 128+N signal encodings.
CRASH_EXIT_CODE = 70


def crash_now() -> None:
    """Die instantly, skipping atexit/finally — a simulated power cut."""
    os._exit(CRASH_EXIT_CODE)


class InjectedTransientError(TransientError):
    """A transient failure injected by a :class:`FaultPlan`."""


class InjectedFatalError(FatalError):
    """A fatal failure injected by a :class:`FaultPlan`."""


def _armed(seed: int, site: str, hit: int, probability: float) -> bool:
    if probability >= 1.0:
        return True
    digest = hashlib.sha256(f"{seed}:{site}:{hit}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64 < probability


@dataclass
class Fault:
    """One injection rule: a site glob plus what to do when it matches."""

    pattern: str
    kind: str
    times: int | None = 1          # injections per matching site; None = ∞
    probability: float = 1.0
    stall_seconds: float = 0.25
    _hits: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ExperimentError(
                f"unknown fault kind {self.kind!r}; expected one of {_KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ExperimentError("fault probability must be in [0, 1]")

    def matches(self, site: str) -> bool:
        return fnmatchcase(site, self.pattern)

    def fire(self, site: str, seed: int) -> str | None:
        """Record a hit at ``site``; return the action to take, if any."""
        hit = self._hits.get(site, 0)
        if self.times is not None and hit >= self.times:
            return None
        self._hits[site] = hit + 1
        if not _armed(seed, site, hit, self.probability):
            return None
        return self.kind


@dataclass
class FaultPlan:
    """An ordered set of :class:`Fault` rules with a shared seed."""

    faults: list[Fault] = field(default_factory=list)
    seed: int = 0

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Build a plan from the ``REPRO_FAULT_PLAN`` syntax."""
        faults = []
        for entry in spec.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            parts = entry.split("@")
            if len(parts) < 2:
                raise ExperimentError(
                    f"fault entry {entry!r} needs <site-glob>@<kind>"
                )
            pattern, kind = parts[0], parts[1]
            fields: dict[str, object] = {}
            for extra in parts[2:]:
                name, sep, value = extra.partition("=")
                if not sep:
                    raise ExperimentError(
                        f"fault field {extra!r} must be name=value"
                    )
                if name == "times":
                    fields["times"] = None if value == "*" else int(value)
                elif name == "p":
                    fields["probability"] = float(value)
                elif name == "stall":
                    fields["stall_seconds"] = float(value)
                else:
                    raise ExperimentError(f"unknown fault field {name!r}")
            faults.append(Fault(pattern=pattern, kind=kind, **fields))
        return cls(faults=faults, seed=seed)

    def check(self, site: str, sleep=time.sleep) -> str | None:
        """Raise, stall, crash, or hand back a cooperative action.

        The first matching rule that fires wins; later rules still see
        the site on subsequent calls.  Returns the fired kind for
        cooperative faults (currently ``torn``, which the caller must
        enact itself) and for ``stall`` after sleeping; returns ``None``
        when nothing fired.  ``exit``/``kill``/``hang`` do not return.
        """
        for fault in self.faults:
            if not fault.matches(site):
                continue
            action = fault.fire(site, self.seed)
            if action == TRANSIENT:
                raise InjectedTransientError(
                    f"injected transient fault at {site}"
                )
            if action == FATAL:
                raise InjectedFatalError(f"injected fatal fault at {site}")
            if action == ENOSPC:
                raise OSError(
                    _errno.ENOSPC,
                    f"injected ENOSPC at {site}",
                )
            if action == STALL:
                sleep(fault.stall_seconds)
                return STALL
            if action == EXIT:
                crash_now()
            if action == KILL:
                os.kill(os.getpid(), signal.SIGKILL)
            if action == HANG:
                # SIGSTOP freezes the whole process — heartbeat thread
                # included — so only the supervisor can end the hang.
                os.kill(os.getpid(), signal.SIGSTOP)
                return HANG  # resumed by SIGCONT (tests) or killed
            if action == TORN:
                return TORN
        return None

    def prime(self, site: str, count: int) -> None:
        """Fast-forward crash-kind hit counters for ``site`` to ``count``.

        Called by a replacement worker before re-running a cell whose
        previous workers died: the injections that killed them happened,
        but their counters died too.  Only crash kinds are primed —
        in-process faults keep their own bookkeeping via retries.
        """
        if count <= 0:
            return
        for fault in self.faults:
            if fault.kind in CRASH_KINDS and fault.matches(site):
                fault._hits[site] = max(fault._hits.get(site, 0), count)

    def reset(self) -> None:
        """Forget all per-site hit counters (a fresh replay)."""
        for fault in self.faults:
            fault._hits.clear()


# The process-wide plan consulted by fault_point().  ``_UNSET`` defers
# to the environment so tests can install plans programmatically while
# CLI runs configure them with REPRO_FAULT_PLAN=...
_UNSET = object()
_active: object = _UNSET


def active_plan() -> FaultPlan | None:
    """The installed plan, else one parsed from ``REPRO_FAULT_PLAN``."""
    global _active
    if _active is _UNSET:
        spec = os.environ.get(_ENV_VAR, "")
        _active = FaultPlan.parse(spec) if spec else None
    return _active  # type: ignore[return-value]


@contextmanager
def install(plan: FaultPlan | None) -> Iterator[FaultPlan | None]:
    """Temporarily make ``plan`` the process-wide fault plan."""
    global _active
    previous = _active
    _active = plan
    try:
        yield plan
    finally:
        _active = previous


def reload_from_env() -> None:
    """Drop any cached plan; the next lookup re-reads the environment."""
    global _active
    _active = _UNSET


def fault_point(site: str) -> str | None:
    """Announce an injectable call site; raises/stalls per the plan.

    Returns the fired cooperative action (``"torn"``) for callers that
    enact disk faults themselves; everything else returns ``None`` or
    does not return at all.
    """
    plan = active_plan()
    if plan is not None:
        return plan.check(site)
    return None
