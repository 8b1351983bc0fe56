"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  Subclasses delineate the
subsystem at fault, which matters for the experiment harness: workload
errors are user-configuration problems, simulation errors are bugs in a
model, and trace errors indicate malformed on-disk artifacts.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class VideoError(ReproError):
    """Invalid video parameters, frame geometry, or pixel data."""


class CodecError(ReproError):
    """Invalid encoder configuration or an internal encoding failure."""


class TraceError(ReproError):
    """A trace file or in-memory trace stream is malformed."""


class SimulationError(ReproError):
    """A microarchitectural model was configured or driven incorrectly."""


class ExperimentError(ReproError):
    """An experiment was asked for an artifact it does not define."""


class TransientError(ReproError):
    """A failure that is expected to succeed on retry.

    The resilient executor (:mod:`repro.resilience`) retries cells that
    raise this class (with exponential backoff); anything else is
    treated as permanent.  Raise it for resource exhaustion, flaky
    backends, and injected faults of kind ``transient``.
    """


class FatalError(ReproError):
    """A failure that retrying cannot fix.

    Misconfiguration, contract violations and injected faults of kind
    ``fatal`` are permanent: the resilient executor quarantines the
    cell immediately instead of burning retries.
    """


class CellTimeoutError(TransientError):
    """A sweep cell exceeded its deadline.

    Subclasses :class:`TransientError` because a timeout on one attempt
    (scheduler noise, a stalled backend) may well succeed on the next;
    the retry budget bounds how often that optimism is tested.
    """


class CheckpointError(ReproError):
    """A run ledger could not be read, written, or understood."""


class QuarantinedCellError(ReproError):
    """A sweep cell failed permanently and was quarantined.

    Raised by the resilient executor after retries are exhausted (or a
    fatal error short-circuits them).  Sweep loops catch this, drop the
    cell, and record it in the experiment's provenance; ``key`` and
    ``cause`` identify what was lost and why.
    """

    def __init__(self, key: str, cause: BaseException) -> None:
        super().__init__(f"cell {key!r} quarantined: {cause!r}")
        self.key = key
        self.cause = cause


class WorkerCrashError(ReproError):
    """A pool worker died while holding a cell's lease.

    Raised (as the ``cause`` of a :class:`QuarantinedCellError`) when a
    cell crashes its worker process more than the crash budget allows —
    SIGKILL, ``os._exit``, OOM, or a hang past the heartbeat deadline.
    Counted separately from in-process retries: a crash tears down the
    whole worker, so the supervisor tracks it per *cell*, not per
    attempt, and classifies repeat offenders as poison.
    """

    def __init__(self, key: str, crashes: int, reason: str) -> None:
        super().__init__(
            f"cell {key!r} crashed its worker {crashes}x ({reason})"
        )
        self.key = key
        self.crashes = crashes
        self.reason = reason


class SweepInterruptedError(ReproError):
    """A sweep drained early on SIGINT/SIGTERM and left resumable state.

    The drain guard converts the first signal into an orderly stop:
    in-flight cells finish, the ledger is flushed, and this error
    propagates so the CLI can exit with a distinct code (130).  The run
    directory is left in a state ``--resume`` completes from.
    """

    def __init__(self, signal_name: str, completed: int, total: int) -> None:
        super().__init__(
            f"sweep drained after {signal_name}: "
            f"{completed}/{total} cells done; resume with --resume"
        )
        self.signal_name = signal_name
        self.completed = completed
        self.total = total


class CacheError(ReproError):
    """The result cache could not be administered.

    Raised only by cache *administration* (clearing or summarising a
    cache directory that cannot be read or written).  Cache *lookups*
    never raise: a missing, corrupt or stale entry is a miss, because a
    memoisation layer that can fail an experiment is worse than no
    memoisation at all.
    """


class ValidationError(ReproError):
    """The claims engine was driven with malformed data or config.

    Raised for structural problems — an unknown claim id, an extractor
    fed an experiment result missing its series, a checker given an
    empty or non-finite grid.  A claim that *evaluates* but does not
    hold never raises: failures are verdicts in the report, because a
    regression gate must report every claim, not stop at the first.
    """


class ShmError(ReproError):
    """A shared-memory segment could not be created or attached.

    Raised by the zero-copy data plane (:mod:`repro.parallel.shm`) when
    ``/dev/shm`` refuses a publish or a worker cannot attach a
    published segment.  Callers never propagate it to a sweep: the
    data plane falls back to pickled planes or in-worker regeneration,
    because video *delivery* must never decide whether a cell runs.
    """


class ObservabilityError(ReproError):
    """A telemetry artifact could not be produced or understood.

    Raised for unwritable/corrupt span logs and trace exports and for
    metrics-registry misuse (conflicting histogram buckets, negative
    counter increments).  Never raised from instrumentation *sites* —
    tracing a span or bumping a counter cannot fail an experiment.
    """
