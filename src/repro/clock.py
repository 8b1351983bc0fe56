"""Injectable time source shared by resilience and observability.

Everything in the harness that reads the clock or sleeps — retry
backoff, watchdog deadlines, span timings, event timestamps — does so
through a :class:`Clock`, so the test suite can drive timing with
:class:`FakeClock` and never block on a real :func:`time.sleep` or
depend on wall time.

It is a leaf module, imported by both :mod:`repro.resilience` (which
re-exports its names) and :mod:`repro.obs`, so neither package has to
import the other for it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


class Clock:
    """Monotonic time plus sleep; subclass to fake either."""

    def monotonic(self) -> float:
        """Seconds from an arbitrary, monotonically increasing origin."""
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        """Block for ``seconds`` (no-op for non-positive values)."""
        raise NotImplementedError


class SystemClock(Clock):
    """The real wall clock."""

    def monotonic(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


@dataclass
class FakeClock(Clock):
    """Deterministic clock: ``sleep`` advances time instantly.

    ``sleeps`` records every requested delay, which is what the backoff
    tests assert against.
    """

    now: float = 0.0
    sleeps: list[float] = field(default_factory=list)

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        if seconds > 0:
            self.now += seconds

    def advance(self, seconds: float) -> None:
        """Move time forward without recording a sleep."""
        self.now += seconds


#: Shared default instance; policies reference it unless overridden.
SYSTEM_CLOCK = SystemClock()
