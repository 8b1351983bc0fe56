"""Kernel-path switch: scalar reference vs. vectorized fast path.

PR 5 adds vectorized "in-cell" kernels (columnar predictor replay,
encoder block batching, the batched cache walk) underneath the existing
APIs.  Every fast path is **bit-equal** to the scalar reference it
replaces — same mispredict counts, same coded bits, same cache stats —
which parity tests and ``repro validate`` invariants assert.  The
scalar implementations are kept, both as the executable specification
the fast paths are tested against and as the baseline the kernel
benchmark suite (``benchmarks/test_kernel_speed.py``) times.

Selection: vectorized kernels by default; :func:`scalar_kernels` /
:func:`vectorized_kernels` are scoped overrides for benchmarks and
parity tests (innermost wins).

PR 8 adds **streaming execution** on top: the vectorized replay and
cache-walk kernels process long event streams in bounded windows with
carried state, so their temporaries stay O(window) instead of
O(events) at production frame counts.  The window counts events: a
branch in predictor replay, a line in the cache cascade.  One touch
expands to many lines (up to about 16k sampled lines for a frame-wide
2160p one), so the cache simulation bounds its expansion separately,
in rows per touch group (``CacheHierarchy.access_touches``).
Every kernel that streams writes back its full post-window state (the
``replay-scalar-parity`` invariant's probe-stream check pins this),
so chunked execution is bit-equal to whole-stream execution by
construction — which the ``replay-chunk-parity`` invariant re-asserts
directly.  The window is :func:`stream_chunk_events`, tunable via
``REPRO_REPLAY_CHUNK`` (``0`` disables chunking) or the scoped
:func:`stream_chunk` override.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

#: Environment override for the streaming window, in events per chunk
#: (``0`` = unbounded: whole-stream kernels, the pre-PR-8 behaviour).
CHUNK_ENV = "REPRO_REPLAY_CHUNK"

#: Default streaming window.  Large enough that per-chunk kernel setup
#: is noise (the vectorized replays sort the window once), small enough
#: that a chunk of branches or lines keeps its temporaries to a few MiB
#: regardless of trace size.  The cache cascade caps it further, at
#: ``uarch.cache.CASCADE_WINDOW`` lines and as many rows per touch group.
DEFAULT_STREAM_CHUNK = 1 << 18

#: Stack of scoped overrides; each entry is True for "force scalar".
_forced: list[bool] = []

#: Stack of scoped chunk-size overrides (innermost wins).
_forced_chunk: list[int] = []


def vectorized_enabled() -> bool:
    """True when the vectorized fast paths should run."""
    return not _forced or not _forced[-1]


@contextmanager
def scalar_kernels() -> Iterator[None]:
    """Force the scalar reference kernels inside the block."""
    _forced.append(True)
    try:
        yield
    finally:
        _forced.pop()


@contextmanager
def vectorized_kernels() -> Iterator[None]:
    """Force the vectorized kernels inside the block."""
    _forced.append(False)
    try:
        yield
    finally:
        _forced.pop()


# Memoised env resolution: raw string -> validated window.  One entry
# per distinct raw value, so the (hot) per-kernel lookup is a dict hit
# and the structured warning for a bad value fires once, not per cell.
_chunk_env_cache: dict[str, int] = {}


def _resolve_chunk_env(raw: str) -> int:
    """Validate one ``REPRO_REPLAY_CHUNK`` value, warning on garbage.

    Only a non-negative integer is accepted (``0`` = unbounded, the
    documented way to disable chunking).  Anything else — non-numeric
    *or negative* — falls back to the default with a structured
    warning event.  The old parser silently clamped negatives to 0,
    which read as "disable chunking": a typo like ``-1`` quietly
    removed the memory bound this subsystem exists to provide.
    """
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        from .obs import events as obs_events

        obs_events.warn(
            "kernel.chunk.invalid",
            f"{CHUNK_ENV}={raw!r} is not a non-negative integer; "
            f"using the default window",
            raw=raw,
            default=DEFAULT_STREAM_CHUNK,
        )
        return DEFAULT_STREAM_CHUNK
    return value


def stream_chunk_events() -> int:
    """Streaming window in events per chunk; ``0`` means unbounded."""
    if _forced_chunk:
        return _forced_chunk[-1]
    raw = os.environ.get(CHUNK_ENV, "")
    if not raw:
        return DEFAULT_STREAM_CHUNK
    value = _chunk_env_cache.get(raw)
    if value is None:
        value = _chunk_env_cache[raw] = _resolve_chunk_env(raw)
    return value


@contextmanager
def stream_chunk(events: int) -> Iterator[None]:
    """Scoped streaming-window override (``0`` disables chunking)."""
    _forced_chunk.append(max(int(events), 0))
    try:
        yield
    finally:
        _forced_chunk.pop()
