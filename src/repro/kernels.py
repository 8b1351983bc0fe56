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
directly.  The window is :func:`stream_chunk_events`, which the scoped
:func:`stream_chunk` override sets (``0`` disables chunking).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

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


def stream_chunk_events() -> int:
    """Streaming window in events per chunk; ``0`` means unbounded."""
    return _forced_chunk[-1] if _forced_chunk else DEFAULT_STREAM_CHUNK


@contextmanager
def stream_chunk(events: int) -> Iterator[None]:
    """Scoped streaming-window override (``0`` disables chunking).

    A negative window raises ``ValueError``: read as unbounded, a typo
    such as ``-1`` would quietly remove the memory bound.
    """
    events = int(events)
    if events < 0:
        raise ValueError(f"streaming window must be >= 0, got {events}")
    _forced_chunk.append(events)
    try:
        yield
    finally:
        _forced_chunk.pop()
