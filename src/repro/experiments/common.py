"""Shared experiment configuration.

``REPRO_FAST=1`` in the environment shrinks every experiment (fewer
videos, frames and CRF points) for smoke-testing; the full
configuration regenerates the paper's artifacts over all fifteen
vbench clips.
"""

from __future__ import annotations

import os

from ..cache import ResultCache
from ..core.session import Session
from ..obs.span import trace_span
from ..parallel.pool import current_parallel
from ..resilience.executor import current_context
from ..video import vbench

#: The five encoders, in the paper's customary order.
ALL_CODECS: tuple[str, ...] = (
    "x264", "x265", "libvpx-vp9", "libaom", "svt-av1"
)

#: The four encoders of the thread-scalability study (§4.6).
THREAD_CODECS: tuple[str, ...] = ("x264", "x265", "libaom", "svt-av1")


def fast_mode() -> bool:
    """True when REPRO_FAST requests reduced experiment sizes."""
    return os.environ.get("REPRO_FAST", "") not in ("", "0")


def sweep_videos() -> tuple[str, ...]:
    """Videos the per-video sweeps cover."""
    if fast_mode():
        return ("desktop", "game1", "hall")
    return tuple(vbench.names())


def sweep_crfs() -> tuple[int, ...]:
    """CRF grid for the sweeps (AV1 0-63 scale)."""
    if fast_mode():
        return (10, 35, 60)
    return (10, 20, 30, 40, 50, 60)


def sweep_presets() -> tuple[int, ...]:
    """Preset grid for the preset sweep (AV1 0-8 scale)."""
    if fast_mode():
        return (0, 4, 8)
    return tuple(range(9))


def make_session() -> Session:
    """Session sized for the current mode.

    When :func:`repro.experiments.run_experiment` installed an
    execution context (``resume``/``max_retries``/``cell_timeout``),
    its resilience guard is attached so every sweep cell runs under
    the retry/timeout/checkpoint policies.  Likewise the installed
    :class:`~repro.parallel.pool.ParallelConfig`'s ``cache_dir``
    attaches the content-addressed result cache.
    """
    with trace_span("make_session", fast=fast_mode()):
        context = current_context()
        cache_dir = current_parallel().cache_dir
        return Session(
            num_frames=3 if fast_mode() else None,
            guard=context.guard if context is not None else None,
            cache=ResultCache(cache_dir) if cache_dir else None,
        )
