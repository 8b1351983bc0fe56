"""Trace-interval extraction (the paper's §4.4 sampling methodology).

The paper extracts each branch trace from "an interval of 1 billion
instructions roughly halfway through the encoding run".  Our encodes
charge far fewer synthetic instructions, so the interval is expressed
as a *fraction* of the run centred on its midpoint, with the window's
instruction count scaled accordingly for MPKI reporting.
"""

from __future__ import annotations

import numpy as np

from ..errors import TraceError
from .branchtrace import BranchTrace
from .instrument import Instrumenter


def extract_midpoint_window(
    instrumenter: Instrumenter,
    fraction: float = 0.5,
    name: str = "trace",
    max_events: int | None = None,
) -> BranchTrace:
    """Cut the middle ``fraction`` of an encode's decision branches.

    Parameters
    ----------
    instrumenter:
        A finished run with ``record_branches=True``.
    fraction:
        Share of the branch stream to keep, centred on the midpoint
        (0 < fraction <= 1).
    name:
        Name for the resulting trace.
    max_events:
        Optional hard cap; when set, the window is further narrowed
        (still centred) to at most this many events.

    The traced window's instruction count is taken as the same fraction
    of the run's total instructions, mirroring how a fixed-length Pin
    interval relates to the whole run.
    """
    if not 0.0 < fraction <= 1.0:
        raise TraceError(f"window fraction {fraction} outside (0, 1]")
    pcs, taken = instrumenter.branch_arrays()
    total = len(pcs)
    if total == 0:
        raise TraceError(
            "no decision branches recorded; was record_branches enabled?"
        )
    keep = max(1, int(total * fraction))
    if max_events is not None:
        keep = min(keep, max_events)
    start = (total - keep) // 2
    window_fraction = keep / total
    # Columnar cut: the recorder's buffers are viewed as ndarrays and
    # sliced directly — no per-event object is materialised on this
    # path (the replay kernels consume the columns as-is).
    pcs_col = np.frombuffer(pcs, dtype=np.int64)[start : start + keep]
    taken_col = np.frombuffer(taken, dtype=np.int8)[start : start + keep]
    window_instructions = instrumenter.total_instructions * window_fraction
    return BranchTrace.from_columns(
        np.array(pcs_col, dtype=np.int64),
        np.array(taken_col, dtype=np.uint8),
        window_instructions=max(window_instructions, 1.0),
        name=name,
    )


class MidpointReservoir:
    """Streaming collector of the centred midpoint branch window.

    A branch sink (see
    :meth:`~repro.trace.instrument.Instrumenter.register_branch_sink`)
    that retains just enough of the stream to cut the same window
    :func:`extract_midpoint_window` would cut from the whole buffered
    stream — bit-identical columns and window arithmetic — while
    keeping peak memory bounded by the stream's *midpoint*, not its
    length.

    The discard rule: after ``t`` events the final window's start index
    is at least ``(t - max_window) // 2`` whatever the final total
    turns out to be (``keep <= max_window`` always, and the bound is
    monotone in ``t``), so events below it can never be in the window
    and whole leading chunks are dropped as soon as they fall under it.
    Retained memory is therefore ~``(total + max_window) / 2`` events
    in the worst case — the exact-centred window is a function of the
    final total, so no online scheme can retain less than the midpoint
    — while the touch side of a streaming capture holds one flush
    window of touches plus one touch group's expansion (DESIGN.md
    "Streaming capture").
    """

    def __init__(self, max_window: int) -> None:
        if max_window < 1:
            raise TraceError("reservoir window must be >= 1")
        self.max_window = max_window
        self._pcs_chunks: list[np.ndarray] = []
        self._taken_chunks: list[np.ndarray] = []
        self._total = 0
        self._dropped = 0

    @property
    def total_events(self) -> int:
        """Events observed so far (dropped ones included)."""
        return self._total

    @property
    def retained_events(self) -> int:
        """Events currently held."""
        return self._total - self._dropped

    def __call__(self, pcs: np.ndarray, taken: np.ndarray) -> None:
        """Consume one flushed chunk (the branch-sink signature)."""
        if pcs.size == 0:
            return
        self._pcs_chunks.append(pcs)
        self._taken_chunks.append(taken)
        self._total += int(pcs.size)
        bound = (self._total - self.max_window) // 2
        while (
            self._pcs_chunks
            and self._dropped + self._pcs_chunks[0].size <= bound
        ):
            self._dropped += int(self._pcs_chunks[0].size)
            del self._pcs_chunks[0]
            del self._taken_chunks[0]

    def extract(
        self,
        total_instructions: float,
        fraction: float = 0.5,
        name: str = "trace",
        max_events: int | None = None,
    ) -> BranchTrace:
        """Cut the centred window, mirroring :func:`extract_midpoint_window`.

        ``total_instructions`` is the finished run's instruction total
        (the reservoir never sees instruction charges).  The window
        arithmetic — keep count, start index, window-instruction
        scaling — is the buffered function's, applied to the retained
        slice, so the resulting trace is bit-identical.  Asking for a
        window wider than ``max_window`` raises: those events were
        (correctly) discarded.
        """
        if not 0.0 < fraction <= 1.0:
            raise TraceError(f"window fraction {fraction} outside (0, 1]")
        total = self._total
        if total == 0:
            raise TraceError(
                "no decision branches reached the reservoir; was "
                "record_branches enabled and the stream flushed?"
            )
        keep = max(1, int(total * fraction))
        if max_events is not None:
            keep = min(keep, max_events)
        if keep > self.max_window:
            raise TraceError(
                f"window of {keep} events exceeds the reservoir's "
                f"max_window={self.max_window}; earlier events were "
                "discarded under that bound"
            )
        start = (total - keep) // 2
        if start < self._dropped:  # unreachable given the discard rule
            raise TraceError(
                f"reservoir discarded past the window start ({start} < "
                f"{self._dropped}); max_window accounting is broken"
            )
        window_fraction = keep / total
        pcs = (
            np.concatenate(self._pcs_chunks)
            if len(self._pcs_chunks) > 1
            else self._pcs_chunks[0]
        )
        taken = (
            np.concatenate(self._taken_chunks)
            if len(self._taken_chunks) > 1
            else self._taken_chunks[0]
        )
        lo = start - self._dropped
        window_instructions = total_instructions * window_fraction
        return BranchTrace.from_columns(
            np.array(pcs[lo : lo + keep], dtype=np.int64),
            np.array(taken[lo : lo + keep], dtype=np.uint8),
            window_instructions=max(window_instructions, 1.0),
            name=name,
        )
