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
        A finished run.
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
        raise TraceError("no decision branches recorded")
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

