"""Fig. 4: instruction count, execution time and IPC across CRF.

The paper's observations this experiment must reproduce (§4.2.1):
runtime tracks instruction count as CRF varies, while IPC hovers
around 2 and moves by at most ~10%.
"""

from __future__ import annotations

from ..core.report import ExperimentResult, Series, Table
from ..core.session import Session
from ..core.sweeps import sweep_cells
from .common import make_session, sweep_crfs, sweep_videos

EXPERIMENT_ID = "fig04"
TITLE = "CRF sweep: #instructions (a), time (b), IPC (c)"

PRESET = 4


def run(session: Session | None = None) -> ExperimentResult:
    """Sweep CRF for every video; produce the three panels' series.

    Quarantined cells (permanent failures under a resilient session)
    drop out of their video's series and table rows; the surviving
    grid is reported intact.
    """
    if session is None:
        session = make_session()
    session.prefetch(
        ("svt-av1", video, crf, PRESET)
        for video in sweep_videos()
        for crf in sweep_crfs()
    )
    rows = []
    series = []
    for video in sweep_videos():
        crfs, reports = sweep_cells(
            sweep_crfs(),
            lambda crf: session.report("svt-av1", video, crf, PRESET),
        )
        insts, times, ipcs = [], [], []
        for crf, report in zip(crfs, reports):
            insts.append(report.instructions)
            times.append(report.time_seconds)
            ipcs.append(report.ipc)
            rows.append(
                (video, crf, report.instructions, report.time_seconds,
                 round(report.ipc, 3))
            )
        xs = tuple(crfs)
        series.append(Series(name=f"insts:{video}", x=xs, y=tuple(insts)))
        series.append(Series(name=f"time:{video}", x=xs, y=tuple(times)))
        series.append(Series(name=f"ipc:{video}", x=xs, y=tuple(ipcs)))
    table = Table(
        title="Fig 4: CRF sweep (speed preset 4)",
        headers=("video", "crf", "instructions", "time_s", "ipc"),
        rows=tuple(rows),
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, tables=[table],
        series=series,
    )
