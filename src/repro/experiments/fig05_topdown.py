"""Fig. 5: top-down analysis per video across CRF.

Target shapes (§4.2.2): backend-bound > frontend-bound >
bad-speculation for nearly every clip; backend share rises and
frontend share falls with CRF while their sum stays roughly constant;
retiring sits between 0.4 and 0.6.
"""

from __future__ import annotations

from ..core.report import ExperimentResult, Series, Table
from ..core.session import Session
from .common import make_session, sweep_crfs, sweep_videos

EXPERIMENT_ID = "fig05"
TITLE = "top-down analysis per video across CRF"

PRESET = 4


def run(session: Session | None = None) -> ExperimentResult:
    """Top-down shares for every (video, CRF) cell."""
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
        backend, frontend = [], []
        for crf in sweep_crfs():
            report = session.report("svt-av1", video, crf, PRESET)
            td = report.topdown
            rows.append(
                (
                    video, crf,
                    round(td.retiring, 3),
                    round(td.bad_speculation, 4),
                    round(td.frontend, 3),
                    round(td.backend, 3),
                )
            )
            backend.append(td.backend)
            frontend.append(td.frontend)
        series.append(
            Series(name=f"backend:{video}", x=sweep_crfs(), y=tuple(backend))
        )
        series.append(
            Series(name=f"frontend:{video}", x=sweep_crfs(), y=tuple(frontend))
        )
    table = Table(
        title="Fig 5: top-down slot shares",
        headers=("video", "crf", "retiring", "bad_spec", "frontend",
                 "backend"),
        rows=tuple(rows),
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, tables=[table],
        series=series,
    )
