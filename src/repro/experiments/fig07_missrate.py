"""Fig. 7: branch miss rate vs CRF per video.

Despite low branch MPKI, the paper measures a meaningful per-branch
miss *rate* (§4.4) that decreases as CRF rises — the motivation for
the CBP study.
"""

from __future__ import annotations

from ..core.report import ExperimentResult, Series, Table
from ..core.session import Session
from .common import make_session, sweep_crfs, sweep_videos

EXPERIMENT_ID = "fig07"
TITLE = "branch miss rate vs CRF"

PRESET = 4


def run(session: Session | None = None) -> ExperimentResult:
    """Branch miss rate per (video, CRF)."""
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
        rates = []
        for crf in sweep_crfs():
            report = session.report("svt-av1", video, crf, PRESET)
            rate = report.branch.miss_rate * 100.0
            rows.append((video, crf, round(rate, 3)))
            rates.append(rate)
        series.append(Series(name=video, x=sweep_crfs(), y=tuple(rates)))
    table = Table(
        title="Fig 7: branch miss rate (%)",
        headers=("video", "crf", "miss_rate_pct"),
        rows=tuple(rows),
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, tables=[table],
        series=series,
    )
