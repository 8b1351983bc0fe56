"""Table 2: SVT-AV1 instruction mix per video (preset 8, CRF 63).

Regenerates the paper's instruction-mix table: total dynamic
instructions plus branch/load/store/AVX/SSE/other percentages for
every vbench clip at the paper's capture point.
"""

from __future__ import annotations

from ..core.report import ExperimentResult, Table
from ..core.session import Session
from .common import make_session, sweep_videos

EXPERIMENT_ID = "table2"
TITLE = "SVT-AV1 instruction mix (preset 8, CRF 63)"


def run(session: Session | None = None) -> ExperimentResult:
    """Measure the mix for every sweep video."""
    if session is None:
        session = make_session()
    session.prefetch(
        ("svt-av1", video, 63, 8) for video in sweep_videos()
    )
    rows = []
    for video in sweep_videos():
        report = session.report("svt-av1", video, crf=63, preset=8)
        mix = report.mix_percent
        rows.append(
            (
                video,
                report.instructions,
                round(mix["branch"], 1),
                round(mix["load"], 1),
                round(mix["store"], 1),
                round(mix["avx"], 1),
                round(mix["sse"], 1),
                round(mix["other"], 1),
            )
        )
    table = Table(
        title="Table 2: instruction mix in % (preset 8, CRF 63)",
        headers=("video", "insts", "branch", "load", "store", "avx",
                 "sse", "other"),
        rows=tuple(rows),
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, tables=[table]
    )
