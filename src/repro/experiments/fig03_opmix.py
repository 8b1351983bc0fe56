"""Fig. 3: instruction-mix evolution across CRF, per video.

For each vbench clip the paper plots the op-mix at increasing CRF
values; the AVX share grows with CRF as scalar decision work drains
away faster than vectorised pixel work.
"""

from __future__ import annotations

from ..core.report import ExperimentResult, Series, Table
from ..core.session import Session
from .common import make_session, sweep_crfs, sweep_videos

EXPERIMENT_ID = "fig03"
TITLE = "op-mix per video across CRF"

PRESET = 4
MIX_KEYS = ("branch", "load", "store", "avx", "sse", "other")


def run(session: Session | None = None) -> ExperimentResult:
    """Measure the mix across the CRF grid for every sweep video."""
    if session is None:
        session = make_session()
    session.prefetch(
        ("svt-av1", video, crf, PRESET)
        for video in sweep_videos()
        for crf in sweep_crfs()
    )
    rows = []
    avx_series = []
    for video in sweep_videos():
        avx = []
        for crf in sweep_crfs():
            report = session.report("svt-av1", video, crf, PRESET)
            mix = report.mix_percent
            rows.append(
                (video, crf) + tuple(round(mix[k], 2) for k in MIX_KEYS)
            )
            avx.append(mix["avx"])
        avx_series.append(Series(name=f"avx:{video}", x=sweep_crfs(), y=tuple(avx)))
    table = Table(
        title="Fig 3: instruction mix (%) per video and CRF",
        headers=("video", "crf") + MIX_KEYS,
        rows=tuple(rows),
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE,
        tables=[table], series=avx_series,
    )
