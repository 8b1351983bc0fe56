"""Fig. 1: execution time of the five encoders across CRF (game1).

The paper's motivating figure: SVT-AV1's modelled runtime sits an
order of magnitude above x264/x265/libvpx-vp9 at every CRF, and every
encoder's runtime falls as CRF rises.
"""

from __future__ import annotations

from ..core.report import ExperimentResult, Series, Table
from ..core.session import Session
from ..core.sweeps import comparable_preset, scale_crf
from .common import ALL_CODECS, make_session, sweep_crfs

EXPERIMENT_ID = "fig01"
TITLE = "execution time vs CRF per codec (game1)"

#: The comparison's operating point (AV1-scale preset).
AV1_PRESET = 4


def run(session: Session | None = None, video: str = "game1") -> ExperimentResult:
    """Measure time-vs-CRF curves for all five encoders."""
    if session is None:
        session = make_session()
    crfs = sweep_crfs()
    session.prefetch(
        (codec, video, scale_crf(codec, crf), comparable_preset(codec, AV1_PRESET))
        for codec in ALL_CODECS
        for crf in crfs
    )
    series = []
    rows = []
    for codec in ALL_CODECS:
        times = []
        for crf in crfs:
            report = session.report(
                codec, video, scale_crf(codec, crf),
                comparable_preset(codec, AV1_PRESET),
            )
            times.append(report.time_seconds)
            rows.append((codec, crf, report.time_seconds,
                         report.instructions, report.ipc))
        series.append(Series(name=codec, x=crfs, y=tuple(times)))
    table = Table(
        title="Fig 1: modelled execution time (s)",
        headers=("codec", "crf", "time_s", "instructions", "ipc"),
        rows=tuple(rows),
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE,
        tables=[table], series=series,
    )
