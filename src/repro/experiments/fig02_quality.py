"""Fig. 2: (a) PSNR BD-rate vs execution time; (b) PSNR vs time.

Fig. 2a plots each encoder's BD-rate (relative to x264) against its
runtime: SVT-AV1 should have the *lowest* BD-rate (best compression)
and the highest runtime.  Fig. 2b sweeps SVT-AV1's CRF at preset 4 on
game1 and shows the diminishing-returns PSNR/runtime curve.
"""

from __future__ import annotations

from ..core.report import ExperimentResult, Series, Table
from ..core.session import Session
from ..core.sweeps import comparable_preset, scale_crf
from ..video.bdrate import RatePoint, bd_rate
from .common import ALL_CODECS, make_session, sweep_crfs

EXPERIMENT_ID = "fig02"
TITLE = "BD-rate vs time (a); PSNR vs time (b)"

AV1_PRESET = 4


def _fig02_crfs() -> tuple[int, ...]:
    """BD-rate fitting needs >= 4 rate points; densify small grids."""
    crfs = sweep_crfs()
    if len(crfs) >= 4:
        return crfs
    return (10, 25, 45, 60)


def _rate_curve(
    session: Session, codec: str, video: str
) -> tuple[list[RatePoint], float]:
    """(RD points, mean runtime) over the CRF sweep for one codec."""
    points = []
    times = []
    for crf in _fig02_crfs():
        report = session.report(
            codec, video, scale_crf(codec, crf),
            comparable_preset(codec, AV1_PRESET),
        )
        points.append(
            RatePoint(bitrate_kbps=report.bitrate_kbps, psnr_db=report.psnr_db)
        )
        times.append(report.time_seconds)
    # BD fitting needs strictly increasing PSNR; lift near-ties by an
    # epsilon rather than dropping points (dropping could leave fewer
    # than the 4 points the cubic fit requires).
    points.sort(key=lambda p: p.psnr_db)
    cleaned: list[RatePoint] = []
    for point in points:
        if cleaned and point.psnr_db <= cleaned[-1].psnr_db + 1e-6:
            point = RatePoint(
                bitrate_kbps=point.bitrate_kbps,
                psnr_db=cleaned[-1].psnr_db + 0.01,
            )
        cleaned.append(point)
    return cleaned, sum(times) / len(times)


def run(session: Session | None = None, video: str = "game1") -> ExperimentResult:
    """Compute BD-rate/runtime per codec and the SVT-AV1 RD curve."""
    if session is None:
        session = make_session()
    session.prefetch(
        [
            (codec, video, scale_crf(codec, crf),
             comparable_preset(codec, AV1_PRESET))
            for codec in ALL_CODECS
            for crf in _fig02_crfs()
        ]
        + [("svt-av1", video, crf, AV1_PRESET) for crf in _fig02_crfs()]
    )
    curves = {}
    mean_time = {}
    for codec in ALL_CODECS:
        curves[codec], mean_time[codec] = _rate_curve(session, codec, video)

    reference = curves["x264"]
    rows = []
    bd_x, bd_y = [], []
    for codec in ALL_CODECS:
        if codec == "x264":
            bd = 0.0
        else:
            bd = bd_rate(reference, curves[codec])
        rows.append((codec, round(bd, 1), mean_time[codec]))
        bd_x.append(mean_time[codec])
        bd_y.append(bd)
    table_a = Table(
        title="Fig 2a: PSNR BD-rate (% vs x264) and mean runtime",
        headers=("codec", "bd_rate_pct", "mean_time_s"),
        rows=tuple(rows),
    )

    # Fig 2b: SVT-AV1 PSNR vs time across the CRF sweep.
    psnr_rows = []
    times, psnrs = [], []
    for crf in _fig02_crfs():
        report = session.report("svt-av1", video, crf, AV1_PRESET)
        psnr_rows.append((crf, report.time_seconds, report.psnr_db))
        times.append(report.time_seconds)
        psnrs.append(report.psnr_db)
    table_b = Table(
        title="Fig 2b: SVT-AV1 PSNR vs execution time (preset 4)",
        headers=("crf", "time_s", "psnr_db"),
        rows=tuple(psnr_rows),
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE,
        tables=[table_a, table_b],
        series=[
            Series(name="bdrate_vs_time", x=tuple(bd_x), y=tuple(bd_y)),
            Series(name="psnr_vs_time", x=tuple(times), y=tuple(psnrs)),
        ],
    )
