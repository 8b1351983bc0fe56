"""Fig. 11: SVT-AV1 preset sweep on game1 (five panels).

Target shapes (§4.5): runtime collapses by orders of magnitude from
preset 0 to preset 8; bitrate stays flat through presets 0-2 and then
rises; PSNR falls only modestly; the top-down / MPKI / stall panels
show no strong preset trend.
"""

from __future__ import annotations

from ..core.report import ExperimentResult, Series, Table
from ..core.session import Session
from .common import make_session, sweep_presets

EXPERIMENT_ID = "fig11"
TITLE = "SVT-AV1 preset sweep (game1)"

#: The sweep's fixed quality target (AV1-scale CRF).
CRF = 40


def run(session: Session | None = None, video: str = "game1") -> ExperimentResult:
    """Sweep presets 0-8 at fixed CRF."""
    if session is None:
        session = make_session()
    presets = sweep_presets()
    session.prefetch(("svt-av1", video, CRF, preset) for preset in presets)
    rows_a = []
    rows_c = []
    times, bitrates, psnrs = [], [], []
    for preset in presets:
        report = session.report("svt-av1", video, CRF, preset)
        td = report.topdown
        stalls = report.stalls_per_ki
        rows_a.append(
            (
                preset, report.time_seconds, round(report.bitrate_kbps, 1),
                round(report.psnr_db, 2),
            )
        )
        rows_c.append(
            (
                preset,
                round(td.retiring, 3), round(td.bad_speculation, 4),
                round(td.frontend, 3), round(td.backend, 3),
                round(report.branch.mpki, 3),
                round(report.cache_mpki["l1d"], 3),
                round(report.cache_mpki["l2"], 3),
                round(stalls["reservation_station"], 2),
                round(stalls["reorder_buffer"], 3),
            )
        )
        times.append(report.time_seconds)
        bitrates.append(report.bitrate_kbps)
        psnrs.append(report.psnr_db)
    table_ab = Table(
        title="Fig 11a/b: runtime, bitrate, PSNR vs preset (CRF fixed)",
        headers=("preset", "time_s", "bitrate_kbps", "psnr_db"),
        rows=tuple(rows_a),
    )
    table_cde = Table(
        title="Fig 11c/d/e: top-down, MPKI, stalls vs preset",
        headers=("preset", "retiring", "bad_spec", "frontend", "backend",
                 "branch_mpki", "l1d_mpki", "l2_mpki", "rs_stalls",
                 "rob_stalls"),
        rows=tuple(rows_c),
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE,
        tables=[table_ab, table_cde],
        series=[
            Series(name="time", x=presets, y=tuple(times)),
            Series(name="bitrate", x=presets, y=tuple(bitrates)),
            Series(name="psnr", x=presets, y=tuple(psnrs)),
        ],
    )
