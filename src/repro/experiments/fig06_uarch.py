"""Fig. 6: microarchitectural trends across CRF (eight panels).

Panels a-d: branch / L1D / L2 / LLC misses per kilo-instruction;
panels e-h: reservation-station / ROB / load-buffer / store-buffer
stall cycles per kilo-instruction.  Target shapes (§4.3): branch MPKI
*falls* with CRF; L1D/L2 MPKI *rise*; LLC MPKI stays far smaller;
resource stalls rise with CRF except the ROB, which stays small.
"""

from __future__ import annotations

from ..core.report import ExperimentResult, Series, Table
from ..core.session import Session
from .common import make_session, sweep_crfs, sweep_videos

EXPERIMENT_ID = "fig06"
TITLE = "uarch trends across CRF: MPKI + resource stalls"

PRESET = 4

PANELS = (
    "branch_mpki", "l1d_mpki", "l2_mpki", "llc_mpki",
    "rs_stalls", "rob_stalls", "ldq_stalls", "stq_stalls",
)


def run(session: Session | None = None) -> ExperimentResult:
    """Collect all eight panels for every (video, CRF) cell."""
    if session is None:
        session = make_session()
    session.prefetch(
        ("svt-av1", video, crf, PRESET)
        for video in sweep_videos()
        for crf in sweep_crfs()
    )
    rows = []
    series: dict[str, list[float]] = {}
    for video in sweep_videos():
        per_panel: dict[str, list[float]] = {p: [] for p in PANELS}
        for crf in sweep_crfs():
            report = session.report("svt-av1", video, crf, PRESET)
            stalls = report.stalls_per_ki
            values = {
                "branch_mpki": report.branch.mpki,
                "l1d_mpki": report.cache_mpki["l1d"],
                "l2_mpki": report.cache_mpki["l2"],
                "llc_mpki": report.cache_mpki["llc"],
                "rs_stalls": stalls["reservation_station"],
                "rob_stalls": stalls["reorder_buffer"],
                "ldq_stalls": stalls["load_buffer"],
                "stq_stalls": stalls["store_buffer"],
            }
            rows.append(
                (video, crf) + tuple(round(values[p], 4) for p in PANELS)
            )
            for panel in PANELS:
                per_panel[panel].append(values[panel])
        for panel in PANELS:
            series[f"{panel}:{video}"] = per_panel[panel]
    table = Table(
        title="Fig 6: MPKI and stall cycles per KI",
        headers=("video", "crf") + PANELS,
        rows=tuple(rows),
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, tables=[table],
        series=[
            Series(name=name, x=sweep_crfs(), y=tuple(values))
            for name, values in series.items()
        ],
    )
