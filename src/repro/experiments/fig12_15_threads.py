"""Figs. 12-15: thread scalability of four encoders (game1).

Each of the paper's four figures repeats the 1-8-thread study with a
different x264 operating point (preset/CRF), holding the other three
encoders at comparable settings:

- Fig. 12: x264 preset 0, CRF 51;
- Fig. 13: x264 preset 2, CRF 51;
- Fig. 14: x264 preset 5, CRF 50;
- Fig. 15: x264 preset 5, CRF 30.

Target shapes (§4.6): SVT-AV1 reaches ~6x at 8 threads (the best);
x264 scales best over 1-3 threads, then saturates; libaom tracks
SVT-AV1 early and flattens; x265 never exceeds ~1.3x.
"""

from __future__ import annotations

from ..core.report import ExperimentResult, Series, Table
from ..core.session import Session
from ..core.sweeps import scale_crf, thread_study
from .common import THREAD_CODECS, fast_mode, make_session

#: Figure id -> (x264 preset, x264 CRF).
CONFIGS: dict[str, tuple[int, int]] = {
    "fig12": (0, 51),
    "fig13": (2, 51),
    "fig14": (5, 50),
    "fig15": (5, 30),
}

#: Settings for the non-x264 encoders (AV1 scale), per figure.
_COMPANION = {
    "fig12": (8, 63),   # fast presets, high CRF — like x264 p0 (fast end)
    "fig13": (6, 63),
    "fig14": (4, 60),
    "fig15": (4, 37),
}


def run(
    figure: str = "fig14",
    session: Session | None = None,
    video: str = "game1",
    max_threads: int = 8,
) -> ExperimentResult:
    """Run the four-encoder thread study for one figure's config."""
    if session is None:
        session = make_session()
    x264_preset, x264_crf = CONFIGS[figure]
    av1_preset, av1_crf = _COMPANION[figure]
    num_frames = 4 if fast_mode() else 8

    settings = {
        "x264": (x264_crf, x264_preset),
        "x265": (scale_crf("x265", av1_crf), x264_preset),
        "libaom": (av1_crf, av1_preset),
        "svt-av1": (av1_crf, av1_preset),
    }

    session.prefetch(
        (codec, video) + settings[codec] for codec in THREAD_CODECS
    )
    rows = []
    series = []
    threads_axis = tuple(range(1, max_threads + 1))
    for codec in THREAD_CODECS:
        crf, preset = settings[codec]
        study = thread_study(
            codec, video, crf, preset,
            max_threads=max_threads, num_frames=num_frames,
            session=session,
        )
        speedups = tuple(p.speedup for p in study.curve.points)
        for threads, speedup in zip(threads_axis, speedups):
            rows.append((codec, threads, round(speedup, 3)))
        series.append(Series(name=codec, x=threads_axis, y=speedups))
    table = Table(
        title=f"{figure}: speedup vs threads "
              f"(x264 preset {x264_preset}, CRF {x264_crf})",
        headers=("codec", "threads", "speedup"),
        rows=tuple(rows),
    )
    return ExperimentResult(
        experiment_id=figure,
        title=f"thread scalability ({figure} configuration)",
        tables=[table],
        series=series,
    )
