"""Fig. 16: top-down analysis vs thread count for four encoders.

Target shape (§4.6): for libaom, SVT-AV1 and x264 the top-down profile
is insensitive to the thread count; x265 becomes markedly more
backend-bound as threads are added (its helpers share the master's
working set and spin on row progress).
"""

from __future__ import annotations

from ..core.report import ExperimentResult, Series, Table
from ..core.session import Session
from ..core.sweeps import scale_crf, thread_study
from .common import THREAD_CODECS, fast_mode, make_session

EXPERIMENT_ID = "fig16"
TITLE = "top-down vs thread count (game1)"

AV1_CRF = 50
AV1_PRESET = 6


def run(
    session: Session | None = None,
    video: str = "game1",
    max_threads: int = 8,
) -> ExperimentResult:
    """Per-encoder top-down at 1..max_threads."""
    if session is None:
        session = make_session()
    num_frames = 4 if fast_mode() else 8
    session.prefetch(
        (
            codec,
            video,
            scale_crf(codec, AV1_CRF),
            AV1_PRESET if codec in ("svt-av1", "libaom") else 5,
        )
        for codec in THREAD_CODECS
    )
    rows = []
    series = []
    for codec in THREAD_CODECS:
        crf = scale_crf(codec, AV1_CRF)
        preset = AV1_PRESET if codec in ("svt-av1", "libaom") else 5
        study = thread_study(
            codec, video, crf, preset,
            max_threads=max_threads, num_frames=num_frames, session=session,
        )
        backend = []
        for threads in sorted(study.topdowns):
            td = study.topdowns[threads]
            rows.append(
                (
                    codec, threads,
                    round(td.retiring, 3), round(td.bad_speculation, 4),
                    round(td.frontend, 3), round(td.backend, 3),
                )
            )
            backend.append(td.backend)
        series.append(
            Series(
                name=f"backend:{codec}",
                x=tuple(sorted(study.topdowns)),
                y=tuple(backend),
            )
        )
    table = Table(
        title="Fig 16: top-down shares vs threads",
        headers=("codec", "threads", "retiring", "bad_spec", "frontend",
                 "backend"),
        rows=tuple(rows),
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, tables=[table],
        series=series,
    )
