"""Sweep building blocks the experiment modules share.

Grid construction (:func:`sweep_specs`), the quarantine-dropping cell
loop (:func:`sweep_cells`), the cross-codec CRF/preset mappings and the
§4.6 thread study; the experiment modules reshape their results into
the exact rows/series of each table and figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, TypeVar

from ..codecs import SPECS
from ..errors import (
    ExperimentError,
    QuarantinedCellError,
    SweepInterruptedError,
)
from ..obs.span import trace_span
from ..parallel.scaling import ScalingCurve, thread_scaling, topdown_with_threads
from ..uarch.topdown import TopDown
from .session import CellSpec, Session

_P = TypeVar("_P")
_R = TypeVar("_R")


def sweep_cells(
    points: Iterable[_P],
    run: Callable[[_P], _R],
) -> tuple[list[_P], list[_R]]:
    """Run ``run`` over grid ``points``, dropping quarantined cells.

    The failure-isolation primitive of every sweep: a cell that raises
    :class:`~repro.errors.QuarantinedCellError` (the resilient
    executor's permanent-failure signal) is skipped — its grid point
    disappears from the returned ``points`` — and every other cell's
    work is kept.  Without a resilient session no cell ever raises it,
    so plain sweeps behave exactly as before.
    """
    from ..parallel.supervise import drain_requested

    kept_points: list[_P] = []
    kept_results: list[_R] = []
    points = list(points)
    for index, point in enumerate(points):
        signame = drain_requested()
        if signame is not None:
            # A drain request stops the run *between* cells: what
            # finished is already in the ledger, what did not will be
            # re-run by --resume.
            raise SweepInterruptedError(
                signame, completed=index, total=len(points)
            )
        try:
            with trace_span("sweep.cell", point=str(point), index=index):
                result = run(point)
        except QuarantinedCellError:
            continue
        kept_points.append(point)
        kept_results.append(result)
    return kept_points, kept_results


def sweep_specs(
    codecs: str | Iterable[str],
    videos: str | Iterable[str],
    crfs: float | Iterable[float],
    presets: int | Iterable[int],
) -> list[CellSpec]:
    """Cross-product grid of cell specs, in nested-loop order.

    Scalars are accepted for any axis, so the common one-codec
    one-preset sweeps read naturally::

        session.prefetch(sweep_specs("svt-av1", videos, crfs, 4))

    The order (codec, then video, then CRF, then preset) matches the
    experiments' own loop nesting, which keeps serial execution order
    — and therefore ledger order — identical whether a grid is walked
    lazily or prefetched.
    """

    def axis(value) -> tuple:
        if isinstance(value, (str, int, float)):
            return (value,)
        return tuple(value)

    return [
        CellSpec(codec, video, crf, preset)
        for codec in axis(codecs)
        for video in axis(videos)
        for crf in axis(crfs)
        for preset in axis(presets)
    ]


def scale_crf(codec: str, crf: float, reference_range: int = 63) -> float:
    """Translate a CRF on the AV1 0-63 scale to ``codec``'s scale.

    The paper sweeps "CRF" jointly across encoders whose CRF ranges
    differ (§3.3); equal *fractions* of the range are the comparable
    operating points.
    """
    spec = SPECS.get(codec)
    if spec is None:
        raise ExperimentError(f"unknown codec {codec!r}")
    return round(crf / reference_range * spec.crf_range)


def comparable_preset(codec: str, av1_preset: int) -> int:
    """Map an AV1-scale preset (0-8, higher=faster) onto ``codec``.

    x264/x265 number presets 0-9 with higher = *slower* (§3.3), so the
    scale is inverted and stretched.
    """
    spec = SPECS.get(codec)
    if spec is None:
        raise ExperimentError(f"unknown codec {codec!r}")
    if spec.preset_higher_is_faster:
        return av1_preset
    # Map speed level (0 slowest..8 fastest) into the reversed range.
    level = round(av1_preset / 8 * (spec.preset_count - 1))
    return spec.preset_count - 1 - level


@dataclass(frozen=True)
class ThreadStudy:
    """Scaling curve plus per-thread-count top-down profiles."""

    codec: str
    curve: ScalingCurve
    topdowns: dict[int, TopDown]


def thread_study(
    codec: str,
    video: str,
    crf: float,
    preset: int,
    *,
    session: Session,
    max_threads: int = 8,
    num_frames: int = 8,
) -> ThreadStudy:
    """The paper's §4.6 study for one encoder configuration."""
    result = session.encode(codec, video, crf, preset, num_frames=num_frames)
    report = session.report(codec, video, crf, preset)
    curve = thread_scaling(result, max_threads=max_threads)
    topdowns = {
        point.threads: topdown_with_threads(
            report.topdown, codec, point.threads, point.utilisation
        )
        for point in curve.points
    }
    return ThreadStudy(codec=codec, curve=curve, topdowns=topdowns)
