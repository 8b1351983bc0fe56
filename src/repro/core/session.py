"""Experiment session with memoised characterization runs.

Several of the paper's figures are different views of the *same*
encodes (Figs. 3-7 all read the CRF sweep; Figs. 12-16 share the
thread-study encodes), so the experiment harness funnels every run
through a :class:`Session` that caches by configuration.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from ..codecs.base import EncodeResult
from ..errors import QuarantinedCellError, VideoError
from ..obs.context import current_obs
from ..obs.metrics import RATE_BUCKETS
from ..obs.span import trace_span
from ..resilience.executor import ResilienceGuard
from ..uarch.machine import XEON_E5_2650_V4, MachineConfig
from ..uarch.perfcounters import PerfReport
from ..video import vbench
from ..video.frame import Video
from ..video.synthetic import generate
from .characterize import characterize, encode_workload
from .serialize import from_jsonable, to_jsonable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cache import ResultCache

#: Per-session video LRU capacity.  A sweep grid touches a handful of
#: distinct clips (the full catalog is 15), so a small bound keeps the
#: win (each clip generated once per session instead of once per cell)
#: while capping resident pixel data for adversarial grids.
VIDEO_LRU_CAPACITY = 16


def _record_report_metrics(report: PerfReport) -> None:
    """Feed one cell's simulator event rates to the metrics registry.

    No-op without an active observability context; the registry then
    carries the cache/branch behaviour of every executed cell so a
    run's ``--metrics-json`` artifact summarises the whole sweep.
    """
    obs = current_obs()
    if obs is None:
        return
    metrics = obs.metrics
    metrics.counter("sim.instructions").inc(report.instructions)
    metrics.counter("sim.cycles").inc(report.cycles)
    metrics.histogram("sim.ipc", RATE_BUCKETS + (2.0, 4.0, 8.0)).observe(
        report.ipc
    )
    metrics.histogram("branch.miss_rate", RATE_BUCKETS).observe(
        report.branch.miss_rate
    )
    metrics.histogram("branch.mpki").observe(report.branch.mpki)
    for level, mpki in report.cache_mpki.items():
        metrics.histogram(f"cache.mpki.{level}").observe(mpki)


def _video_key(name: str, frames: int) -> str:
    """Memo key of a catalog clip: its spec's content address."""
    from ..cache import video_content_key

    return video_content_key(vbench.entry(name).spec(frames))


@dataclass(frozen=True)
class RunKey:
    """Cache key for one characterization run."""

    codec: str
    video: str
    crf: float
    preset: int
    num_frames: int | None = None


@dataclass(frozen=True)
class CellSpec:
    """One grid point: the four coordinates of a characterization.

    The currency of batch execution — :meth:`Session.prefetch` and
    :func:`repro.parallel.pool.execute_cells` take iterables of these
    (plain ``(codec, video, crf, preset)`` tuples are accepted and
    normalised).  Unlike :class:`RunKey` it carries no frame count;
    the executing session supplies its own.
    """

    codec: str
    video: str
    crf: float
    preset: int

    @classmethod
    def of(cls, item: "CellSpec | tuple") -> "CellSpec":
        """Normalise a ``(codec, video, crf, preset)`` tuple."""
        if isinstance(item, cls):
            return item
        return cls(*item)

    def __str__(self) -> str:
        return f"{self.codec}:{self.video}:{self.crf:g}:{self.preset}"


@dataclass
class Session:
    """Memoising front-end over :func:`characterize`.

    When ``guard`` is set (the resilient executor installs one via
    :func:`repro.experiments.common.make_session`), every cache miss
    becomes a *cell* run under the guard's retry/timeout/checkpoint
    policies: completed cells are ledgered as serialized
    :class:`~repro.uarch.perfcounters.PerfReport` payloads and resumed
    runs replay them instead of re-encoding.
    """

    machine: MachineConfig = XEON_E5_2650_V4
    num_frames: int | None = None
    guard: ResilienceGuard | None = None
    cache: "ResultCache | None" = None
    _reports: dict[RunKey, PerfReport] = field(default_factory=dict)
    _encodes: dict[RunKey, EncodeResult] = field(default_factory=dict)
    _quarantined: dict[RunKey, QuarantinedCellError] = field(
        default_factory=dict
    )
    _videos: "OrderedDict[str, Video]" = field(default_factory=OrderedDict)
    _video_sources: dict[tuple[str, int], Any] = field(default_factory=dict)

    def cell_key(self, key: RunKey) -> str:
        """Stable ledger/fault-site key for one characterization cell."""
        frames = "all" if key.num_frames is None else key.num_frames
        return (
            f"cell:{key.codec}:{key.video}:{key.crf:g}:{key.preset}:{frames}"
        )

    def video_frames(self) -> int:
        """Effective proxy frame count for catalog clips."""
        return (
            self.num_frames
            if self.num_frames is not None
            else vbench.DEFAULT_NUM_FRAMES
        )

    def add_video_source(self, name: str, num_frames: int, payload: Any) -> None:
        """Register a delivery payload for one ``(clip, frames)`` pair.

        ``payload`` is a :class:`~repro.parallel.shm.ShmVideoHandle`
        (zero-copy attach) or :class:`~repro.parallel.shm.InlineVideo`
        (pickled planes); pool workers install these from the cell job
        so :meth:`video` never regenerates what the parent already
        published.  The source wins over a copy of the clip this
        session already resolved, whose memo entry is dropped.  A
        payload that fails to materialise raises
        :class:`~repro.errors.ShmError` from :meth:`video`, never a
        different clip.
        """
        self._video_sources[(name, num_frames)] = payload
        self._videos.pop(_video_key(name, num_frames), None)

    def video(self, name: str) -> Video:
        """The named catalog clip at this session's frame count.

        Memoised per content address (the spec fully seeds the
        generator, so equal specs mean bit-identical planes): a CRF
        sweep that visits one clip at ten grid points generates — or
        attaches — its frames once, not ten times.
        """
        return self._clip(name, self.video_frames())

    def _clip(self, name: str, frames: int) -> Video:
        """The named catalog clip at ``frames`` frames: the memoised
        copy, else the registered source, else a fresh generation."""
        key = _video_key(name, frames)
        cached = self._videos.get(key)
        if cached is not None:
            self._videos.move_to_end(key)
            return cached
        payload = self._video_sources.get((name, frames))
        if payload is not None:
            from ..parallel import shm as shm_plane

            video = shm_plane.video_from_payload(payload)
        else:
            video = generate(vbench.entry(name).spec(frames))
        self._videos[key] = video
        while len(self._videos) > VIDEO_LRU_CAPACITY:
            self._videos.popitem(last=False)
        return video

    def _resolve_video(self, video: "Video | str") -> "Video | str":
        """Memoised Video for catalog-clip names; passthrough otherwise.

        Unknown names pass through unchanged so :func:`characterize`
        raises its usual :class:`~repro.errors.VideoError` *inside* the
        guarded compute, exactly where it surfaced before memoisation.
        """
        if not isinstance(video, str):
            return video
        try:
            return self.video(video)
        except VideoError:
            return video

    def _compute(
        self, codec: str, video: str, crf: float, preset: int
    ) -> PerfReport:
        """One cell's work, consulting the result cache when attached.

        The cache lookup lives *inside* the guarded compute, so a hit
        is still ledgered as a normally completed cell (and still
        passes the fault-injection checkpoint) — memoisation changes
        how fast a cell finishes, never whether it ran.
        """
        if self.cache is not None:
            from ..cache import cell_cache_key

            cache_key = cell_cache_key(
                codec, video, crf, preset, self.num_frames, self.machine,
                salt=self.cache.salt,
            )
            payload = self.cache.get(cache_key)
            if payload is not None:
                return from_jsonable(payload)
            report = characterize(
                codec, self._resolve_video(video), machine=self.machine,
                crf=crf, preset=preset, num_frames=self.num_frames,
            )
            self.cache.put(cache_key, to_jsonable(report))
            return report
        return characterize(
            codec, self._resolve_video(video), machine=self.machine,
            crf=crf, preset=preset, num_frames=self.num_frames,
        )

    def report(
        self,
        codec: str,
        video: str,
        crf: float,
        preset: int,
    ) -> PerfReport:
        """Characterize (or fetch the cached) run.

        Raises :class:`~repro.errors.QuarantinedCellError` when a
        guarded cell fails permanently; sweep loops catch it and keep
        the rest of the grid.  The quarantine is sticky: asking again
        re-raises the stored error instead of re-running the cell, so
        a prefetched grid and a lazy loop observe the same failures.
        """
        key = RunKey(codec, video, crf, preset, self.num_frames)
        quarantined = self._quarantined.get(key)
        if quarantined is not None:
            raise quarantined
        cached = self._reports.get(key)
        if cached is None:
            compute = lambda: self._compute(  # noqa: E731
                codec, video, crf, preset
            )
            with trace_span(
                "cell", key=self.cell_key(key), codec=codec, video=video,
                crf=crf, preset=preset,
            ):
                if self.guard is not None:
                    try:
                        cached = self.guard.run_cell(
                            self.cell_key(key),
                            compute,
                            serialize=to_jsonable,
                            deserialize=from_jsonable,
                        )
                    except QuarantinedCellError as exc:
                        self._quarantined[key] = exc
                        raise
                else:
                    cached = compute()
            _record_report_metrics(cached)
            self._reports[key] = cached
        return cached

    def prefetch(
        self,
        specs: Iterable[CellSpec | tuple],
        workers: int | str | None = None,
    ) -> int:
        """Compute a batch of cells (:class:`CellSpec` or plain
        ``(codec, video, crf, preset)`` tuples).

        With a worker count above one (the explicit argument, else
        the installed :class:`~repro.parallel.pool.ParallelConfig`'s),
        the grid fans out over a process pool and
        later :meth:`report` calls hit this session's in-memory cache;
        quarantine failures are absorbed here and re-raised by the
        corresponding :meth:`report` call, exactly where the serial
        loop would have seen them.  At one worker this is a no-op —
        the lazy serial loops are already the optimal schedule — so
        serial runs stay bit-for-bit identical to pre-parallel runs.

        Returns the number of cells dispatched to the pool.
        """
        from ..parallel.pool import execute_cells, resolve_workers

        specs = [CellSpec.of(spec) for spec in specs]
        workers = resolve_workers(workers)
        if workers <= 1:
            # Serial grouping win: generate each distinct clip once, up
            # front, so the lazy per-cell loops that follow always hit
            # the video LRU (and batch-friendly callers see all their
            # inputs materialised together).
            for name in dict.fromkeys(spec.video for spec in specs):
                try:
                    self.video(name)
                except VideoError:
                    continue
            return 0
        wanted = []
        for spec in specs:
            key = RunKey(
                spec.codec, spec.video, spec.crf, spec.preset, self.num_frames
            )
            if key in self._reports or key in self._quarantined:
                continue
            wanted.append(spec)
        if wanted:
            execute_cells(self, wanted, workers)
        return len(wanted)

    def encode(
        self,
        codec: str,
        video: str,
        crf: float,
        preset: int,
        num_frames: int | None = None,
    ) -> EncodeResult:
        """Instrumented encode (or cached) without the measurement pass.

        The clip resolves through this session, as for :meth:`report`,
        at the frame count encoded.
        """
        frames = num_frames if num_frames is not None else self.num_frames
        key = RunKey(codec, video, crf, preset, frames)
        cached = self._encodes.get(key)
        if cached is None:
            clip = self._clip(
                video,
                num_frames if num_frames is not None else self.video_frames(),
            )
            cached = encode_workload(codec, clip, crf, preset)
            self._encodes[key] = cached
        return cached

    def clear(self) -> None:
        """Drop all cached runs (and remembered quarantines)."""
        self._reports.clear()
        self._encodes.clear()
        self._quarantined.clear()
        self._videos.clear()
        self._video_sources.clear()

    def __len__(self) -> int:
        return len(self._reports) + len(self._encodes)
