"""The benchmark's workloads: seeded inputs, cold passes, fingerprints.

Every workload is a fixed grid of characterization cells.  The seed is
mixed into each clip's :class:`repro.video.synthetic.ContentSpec`, the
videos are generated here and handed to the program through
``Session.add_video_source``, so the program only ever sees the
generated ``Video`` objects.  Seed 0 reproduces the repository's
default clips (in the first draw, where a pass draws several).

A *pass* is one cold run of a grid in a fresh process: a fresh
``Session`` with an empty result cache (modelled caches start empty in
every cell, as ``collect`` builds them).  ``catalog-pooled`` runs under
a run directory (ledger, heartbeats, telemetry, shm data plane) through
``Session.prefetch(..., workers=N)``, the path ``repro experiment
--run-dir --workers`` takes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from contextlib import ExitStack
from dataclasses import dataclass

from repro.cache import ResultCache
from repro.core.session import Session
from repro.core.sweeps import comparable_preset, scale_crf
from repro.obs.context import ObsContext, activate_obs
from repro.obs.export import write_span_log
from repro.obs.telemetry import (
    LEDGER_FILE,
    SPAN_LOG_FILE,
    open_sink,
    telemetry_dir,
)
from repro.parallel.pool import ParallelConfig, activate_parallel
from repro.parallel.shm import InlineVideo
from repro.resilience.executor import (
    ExecutionContext,
    ExecutionPolicy,
    activate,
)
from repro.video import synthetic, vbench
from repro.video.frame import Video

WORKLOADS = ("fast-preset-4k", "catalog-pooled")

FAST_CODECS = ("svt-av1", "libvpx-vp9", "x265", "x264")

#: Content draws per ``fast-preset-4k`` pass, one cell each, rotating
#: through the encoders.  On one draw of ``chicken`` the pass's encode
#: work moves by about a tenth from seed to seed; one draw per cell
#: keeps that out of the run-to-run spread.
FAST_DRAWS = 20


@dataclass(frozen=True)
class Grid:
    """One workload: groups of cells, each group on one content draw.

    Group ``j`` of a pass with seed ``s`` generates its clips with
    ``ContentSpec.seed = s * len(groups) + j``, so seed 0 starts with
    the repository's default clips.
    """

    name: str
    groups: tuple[tuple[tuple[str, str, float, int], ...], ...]
    num_frames: int
    pooled: bool

    def content_seeds(self, seed: int) -> list[int]:
        return [seed * len(self.groups) + j for j in range(len(self.groups))]


def grid(
    name: str, max_cells: int | None = None, max_groups: int | None = None
) -> Grid:
    """Workload ``name``, optionally cut to its first groups and cells."""
    if name == "fast-preset-4k":
        cells = [
            (codec, "chicken", scale_crf(codec, 30), comparable_preset(codec, 8))
            for codec in FAST_CODECS
        ]
        groups = [[cells[j % len(cells)]] for j in range(FAST_DRAWS)]
        frames, pooled = 6, False
    elif name == "catalog-pooled":
        groups = [[("svt-av1", clip, 60, 8) for clip in vbench.names()]]
        frames, pooled = 3, True
    else:
        raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")
    return Grid(
        name,
        tuple(tuple(group[:max_cells]) for group in groups[:max_groups]),
        frames,
        pooled,
    )


def cell_id(cell: tuple[str, str, float, int], content_seed: int) -> str:
    codec, clip, crf, preset = cell
    return f"{codec}:{clip}:{crf:g}:{preset}@{content_seed}"


def make_videos(
    cells, num_frames: int, content_seed: int
) -> dict[str, Video]:
    """Generate each distinct clip of ``cells`` from one content seed."""
    videos = {}
    for clip in dict.fromkeys(cell[1] for cell in cells):
        content = dataclasses.replace(
            vbench.entry(clip).spec(num_frames), seed=content_seed
        )
        videos[clip] = synthetic.generate(content)
    return videos


def worker_count() -> int:
    """One pool worker per schedulable core (``nproc``)."""
    return len(os.sched_getaffinity(0))


class Pass:
    """One cold pass of a grid: set up, run, re-read, tear down."""

    def __init__(
        self, spec: Grid, seed: int, work_dir: str, on_cell=None
    ) -> None:
        self.spec = spec
        #: Called with each cell id before the cell runs (span cell ids).
        self.on_cell = on_cell or (lambda cid: None)
        self.content_seeds = spec.content_seeds(seed)
        self.cache_dir = os.path.join(work_dir, "cache")
        self.run_dir = os.path.join(work_dir, "run") if spec.pooled else None
        self.workers = worker_count() if spec.pooled else 1
        self._stack = ExitStack()
        self.obs: ObsContext | None = None
        self.sessions: list[Session] = []

    def _session(self, content_seed: int, guard=None) -> Session:
        # The result-cache key names the clip, not its content, so the
        # salt keeps each content seed's cells apart.
        cache = ResultCache(
            self.cache_dir, salt=f"perfbench-content-{content_seed}", remote=""
        )
        return Session(num_frames=self.spec.num_frames, guard=guard, cache=cache)

    def setup(self) -> None:
        """Synthesize the videos and build the sessions and cache."""
        guard = self._enter_run_dir() if self.run_dir is not None else None
        for content_seed, cells in zip(self.content_seeds, self.spec.groups):
            session = self._session(content_seed, guard)
            videos = make_videos(cells, self.spec.num_frames, content_seed)
            for clip, video in videos.items():
                session.add_video_source(
                    clip, self.spec.num_frames, InlineVideo.from_video(video)
                )
            self.sessions.append(session)

    def _enter_run_dir(self):
        """The run-directory contract ``run_experiment`` installs."""
        os.makedirs(self.run_dir, exist_ok=True)
        obs = self.obs = ObsContext()
        obs.telemetry = open_sink(
            telemetry_dir(self.run_dir), role="parent", obs=obs, interval=0.5
        )
        context = ExecutionContext(
            ExecutionPolicy(
                ledger_path=os.path.join(self.run_dir, LEDGER_FILE)
            ),
            experiment_id=f"perfbench-{self.spec.name}",
        )
        self._stack.enter_context(activate_obs(obs))
        self._stack.enter_context(
            activate_parallel(
                ParallelConfig(
                    workers=self.workers,
                    cache_dir=self.cache_dir,
                    run_dir=self.run_dir,
                )
            )
        )
        self._stack.enter_context(activate(context))
        return context.guard

    def run(self) -> dict:
        """The timed region: every cell of every group, cold.

        Maps each cell id to its report, or to the exception the cell
        raised (a quarantined cell raises from ``Session.report``).
        """
        results = {}
        for content_seed, cells, session in zip(
            self.content_seeds, self.spec.groups, self.sessions
        ):
            if self.spec.pooled:
                try:
                    session.prefetch(cells, workers=self.workers)
                except Exception as exc:  # noqa: BLE001 - counted per cell
                    results.update(
                        (cell_id(cell, content_seed), exc) for cell in cells
                    )
                    continue
            results.update(
                _reports(session, cells, content_seed, self.on_cell)
            )
        return results

    def close(self) -> None:
        """Stop telemetry, write the span log, leave the run directory."""
        if self.obs is not None and self.obs.telemetry is not None:
            self.obs.telemetry.stop(outcome="complete")
            self.obs.telemetry = None
            write_span_log(
                os.path.join(self.run_dir, SPAN_LOG_FILE),
                self.obs.tracer.spans,
                self.obs.events.events,
            )
        self._stack.close()

    def reread(self) -> dict:
        """Every cell again through fresh sessions over the same cache."""
        results = {}
        for content_seed, cells in zip(self.content_seeds, self.spec.groups):
            results.update(_reports(
                self._session(content_seed), cells, content_seed, self.on_cell
            ))
        return results


def _reports(session: Session, cells, content_seed: int, on_cell) -> dict:
    results = {}
    for cell in cells:
        cid = cell_id(cell, content_seed)
        on_cell(cid)
        try:
            results[cid] = session.report(*cell)
        except Exception as exc:  # noqa: BLE001 - a failed cell is counted
            results[cid] = exc
    return results


def fingerprint(report) -> dict:
    """The simulated statistics a speed-only change must keep identical."""
    return {
        "proxy_instructions": float(report.proxy_instructions),
        "instructions": float(report.instructions),
        "cycles": float(report.cycles),
        "ipc": float(report.ipc),
        "mix_percent": {k: float(v) for k, v in report.mix_percent.items()},
        "cache_mpki": {k: float(v) for k, v in report.cache_mpki.items()},
        "branch_miss_rate": float(report.branch.miss_rate),
        "branch_mpki": float(report.branch.mpki),
        "topdown": {
            k: float(v) for k, v in dataclasses.asdict(report.topdown).items()
        },
        "bits": float(report.bits),
        "psnr_db": float(report.psnr_db),
    }


def digest_of(fingerprint: dict) -> str:
    """Exact digest of a fingerprint (floats at full precision)."""
    text = json.dumps(fingerprint, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def digest(report) -> str:
    return digest_of(fingerprint(report))
