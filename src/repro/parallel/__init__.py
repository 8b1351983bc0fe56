"""Parallel execution: thread-scaling models (§4.6) and the sweep pool.

Two unrelated kinds of parallelism live here: the paper's *modelled*
encoder thread scaling (:mod:`repro.parallel.scaling`,
:mod:`repro.parallel.models`) and the harness's *actual* process-pool
sweep execution (:mod:`repro.parallel.pool`).
"""

from .models import (
    GRAPH_BUILDERS,
    build_graph,
    build_libaom_graph,
    build_svt_av1_graph,
    build_x264_graph,
    build_x265_graph,
)
from .pool import (
    CellSpec,
    ParallelConfig,
    activate_parallel,
    current_parallel,
    execute_cells,
    resolve_cache_dir,
    resolve_supervision,
    resolve_workers,
)
from .shm import (
    InlineVideo,
    ShmDataPlane,
    ShmVideoHandle,
    attach_video,
    leaked_segments,
    publish_video,
)
from .scaling import (
    ScalingCurve,
    ScalingPoint,
    thread_scaling,
    topdown_with_threads,
)
from .supervise import (
    HeartbeatWriter,
    Lease,
    SupervisionConfig,
    drain_guard,
    drain_requested,
    last_beat,
    request_drain,
)
from .tasks import ScheduleResult, Task, TaskGraph

__all__ = [
    "GRAPH_BUILDERS",
    "CellSpec",
    "HeartbeatWriter",
    "InlineVideo",
    "Lease",
    "ParallelConfig",
    "ShmDataPlane",
    "ShmVideoHandle",
    "ScalingCurve",
    "ScalingPoint",
    "ScheduleResult",
    "SupervisionConfig",
    "Task",
    "TaskGraph",
    "activate_parallel",
    "attach_video",
    "build_graph",
    "build_libaom_graph",
    "build_svt_av1_graph",
    "build_x264_graph",
    "build_x265_graph",
    "current_parallel",
    "drain_guard",
    "drain_requested",
    "execute_cells",
    "last_beat",
    "leaked_segments",
    "publish_video",
    "request_drain",
    "resolve_cache_dir",
    "resolve_supervision",
    "resolve_workers",
    "thread_scaling",
    "topdown_with_threads",
]
