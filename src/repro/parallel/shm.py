"""Zero-copy shared-memory data plane for pooled sweeps.

Every cell of a sweep grid encodes one of a handful of distinct proxy
videos, yet the pre-PR pooled path regenerated that video *inside each
worker, for every cell* — the synthetic generator dominated small-cell
sweeps and the pickle boundary shipped nothing reusable.  This module
publishes each distinct video's Y/U/V planes **once**, into a single
:class:`multiprocessing.shared_memory.SharedMemory` segment, and hands
workers a tiny picklable :class:`ShmVideoHandle` (segment name plus
geometry).  Workers attach and reconstruct ``Video``/``Frame`` objects
whose planes are NumPy *views* over the shared buffer — zero copies on
either side of the process boundary.

Ownership and unlink rules (DESIGN.md "Shared-memory data plane"):

- the **parent** owns every segment.  :class:`ShmDataPlane` publishes,
  ref-counts and registers segments (in the run manifest when a run
  directory is active) and unlinks them all in ``close()`` — which the
  supervised dispatch loop runs in a ``finally``, so drains, crashes
  and pool rebuilds cannot leak ``/dev/shm`` entries;
- **workers** only ever attach.  Forked workers share the parent's
  resource tracker (their attach-registration is an idempotent no-op);
  spawned workers own a private tracker, so their attach is untracked
  immediately lest a worker exit unlink a segment it merely borrowed;
- attach views are **read-only**: cells from different workers map the
  same physical pages, so a codec writing to its input would corrupt
  every sibling cell.  The encoders never write input frames; the
  read-only mapping turns any future violation into a loud error
  instead of a silent cross-cell heisenbug.

Delivery policy: every clip is published to shared memory.  Where a
publish fails (``/dev/shm`` full, platform without POSIX shm) that
clip's planes ship inline in each cell job as an :class:`InlineVideo`
instead, so workers always encode exactly the frames the parent
resolved.  An attach failure inside a worker raises
:class:`~repro.errors.ShmError` and fails that cell (a guard
quarantines it): regenerating the clip by name would encode other
frames wherever the parent shipped a registered video.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import secrets
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from ..errors import ShmError
from ..obs.context import record_metric
from ..video.frame import Frame, Video

#: Every segment name starts with this, so a leak scan (tests, CI) can
#: recognise ours without false positives from other tenants.
SEGMENT_PREFIX = "repro-shm-"


def _segment_name() -> str:
    """A fresh segment name, recognisable and collision-free.

    The pid pins the owning parent (post-mortem triage of a leaked
    ``/dev/shm`` entry starts with "is that process alive?"); the
    token keeps concurrent sweeps in one process apart.
    """
    return f"{SEGMENT_PREFIX}{os.getpid()}-{secrets.token_hex(4)}"


@dataclass(frozen=True)
class ShmVideoHandle:
    """Picklable descriptor of one published video.

    Carries the segment name plus exactly the geometry needed to
    reconstruct the plane views; at ~100 bytes pickled it replaces
    megabytes of frame data on the job payload.

    Segment layout: the luma block ``(frames, height, width)`` uint8,
    then the U and V blocks ``(frames, height//2, width//2)`` each,
    all C-contiguous and densely packed in that order.
    """

    segment: str
    name: str
    fps: float
    frames: int
    width: int
    height: int

    @property
    def luma_bytes(self) -> int:
        return self.frames * self.height * self.width

    @property
    def chroma_bytes(self) -> int:
        return self.frames * (self.height // 2) * (self.width // 2)

    @property
    def total_bytes(self) -> int:
        return self.luma_bytes + 2 * self.chroma_bytes


@dataclass(frozen=True)
class InlineVideo:
    """Pickle-path twin of :class:`ShmVideoHandle`: planes ride along.

    The stacked arrays pickle as three dense buffers; ``to_video()``
    rebuilds per-frame views without further copies, so the cost is
    one serialise/deserialise of the raw planes per *cell* — exactly
    the overhead the shared-memory path exists to avoid.  It is the
    delivery fallback for a clip whose publish failed, and the
    measurable baseline of the payload benches.
    """

    name: str
    fps: float
    y: np.ndarray                # (frames, h, w) uint8
    u: np.ndarray                # (frames, h//2, w//2) uint8
    v: np.ndarray                # (frames, h//2, w//2) uint8

    @classmethod
    def from_video(cls, video: Video) -> "InlineVideo":
        y, u, v = stack_planes(video)
        return cls(name=video.name, fps=video.fps, y=y, u=u, v=v)

    def to_video(self) -> Video:
        frames = [
            Frame(self.y[i], self.u[i], self.v[i], index=i)
            for i in range(self.y.shape[0])
        ]
        return Video(frames, fps=self.fps, name=self.name)


def stack_planes(video: Video) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense ``(frames, h, w)`` stacks of the Y, U and V planes."""
    y = np.stack([frame.y.data for frame in video.frames])
    u = np.stack([frame.u.data for frame in video.frames])
    v = np.stack([frame.v.data for frame in video.frames])
    return y, u, v


def publish_video(
    video: Video, segment: str | None = None
) -> tuple[ShmVideoHandle, shared_memory.SharedMemory]:
    """Copy ``video``'s planes into a fresh shared-memory segment.

    Returns the picklable handle plus the parent-side
    :class:`~multiprocessing.shared_memory.SharedMemory` object, which
    the caller owns (keep it referenced until ``unlink``).  Raises
    :class:`~repro.errors.ShmError` when the platform or ``/dev/shm``
    refuses — callers fall back to another delivery mode.
    """
    handle = ShmVideoHandle(
        segment=segment if segment is not None else _segment_name(),
        name=video.name,
        fps=video.fps,
        frames=video.num_frames,
        width=video.width,
        height=video.height,
    )
    try:
        shm = shared_memory.SharedMemory(
            name=handle.segment, create=True, size=handle.total_bytes
        )
    except (OSError, ValueError) as exc:
        raise ShmError(
            f"cannot create shared-memory segment for {video.name!r} "
            f"({handle.total_bytes} bytes): {exc}"
        ) from exc
    try:
        y, u, v = _plane_views(shm, handle, writeable=True)
        for i, frame in enumerate(video.frames):
            y[i] = frame.y.data
            u[i] = frame.u.data
            v[i] = frame.v.data
    except BaseException:
        shm.close()
        try:
            shm.unlink()
        except OSError:
            pass
        raise
    return handle, shm


def attach_video(handle: ShmVideoHandle) -> Video:
    """Attach to a published segment and rebuild the video, zero-copy.

    The returned frames' planes are read-only views over the shared
    buffer; the :class:`~multiprocessing.shared_memory.SharedMemory`
    object rides on the video (``video.shm``) so the mapping outlives
    every view.  Raises :class:`~repro.errors.ShmError` when the
    segment is gone or malformed.
    """
    try:
        shm = shared_memory.SharedMemory(name=handle.segment)
    except (OSError, ValueError) as exc:
        raise ShmError(
            f"cannot attach segment {handle.segment!r} for video "
            f"{handle.name!r}: {exc}"
        ) from exc
    # CPython's resource tracker registers a POSIX segment on *attach*
    # as well as on create.  Forked workers inherit the parent's
    # tracker process, where registrations are a set, so the extra
    # register is a no-op and must NOT be undone (unregistering from
    # the shared tracker would strip the parent's own registration).
    # A *spawned* worker, however, starts its own tracker, which would
    # unlink the live segment when the worker exits — only there is
    # the attach registration a borrow to untrack.
    if (
        multiprocessing.parent_process() is not None
        and "fork" not in multiprocessing.get_all_start_methods()
    ):
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:  # noqa: BLE001 - tracker internals vary
            pass
    if shm.size < handle.total_bytes:
        shm.close()
        raise ShmError(
            f"segment {handle.segment!r} is {shm.size} bytes; video "
            f"{handle.name!r} needs {handle.total_bytes}"
        )
    y, u, v = _plane_views(shm, handle, writeable=False)
    frames = [
        Frame(y[i], u[i], v[i], index=i) for i in range(handle.frames)
    ]
    video = Video(frames, fps=handle.fps, name=handle.name)
    video.shm = shm  # keep the mapping alive as long as the video
    return video


def _plane_views(
    shm: shared_memory.SharedMemory,
    handle: ShmVideoHandle,
    *,
    writeable: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three stacked plane arrays over a segment's buffer."""
    ch, cw = handle.height // 2, handle.width // 2
    y = np.ndarray(
        (handle.frames, handle.height, handle.width),
        dtype=np.uint8,
        buffer=shm.buf,
    )
    u = np.ndarray(
        (handle.frames, ch, cw),
        dtype=np.uint8,
        buffer=shm.buf,
        offset=handle.luma_bytes,
    )
    v = np.ndarray(
        (handle.frames, ch, cw),
        dtype=np.uint8,
        buffer=shm.buf,
        offset=handle.luma_bytes + handle.chroma_bytes,
    )
    if not writeable:
        for plane in (y, u, v):
            plane.flags.writeable = False
    return y, u, v


def video_from_payload(payload: "ShmVideoHandle | InlineVideo") -> Video:
    """Materialise a worker-side video from either delivery payload."""
    if isinstance(payload, ShmVideoHandle):
        return attach_video(payload)
    if isinstance(payload, InlineVideo):
        return payload.to_video()
    raise ShmError(
        f"unknown video payload type {type(payload).__name__}"
    )


class ShmDataPlane:
    """Parent-side registry of published segments for one sweep.

    ``publish`` memoises per ``(clip name, frame count)`` and
    ref-counts; ``release`` unlinks a segment once its last publisher
    lets go, and ``close`` unlinks everything unconditionally — the
    supervised dispatch loop calls it in a ``finally``, which is what
    makes the "no leaks on drain/crash/rebuild" guarantee hold.  When
    a run directory is given, the active segment names are registered
    in the run manifest (``run.json`` → ``shm_segments``) so a
    post-mortem of a hard-killed parent knows what to sweep up.
    """

    def __init__(self, run_dir: str | None = None) -> None:
        self.run_dir = run_dir
        self._segments: dict[
            tuple[str, int],
            tuple[ShmVideoHandle, shared_memory.SharedMemory, int],
        ] = {}

    def __enter__(self) -> "ShmDataPlane":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def segment_names(self) -> list[str]:
        return [h.segment for h, _, _ in self._segments.values()]

    @property
    def published_bytes(self) -> int:
        """Total bytes currently held in shared memory."""
        return sum(h.total_bytes for h, _, _ in self._segments.values())

    def publish(self, video: Video) -> ShmVideoHandle:
        """Publish ``video`` (or bump the refcount of a prior publish)."""
        key = (video.name, video.num_frames)
        entry = self._segments.get(key)
        if entry is not None:
            handle, shm, refs = entry
            self._segments[key] = (handle, shm, refs + 1)
            return handle
        handle, shm = publish_video(video)
        self._segments[key] = (handle, shm, 1)
        record_metric("counter", "shm.segments.published")
        record_metric(
            "counter", "shm.bytes.published", handle.total_bytes
        )
        self._register()
        return handle

    def release(self, video_name: str, num_frames: int) -> None:
        """Drop one reference; the last one unlinks the segment."""
        key = (video_name, num_frames)
        entry = self._segments.get(key)
        if entry is None:
            return
        handle, shm, refs = entry
        if refs > 1:
            self._segments[key] = (handle, shm, refs - 1)
            return
        del self._segments[key]
        _destroy(shm)
        self._register()

    def close(self) -> None:
        """Unlink every segment regardless of refcounts (idempotent)."""
        for _, shm, _ in self._segments.values():
            _destroy(shm)
        self._segments.clear()
        self._register()

    def _register(self) -> None:
        """Mirror the active segment list into the run manifest."""
        if self.run_dir is not None:
            register_manifest_segments(self.run_dir, self.segment_names)


def _destroy(shm: shared_memory.SharedMemory) -> None:
    shm.close()
    try:
        shm.unlink()
    except (OSError, FileNotFoundError):
        pass


def register_manifest_segments(run_dir: str, names: list[str]) -> None:
    """Record the live shm segments in ``run.json`` (best effort).

    Read-modify-write of the advisory manifest: the list is current
    while segments are mapped and empties on unlink, so a manifest
    that still names segments after the run is the signature of a
    parent killed before its ``finally`` — exactly what a leak sweep
    wants to know.  Like every manifest write, failure is ignored: a
    sweep must never die because its description could not be saved.
    """
    path = os.path.join(run_dir, "run.json")
    try:
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        if not isinstance(manifest, dict):
            return
    except FileNotFoundError:
        manifest = {}
    except (OSError, json.JSONDecodeError):
        return
    manifest["shm_segments"] = sorted(names)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError:
        pass


def leaked_segments(prefix: str = SEGMENT_PREFIX) -> list[str]:
    """Names under ``/dev/shm`` matching ``prefix`` (tests, CI sweeps).

    Empty on platforms without a ``/dev/shm`` tmpfs — the leak check
    is then vacuous rather than wrong.
    """
    try:
        entries = os.listdir("/dev/shm")
    except OSError:
        return []
    return sorted(name for name in entries if name.startswith(prefix))
