"""Unit tests for the zero-copy shared-memory data plane.

Covers the publish/attach round-trip (zero-copy, read-only views),
the pickle-path twin, the delivery fallbacks (a failed publish ships
the clip inline, a bogus segment regenerates on attach), the data
plane's refcount/unlink lifecycle, run-manifest registration, and the
session-side video LRU that attaches payloads exactly once per clip.
"""

import dataclasses
import json
import os
import pickle

import numpy as np
import pytest

os.environ.setdefault("REPRO_FAST", "1")

from repro.core.serialize import to_jsonable  # noqa: E402
from repro.core.session import (  # noqa: E402
    VIDEO_LRU_CAPACITY,
    CellSpec,
    Session,
)
from repro.errors import ShmError  # noqa: E402
from repro.parallel.pool import execute_cells  # noqa: E402
from repro.parallel.shm import (  # noqa: E402
    SEGMENT_PREFIX,
    InlineVideo,
    ShmDataPlane,
    ShmVideoHandle,
    attach_video,
    leaked_segments,
    publish_video,
    video_from_payload,
)
from repro.video import vbench  # noqa: E402
from repro.video.synthetic import generate  # noqa: E402

FRAMES = 3


def _own_segments():
    return leaked_segments(prefix=f"{SEGMENT_PREFIX}{os.getpid()}-")


@pytest.fixture()
def video():
    return generate(vbench.entry("desktop").spec(FRAMES))


@pytest.fixture()
def published(video):
    handle, shm = publish_video(video)
    yield handle, shm, video
    shm.close()
    try:
        shm.unlink()
    except OSError:
        pass


class TestPublishAttach:
    def test_roundtrip_is_bit_identical(self, published):
        handle, _, video = published
        attached = attach_video(handle)
        assert attached.name == video.name
        assert attached.fps == video.fps
        assert attached.num_frames == video.num_frames
        for ours, theirs in zip(video.frames, attached.frames):
            assert np.array_equal(ours.y.data, theirs.y.data)
            assert np.array_equal(ours.u.data, theirs.u.data)
            assert np.array_equal(ours.v.data, theirs.v.data)

    def test_attach_is_zero_copy(self, published):
        handle, _, _ = published
        attached = attach_video(handle)
        # Every plane is a view over the one shared buffer, not a copy.
        buf = np.ndarray(
            handle.total_bytes, dtype=np.uint8, buffer=attached.shm.buf
        )
        for frame in attached.frames:
            for plane in (frame.y.data, frame.u.data, frame.v.data):
                assert np.shares_memory(plane, buf)

    def test_attached_planes_are_read_only(self, published):
        handle, _, _ = published
        attached = attach_video(handle)
        with pytest.raises(ValueError):
            attached.frames[0].y.data[0, 0] = 255

    def test_handle_pickles_small(self, published):
        handle, _, video = published
        payload = pickle.dumps(handle, pickle.HIGHEST_PROTOCOL)
        assert len(payload) < 512
        inline = pickle.dumps(
            InlineVideo.from_video(video), pickle.HIGHEST_PROTOCOL
        )
        assert len(inline) > 10 * len(payload)

    def test_attach_missing_segment_raises(self):
        handle = ShmVideoHandle(
            segment=f"{SEGMENT_PREFIX}0-deadbeef", name="ghost",
            fps=30.0, frames=1, width=64, height=64,
        )
        with pytest.raises(ShmError, match="cannot attach"):
            attach_video(handle)

    def test_attach_undersized_segment_raises(self, published):
        handle, _, _ = published
        oversold = ShmVideoHandle(
            segment=handle.segment, name=handle.name, fps=handle.fps,
            frames=handle.frames + 1, width=handle.width,
            height=handle.height,
        )
        with pytest.raises(ShmError, match="bytes"):
            attach_video(oversold)

    def test_layout_accounting(self, published):
        handle, shm, _ = published
        assert handle.total_bytes == (
            handle.luma_bytes + 2 * handle.chroma_bytes
        )
        assert shm.size >= handle.total_bytes


class TestInlineVideo:
    def test_roundtrip(self, video):
        rebuilt = InlineVideo.from_video(video).to_video()
        assert rebuilt.name == video.name
        assert rebuilt.num_frames == video.num_frames
        for ours, theirs in zip(video.frames, rebuilt.frames):
            assert np.array_equal(ours.y.data, theirs.y.data)

    def test_payload_dispatch(self, video, published):
        handle, _, _ = published
        assert video_from_payload(handle).name == video.name
        inline = InlineVideo.from_video(video)
        assert video_from_payload(inline).name == video.name
        with pytest.raises(ShmError, match="unknown video payload"):
            video_from_payload("desktop")


class TestShmDataPlane:
    def test_publish_memoises_and_refcounts(self, video):
        with ShmDataPlane() as plane:
            first = plane.publish(video)
            second = plane.publish(video)
            assert first is second
            assert len(plane.segment_names) == 1
            assert plane.published_bytes == first.total_bytes
            # One release keeps the segment (refcount 2); the second
            # unlinks it.
            plane.release(video.name, video.num_frames)
            assert plane.segment_names
            plane.release(video.name, video.num_frames)
            assert plane.segment_names == []
        assert _own_segments() == []

    def test_close_unlinks_everything(self, video):
        plane = ShmDataPlane()
        plane.publish(video)
        assert _own_segments() != []
        plane.close()
        assert _own_segments() == []
        plane.close()  # idempotent

    def test_manifest_registration(self, video, tmp_path):
        run_dir = str(tmp_path)
        with open(os.path.join(run_dir, "run.json"), "w") as handle:
            json.dump({"status": "running"}, handle)
        plane = ShmDataPlane(run_dir=run_dir)
        handle_ = plane.publish(video)
        with open(os.path.join(run_dir, "run.json")) as fh:
            manifest = json.load(fh)
        assert manifest["shm_segments"] == [handle_.segment]
        assert manifest["status"] == "running"  # untouched keys survive
        plane.close()
        with open(os.path.join(run_dir, "run.json")) as fh:
            assert json.load(fh)["shm_segments"] == []


class TestSessionVideoLru:
    def test_video_generated_once_per_clip(self):
        session = Session(num_frames=FRAMES)
        first = session.video("desktop")
        assert session.video("desktop") is first

    def test_payload_attaches_instead_of_generating(self, video):
        handle, shm = publish_video(video)
        try:
            session = Session(num_frames=FRAMES)
            session.add_video_source("desktop", FRAMES, handle)
            attached = session.video("desktop")
            assert attached.shm is not None
            assert np.array_equal(
                attached.frames[0].y.data, video.frames[0].y.data
            )
        finally:
            shm.close()
            shm.unlink()

    def test_bad_payload_falls_back_to_generate(self):
        ghost = ShmVideoHandle(
            segment=f"{SEGMENT_PREFIX}0-feedface", name="desktop",
            fps=30.0, frames=FRAMES, width=64, height=64,
        )
        session = Session(num_frames=FRAMES)
        session.add_video_source("desktop", FRAMES, ghost)
        video = session.video("desktop")  # ShmError swallowed
        assert video.shm is None
        assert video.num_frames == FRAMES

    def test_lru_eviction_is_bounded(self):
        session = Session(num_frames=FRAMES)
        names = list(vbench.names())
        for name in names:
            session.video(name)
        assert len(session._videos) <= VIDEO_LRU_CAPACITY

    def test_clear_drops_videos(self):
        session = Session(num_frames=FRAMES)
        first = session.video("desktop")
        session.clear()
        assert session.video("desktop") is not first

    def test_encode_uses_registered_source(self):
        """``encode`` resolves the clip as ``report`` does: a registered
        source (another content seed) is what both measure."""
        frames = 2
        content = dataclasses.replace(
            vbench.entry("game1").spec(frames), seed=7
        )
        session = Session(num_frames=frames)
        session.add_video_source(
            "game1", frames, InlineVideo.from_video(generate(content))
        )
        report = session.report("svt-av1", "game1", 60, 8)
        result = session.encode("svt-av1", "game1", 60, 8)
        assert (
            result.instrumenter.total_instructions
            == report.proxy_instructions
        )


class TestPublishFallback:
    def test_failed_publish_ships_the_registered_clip(self, monkeypatch):
        """Pooled == serial over a registered video when shm is refused.

        The registered clip differs from the catalog default (another
        content seed), so a worker that regenerated by name would
        encode different frames and report different counters.
        """
        frames = 2
        content = dataclasses.replace(
            vbench.entry("game1").spec(frames), seed=7
        )
        source = InlineVideo.from_video(generate(content))

        def refuse(self, video):
            raise ShmError("shared memory refused")

        monkeypatch.setattr(ShmDataPlane, "publish", refuse)
        cells = [
            CellSpec("svt-av1", "game1", 60, 8),
            CellSpec("svt-av1", "game1", 50, 8),
        ]
        runs = {}
        for workers in (1, 2):
            session = Session(num_frames=frames)
            session.add_video_source("game1", frames, source)
            runs[workers] = [
                to_jsonable(report)
                for report in execute_cells(session, cells, workers=workers)
            ]
        assert runs[2] == runs[1]
