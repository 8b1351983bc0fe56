"""Single-encode characterization — the paper's per-run measurement.

:func:`characterize` is the one call that ties the toolchain together:
generate (or accept) the workload, run the instrumented encoder, and
collect the full perf/top-down/cache/branch report, applying the
vbench proxy-to-native scaling conventions automatically when the
workload is a catalog clip.
"""

from __future__ import annotations

from ..codecs import create_encoder
from ..codecs.base import EncodeResult, Encoder
from ..errors import ExperimentError
from ..obs.span import trace_span
from ..resilience.faults import fault_point
from ..uarch.machine import XEON_E5_2650_V4, MachineConfig
from ..uarch.perfcounters import PerfReport, collect
from ..video import vbench
from ..video.frame import Video

#: vbench clips are 5 seconds long (§3.2).
CLIP_SECONDS = 5.0


def workload_scales(video: Video, name: str | None = None) -> tuple[float, float, float, float]:
    """(scale_h, scale_w, pixel_scale, duration_scale) for a workload.

    Catalog clips scale to their published native geometry and 5-second
    length; unknown videos are treated as native-resolution inputs.
    """
    clip = name if name is not None else video.name
    try:
        entry = vbench.entry(clip)
    except Exception:
        return 1.0, 1.0, 1.0, 1.0
    native_w, native_h = entry.native_size
    scale_h = native_h / video.height
    scale_w = native_w / video.width
    duration = (entry.fps * CLIP_SECONDS) / video.num_frames
    return scale_h, scale_w, entry.pixel_scale, duration


def _workload_video(video: Video | str, num_frames: int | None) -> Video:
    """``video`` itself, or the named vbench clip at ``num_frames``."""
    if not isinstance(video, str):
        return video
    if num_frames is None:
        return vbench.load(video)
    return vbench.load(video, num_frames=num_frames)


def characterize(
    encoder: Encoder | str,
    video: Video | str,
    machine: MachineConfig = XEON_E5_2650_V4,
    crf: float | None = None,
    preset: int | None = None,
    num_frames: int | None = None,
    cache_sample_period: int = 8,
) -> PerfReport:
    """Encode a workload under full instrumentation and measure it.

    Parameters
    ----------
    encoder:
        An :class:`~repro.codecs.base.Encoder` instance, or an encoder
        name (then ``crf`` and ``preset`` are required).
    video:
        A :class:`~repro.video.frame.Video`, or a vbench clip name.
    machine:
        Target machine model.
    num_frames:
        Proxy sequence length when loading a catalog clip.

    The encode buffers its whole capture; :func:`collect` then measures
    it, expanding memory touches into the cache simulation a bounded
    group at a time (see
    :meth:`~repro.uarch.cache.CacheHierarchy.access_touches`).
    """
    if isinstance(encoder, str):
        if crf is None or preset is None:
            raise ExperimentError(
                "crf and preset are required when encoder is given by name"
            )
        encoder = create_encoder(encoder, crf=crf, preset=preset)
    video = _workload_video(video, num_frames)
    scale_h, scale_w, pixel_scale, duration_scale = workload_scales(video)
    with trace_span(
        "characterize", codec=encoder.name, video=video.name,
        frames=video.num_frames,
    ):
        fault_point(f"encode:{encoder.name}:{video.name}")
        with trace_span("encode", codec=encoder.name, video=video.name):
            result: EncodeResult = encoder.encode(
                video, footprint_scale=(scale_h, scale_w)
            )
        with trace_span("measure", codec=encoder.name, video=video.name):
            return collect(
                result,
                machine=machine,
                pixel_scale=pixel_scale,
                duration_scale=duration_scale,
                bitrate_scale=1.0,
                cache_sample_period=cache_sample_period,
            )


def encode_workload(
    encoder_name: str,
    video: Video | str,
    crf: float,
    preset: int,
    num_frames: int | None = None,
) -> EncodeResult:
    """Instrumented encode of a workload (no measurement pass).

    ``video`` is a :class:`~repro.video.frame.Video` or a vbench clip
    name, loaded at ``num_frames`` as in :func:`characterize`.  Used
    where the raw :class:`~repro.codecs.base.EncodeResult` is the
    artifact of interest (thread-scaling task graphs, trace capture).
    """
    video = _workload_video(video, num_frames)
    scale_h, scale_w, _, _ = workload_scales(video)
    encoder = create_encoder(encoder_name, crf=crf, preset=preset)
    fault_point(f"encode:{encoder_name}:{video.name}")
    with trace_span("encode", codec=encoder_name, video=video.name):
        return encoder.encode(video, footprint_scale=(scale_h, scale_w))
