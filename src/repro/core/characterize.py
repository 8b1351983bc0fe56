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
from ..uarch.perfcounters import PerfReport, StreamingCapture, collect
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


def characterize(
    encoder: Encoder | str,
    video: Video | str,
    machine: MachineConfig = XEON_E5_2650_V4,
    crf: float | None = None,
    preset: int | None = None,
    num_frames: int | None = None,
    cache_sample_period: int = 8,
    streaming: bool = False,
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
    streaming:
        Simulate while the encode runs: the capture streams its branch
        and touch chunks to the cache hierarchy and the predictor's
        midpoint reservoir instead of buffering whole event streams.
        Event buffers then hold one flush window of events; the cache
        simulation holds one touch group's rows plus one cascade
        window of lines either way (see
        :meth:`~repro.uarch.cache.CacheHierarchy.access_touches`).
        Bit-identical to the buffered pass (the
        ``capture-stream-parity`` invariant).
    """
    if isinstance(encoder, str):
        if crf is None or preset is None:
            raise ExperimentError(
                "crf and preset are required when encoder is given by name"
            )
        encoder = create_encoder(encoder, crf=crf, preset=preset)
    if isinstance(video, str):
        video = (
            vbench.load(video, num_frames=num_frames)
            if num_frames is not None
            else vbench.load(video)
        )
    scale_h, scale_w, pixel_scale, duration_scale = workload_scales(video)
    with trace_span(
        "characterize", codec=encoder.name, video=video.name,
        frames=video.num_frames,
    ):
        fault_point(f"encode:{encoder.name}:{video.name}")
        capture = (
            StreamingCapture(
                machine=machine, cache_sample_period=cache_sample_period
            )
            if streaming
            else None
        )
        with trace_span("encode", codec=encoder.name, video=video.name):
            result: EncodeResult = encoder.encode(
                video,
                instrumenter=capture.instrumenter if capture else None,
                footprint_scale=(scale_h, scale_w),
            )
        with trace_span("measure", codec=encoder.name, video=video.name):
            return collect(
                result,
                machine=machine,
                pixel_scale=pixel_scale,
                duration_scale=duration_scale,
                bitrate_scale=1.0,
                cache_sample_period=cache_sample_period,
                capture=capture,
            )


def encode_workload(
    encoder_name: str,
    video_name: str,
    crf: float,
    preset: int,
    num_frames: int | None = None,
) -> EncodeResult:
    """Instrumented encode of a catalog clip (no measurement pass).

    Used where the raw :class:`~repro.codecs.base.EncodeResult` is the
    artifact of interest (thread-scaling task graphs, trace capture).
    """
    video = (
        vbench.load(video_name, num_frames=num_frames)
        if num_frames is not None
        else vbench.load(video_name)
    )
    scale_h, scale_w, _, _ = workload_scales(video)
    encoder = create_encoder(encoder_name, crf=crf, preset=preset)
    fault_point(f"encode:{encoder_name}:{video_name}")
    with trace_span("encode", codec=encoder_name, video=video_name):
        return encoder.encode(video, footprint_scale=(scale_h, scale_w))
