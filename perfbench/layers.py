"""Where the traced run wraps each gripstream layer, and its per-layer figures.

Every wrapper sits where the caller looks the function up: module
globals that gripstream's own code reads at call time (``protocol.crc16``,
``ingest.decode_frame``, ``stats.f_upper_tail``, ...), class attributes for
methods, and the module attributes this benchmark calls through.
"""

from __future__ import annotations

import tracemalloc

from gripstream import ingest, profiling, protocol, simulator, stats

from tracing import Tracer


def _frames_in(args, kwargs, recording):
    return len(recording.frames)


def _save_name(args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    fmt = (args[2] if len(args) > 2 else kwargs.get("format")) or (
        "csv" if str(path).lower().endswith(".csv") else "binary")
    return f"ingest.save_{fmt}"


def _load_name(args, kwargs):
    return "ingest.load_csv" if str(args[0]).lower().endswith(".csv") else "ingest.load_binary"


def install(tracer: Tracer) -> None:
    """Wrap every layer function the workloads reach."""
    wrap = tracer.wrap
    wrap(protocol, "crc16", "protocol.crc16")
    wrap(protocol, "encode_frame", "protocol.encode_frame")
    wrap(ingest, "encode_frame", "protocol.encode_frame")
    wrap(ingest, "decode_frame", "protocol.decode_frame")
    wrap(ingest.FrameStreamDecoder, "feed", "ingest.feed", lambda a, k, frames: len(frames))
    traced_feed = ingest.FrameStreamDecoder.feed

    def counted_feed(decoder, data):
        before = decoder.pending
        frames = traced_feed(decoder, data)
        tracer.count("ingest.feed_bytes", len(data))
        tracer.count("ingest.resync_bytes", len(data) - protocol.FRAME_SIZE * len(frames)
                     - (decoder.pending - before))
        return frames

    tracer.patch(ingest.FrameStreamDecoder, "feed", counted_feed)

    def built(args, kwargs, recording):
        tracer.count("ingest.decode_errors", recording.decode_errors)
        tracer.count("ingest.dropped_frames", recording.dropped_frames)
        return len(recording.frames)

    wrap(ingest, "SessionRecording", "recording.build", built)
    wrap(ingest.SessionRecorder, "run", "ingest.recorder_run")
    wrap(ingest, "save_session", _save_name, lambda a, k, r: len(a[0].frames))
    wrap(ingest, "load_session", _load_name, _frames_in)
    wrap(simulator, "synthesize_session", "simulator.synthesize", _frames_in)
    wrap(profiling, "sensor_series", "profiling.sensor_series", lambda a, k, series: len(series))
    wrap(profiling, "window_profile", "profiling.window_profile", lambda a, k, r: len(a[0]))
    wrap(profiling, "profile_csv", "profiling.profile_csv", lambda a, k, r: len(a[0].windows))
    wrap(stats, "two_way_anova", "stats.two_way_anova", lambda a, k, r: len(a[0]))
    wrap(stats, "mean_sem", "stats.mean_sem", lambda a, k, r: len(a[0]))
    wrap(stats, "f_upper_tail", "stats.f_upper_tail")


# metric -> span name; the figure is self CPU time per unit, in microseconds
PER_UNIT_US = {
    "protocol.decode_frame_us": "protocol.decode_frame",
    "protocol.crc16_us": "protocol.crc16",
    "protocol.encode_frame_us": "protocol.encode_frame",
    "ingest.feed_us_per_frame": "ingest.feed",
    "ingest.save_binary_us_per_frame": "ingest.save_binary",
    "ingest.load_binary_us_per_frame": "ingest.load_binary",
    "ingest.save_csv_us_per_frame": "ingest.save_csv",
    "ingest.load_csv_us_per_frame": "ingest.load_csv",
    "recording.build_us_per_frame": "recording.build",
    "simulator.synthesize_us_per_frame": "simulator.synthesize",
    "profiling.sensor_series_us_per_frame": "profiling.sensor_series",
    "profiling.window_profile_us_per_sample": "profiling.window_profile",
    "profiling.profile_csv_us_per_window": "profiling.profile_csv",
    "stats.two_way_anova_us_per_obs": "stats.two_way_anova",
    "stats.mean_sem_us_per_value": "stats.mean_sem",
    "stats.f_upper_tail_us": "stats.f_upper_tail",
}
# counters reported per receiver session (one SessionRecorder.run)
PER_SESSION = ("ingest.feed_bytes", "ingest.resync_bytes", "ingest.decode_errors",
               "ingest.dropped_frames")


def metrics(tracer: Tracer) -> dict[str, float | None]:
    """Per-layer figures from one tracer's spans; None where no span was recorded."""
    spans = tracer.aggregate()
    counters = tracer.counters()
    out: dict[str, float | None] = {}
    for metric, name in PER_UNIT_US.items():
        row = spans.get(name)
        out[metric] = row[2] / row[1] * 1e6 if row and row[1] else None
    runs = spans.get("ingest.recorder_run")
    for name in PER_SESSION:
        out[name] = counters.get(name, 0) / runs[0] if runs else None
    out["ingest.feed_calls"] = spans["ingest.feed"][0] / runs[0] if runs else None
    if runs:
        busy = tracer.busy_during("ingest.recorder_run", ("ingest.feed", "recording.build"))
        out["ingest.recorder_run_ms"] = runs[4] / runs[0] * 1e3
        out["ingest.recorder_wait_ms"] = (runs[4] - busy) / runs[0] * 1e3
    else:
        out["ingest.recorder_run_ms"] = out["ingest.recorder_wait_ms"] = None
    return out


def bytes_per_frame(path) -> float:
    """Memory held by one recording loaded from ``path``, per frame (tracemalloc)."""
    tracemalloc.start()
    try:
        recording = ingest.load_session(path)
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held / len(recording.frames)
