"""Spatio-temporal grip-force profiles and per-session task times.

A profile summarizes one sensor's amplitude series over fixed successive
time windows (2000 ms by default, i.e. 100 samples at the 50 Hz cadence),
with either the window mean or the window peak as the statistic.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum

from .protocol import NOMINAL_INTERVAL_MS, SensorId
from .recording import EmptyRecording, IoFailure, SessionRecording

PROFILE_CSV_HEADER = "window_index,start_ms,value_mv,sample_count"
DEFAULT_WINDOW_MS = 2000


class Statistic(str, Enum):
    MEAN = "mean"
    PEAK = "peak"


class PartialPolicy(str, Enum):
    DROP_INCOMPLETE = "drop"
    KEEP_PARTIAL = "keep"


class EmptySeries(ValueError):
    """A windowing operation got a series without samples."""


class BadWindow(ValueError):
    """Window length that is not a positive multiple of the 20 ms cadence."""


@dataclass(frozen=True)
class ProfileWindow:
    index: int
    start_ms: int
    value_mv: float
    sample_count: int


@dataclass(frozen=True)
class GripForceProfile:
    """Per-window statistics of one sensor's series."""

    sensor: SensorId | None
    window_ms: int
    statistic: Statistic
    windows: tuple[ProfileWindow, ...]

    def values(self) -> list[float]:
        return [w.value_mv for w in self.windows]


def sensor_series(recording: SessionRecording, sensor: int | SensorId) -> list[tuple[int, int]]:
    """(timestamp_ms, amplitude mV) for one sensor, one entry per frame."""
    if not recording.frames:
        raise EmptyRecording("recording has no frames")
    slot = (sensor if isinstance(sensor, SensorId) else SensorId.of(int(sensor))).index - 1
    return [(f.timestamp_ms, f.amplitudes[slot]) for f in recording.frames]


def window_profile(
    series,
    window_ms: int = DEFAULT_WINDOW_MS,
    statistic: Statistic = Statistic.MEAN,
    partial_policy: PartialPolicy = PartialPolicy.DROP_INCOMPLETE,
    sensor: SensorId | None = None,
) -> GripForceProfile:
    """Summarize a (timestamp, amplitude) series over fixed successive windows.

    Windows are anchored at the first timestamp and step by ``window_ms``;
    a sample at time t belongs to window (t - t0) // window_ms. The window
    value is the arithmetic mean or the maximum of its samples. Windows
    short of the full window_ms / 20 samples are dropped under
    DROP_INCOMPLETE and kept with their actual count under KEEP_PARTIAL.
    """
    samples = list(series)
    if not samples:
        raise EmptySeries("cannot profile an empty series")
    if window_ms <= 0 or window_ms % NOMINAL_INTERVAL_MS != 0:
        raise BadWindow(
            f"window_ms must be a positive multiple of {NOMINAL_INTERVAL_MS}, got {window_ms}"
        )
    statistic = Statistic(statistic)
    partial_policy = PartialPolicy(partial_policy)

    t0 = samples[0][0]
    last_t = t0
    expected = window_ms // NOMINAL_INTERVAL_MS
    buckets: dict[int, list[int]] = {}
    for t, value in samples:
        if t < last_t:
            raise ValueError(f"timestamps must be non-decreasing, got {t} after {last_t}")
        last_t = t
        buckets.setdefault((t - t0) // window_ms, []).append(value)

    windows = []
    for index in range(max(buckets) + 1):
        values = buckets.get(index, [])
        if partial_policy is PartialPolicy.DROP_INCOMPLETE and len(values) < expected:
            continue
        if values:
            value = max(values) if statistic is Statistic.PEAK else sum(values) / len(values)
        else:
            value = float("nan")
        windows.append(ProfileWindow(index, t0 + index * window_ms, value, len(values)))
    return GripForceProfile(sensor, window_ms, statistic, tuple(windows))


def task_time(recording: SessionRecording) -> float:
    """Session duration in seconds: (last - first timestamp + one 20 ms slot) / 1000."""
    if not recording.frames:
        raise EmptyRecording("recording has no frames")
    first = recording.frames[0].timestamp_ms
    last = recording.frames[-1].timestamp_ms
    return (last - first + NOMINAL_INTERVAL_MS) / 1000


def _format_mv(value: float) -> str:
    # 2 decimal places, round half up (not the float default half-even)
    return str(Decimal(repr(value)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def profile_csv(profile: GripForceProfile) -> str:
    """Render a profile as plot-ready CSV text (windows x mV)."""
    if not profile.windows:
        raise ValueError("cannot export an empty profile")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(PROFILE_CSV_HEADER.split(","))
    for window in profile.windows:
        writer.writerow(
            [window.index, window.start_ms, _format_mv(window.value_mv), window.sample_count]
        )
    return out.getvalue()


def profile_export(profile: GripForceProfile, path) -> None:
    """Write :func:`profile_csv` output to a file."""
    text = profile_csv(profile)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
