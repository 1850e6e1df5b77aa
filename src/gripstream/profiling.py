"""Spatio-temporal grip-force profiles and per-session task times.

A profile summarizes one sensor's amplitude series over fixed successive
time windows (2000 ms by default, i.e. 100 samples at the 50 Hz cadence),
with either the window mean or the window peak as the statistic.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_left
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum
from itertools import islice
from operator import gt, itemgetter

from .protocol import NOMINAL_INTERVAL_MS, SENSOR_COUNT, SensorId
from .recording import SessionRecording, write_file

PROFILE_CSV_HEADER = "window_index,start_ms,value_mv,sample_count"
DEFAULT_WINDOW_MS = 2000


class Statistic(str, Enum):
    MEAN = "mean"
    PEAK = "peak"


class PartialPolicy(str, Enum):
    DROP_INCOMPLETE = "drop"
    KEEP_PARTIAL = "keep"


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
        raise ValueError("recording has no frames")
    slot = (sensor if isinstance(sensor, SensorId) else SensorId.of(int(sensor))).index - 1
    frames = recording.frames
    return list(zip(frames.timestamp_ms, frames.amplitudes[slot::SENSOR_COUNT]))


def check_window(window_ms: int) -> int:
    """``window_ms`` if it is a positive multiple of the 20 ms cadence, else ValueError."""
    if window_ms <= 0 or window_ms % NOMINAL_INTERVAL_MS != 0:
        raise ValueError(
            f"window_ms must be a positive multiple of {NOMINAL_INTERVAL_MS}, got {window_ms}"
        )
    return window_ms


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
        raise ValueError("cannot profile an empty series")
    check_window(window_ms)
    statistic = Statistic(statistic)
    partial_policy = PartialPolicy(partial_policy)

    times = list(map(itemgetter(0), samples))
    if any(map(gt, times, islice(times, 1, None))):
        last_t, t = next(pair for pair in zip(times, times[1:]) if pair[0] > pair[1])
        raise ValueError(f"timestamps must be non-decreasing, got {t} after {last_t}")
    values = list(map(itemgetter(1), samples))
    t0 = times[0]
    expected = window_ms // NOMINAL_INTERVAL_MS
    windows, hi = [], 0
    for index in range((times[-1] - t0) // window_ms + 1):
        lo, hi = hi, bisect_left(times, t0 + (index + 1) * window_ms, hi)
        count = hi - lo
        if partial_policy is PartialPolicy.DROP_INCOMPLETE and count < expected:
            continue
        if count:
            window = values[lo:hi]
            value = max(window) if statistic is Statistic.PEAK else sum(window) / count
        else:
            value = float("nan")
        windows.append(ProfileWindow(index, t0 + index * window_ms, value, count))
    return GripForceProfile(sensor, window_ms, statistic, tuple(windows))


def task_time(recording: SessionRecording) -> float:
    """Session duration in seconds: (last - first timestamp + one 20 ms slot) / 1000."""
    if not recording.frames:
        raise ValueError("recording has no frames")
    times = recording.frames.timestamp_ms
    return (times[-1] - times[0] + NOMINAL_INTERVAL_MS) / 1000


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
    write_file(path, profile_csv(profile))
