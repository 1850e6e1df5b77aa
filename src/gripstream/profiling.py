"""Spatio-temporal grip-force profiles and per-session task times.

A profile summarizes one sensor's amplitude series over fixed successive
time windows (2000 ms by default, i.e. 100 samples at the 50 Hz cadence),
with either the window mean or the window peak as the statistic.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from decimal import MAX_PREC, ROUND_HALF_UP, Context, Decimal
from enum import Enum
from itertools import islice
from math import inf
from operator import itemgetter, le

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


class Series(Sequence):
    """Read-only (timestamp_ms, value) pairs as two columns of equal length (else ValueError):
    item i is (times[i], values[i]). A column changed afterwards is not checked again."""

    __slots__ = ("times", "values")

    def __init__(self, times, values):
        if len(times) != len(values):
            raise ValueError(f"series columns disagree in length: {len(times)} and {len(values)}")
        self.times = times
        self.values = values

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(zip(self.times[index], self.values[index]))
        return self.times[index], self.values[index]

    def __iter__(self):
        return zip(self.times, self.values)


def sensor_series(recording: SessionRecording, sensor: int | SensorId) -> Series:
    """(timestamp_ms, amplitude mV) for one sensor: the recording's own ``timestamp_ms``
    column, shared and not copied, beside the sensor's ``array('H')`` of amplitudes."""
    slot = (sensor if isinstance(sensor, SensorId) else SensorId.of(int(sensor))).index - 1
    frames = recording.frames
    return Series(frames.timestamp_ms, frames.amplitudes[slot::SENSOR_COUNT])


def check_window(window_ms: int) -> int:
    """``window_ms`` if it is a positive int multiple of the 20 ms cadence, else ValueError."""
    if not isinstance(window_ms, int) or window_ms <= 0 or window_ms % NOMINAL_INTERVAL_MS != 0:
        raise ValueError(f"window_ms must be a positive multiple of {NOMINAL_INTERVAL_MS}, "
                         f"got {window_ms}")
    return window_ms


def _spans(times: list, window_ms: int) -> tuple:
    """``(t0, ((index, lo, hi), ...))`` for a list of finite, non-decreasing ``times``: the
    first timestamp and, for each window from the first to the last sample's, the slice
    ``times[lo:hi]`` of its samples. ValueError naming the first timestamp out of order,
    else the first that is not finite."""
    t0 = times[0]
    # a NaN fails every comparison, and once the times are in order only the ends can be infinite
    if not (all(map(le, times, islice(times, 1, None))) and -inf < t0 and times[-1] < inf):
        for last_t, t in zip(times, times[1:]):
            if last_t > t:
                raise ValueError(f"timestamps must be non-decreasing, got {t} after {last_t}")
        raise ValueError("timestamps must be finite, got "
                         f"{next(t for t in times if not -inf < t < inf)}")
    spans, hi = [], 0
    for index in range(int((times[-1] - t0) // window_ms) + 1):  # a float span floors to a float
        lo, hi = hi, bisect_left(times, t0 + (index + 1) * window_ms, hi)
        spans.append((index, lo, hi))
    return t0, tuple(spans)


# ((typecode, octets, window_ms), _spans result) of the last array column profiled
_last_column: tuple | None = None


def _column_spans(times, window_ms: int) -> tuple:
    """:func:`_spans` of a timestamp column, an array's reused while the column seen last has
    the same typecode, content and ``window_ms``: every :func:`sensor_series` of a recording
    shares its ``timestamp_ms`` column. The key is the content, not the identity, since an
    array can change in place. An error is never kept, and the entry is one tuple assigned
    at once, so a thread never sees one column's key beside another's spans."""
    if not isinstance(times, array):
        # one list of the times: the pairwise check and bisect then box no timestamp twice
        return _spans(list(times), window_ms)
    global _last_column
    key = times.typecode, times.tobytes(), window_ms
    last = _last_column
    if last is None or last[0] != key:
        last = _last_column = key, _spans(times.tolist(), window_ms)
    return last[1]


def window_profile(
    series,
    window_ms: int = DEFAULT_WINDOW_MS,
    statistic: Statistic = Statistic.MEAN,
    partial_policy: PartialPolicy = PartialPolicy.DROP_INCOMPLETE,
    sensor: SensorId | None = None,
) -> GripForceProfile:
    """Summarize a (timestamp, amplitude) series over fixed successive windows.

    ``series`` is a :class:`Series` or an iterable of pairs whose timestamps are
    finite and non-decreasing. Windows are anchored at the first timestamp and step
    by ``window_ms``; a sample at time t belongs to window (t - t0) // window_ms.
    The window value is the arithmetic mean or the maximum of its samples (a mean
    past the float range is a ValueError). Windows short of the full window_ms / 20
    samples are dropped under DROP_INCOMPLETE and kept with their actual count (an
    empty one with value NaN) under KEEP_PARTIAL. Repeated calls on one ``array``
    column of timestamps, such as the ``timestamp_ms`` column every :func:`sensor_series`
    of a recording shares, reuse its order check and window bounds while its content
    and ``window_ms`` stay the same.
    """
    if not isinstance(series, Series):
        pairs = list(series)
        series = Series(list(map(itemgetter(0), pairs)), list(map(itemgetter(1), pairs)))
    if not series:
        raise ValueError("cannot profile an empty series")
    check_window(window_ms)
    statistic = Statistic(statistic)
    partial_policy = PartialPolicy(partial_policy)

    t0, spans = _column_spans(series.times, window_ms)
    expected = window_ms // NOMINAL_INTERVAL_MS
    windows = []
    for index, lo, hi in spans:
        count = hi - lo
        if partial_policy is PartialPolicy.DROP_INCOMPLETE and count < expected:
            continue
        if count:
            window = series.values[lo:hi]
            try:
                value = max(window) if statistic is Statistic.PEAK else sum(window) / count
            except OverflowError:  # an int mean past the float range
                raise ValueError(f"window {index} mean is out of float range") from None
        else:
            value = float("nan")
        windows.append(ProfileWindow(index, t0 + index * window_ms, value, count))
    return GripForceProfile(sensor, window_ms, statistic, tuple(windows))


def task_time(recording: SessionRecording) -> float:
    """Session duration in seconds: (last - first timestamp + one 20 ms slot) / 1000."""
    times = recording.frames.timestamp_ms
    return (times[-1] - times[0] + NOMINAL_INTERVAL_MS) / 1000


# quantizing is exact, so no finite value needs more digits than MAX_PREC
_EXACT_HALF_UP = Context(prec=MAX_PREC, rounding=ROUND_HALF_UP)
_CENT = Decimal("0.01")


def _format_mv(window: ProfileWindow) -> str:
    # 2 decimal places, round half up (not the float default half-even)
    value = Decimal(repr(window.value_mv))
    if value.is_infinite():
        raise ValueError(f"window {window.index} value is not finite: {window.value_mv}")
    return str(value.quantize(_CENT, context=_EXACT_HALF_UP))


def profile_csv(profile: GripForceProfile) -> str:
    """Render a profile as plot-ready CSV text (windows x mV)."""
    if not profile.windows:
        raise ValueError("cannot export an empty profile")
    row = "{0.index},{0.start_ms},{1},{0.sample_count}\n".format
    return PROFILE_CSV_HEADER + "\n" + "".join(row(w, _format_mv(w)) for w in profile.windows)


def profile_export(profile: GripForceProfile, path) -> None:
    """Write :func:`profile_csv` output to a file."""
    write_file(path, profile_csv(profile))
