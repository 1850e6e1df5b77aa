import math
import random
import sys
from array import array
from decimal import Decimal

import pytest

from gripstream.profiling import (
    PartialPolicy,
    Series,
    Statistic,
    profile_csv,
    profile_export,
    sensor_series,
    task_time,
    window_profile,
)
from gripstream.protocol import GloveFrame, Hand, SensorId
from gripstream.recording import Expertise, SessionRecording
from gripstream.simulator import SessionSpec, UserProfile, synthesize_session


def recording_with(amp_rows, hand=Hand.LEFT):
    frames = [
        GloveFrame(hand, i, i * 20, tuple(row) if len(row) == 12 else (row[0],) * 12)
        for i, row in enumerate(amp_rows)
    ]
    return SessionRecording("u", Expertise.NOVICE, 1, hand, frames)


def series_of(values, dt=20, t0=0):
    return [(t0 + i * dt, v) for i, v in enumerate(values)]


def synth(duration_s, seed=11):
    models = {i: ((200.0, 40.0),) * 4 for i in range(1, 13)}
    profile = UserProfile("sim", Expertise.EXPERT, models)
    return synthesize_session(
        SessionSpec(user=profile, hand=Hand.LEFT, session_index=1,
                    duration_s=duration_s, seed=seed)
    )


# --- series extraction -------------------------------------------------------


def test_series_one_sample_per_frame():
    recording = synth(8.88)
    series = sensor_series(recording, 7)
    assert len(series) == 444
    assert series[0][0] == 0 and series[1][0] == 20


def test_series_slice_is_a_list_of_pairs():
    series = sensor_series(recording_with([[10], [11], [12], [13]]), 1)
    assert series[1:3] == [(20, 11), (40, 12)]
    assert series[::-3] == [(60, 13), (0, 10)]
    assert series[-1] == (60, 13)


def test_series_sensor_indexing():
    recording = recording_with([range(1, 13)])
    assert sensor_series(recording, 7)[0][1] == 7
    assert sensor_series(recording, SensorId.of(3))[0][1] == 3


def test_series_rejects_sensor_outside_1_to_12():
    recording = recording_with([range(1, 13)])
    for sensor in (0, 13):
        with pytest.raises(ValueError, match="sensor index"):
            sensor_series(recording, sensor)


def test_series_every_sensor_has_full_length():
    recording = synth(1.0)
    for sensor in range(1, 13):
        assert len(sensor_series(recording, sensor)) == 50


def test_series_shares_the_recordings_columns():
    recording = synth(1.0)
    for sensor in range(1, 13):
        series = sensor_series(recording, sensor)
        assert series.times is recording.frames.timestamp_ms
        assert isinstance(series.values, array) and series.values.typecode == "H"
        assert series.values == recording.frames.amplitudes[sensor - 1::12]
        assert list(series) == list(zip(series.times, series.values))


def test_series_empty_recording():
    """The recording refuses no frames, so sensor_series never sees an empty one."""
    with pytest.raises(ValueError, match="^a recording holds at least one frame$"):
        sensor_series(SessionRecording("u", Expertise.NOVICE, 1, Hand.LEFT, []), 7)


@pytest.mark.parametrize("times, values", [
    (list(range(0, 4000, 20)), [10] * 150),
    (array("Q", [0, 20]), array("H", [1, 2, 3])),
    ([], [1]),
], ids=["short-values", "long-values", "no-times"])
def test_series_refuses_columns_of_unequal_length(times, values):
    """Else len() and iteration disagree, and a window past the shorter column is profiled
    from fewer values than it counts."""
    with pytest.raises(ValueError, match="^series columns disagree in length: "
                                         f"{len(times)} and {len(values)}$"):
        Series(times, values)


# --- windowing ---------------------------------------------------------------


def test_one_complete_window():
    profile = window_profile(series_of([5] * 100))
    assert len(profile.windows) == 1
    window = profile.windows[0]
    assert (window.index, window.start_ms, window.value_mv, window.sample_count) == (0, 0, 5, 100)


def test_444_samples_partition():
    series = series_of([1] * 444)
    dropped = window_profile(series)
    assert [w.index for w in dropped.windows] == [0, 1, 2, 3]
    assert all(w.sample_count == 100 for w in dropped.windows)
    kept = window_profile(series, partial_policy=PartialPolicy.KEEP_PARTIAL)
    assert [w.index for w in kept.windows] == [0, 1, 2, 3, 4]
    assert kept.windows[-1].sample_count == 44


def test_ramp_statistics():
    series = series_of(list(range(100)))
    assert window_profile(series, statistic=Statistic.PEAK).windows[0].value_mv == 99
    assert window_profile(series, statistic=Statistic.MEAN).windows[0].value_mv == 49.5


def test_windows_anchor_at_first_timestamp():
    series = series_of([3] * 100, t0=700)
    profile = window_profile(series)
    assert profile.windows[0].start_ms == 700


def test_window_errors():
    with pytest.raises(ValueError, match="^cannot profile an empty series$"):
        window_profile([])
    for bad in (1999, 0, -20, 30, 2000.0):
        with pytest.raises(ValueError,
                           match=f"^window_ms must be a positive multiple of 20, got {bad}$"):
            window_profile(series_of([1] * 10), window_ms=bad,
                           partial_policy=PartialPolicy.KEEP_PARTIAL)
    with pytest.raises(ValueError, match="non-decreasing"):
        window_profile([(40, 1), (20, 2)] + series_of([1] * 98, t0=60))


@pytest.mark.parametrize("samples, window_ms, shown", [
    ([(0, 1), (math.nan, 2)], 20, "nan"),
    ([(0, 1), (math.inf, 2)], 20, "inf"),
    ([(-math.inf, 1), (0, 2)], 20, "-inf"),
    ([(math.nan, 1)], 20, "nan"),
    ([(0, 1), (math.nan, 2), (10, 3)], 40, "nan"),
], ids=["nan-last", "inf-last", "minus-inf-first", "nan-alone", "nan-inside"])
def test_window_profile_refuses_a_timestamp_that_is_not_finite(samples, window_ms, shown):
    for policy in PartialPolicy:
        with pytest.raises(ValueError, match=f"^timestamps must be finite, got {shown}$"):
            window_profile(samples, window_ms, partial_policy=policy)


def test_window_mean_past_the_float_range_names_the_window():
    with pytest.raises(ValueError, match="^window 1 mean is out of float range$"):
        window_profile([(0, 1), (20, 10**400)], 20)
    assert window_profile([(0, 10**400)], 20, Statistic.PEAK).values() == [10**400]


def test_mean_invariant_under_within_window_permutation():
    rng = random.Random(31)
    values = [rng.randrange(0, 1000) for _ in range(300)]
    base = window_profile(series_of(values))
    for _ in range(5):
        shuffled = values[:]
        for w in range(3):
            window_vals = shuffled[w * 100:(w + 1) * 100]
            rng.shuffle(window_vals)
            shuffled[w * 100:(w + 1) * 100] = window_vals
        permuted = window_profile(series_of(shuffled))
        for a, b in zip(base.windows, permuted.windows):
            assert a.value_mv == pytest.approx(b.value_mv, rel=1e-12)


def test_peak_at_least_mean_everywhere():
    rng = random.Random(32)
    values = [rng.randrange(0, 65536) for _ in range(537)]
    series = series_of(values)
    means = window_profile(series, statistic=Statistic.MEAN,
                           partial_policy=PartialPolicy.KEEP_PARTIAL)
    peaks = window_profile(series, statistic=Statistic.PEAK,
                           partial_policy=PartialPolicy.KEEP_PARTIAL)
    assert len(means.windows) == len(peaks.windows)
    for m, p in zip(means.windows, peaks.windows):
        assert p.value_mv >= m.value_mv


def test_keep_partial_counts_sum_to_series_length():
    rng = random.Random(33)
    for _ in range(10):
        n = rng.randrange(1, 700)
        profile = window_profile(series_of([1] * n),
                                 partial_policy=PartialPolicy.KEEP_PARTIAL)
        assert sum(w.sample_count for w in profile.windows) == n


def test_constant_series_constant_windows():
    series = series_of([42] * 256)
    for stat in Statistic:
        profile = window_profile(series, statistic=stat,
                                 partial_policy=PartialPolicy.KEEP_PARTIAL)
        assert all(w.value_mv == 42 for w in profile.windows)


def test_complete_windows_always_hold_100_samples_at_50hz():
    recording = synth(13.53)
    profile = window_profile(sensor_series(recording, 7))
    assert all(w.sample_count == 100 for w in profile.windows)
    assert len(profile.windows) == (676 * 20) // 2000


# --- task time ---------------------------------------------------------------


def test_task_time_expert_session():
    assert task_time(synth(8.88)) == 8.88


def test_task_time_novice_session():
    assert task_time(synth(15.42)) == 15.42


def test_task_time_single_frame():
    assert task_time(recording_with([(1,)])) == 0.02


def test_task_time_empty():
    """The recording refuses no frames, so task_time never sees an empty one."""
    with pytest.raises(ValueError, match="^a recording holds at least one frame$"):
        task_time(SessionRecording("u", Expertise.NOVICE, 1, Hand.LEFT, []))


# --- export ------------------------------------------------------------------


def test_export_line_count(tmp_path):
    profile = window_profile(series_of([5] * 400))
    path = tmp_path / "p.csv"
    profile_export(profile, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 5
    assert lines[0] == "window_index,start_ms,value_mv,sample_count"
    assert lines[1] == "0,0,5.00,100"


def test_export_rounds_half_up():
    # window mean 0.125 at window_ms=160: half-even would print 0.12
    profile = window_profile(series_of([1, 0, 0, 0, 0, 0, 0, 0]), window_ms=160)
    assert profile.windows[0].value_mv == 0.125
    assert profile_csv(profile).splitlines()[1] == "0,0,0.13,8"
    ramp = window_profile(series_of(list(range(100))))
    assert profile_csv(ramp).splitlines()[1] == "0,0,49.50,100"


def test_export_writes_any_finite_value_in_full():
    for value in (1e30, sys.float_info.max, -sys.float_info.max):
        row = profile_csv(window_profile([(0, value)], 20)).splitlines()[1]
        assert row == f"0,0,{Decimal(repr(value)):f}.00,1"


def test_export_refuses_an_infinite_window():
    for value in (math.inf, -math.inf):
        profile = window_profile([(0, 1), (20, value)], 20)
        with pytest.raises(ValueError, match=f"^window 1 value is not finite: {value}$"):
            profile_csv(profile)


def test_export_keeps_nan_for_empty_windows():
    profile = window_profile([(0, 1), (40, 2)], 20, partial_policy=PartialPolicy.KEEP_PARTIAL)
    assert profile_csv(profile).splitlines()[1:] == ["0,0,1.00,1", "1,20,NaN,0", "2,40,2.00,1"]


def test_export_reparse_reproduces_values(tmp_path):
    rng = random.Random(34)
    values = [rng.randrange(0, 65536) for _ in range(500)]
    profile = window_profile(series_of(values), partial_policy=PartialPolicy.KEEP_PARTIAL)
    path = tmp_path / "p.csv"
    profile_export(profile, path)
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == len(profile.windows)
    for row, window in zip(rows, profile.windows):
        idx, start, value, count = row.split(",")
        assert int(idx) == window.index
        assert int(start) == window.start_ms
        assert int(count) == window.sample_count
        assert math.isclose(float(value), window.value_mv, abs_tol=0.01)


def test_export_empty_profile_rejected(tmp_path):
    profile = window_profile(series_of([1] * 10))  # 10 samples: lone window dropped
    assert profile.windows == ()
    with pytest.raises(ValueError):
        profile_export(profile, tmp_path / "p.csv")
