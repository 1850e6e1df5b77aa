import math
import random

import pytest

from gripstream.profiling import (
    BadWindow,
    EmptySeries,
    PartialPolicy,
    Statistic,
    profile_csv,
    profile_export,
    sensor_series,
    task_time,
    window_profile,
)
from gripstream.protocol import GloveFrame, Hand, SensorId
from gripstream.recording import EmptyRecording, Expertise, SessionRecording
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


def test_series_empty_recording():
    empty = SessionRecording("u", Expertise.NOVICE, 1, Hand.LEFT, [])
    with pytest.raises(EmptyRecording):
        sensor_series(empty, 7)


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
    with pytest.raises(EmptySeries):
        window_profile([])
    for bad in (1999, 0, -20, 30):
        with pytest.raises(BadWindow):
            window_profile(series_of([1] * 10), window_ms=bad)
    with pytest.raises(ValueError, match="non-decreasing"):
        window_profile([(40, 1), (20, 2)] + series_of([1] * 98, t0=60))


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
    empty = SessionRecording("u", Expertise.NOVICE, 1, Hand.LEFT, [])
    with pytest.raises(EmptyRecording):
        task_time(empty)


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
