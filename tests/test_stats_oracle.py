"""The statistics layers against their per-sample loops in oracles: same repr, same errors."""

import sys
import threading
from array import array
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gripstream.profiling import PartialPolicy, Series, Statistic, profile_csv, window_profile
from gripstream.stats import _betacf, mean_sem, two_way_anova
from oracles import (
    betacf_reference,
    mean_sem_reference,
    profile_csv_reference,
    two_way_anova_reference,
    window_profile_reference,
)

AMPLITUDES = st.integers(0, 65535)
READINGS = st.floats(-1e6, 1e6, allow_nan=False)


def outcome(fn, *args):
    """The result's repr, or the class and message of what ``fn`` raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # every failure must match the reference's
        return type(exc), str(exc)


@st.composite
def balanced_designs(draw):
    a, b, n = draw(st.integers(2, 4)), draw(st.integers(2, 4)), draw(st.integers(2, 30))
    if draw(st.booleans()):
        levels_a, levels_b = [f"g{i}" for i in range(a)], [f"s{j}" for j in range(b)]
    else:
        levels_a, levels_b = list(range(a)), list(range(b))
    values = draw(st.lists(st.one_of(AMPLITUDES, READINGS) if draw(st.booleans()) else AMPLITUDES,
                           min_size=a * b * n, max_size=a * b * n))
    cells = [(la, lb) for la in levels_a for lb in levels_b]
    observations = [(*cells[i // n], v) for i, v in enumerate(values)]
    draw(st.randoms(use_true_random=False)).shuffle(observations)
    return observations


@st.composite
def series(draw):
    window_ms = draw(st.integers(1, 100)) * 20
    steps = st.one_of(st.sampled_from((0, 20, 20, 20, 40)),
                      st.integers(1, 3).map(lambda k: k * window_ms))
    start = draw(st.integers(0, 10**6))
    times = list(accumulate(draw(st.lists(steps, max_size=300)), initial=start))
    if draw(st.booleans()):  # integer-valued float timestamps, which floor-divide to floats
        times = list(map(float, times))
    values = draw(st.lists(AMPLITUDES if draw(st.booleans()) else READINGS,
                           min_size=len(times), max_size=len(times)))
    return list(zip(times, values)), window_ms


@settings(max_examples=100)
@given(balanced_designs())
def test_anova_and_cell_summaries_match_the_per_sample_loop(observations):
    expected = outcome(two_way_anova_reference, observations)
    assert outcome(two_way_anova, observations) == expected
    cells = {}
    for la, lb, v in observations:
        cells.setdefault((la, lb), []).append(v)
    assert outcome(two_way_anova, cells) == expected
    columns = {cell: array("H" if all(isinstance(v, int) for v in values) else "d", values)
               for cell, values in cells.items()}  # array cells, as sensor_series hands them over
    assert outcome(two_way_anova, columns) == expected
    for values in [*cells.values(), [v for _, _, v in observations]]:
        assert outcome(mean_sem, values) == outcome(mean_sem_reference, values)


@settings(max_examples=300)
@given(series(), st.sampled_from(list(Statistic)), st.sampled_from(list(PartialPolicy)))
@example(([(0.0, 1), (20.0, 2)], 20), Statistic.MEAN, PartialPolicy.KEEP_PARTIAL)
def test_window_profile_matches_the_per_sample_loop(drawn, statistic, policy):
    samples, window_ms = drawn
    expected = outcome(window_profile_reference, samples, window_ms, statistic, policy)
    assert outcome(window_profile, samples, window_ms, statistic, policy) == expected
    times, values = zip(*samples)
    columns = Series(list(times), list(values))
    assert outcome(window_profile, columns, window_ms, statistic, policy) == expected
    if all(isinstance(v, int) for v in (*times, *values)):  # the columns sensor_series hands over
        columns = Series(array("Q", times), array("H", values))
        assert outcome(window_profile, columns, window_ms, statistic, policy) == expected


@settings(max_examples=200)
@given(series(), st.sampled_from(list(Statistic)), st.sampled_from(list(PartialPolicy)))
@example(([(0, 1), (60, 2.5), (100, 3)], 20), Statistic.MEAN, PartialPolicy.KEEP_PARTIAL)
def test_profile_csv_matches_the_csv_writer(drawn, statistic, policy):
    """Byte for byte, NaN for the empty windows KEEP_PARTIAL keeps included."""
    samples, window_ms = drawn
    profile = window_profile(samples, window_ms, statistic, policy)
    assert outcome(profile_csv, profile) == outcome(profile_csv_reference, profile)


def cells_of(counts):
    return [(la, lb, float(k)) for (la, lb), n in counts.items() for k in range(n)]


@pytest.mark.parametrize("observations", [
    cells_of({("a", "x"): 2, ("a", "y"): 2, ("b", "x"): 2}),
    cells_of({("a", "x"): 2, ("a", "y"): 2, ("b", "x"): 2, ("b", "y"): 3}),
    cells_of({("a", "x"): 1, ("a", "y"): 1, ("b", "x"): 1, ("b", "y"): 1}),
    cells_of({("a", "x"): 2, ("a", "y"): 2}),
    [],
], ids=["missing-cell", "unbalanced", "n=1", "one-level", "empty"])
def test_anova_errors_match_the_reference(observations):
    got = outcome(two_way_anova, observations)
    assert isinstance(got, tuple)
    assert got == outcome(two_way_anova_reference, observations)


@pytest.mark.parametrize("cells, message", [
    ({("a", "x"): [1, 2], ("a", "y"): [3, 4], ("b", "x"): [5, 6], ("b", "y"): []},
     r"^cell counts must be equal \(\('a', 'x'\): n=2, .*\('b', 'y'\): n=0\)$"),
    ({("a", "x"): [], ("a", "y"): [], ("b", "x"): [], ("b", "y"): []},
     r"^every cell needs >= 2 observations, got n=0$"),
], ids=["one-empty", "all-empty"])
def test_anova_refuses_an_empty_cell(cells, message):
    with pytest.raises(ValueError, match=message):
        two_way_anova(cells)


def test_anova_leaves_the_callers_cells_as_they_are():
    cells = {("a", "x"): [1, 2], ("a", "y"): [3, 5], ("b", "x"): [8, 13], ("b", "y"): [21, 34]}
    two_way_anova(cells)
    assert cells == {("a", "x"): [1, 2], ("a", "y"): [3, 5],
                     ("b", "x"): [8, 13], ("b", "y"): [21, 34]}
    assert all(type(v) is int for values in cells.values() for v in values)


@settings(max_examples=300)
@given(st.floats(1e-3, 1e8), st.floats(1e-3, 1e8), st.floats(0, 1))
@example(1e7, 1e7, 0.5)  # needs more than 500 terms
def test_betacf_matches_the_two_step_loop(a, b, x):
    """One loop over the even and odd coefficients gives the written-out steps' every bit."""
    assert outcome(_betacf, a, b, x) == outcome(betacf_reference, a, b, x)


def test_mean_sem_errors_and_single_value_match_the_reference():
    for values in ([], [3], [2.5]):
        assert outcome(mean_sem, values) == outcome(mean_sem_reference, values)
    assert isinstance(outcome(mean_sem, []), tuple)


@pytest.mark.parametrize("samples, window_ms", [
    ([(0, 1), (20, 2), (10, 3)], 40),
    ([(0, 1), (20, 2), (20, 3), (40, 4), (0, 5)], 20),
    ([], 2000),
    ([(0, 1)], 30),
    ([(float("nan"), 1), (20, 2), (10, 3)], 20),
], ids=["decreasing", "decreasing-after-equal", "empty", "bad-window", "nan-then-decreasing"])
def test_window_profile_errors_match_the_reference(samples, window_ms):
    got = outcome(window_profile, samples, window_ms)
    assert isinstance(got, tuple)
    assert got == outcome(window_profile_reference, samples, window_ms)


# --- window_profile reuses the order check and bounds of the last array column -------------


def matches_reference(series, window_ms=20, statistic="mean", policy="keep"):
    got = outcome(window_profile, series, window_ms, statistic, policy)
    assert got == outcome(window_profile_reference, series, window_ms, statistic, policy)
    return got


@pytest.mark.parametrize("column", [lambda times: array("Q", times), list], ids=["array", "list"])
def test_a_column_changed_in_place_is_checked_again(column):
    times = column(range(0, 200, 20))
    series = Series(times, list(range(10)))
    first = matches_reference(series)
    times[-1] = 400  # same object, new last window
    assert matches_reference(series) != first
    times[3] = 0  # now decreasing: must raise, not reuse the bounds checked before
    assert isinstance(matches_reference(series), tuple)
    times[3] = 60
    assert not isinstance(matches_reference(series), tuple)


def test_columns_of_equal_octets_and_other_typecodes_are_told_apart():
    """Both hold eight zero octets; start_ms is 0 from the one and 0.0 from the other."""
    ints, doubles = Series(array("Q", [0]), [1]), Series(array("d", [0.0]), [1])
    assert ints.times.tobytes() == doubles.times.tobytes()
    assert "start_ms=0," in matches_reference(ints)
    assert "start_ms=0.0," in matches_reference(doubles)
    assert "start_ms=0," in matches_reference(ints)


def test_one_column_under_two_windows():
    series = Series(array("Q", range(0, 2000, 20)), list(range(100)))
    assert matches_reference(series, 20) != matches_reference(series, 400)


def test_a_refused_column_leaves_no_bounds_behind():
    good = Series(array("Q", [0, 20, 40]), [1, 2, 3])
    bad = Series(array("Q", [0, 40, 20]), [1, 2, 3])
    matches_reference(good)
    assert isinstance(matches_reference(bad), tuple)
    assert isinstance(matches_reference(bad), tuple)
    matches_reference(good)
    bad.times[1:] = array("Q", [20, 40])
    assert matches_reference(bad) == matches_reference(good)


def test_threads_sharing_columns_each_get_the_right_bounds():
    """Four threads over four columns, each in another order, switching every few
    bytecodes: a key kept beside another column's bounds would give wrong windows."""
    columns = [Series(array("Q", range(0, 20 * k * 50, 20 * k)), list(range(50)))
               for k in range(1, 5)]
    expected = [repr(window_profile_reference(c, 40, "mean", "keep")) for c in columns]
    wrong = []

    def profile(first):
        for i in range(first, first + 400):
            k = i % len(columns)
            if outcome(window_profile, columns[k], 40, "mean", "keep") != expected[k]:
                wrong.append(k)

    threads = [threading.Thread(target=profile, args=(first,)) for first in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


@st.composite
def column_calls(draw):
    """A few array columns, and calls that each may first change one timestamp in place."""
    pool = []
    for samples, window_ms in draw(st.lists(series(), min_size=1, max_size=3)):
        times, values = zip(*samples)
        pool.append((Series(array("d" if isinstance(times[0], float) else "Q", times),
                            list(values)), window_ms))
    calls = draw(st.lists(st.tuples(
        st.integers(0, len(pool) - 1),
        st.booleans(),  # the column's own window_ms, else 40
        st.sampled_from(list(Statistic)),
        st.sampled_from(list(PartialPolicy)),
        st.none() | st.tuples(st.integers(0, 300), st.integers(0, 10**6 + 9000)),
    ), min_size=1, max_size=12))
    return pool, calls


@settings(max_examples=100)
@given(column_calls())
def test_interleaved_calls_on_shared_columns_match_the_reference(drawn):
    pool, calls = drawn
    for which, own_window, statistic, policy, change in calls:
        column, window_ms = pool[which]
        if change is not None:
            position, t = change
            times = column.times
            times[position % len(times)] = float(t) if times.typecode == "d" else t
        matches_reference(column, window_ms if own_window else 40, statistic, policy)
