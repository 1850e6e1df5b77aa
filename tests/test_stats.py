import math
import random
import re

import pytest

from gripstream.stats import (
    CellSummary,
    REFERENCE_CELLS,
    UnbalancedDesign,
    closed_form_interaction_f,
    f_upper_tail,
    mean_sem,
    reconstruct_paper_cells,
    regularized_incomplete_beta,
    two_way_anova,
)
from oracles import brute_force_anova, f_upper_tail_quad

TOY_DESIGN = [
    ("A1", "B1", 1), ("A1", "B1", 2),
    ("A1", "B2", 3), ("A1", "B2", 4),
    ("A2", "B1", 5), ("A2", "B1", 6),
    ("A2", "B2", 7), ("A2", "B2", 8),
]


def rel_close(a, b, rel=1e-9):
    # 1e-9 relative, with a unit absolute floor so that sums of squares whose
    # true value is 0 (pure float noise, ~1e-30) compare as equal
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def random_design(rng, shape):
    a_levels, b_levels = shape
    n = rng.randrange(2, 6)
    observations = []
    for i in range(a_levels):
        for j in range(b_levels):
            observations.extend((f"a{i}", f"b{j}", rng.randrange(0, 10)) for _ in range(n))
    rng.shuffle(observations)
    return observations


# --- descriptive summaries ---------------------------------------------------


def test_mean_sem_constant():
    assert mean_sem([5, 5, 5, 5]) == CellSummary(5.0, 0.0, 4)


def test_mean_sem_hand_computed():
    summary = mean_sem([1, 2, 3, 4, 5])
    assert summary.mean == 3
    assert summary.sem == pytest.approx(math.sqrt(2.5 / 5), abs=1e-12)
    assert summary.sem == pytest.approx(0.7071, abs=5e-5)
    assert summary.n == 5 and not summary.degenerate


def test_mean_sem_degenerate_single_value():
    summary = mean_sem([9.5])
    assert summary == CellSummary(9.5, 0.0, 1, degenerate=True)
    assert summary.degenerate


def test_mean_sem_empty():
    with pytest.raises(ValueError, match="^cannot summarize zero values$"):
        mean_sem([])


def test_mean_sem_matches_calibrated_cell():
    from gripstream.simulator import calibrate_to_cell

    rng = random.Random(8)
    mean, sd = calibrate_to_cell(98, 1.2, 721)
    summary = mean_sem([rng.gauss(mean, sd) for _ in range(721)])
    assert abs(summary.mean - 98) < 4 * 1.2
    assert abs(summary.sem - 1.2) / 1.2 < 0.10


# --- two-way ANOVA -----------------------------------------------------------


def test_anova_toy_design_hand_computed():
    table = two_way_anova(TOY_DESIGN)
    assert table.effect_a.ss == pytest.approx(32, abs=1e-12)
    assert table.effect_b.ss == pytest.approx(8, abs=1e-12)
    assert table.interaction.ss == pytest.approx(0, abs=1e-12)
    assert table.error.ss == pytest.approx(2, abs=1e-12)
    assert (table.effect_a.df, table.effect_b.df) == (1, 1)
    assert (table.interaction.df, table.error.df) == (1, 4)
    assert table.interaction.f == pytest.approx(0, abs=1e-12)
    assert table.effect_a.f == pytest.approx(64, rel=1e-12)
    assert table.effect_b.f == pytest.approx(16, rel=1e-12)
    assert rel_close(table.ss_total, 42)


def test_anova_degenerate_all_equal():
    observations = [(a, b, 7.0) for a in "xy" for b in "uv" for _ in range(3)]
    table = two_way_anova(observations)
    for row in (table.effect_a, table.effect_b, table.interaction):
        assert row.ss == 0
        assert row.f is None
        assert row.p == 1.0
    assert table.error.ss == 0


def test_anova_validation_errors():
    with pytest.raises(ValueError, match=r"^no observations for cell \('b', 'y'\)$"):
        two_way_anova([("a", "x", 1), ("a", "y", 2), ("b", "x", 3)] * 2)
    with pytest.raises(UnbalancedDesign) as exc:
        two_way_anova(TOY_DESIGN + [("A1", "B1", 9)])
    assert exc.value.counts[("A1", "B1")] == 3
    assert "n=3" in str(exc.value) and "n=2" in str(exc.value)
    with pytest.raises(ValueError, match="^every cell needs >= 2 observations, got n=1$"):
        two_way_anova([("a", "x", 1), ("a", "y", 2), ("b", "x", 3), ("b", "y", 4)])
    with pytest.raises(ValueError, match="levels"):
        two_way_anova([("a", "x", 1), ("a", "x", 2), ("a", "y", 3), ("a", "y", 4)])


def test_anova_df_at_reference_scale():
    rng = random.Random(2)
    observations = [
        (a, b, rng.gauss(100, 10)) for a in ("n", "e") for b in ("f", "l") for _ in range(721)
    ]
    table = two_way_anova(observations)
    assert table.interaction.df == 1
    assert table.error.df == 2880


def test_anova_matches_brute_force_oracle():
    rng = random.Random(424242)
    for trial in range(40):
        shape = (2, 2) if trial % 2 == 0 else (2, 3)
        observations = random_design(rng, shape)
        table = two_way_anova(observations)
        oracle = brute_force_anova(observations)
        impl = {"a": table.effect_a, "b": table.effect_b, "ab": table.interaction}
        assert table.error.df == oracle["df"]["err"]
        assert rel_close(table.error.ss, oracle["ss"]["err"])
        for key, row in impl.items():
            assert row.df == oracle["df"][key]
            assert rel_close(row.ss, oracle["ss"][key])
            if oracle["f"][key] is None:
                assert row.f is None
            else:
                assert rel_close(row.f, oracle["f"][key])
                assert row.p == pytest.approx(oracle["p"][key], abs=1e-8)


def test_anova_shift_invariance():
    rng = random.Random(77)
    observations = random_design(rng, (2, 3))
    base = two_way_anova(observations)
    shifted = two_way_anova([(a, b, v + 1000.5) for a, b, v in observations])
    for r0, r1 in zip(base.rows(), shifted.rows()):
        assert rel_close(r0.ss, r1.ss) or abs(r0.ss - r1.ss) < 1e-6
        if r0.f is not None:
            assert rel_close(r0.f, r1.f, 1e-9) or abs(r0.f - r1.f) < 1e-9
            assert rel_close(r0.p, r1.p, 1e-9) or abs(r0.p - r1.p) < 1e-9


def test_anova_scale_equivariance():
    rng = random.Random(78)
    observations = random_design(rng, (2, 2))
    k = 3.25
    base = two_way_anova(observations)
    scaled = two_way_anova([(a, b, v * k) for a, b, v in observations])
    for r0, r1 in zip(base.rows(), scaled.rows()):
        assert rel_close(r1.ss, r0.ss * k * k)
        if r0.f is not None:
            assert rel_close(r0.f, r1.f)
            assert rel_close(r0.p, r1.p)


def test_anova_table_rendering():
    table = two_way_anova(TOY_DESIGN, factor_names=("expertise", "session"))
    text = table.to_text()
    assert "expertise x session" in text
    assert "error" in text and "total" in text
    rows = table.csv_rows()
    assert rows[0] == ["effect", "ss", "df", "ms", "f", "p"]
    assert len(rows) == 5
    assert rows[1][0] == "expertise"


# --- F distribution ----------------------------------------------------------


def test_f_upper_tail_at_zero():
    assert f_upper_tail(0, 3, 17) == 1.0


def test_f11_median():
    assert f_upper_tail(1, 1, 1) == pytest.approx(0.5, abs=1e-8)


def test_reference_scale_statistic_is_significant():
    p = f_upper_tail(188.53, 1, 2880)
    assert 0 < p < 0.001
    # independent integration puts it near 1.32e-41
    assert p == pytest.approx(1.3215889662344689e-41, rel=1e-8)


def test_f_upper_tail_strictly_decreasing():
    for df1, df2 in ((1, 1), (2, 7), (5, 40), (1, 2880)):
        previous = 1.0
        for f in (0.01, 0.1, 0.5, 1, 2, 5, 20, 100):
            p = f_upper_tail(f, df1, df2)
            assert p < previous
            previous = p


def test_f_upper_tail_against_integration_oracle():
    for f, df1, df2 in ((0.5, 1, 1), (1.5, 3, 12), (2.5, 4, 4), (7.0, 1, 30), (101.4, 1, 2880)):
        assert f_upper_tail(f, df1, df2) == pytest.approx(
            f_upper_tail_quad(f, df1, df2), abs=1e-10
        )


def test_f_upper_tail_invalid_inputs():
    with pytest.raises(ValueError, match=r"^degrees of freedom must be >= 1, got \(0, 5\)$"):
        f_upper_tail(1.0, 0, 5)
    with pytest.raises(ValueError, match=r"^degrees of freedom must be >= 1, got \(5, 0\)$"):
        f_upper_tail(1.0, 5, 0)
    with pytest.raises(ValueError):
        f_upper_tail(-0.5, 1, 1)


def test_nan_is_refused_before_the_continued_fraction():
    with pytest.raises(ValueError, match="F statistic must be >= 0"):
        f_upper_tail(math.nan, 1, 10)
    with pytest.raises(ValueError, match="a and b must be positive"):
        regularized_incomplete_beta(math.nan, 1, 0.5)
    with pytest.raises(ValueError, match="a and b must be positive"):
        regularized_incomplete_beta(1, math.nan, 0.5)
    with pytest.raises(ValueError, match="x must be a number"):
        regularized_incomplete_beta(1, 1, math.nan)
    with pytest.raises(ValueError, match=r"^cell \('A2', 'B2'\) holds nan$"):
        two_way_anova(TOY_DESIGN[:-1] + [("A2", "B2", math.nan)])


NON_FINITE = [
    ((7.0, math.nan), " holds nan"),
    ((7.0, math.inf), " holds inf"),
    ((-math.inf, 7.0), " holds -inf"),
    ((-math.inf, math.inf), ": -inf + inf in fsum"),
    ((1e308, 1e308), ": intermediate overflow in fsum"),
]


@pytest.mark.parametrize("values, message", NON_FINITE)
def test_mean_sem_refuses_a_non_finite_sample(values, message):
    with pytest.raises(ValueError, match="^" + re.escape("sample" + message) + "$"):
        mean_sem([1.0, *values, 2.0])


@pytest.mark.parametrize("values, message", NON_FINITE)
def test_anova_refuses_a_non_finite_cell_and_names_it(values, message):
    observations = TOY_DESIGN[:-2] + [("A2", "B2", v) for v in values]
    with pytest.raises(ValueError, match="^" + re.escape("cell ('A2', 'B2')" + message) + "$"):
        two_way_anova(observations)


def test_squared_deviations_past_the_float_range_name_the_sample_or_cell():
    with pytest.raises(ValueError, match=r"^squared deviations of sample: "):
        mean_sem([1e200, -1e200])
    observations = [(a, b, v) for a in "xy" for b in "pq" for v in (1e200, -1e200)]
    with pytest.raises(ValueError, match=r"^squared deviations of cell \('x', 'p'\): "):
        two_way_anova(observations)


EFFECT_SIGNS = {"row effect": lambda a, b: a, "column effect": lambda a, b: b,
                "interaction": lambda a, b: a * b}


@pytest.mark.parametrize("effect, value, n, message", [
    ("row effect", 1e200, 2, r": \(34, "),  # the square of a deviation overflows
    ("row effect", 1e154, 2, ": intermediate overflow in fsum$"),  # the sum of squares does
    ("row effect", 9e153, 3, " holds inf$"),  # the sum does not, scaled by n * b it does
    ("column effect", 9e153, 3, " holds inf$"),
    ("interaction", 1e200, 2, r": \(34, "),
], ids=["row-square", "row-sum", "row-scaled", "column-scaled", "interaction-square"])
def test_effect_sums_of_squares_past_the_float_range_name_the_effect(effect, value, n, message):
    observations = [(a, b, EFFECT_SIGNS[effect](a, b) * value)
                    for a in (1, -1) for b in (1, -1) for _ in range(n)]
    with pytest.raises(ValueError, match="^" + effect + message):
        two_way_anova(observations)


def test_a_total_sum_of_squares_past_the_float_range_is_refused():
    observations = [(a, b, (a + b) * 4e153) for a in (1, -1) for b in (1, -1) for _ in range(2)]
    table = two_way_anova(observations)  # row and column SS of 1.28e308 each
    with pytest.raises(ValueError, match="^total sum of squares: intermediate overflow in fsum$"):
        table.to_text()


@pytest.mark.parametrize("cells, message", [
    ({}, "need >= 2 levels per factor, got 0 x 0"),
    ({("a", "x"): (1.0, 1.0), ("a", "y"): (2.0, 1.0)}, "need >= 2 levels per factor, got 1 x 2"),
    ({("a", "x"): (1.0, 1.0), ("a", "y"): (2.0, 1.0), ("b", "x"): (3.0, 1.0)},
     "no observations for cell ('b', 'y')"),
    ({cell: (mean, 0.0) for cell, (mean, _) in REFERENCE_CELLS.items()},
     "mean SEM^2 must be positive, got 0.0"),
    ({cell: (mean, 1e-200) for cell, (mean, _) in REFERENCE_CELLS.items()},
     "mean SEM^2 must be positive, got 0.0"),
    ({**REFERENCE_CELLS, ("expert", "last"): (609.0, math.inf)}, "squared SEMs holds inf"),
    ({**REFERENCE_CELLS, ("expert", "last"): (609.0, math.nan)}, "squared SEMs holds nan"),
    ({**REFERENCE_CELLS, ("expert", "last"): (609.0, 1e200)}, "squared SEMs: (34, "),
], ids=["empty", "one-level", "missing-cell", "zero-sems", "underflow", "inf", "nan", "overflow"])
def test_closed_form_interaction_f_refuses_what_it_cannot_compute(cells, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        closed_form_interaction_f(cells)


def test_incomplete_beta_closed_forms():
    # I_x(1, 1) = x and I_x(2, 2) = 3x^2 - 2x^3
    for x in (0.1, 0.25, 0.5, 0.8, 0.99):
        assert regularized_incomplete_beta(1, 1, x) == pytest.approx(x, abs=1e-12)
        assert regularized_incomplete_beta(2, 2, x) == pytest.approx(
            3 * x * x - 2 * x ** 3, abs=1e-12
        )
    assert regularized_incomplete_beta(0.5, 0.5, 0.5) == pytest.approx(0.5, abs=1e-12)
    assert regularized_incomplete_beta(2, 3, 0) == 0.0
    assert regularized_incomplete_beta(2, 3, 1) == 1.0


# --- reference reconstruction ------------------------------------------------


def test_reconstruction_df_and_significance():
    result = reconstruct_paper_cells(seed=1)
    assert result.table.interaction.df == 1
    assert result.table.error.df == 2880
    assert result.table.interaction.p < 0.001


def test_reconstruction_cells_match_reference():
    result = reconstruct_paper_cells(seed=2)
    for key, (mean_mv, sem_mv) in REFERENCE_CELLS.items():
        summary = result.cells[key]
        assert summary.n == 721
        assert abs(summary.mean - mean_mv) < 3 * sem_mv
        assert abs(summary.sem - sem_mv) / sem_mv < 0.10


def test_reconstruction_f_is_near_closed_form_not_headline():
    # Closed form from the reference cells puts the interaction F near 101,
    # far from the headline 188.53. Per-seed sampling sd of F is ~18, so
    # individual seeds get a 3.5-sigma band and the mean a tight one.
    fs = [reconstruct_paper_cells(seed=s).table.interaction.f for s in range(10)]
    for f in fs:
        assert 40 < f < 165
        assert abs(f - 188.53) > 20
    assert abs(sum(fs) / len(fs) - 101.4) < 15


def test_closed_form_interaction_f_is_the_sum_written_out():
    # residuals m_ij - r_i - c_j + g are +-8.75 in every cell of the reference design
    residuals = (98 - 88 - 346 + 344.75, 78 - 88 - 343.5 + 344.75,
                 594 - 601.5 - 346 + 344.75, 609 - 601.5 - 343.5 + 344.75)
    assert residuals == (8.75, -8.75, -8.75, 8.75)
    by_hand = sum(r**2 for r in residuals) / ((1.2**2 + 1.6**2 + 1.8**2 + 2.2**2) / 4)
    assert by_hand == pytest.approx(306.25 / 3.02, abs=1e-12)
    assert abs(closed_form_interaction_f(REFERENCE_CELLS) - by_hand) < 1e-12
    assert abs(closed_form_interaction_f(REFERENCE_CELLS) - 188.53) > 80


@pytest.mark.parametrize("n", [2, 10, 720])
def test_closed_form_interaction_f_is_the_anova_f_of_cells_with_those_summaries(n):
    # n/2 values at mean + d and n/2 at mean - d give SEM^2 = d^2 / (n - 1)
    observations = [
        (a, b, mean + sign * sem * math.sqrt(n - 1))
        for (a, b), (mean, sem) in REFERENCE_CELLS.items()
        for sign in (1, -1) for _ in range(n // 2)
    ]
    oracle = brute_force_anova(observations)
    assert rel_close(oracle["f"]["ab"], closed_form_interaction_f(REFERENCE_CELLS))
    assert rel_close(two_way_anova(observations).interaction.f,
                     closed_form_interaction_f(REFERENCE_CELLS))


def test_reconstruction_custom_n():
    result = reconstruct_paper_cells(n_per_cell=10, seed=3)
    assert result.table.error.df == 36
    with pytest.raises(ValueError, match="^need n_per_cell >= 2, got 1$"):
        reconstruct_paper_cells(n_per_cell=1)
