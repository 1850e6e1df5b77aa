"""Descriptive cell summaries and balanced two-way fixed-effects ANOVA.

The ANOVA uses the classical balanced decomposition: with a x b cells of
n observations each, grand mean g, row means r_i, column means c_j and
cell means m_ij,

    SS_A  = n*b * sum_i (r_i - g)^2          df = a - 1
    SS_B  = n*a * sum_j (c_j - g)^2          df = b - 1
    SS_AB = n * sum_ij (m_ij - r_i - c_j + g)^2    df = (a-1)(b-1)
    SS_E  = sum_ijk (y_ijk - m_ij)^2         df = N - a*b

Each effect is tested by F = MS_effect / MS_error with the upper tail of
the F distribution, evaluated through the regularized incomplete beta
function. Only balanced designs are accepted; anything else is a hard
error rather than a silent approximation. Sums run through ``math.fsum``
over C iterators, bit-identical to the per-sample form written above; a
sum past the float range is a ValueError naming what was summed. One pass
over each cell gives the ANOVA its cell mean and within-cell SS and the
table its ``CellSummary`` (``AnovaTable.cells``), as ``mean_sem`` does for one sample.
"""

from __future__ import annotations

import math
import random
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import repeat
from operator import sub

from .recording import Expertise
from .simulator import DEFAULT_CELL_N, S7_SESSION_CELLS, calibrate_to_cell


class UnbalancedDesign(ValueError):
    """Cell observation counts differ; carries the per-cell counts."""

    def __init__(self, counts: dict):
        detail = ", ".join(f"{cell}: n={n}" for cell, n in sorted(counts.items(), key=str))
        super().__init__(f"cell counts must be equal ({detail})")
        self.counts = counts


@dataclass(frozen=True)
class CellSummary:
    """Mean, standard error of the mean, and count of one cell, in mV.

    ``degenerate`` marks single-observation cells, whose SEM is reported
    as 0 because no dispersion estimate exists.
    """

    mean: float
    sem: float
    n: int
    degenerate: bool = False


def _finite_sum(values, where: str) -> float:
    """``math.fsum(values)``, or ValueError naming ``where`` if that is not a finite number."""
    try:
        total = math.fsum(values)
    except (ValueError, OverflowError) as exc:  # -inf + inf, or a finite sum past the float range
        raise ValueError(f"{where}: {exc}") from None
    if not math.isfinite(total):  # a nan, or infinities of one sign, among the values
        raise ValueError(f"{where} holds {total}")
    return total


def _moments(values: list[float], where: str) -> tuple[float, float, CellSummary]:
    """The sum of a non-empty list of floats, its squared deviations about the mean, and
    its summary; ValueError naming ``where`` for a value or sum that is not finite."""
    n = len(values)
    total = _finite_sum(values, where)
    mean = total / n
    if n == 1:
        return total, 0.0, CellSummary(mean, 0.0, 1, degenerate=True)
    ss = _finite_sum(map(pow, map(sub, values, repeat(mean)), repeat(2)),
                     f"squared deviations of {where}")
    return total, ss, CellSummary(mean, math.sqrt(ss / (n - 1) / n), n)


def mean_sem(values) -> CellSummary:
    """Arithmetic mean and SEM (unbiased sd / sqrt(n)) of a sample of finite values."""
    values = list(map(float, values))
    if not values:
        raise ValueError("cannot summarize zero values")
    return _moments(values, "sample")[2]


def _levels(cells) -> tuple[list, list]:
    """Each factor's levels in first-seen order, for a table keyed by (level_a, level_b);
    ValueError unless both factors have >= 2 levels and every combination is present."""
    levels_a = list(dict.fromkeys(la for la, _ in cells))
    levels_b = list(dict.fromkeys(lb for _, lb in cells))
    if len(levels_a) < 2 or len(levels_b) < 2:
        raise ValueError(f"need >= 2 levels per factor, got {len(levels_a)} x {len(levels_b)}")
    for la in levels_a:
        for lb in levels_b:
            if (la, lb) not in cells:
                raise ValueError(f"no observations for cell ({la!r}, {lb!r})")
    return levels_a, levels_b


def _deviations(means: dict, levels_a: list, levels_b: list, grand: float):
    """sum_i (r_i - g)^2, sum_j (c_j - g)^2 and sum_ij (m_ij - r_i - c_j + g)^2: the squared
    row, column and interaction deviations of a full table of cell ``means`` about ``grand``."""
    row = {la: _finite_sum((means[la, lb] for lb in levels_b), "row effect") / len(levels_b)
           for la in levels_a}
    col = {lb: _finite_sum((means[la, lb] for la in levels_a), "column effect") / len(levels_a)
           for lb in levels_b}
    return (_finite_sum(((row[la] - grand) ** 2 for la in levels_a), "row effect"),
            _finite_sum(((col[lb] - grand) ** 2 for lb in levels_b), "column effect"),
            _finite_sum(((means[la, lb] - row[la] - col[lb] + grand) ** 2
                         for la in levels_a for lb in levels_b), "interaction"))


@dataclass(frozen=True)
class EffectRow:
    """One line of the ANOVA table. f/p are None where no test applies."""

    name: str
    ss: float
    df: int
    ms: float
    f: float | None = None
    p: float | None = None


@dataclass(frozen=True)
class AnovaTable:
    effect_a: EffectRow
    effect_b: EffectRow
    interaction: EffectRow
    error: EffectRow
    cells: dict[tuple, CellSummary]  # per (level_a, level_b), in first-seen order

    def rows(self) -> tuple[EffectRow, ...]:
        return (self.effect_a, self.effect_b, self.interaction, self.error)

    @property
    def ss_total(self) -> float:
        return _finite_sum((row.ss for row in self.rows()), "total sum of squares")

    def to_text(self) -> str:
        def fmt(x, width, digits=4):
            if x is None:
                return "n/a".rjust(width)
            if isinstance(x, int):
                return str(x).rjust(width)
            return f"{x:.{digits}g}".rjust(width)

        name_w = max(len(r.name) for r in self.rows()) + 2
        lines = [
            f"{'effect'.ljust(name_w)}{'ss'.rjust(14)}{'df'.rjust(8)}"
            f"{'ms'.rjust(14)}{'f'.rjust(12)}{'p'.rjust(12)}"
        ]
        for row in self.rows():
            lines.append(
                f"{row.name.ljust(name_w)}{fmt(row.ss, 14, 8)}{fmt(row.df, 8)}"
                f"{fmt(row.ms, 14, 8)}{fmt(row.f, 12)}{fmt(row.p, 12, 3)}"
            )
        lines.append(f"{'total'.ljust(name_w)}{fmt(self.ss_total, 14, 8)}")
        return "\n".join(lines)

    def csv_rows(self) -> list[list]:
        def cell(x):
            return "" if x is None else repr(x) if isinstance(x, float) else x

        rows = [["effect", "ss", "df", "ms", "f", "p"]]
        for row in self.rows():
            rows.append([row.name, repr(row.ss), row.df, repr(row.ms), cell(row.f), cell(row.p)])
        return rows


def two_way_anova(observations, factor_names: tuple[str, str] = ("A", "B")) -> AnovaTable:
    """Balanced two-way fixed-effects ANOVA with interaction.

    ``observations`` is an iterable of (level_a, level_b, value), or a mapping
    from (level_a, level_b) to an iterable of that cell's values, which it
    copies. Every combination of the observed levels must be present with the
    same number (>= 2) of finite observations; violations raise ValueError, or
    UnbalancedDesign (which carries the per-cell ``counts``) for unequal counts.

    When the error mean square is zero no F ratio exists: F is reported
    as None ("not applicable"), with p = 1 when the effect sum of squares
    is zero as well (no variance anywhere, nothing to reject).
    """
    if isinstance(observations, Mapping):
        cells = {cell: list(values) for cell, values in observations.items()}
    else:
        cells = {}
        for level_a, level_b, value in observations:
            try:
                cells[level_a, level_b].append(value)
            except KeyError:
                cells[level_a, level_b] = [value]
    for vals in cells.values():  # in place: one cell's second list at a time
        vals[:] = map(float, vals)
    levels_a, levels_b = _levels(cells)
    counts = {cell: len(vals) for cell, vals in cells.items()}
    if len(set(counts.values())) != 1:
        raise UnbalancedDesign(counts)
    n = next(iter(counts.values()))
    if n < 2:
        raise ValueError(f"every cell needs >= 2 observations, got n={n}")

    a, b = len(levels_a), len(levels_b)
    total = a * b * n
    moments = {cell: _moments(vals, f"cell {cell!r}") for cell, vals in cells.items()}
    grand = _finite_sum((s for s, _, _ in moments.values()), "grand total") / total
    summaries = {cell: summary for cell, (_, _, summary) in moments.items()}
    dev_a, dev_b, dev_ab = _deviations({cell: summary.mean for cell, summary in summaries.items()},
                                       levels_a, levels_b, grand)
    # a scaled sum can pass the float range where the unscaled one did not
    ss_a = _finite_sum((n * b * dev_a,), "row effect")
    ss_b = _finite_sum((n * a * dev_b,), "column effect")
    ss_ab = _finite_sum((n * dev_ab,), "interaction")
    ss_err = _finite_sum((ss for _, ss, _ in moments.values()), "error sum of squares")

    df_a, df_b = a - 1, b - 1
    df_ab, df_err = df_a * df_b, total - a * b
    ms_err = ss_err / df_err

    def tested(name: str, ss: float, df: int) -> EffectRow:
        ms = ss / df
        if ms_err == 0.0:
            return EffectRow(name, ss, df, ms, None, 1.0 if ss == 0.0 else None)
        f = ms / ms_err
        return EffectRow(name, ss, df, ms, f, f_upper_tail(f, df, df_err))

    name_a, name_b = factor_names
    return AnovaTable(
        effect_a=tested(name_a, ss_a, df_a),
        effect_b=tested(name_b, ss_b, df_b),
        interaction=tested(f"{name_a} x {name_b}", ss_ab, df_ab),
        error=EffectRow("error", ss_err, df_err, ms_err),
        cells=summaries,
    )


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 500):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),  # even step, then odd
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise ValueError(f"betacf(a={a}, b={b}, x={x}) did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), evaluated by continued fraction.

    The expansion converges fast for x below (a+1)/(a+b+2); beyond that
    point the symmetric identity I_x(a, b) = 1 - I_(1-x)(b, a) is used.
    """
    if not (a > 0 and b > 0):
        raise ValueError("a and b must be positive")
    if x != x:
        raise ValueError("x must be a number, got nan")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def f_upper_tail(f: float, df1: int, df2: int) -> float:
    """p = P(F(df1, df2) > f), the upper tail of the F distribution.

    Evaluated as I_x(df2/2, df1/2) with x = df2 / (df2 + df1*f). The
    result is clamped into (0, 1]: underflow to exactly 0 is reported as
    the smallest positive float instead.
    """
    if df1 < 1 or df2 < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got ({df1}, {df2})")
    if not f >= 0:
        raise ValueError(f"F statistic must be >= 0, got {f}")
    if f == 0.0:
        return 1.0
    x = df2 / (df2 + df1 * f)
    p = regularized_incomplete_beta(df2 / 2.0, df1 / 2.0, x)
    if p <= 0.0:
        return math.nextafter(0.0, 1.0)
    return min(p, 1.0)


# The four reference cells: (expertise, session) -> (mean mV, SEM mV).
REFERENCE_CELLS: dict[tuple[str, str], tuple[float, float]] = {
    ("novice", "first"): S7_SESSION_CELLS[Expertise.NOVICE][0],
    ("novice", "last"): S7_SESSION_CELLS[Expertise.NOVICE][1],
    ("expert", "first"): S7_SESSION_CELLS[Expertise.EXPERT][0],
    ("expert", "last"): S7_SESSION_CELLS[Expertise.EXPERT][1],
}


def closed_form_interaction_f(cells) -> float:
    """Interaction F expected from (mean, SEM) per cell of a balanced design, any n.

    With n per cell, MS_AB = n * sum(r_ij^2) / df_AB for the interaction
    residuals r_ij = m_ij - r_i - c_j + g, and MS_error = n * mean(SEM^2),
    so n cancels: F = sum(r_ij^2) / df_AB / mean(SEM^2).
    """
    levels_a, levels_b = _levels(cells)
    means = {cell: mean for cell, (mean, _) in cells.items()}
    grand = _finite_sum(means.values(), "grand mean") / len(means)
    mean_sem_sq = _finite_sum((sem**2 for _, sem in cells.values()), "squared SEMs") / len(cells)
    if not mean_sem_sq > 0.0:
        raise ValueError(f"mean SEM^2 must be positive, got {mean_sem_sq}")
    ss = _deviations(means, levels_a, levels_b, grand)[2]
    return ss / ((len(levels_a) - 1) * (len(levels_b) - 1)) / mean_sem_sq


@dataclass(frozen=True)
class Reconstruction:
    table: AnovaTable
    cells: dict[tuple[str, str], CellSummary]
    n_per_cell: int
    seed: int


def reconstruct_paper_cells(n_per_cell: int = DEFAULT_CELL_N, seed: int = 0) -> Reconstruction:
    """Resynthesize the four reference S7 cells and run the two-way ANOVA.

    Each cell draws ``n_per_cell`` Gaussian observations with the cell's
    published mean and an sd of SEM * sqrt(n). The interaction is tested
    with df (1, 4n - 4); at the default n = 721 that is (1, 2880).

    Note the reported headline F statistic for this comparison (188.53)
    is not recoverable from cell means and SEMs alone: the closed-form
    expectation for this reconstruction is
    ``closed_form_interaction_f(REFERENCE_CELLS)`` = 306.25 / 3.02 = 101.41.
    Degrees of freedom, significance and the cell summaries are reproducible.
    """
    if n_per_cell < 2:
        raise ValueError(f"need n_per_cell >= 2, got {n_per_cell}")
    rng = random.Random(seed)
    cells = {}
    for cell, (mean_mv, sem_mv) in REFERENCE_CELLS.items():
        mean, sd = calibrate_to_cell(mean_mv, sem_mv, n_per_cell)
        cells[cell] = [rng.gauss(mean, sd) for _ in range(n_per_cell)]
    table = two_way_anova(cells, factor_names=("expertise", "session"))
    return Reconstruction(table, table.cells, n_per_cell, seed)
