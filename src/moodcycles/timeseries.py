"""Weekly time series and holiday-centered calendar alignment.

A weekly series is a run of consecutive 7-day weeks. Series can be re-indexed
onto "centered years": fixed-length windows of weeks positioned so that the
week containing a recurring anchor event (Christmas, Eid al-Fitr, a solstice,
or January 1st) always lands at the same week index. Solar anchors repeat
every 52 or 53 grid weeks, lunar anchors every 50 or 51, so consecutive
centered years occasionally leave a one-week gap; those weeks are dropped and
recorded, never silently reassigned.

Also hosts yearly-maximum normalization, across-year averaging, z-scoring,
and monthly birth-count normalization, the shared numeric substrate for the
classification pipeline.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import DataError, DegenerateSeriesError

WEEK = dt.timedelta(days=7)


class AnchorKind(str, Enum):
    CIVIL = "civil"
    CHRISTMAS = "christmas"
    EID_AL_FITR = "eid-al-fitr"
    JUNE_SOLSTICE = "june-solstice"
    DECEMBER_SOLSTICE = "december-solstice"


# Lunar years drift against the week grid; 50 centered weeks keep every year
# the same length. Solar years get 52.
_YEAR_LENGTH = {kind: 52 for kind in AnchorKind}
_YEAR_LENGTH[AnchorKind.EID_AL_FITR] = 50
_ANCHOR_INDEX = {kind: 26 for kind in AnchorKind}
_ANCHOR_INDEX[AnchorKind.EID_AL_FITR] = 25

_SOLAR_DAY = {
    AnchorKind.CIVIL: (1, 1),
    AnchorKind.CHRISTMAS: (12, 25),
    AnchorKind.JUNE_SOLSTICE: (6, 21),
    AnchorKind.DECEMBER_SOLSTICE: (12, 21),
}


def _readonly(values, dtype=float) -> np.ndarray:
    """``values`` as a read-only ``dtype`` array, copied if anything can still write to it."""
    arr = np.asarray(values, dtype=dtype)
    arr = arr.copy() if arr.base is not None or arr.flags.writeable else arr
    arr.flags.writeable = False
    return arr


def _ordered_sum(values) -> float:
    """``values`` added left to right; ``sum()`` compensates floats from Python 3.12 on."""
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class WeeklySeries:
    """Consecutive weekly values starting on ``start_date``.

    Week i (0-based) covers the 7 days beginning ``start_date + 7*i``.
    Values are finite and non-negative; missing weeks are not representable.
    """

    start_date: dt.date
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = _readonly(self.values)
        if arr.ndim != 1 or arr.size == 0:
            raise DataError("weekly series needs a 1-D, non-empty value run")
        if not np.all(np.isfinite(arr)):
            raise DataError("weekly series values must be finite")
        if np.any(arr < 0):
            raise DataError("weekly series values must be non-negative")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)

    def week_start(self, index: int) -> dt.date:
        return self.start_date + index * WEEK


@dataclass(frozen=True)
class AnchorCalendar:
    """Recurring anchor dates plus the centered-year geometry they imply."""

    kind: AnchorKind
    anchor_dates: tuple[dt.date, ...]

    def __post_init__(self) -> None:
        dates = tuple(sorted(self.anchor_dates))
        if not dates:
            raise DataError("anchor calendar has no anchor dates")
        if len(set(dates)) != len(dates):
            raise DataError("anchor calendar has duplicate anchor dates")
        object.__setattr__(self, "anchor_dates", dates)

    @property
    def year_length_weeks(self) -> int:
        return _YEAR_LENGTH[self.kind]

    @property
    def anchor_week_index(self) -> int:
        return _ANCHOR_INDEX[self.kind]

    @classmethod
    def solar(cls, kind: AnchorKind, years) -> "AnchorCalendar":
        """One anchor per Gregorian year for a solar kind."""
        kind = AnchorKind(kind)
        if kind not in _SOLAR_DAY:
            raise DataError(f"{kind.value} needs explicit anchor dates")
        month, day = _SOLAR_DAY[kind]
        return cls(kind, tuple(dt.date(y, month, day) for y in years))


@dataclass(frozen=True)
class CenteredYear:
    """One fixed-length window of a weekly series around a single anchor.

    ``weeks[i]`` (0-based) is the source value of week index ``i + 1`` in the
    1-based centered indexing; the anchor's week sits at ``anchor_week_index``.
    ``dropped_weeks`` lists week-start dates discarded in the gap between the
    previous centered year and this one.
    """

    anchor_date: dt.date
    week1_start: dt.date
    weeks: np.ndarray
    dropped_weeks: tuple[dt.date, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "weeks", _readonly(self.weeks))


@dataclass(frozen=True)
class AveragedYear:
    """Element-wise mean and spread of several centered years."""

    weeks: np.ndarray
    per_week_std: np.ndarray
    n_years: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "weeks", _readonly(self.weeks))
        object.__setattr__(self, "per_week_std", _readonly(self.per_week_std))


def centered_week_spans(
    start_date: dt.date,
    n_weeks: int,
    cal: AnchorCalendar,
    warnings: list[str],
) -> list[tuple[dt.date, int, int, tuple[dt.date, ...]]]:
    """Resolve which grid weeks each usable anchor claims.

    Returns ``(anchor_date, first_index, last_index, dropped_week_starts)``
    per usable anchor, in date order. A year is usable only when all of its
    weeks lie inside the grid. Weeks falling in the gap between two adjacent
    years are assigned to neither and recorded as dropped on the later year.
    If two years ever contested the same weeks the earlier year would keep
    them, leaving the later year incomplete and therefore omitted. Each
    omission appends a note to ``warnings``.
    """
    length = cal.year_length_weeks
    back = cal.anchor_week_index - 1
    fwd = length - cal.anchor_week_index

    spans: list[tuple[dt.date, int, int, tuple[dt.date, ...]]] = []
    prev_last: int | None = None
    for anchor in cal.anchor_dates:
        offset = (anchor - start_date).days
        first, last = offset // 7 - back, offset // 7 + fwd
        if offset < 0 or offset >= 7 * n_weeks:
            warnings.append(f"{cal.kind.value}: anchor {anchor} outside the series, year omitted")
        elif first < 0 or last >= n_weeks:
            warnings.append(f"{cal.kind.value}: centered year around {anchor} incomplete, omitted")
        elif prev_last is not None and first <= prev_last:
            warnings.append(
                f"{cal.kind.value}: year around {anchor} contests weeks kept by the"
                " previous year, omitted"
            )
        else:
            gap = range(first if prev_last is None else prev_last + 1, first)
            spans.append((anchor, first, last, tuple(start_date + k * WEEK for k in gap)))
            prev_last = last
    return spans


def build_centered_years(
    series: WeeklySeries,
    cal: AnchorCalendar,
    warnings: list[str],
) -> list[CenteredYear]:
    """Slice ``series`` into fixed-length years centered on ``cal``'s anchors.

    Every source week lands in at most one centered year; each returned year
    has exactly ``cal.year_length_weeks`` values with the anchor's week at
    ``cal.anchor_week_index`` (1-based). Anchors outside the series, or years
    that would run off either end, are omitted (a note is appended to
    ``warnings``).
    """
    return [
        CenteredYear(anchor, series.week_start(first), series.values[first : last + 1], dropped)
        for anchor, first, last, dropped in centered_week_spans(
            series.start_date, len(series), cal, warnings)
    ]


def normalize_yearly_max(years: list[CenteredYear]) -> list[CenteredYear]:
    """Rescale each centered year so its maximum week equals 1.

    Years are independent: rescaling one never affects another. A year whose
    maximum is not strictly positive has no defined scale.
    """
    out = []
    for year in years:
        peak = float(np.max(year.weeks)) if len(year.weeks) else 0.0
        if peak <= 0.0:
            raise DegenerateSeriesError(
                f"centered year {year.anchor_date} has no positive value to scale by"
            )
        out.append(replace(year, weeks=year.weeks / peak))
    return out


def average_years(years: list[CenteredYear]) -> AveragedYear:
    """Element-wise mean across years, with population spread per week."""
    if not years:
        raise DataError("cannot average zero centered years")
    lengths = {len(y.weeks) for y in years}
    if len(lengths) != 1:
        raise DataError(f"centered years differ in length: {sorted(lengths)}")
    stack = np.vstack([y.weeks for y in years])
    return AveragedYear(
        weeks=stack.mean(axis=0),
        per_week_std=stack.std(axis=0),
        n_years=len(years),
    )


def zscore(values) -> np.ndarray:
    """Standardize to zero mean and unit population standard deviation."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise DataError("z-scoring needs at least two values")
    sigma = float(arr.std())
    if sigma == 0.0:
        raise DegenerateSeriesError("degenerate series: zero variance")
    return (arr - arr.mean()) / sigma


# Month lengths for per-day birth rates. February is averaged over the leap
# cycle instead of varying by year.
_MONTH_DAYS = {
    1: 31.0, 2: 28.25, 3: 31.0, 4: 30.0, 5: 31.0, 6: 30.0,
    7: 31.0, 8: 31.0, 9: 30.0, 10: 31.0, 11: 30.0, 12: 31.0,
}


def normalize_births(
    entries: list[tuple[int, int, float]],
    shift_months: int = 9,
) -> list[tuple[int, int, float]]:
    """Monthly counts as yearly-max-normalized per-day rates, shifted back.

    ``entries`` are ``(year, month, count)`` with months in 1..12, counts
    non-negative and no (year, month) twice, as ``io.read_births`` checks.
    Each count is divided by its month's day count (February: 28.25), each
    original year is rescaled so its peak per-day rate is 1, then month m of
    year y is relabeled to m - shift, wrapping into the previous year.
    Returns ``(year, month, rate)`` triples in date order; entries that
    would relabel before the first original data year are dropped.
    """
    if not (0 <= shift_months < 12):
        raise DataError("shift_months must be in [0, 12)")
    if not entries:
        raise DataError("no birth entries")
    rates = {(y, m): c / _MONTH_DAYS[m] for y, m, c in entries}
    peak_by_year: dict[int, float] = {}
    for (y, _), rate in rates.items():
        peak_by_year[y] = max(peak_by_year.get(y, 0.0), rate)
    for y, peak in peak_by_year.items():
        if peak <= 0.0:
            raise DegenerateSeriesError(f"birth year {y} has no positive rate")

    first_year = min(y for y, _, _ in entries)
    shifted = []
    for y, m, _ in sorted(entries):
        rate = rates[(y, m)] / peak_by_year[y]
        m2, y2 = m - shift_months, y
        if m2 <= 0:
            m2 += 12
            y2 -= 1
        if y2 < first_year:
            continue
        shifted.append((y2, m2, rate))
    shifted.sort()
    return shifted
