"""Core calendar and series arithmetic.

Date expectations in these tests were derived by hand on the Sunday grid
starting 2004-01-04 (week k starts at 2004-01-04 + 7k days) and frozen.
"""

import datetime as dt

import numpy as np
import pytest

from moodcycles.errors import DataError, DegenerateSeriesError
from moodcycles.timeseries import (
    AnchorCalendar,
    AnchorKind,
    CenteredYear,
    WeeklySeries,
    average_years,
    build_centered_years,
    centered_week_spans,
    normalize_births,
    normalize_yearly_max,
    zscore,
)

GRID_START = dt.date(2004, 1, 4)
WEEK = dt.timedelta(weeks=1)


def series(n_weeks: int, value: float = 10.0) -> WeeklySeries:
    return WeeklySeries(GRID_START, np.full(n_weeks, value))


class TestWeeklySeries:
    def test_week_start_and_len(self):
        s = series(3)
        assert len(s) == 3
        assert s.week_start(0) == GRID_START
        assert s.week_start(2) == dt.date(2004, 1, 18)

    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(DataError):
            WeeklySeries(GRID_START, np.array([1.0, -0.5]))
        with pytest.raises(DataError):
            WeeklySeries(GRID_START, np.array([1.0, np.nan]))
        with pytest.raises(DataError):
            WeeklySeries(GRID_START, np.array([]))

    def test_values_are_readonly(self):
        s = series(2)
        with pytest.raises(ValueError):
            s.values[0] = 99.0


class TestAnchorCalendar:
    def test_solar_dates(self):
        cal = AnchorCalendar.solar(AnchorKind.CHRISTMAS, [2004, 2005])
        assert cal.anchor_dates == (dt.date(2004, 12, 25), dt.date(2005, 12, 25))
        assert cal.year_length_weeks == 52
        assert cal.anchor_week_index == 26

    def test_eid_geometry(self):
        cal = AnchorCalendar(AnchorKind.EID_AL_FITR, (dt.date(2004, 11, 14),))
        assert cal.year_length_weeks == 50
        assert cal.anchor_week_index == 25

    def test_dates_sorted_and_deduped(self):
        cal = AnchorCalendar(
            AnchorKind.CIVIL, (dt.date(2006, 1, 1), dt.date(2005, 1, 1))
        )
        assert cal.anchor_dates[0] < cal.anchor_dates[1]
        with pytest.raises(DataError):
            AnchorCalendar(AnchorKind.CIVIL, (dt.date(2005, 1, 1), dt.date(2005, 1, 1)))

    def test_civil_needs_no_explicit_dates_but_eid_does(self):
        with pytest.raises(DataError):
            AnchorCalendar.solar(AnchorKind.EID_AL_FITR, [2004])


class TestCenteredWeekSpans:
    def test_single_christmas_year_geometry(self):
        # Christmas 2004 (a Saturday) falls in the week starting 2004-12-19,
        # grid week 50; the centered year spans weeks 25..76.
        cal = AnchorCalendar.solar(AnchorKind.CHRISTMAS, [2004])
        spans = centered_week_spans(GRID_START, 560, cal, [])
        assert spans == [
            (dt.date(2004, 12, 25), 25, 76, ()),
        ]
        assert spans[0][2] - spans[0][1] + 1 == 52

    def test_gap_week_recorded_on_later_year(self):
        # Christmas 2005 sits 53 grid weeks after Christmas 2004, so one
        # week (starting 2005-06-26) belongs to neither centered year.
        cal = AnchorCalendar.solar(AnchorKind.CHRISTMAS, [2004, 2005])
        spans = centered_week_spans(GRID_START, 560, cal, [])
        assert len(spans) == 2
        assert spans[0][3] == ()
        assert spans[1][3] == (dt.date(2005, 6, 26),)
        # adjacent years: no week is claimed twice
        assert spans[1][1] == spans[0][2] + 2

    def test_back_to_back_years_have_no_gap(self):
        # Christmas 2006 is 52 grid weeks after Christmas 2005.
        cal = AnchorCalendar.solar(AnchorKind.CHRISTMAS, [2005, 2006])
        spans = centered_week_spans(GRID_START, 560, cal, [])
        assert spans[1][3] == ()
        assert spans[1][1] == spans[0][2] + 1

    def test_anchor_outside_grid_is_omitted_with_warning(self):
        cal = AnchorCalendar.solar(AnchorKind.CHRISTMAS, [2003, 2004])
        warnings: list[str] = []
        spans = centered_week_spans(GRID_START, 560, cal, warnings)
        assert [s[0] for s in spans] == [dt.date(2004, 12, 25)]
        assert any("2003-12-25" in w and "omitted" in w for w in warnings)

    def test_incomplete_year_is_omitted_with_warning(self):
        # 60 weeks of data: the year centered on Christmas 2004 needs weeks
        # 25..76, which runs off the end.
        cal = AnchorCalendar.solar(AnchorKind.CHRISTMAS, [2004])
        warnings: list[str] = []
        spans = centered_week_spans(GRID_START, 60, cal, warnings)
        assert spans == []
        assert any("incomplete" in w for w in warnings)

    def test_contested_weeks_go_to_the_earlier_year(self):
        # Two anchors only 44 grid weeks apart: the second year's window
        # overlaps weeks already claimed, so it is omitted entirely.
        cal = AnchorCalendar(
            AnchorKind.CHRISTMAS, (dt.date(2004, 12, 25), dt.date(2005, 10, 25))
        )
        warnings: list[str] = []
        spans = centered_week_spans(GRID_START, 560, cal, warnings)
        assert [s[0] for s in spans] == [dt.date(2004, 12, 25)]
        assert any("contests" in w for w in warnings)


class TestBuildCenteredYears:
    def test_anchor_value_sits_at_week_26(self):
        values = np.full(560, 10.0)
        # spike exactly in Christmas 2004's week (grid week 50)
        values[50] = 99.0
        s = WeeklySeries(GRID_START, values)
        cal = AnchorCalendar.solar(AnchorKind.CHRISTMAS, [2004])
        (year,) = build_centered_years(s, cal, [])
        assert len(year.weeks) == 52
        assert year.weeks[cal.anchor_week_index - 1] == 99.0
        assert year.week1_start == dt.date(2004, 6, 27)
        assert year.week1_start + 25 * WEEK == dt.date(2004, 12, 19)
        assert year.week1_start + 51 * WEEK == dt.date(2005, 6, 19)

    def test_eid_year_is_50_weeks_with_anchor_at_25(self):
        values = np.full(560, 10.0)
        s = WeeklySeries(GRID_START, values)
        cal = AnchorCalendar(AnchorKind.EID_AL_FITR, (dt.date(2004, 11, 14),))
        (year,) = build_centered_years(s, cal, [])
        assert len(year.weeks) == 50
        # Eid 2004-11-14 is itself a Sunday, so its week starts that day
        assert year.week1_start + 24 * WEEK == dt.date(2004, 11, 14)


class TestNormalizeAndAverage:
    def year(self, weeks, anchor="2004-12-25"):
        return CenteredYear(
            anchor_date=dt.date.fromisoformat(anchor),
            week1_start=dt.date(2004, 6, 27),
            weeks=np.asarray(weeks, dtype=float),
        )

    def test_normalize_scales_peak_to_one(self):
        (scaled,) = normalize_yearly_max([self.year([2.0, 8.0, 4.0])])
        assert scaled.weeks.tolist() == [0.25, 1.0, 0.5]

    def test_normalize_years_are_independent(self):
        a, b = normalize_yearly_max([self.year([1.0, 2.0]), self.year([5.0, 50.0], "2005-12-25")])
        assert a.weeks.tolist() == [0.5, 1.0]
        assert b.weeks.tolist() == [0.1, 1.0]

    def test_normalize_zero_year_fails(self):
        with pytest.raises(DegenerateSeriesError):
            normalize_yearly_max([self.year([0.0, 0.0])])

    def test_average_mean_and_population_std(self):
        avg = average_years([self.year([1.0, 3.0]), self.year([3.0, 5.0], "2005-12-25")])
        assert avg.weeks.tolist() == [2.0, 4.0]
        # population std of {1,3} and {3,5} is 1, not sqrt(2)
        assert avg.per_week_std.tolist() == [1.0, 1.0]
        assert avg.n_years == 2

    def test_average_rejects_mixed_lengths(self):
        with pytest.raises(DataError):
            average_years([self.year([1.0, 2.0]), self.year([1.0], "2005-12-25")])

    def test_average_rejects_empty(self):
        with pytest.raises(DataError):
            average_years([])


class TestZscore:
    def test_hand_oracle(self):
        # mean 2, population sigma sqrt(2/3)
        z = zscore([1.0, 2.0, 3.0])
        expected = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0 / 3.0)
        assert np.allclose(z, expected, atol=1e-15)

    def test_zero_variance_is_degenerate(self):
        with pytest.raises(DegenerateSeriesError):
            zscore([4.0, 4.0, 4.0])

    def test_needs_two_values(self):
        with pytest.raises(DataError):
            zscore([4.0])


class TestNormalizeBirths:
    def test_per_day_rates_february_and_peak(self):
        # Jan count 310 -> rate 10/day; Feb count 282.5 -> rate 10/day
        entries = [(2010, 1, 310.0), (2010, 2, 282.5), (2010, 12, 620.0)]
        result = normalize_births(entries, shift_months=0)
        rates = {(y, m): r for y, m, r in result}
        assert rates[(2010, 12)] == 1.0           # peak 20/day
        assert rates[(2010, 1)] == 0.5
        assert rates[(2010, 2)] == 0.5

    def test_shift_wraps_into_previous_year_and_drops_head(self):
        entries = [(2010, 1, 100.0), (2010, 2, 90.0), (2010, 12, 120.0), (2011, 6, 120.0)]
        result = normalize_births(entries, shift_months=9)
        labels = [(y, m) for y, m, _ in result]
        # Jan/Feb 2010 shift to Apr/May 2009, before the data, so dropped;
        # Dec 2010 -> Mar 2010; Jun 2011 -> Sep 2010.
        assert labels == [(2010, 3), (2010, 9)]

    def test_year_peaks_are_per_original_year(self):
        entries = [(2010, 10, 310.0), (2010, 11, 150.0), (2011, 10, 620.0), (2011, 11, 300.0)]
        result = normalize_births(entries, shift_months=0)
        rates = {(y, m): r for y, m, r in result}
        assert rates[(2010, 10)] == 1.0
        assert rates[(2011, 10)] == 1.0
        assert rates[(2010, 11)] == pytest.approx(0.5, abs=1e-12)

    def test_rejects_bad_input(self):
        # months, counts and repeats are checked by io.read_births (tests/test_io.py)
        with pytest.raises(DataError):
            normalize_births([])
        with pytest.raises(DataError):
            normalize_births([(2010, 1, 1.0)], shift_months=12)
        with pytest.raises(DegenerateSeriesError):
            normalize_births([(2010, 1, 0.0)])
