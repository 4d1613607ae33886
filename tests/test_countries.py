"""Country classification and cohort agreement."""

import datetime as dt

import numpy as np
import pytest

from moodcycles.countries import (
    HolidayResponse,
    build_profiles,
    classify,
    cohort_agreement,
    compare_search_terms,
)
from moodcycles.errors import DataError
from moodcycles.io import read_zscore_table
from moodcycles.timeseries import WeeklySeries


def response(christmas=0.0, eid=0.0, june=0.0, dec=0.0) -> HolidayResponse:
    return HolidayResponse(z_christmas=christmas, z_eid=eid, z_june=june, z_dec=dec)


class TestClassify:
    def test_threshold_is_strict(self):
        assert classify(response(christmas=1.0)).label == "Other"
        assert classify(response(christmas=1.0 + 1e-9)).label == "Christian"
        assert classify(response(eid=1.5)).label == "Muslim"

    def test_higher_z_wins_when_both_exceed(self):
        c = classify(response(christmas=2.0, eid=3.0))
        assert c.label == "Muslim"
        assert set(c.basis) == {"christmas", "eid-al-fitr"}
        assert not c.tie_resolved

    def test_exact_tie_resolves_to_christian_and_is_flagged(self):
        c = classify(response(christmas=2.5, eid=2.5))
        assert c.label == "Christian"
        assert c.tie_resolved

    def test_solstice_scores_never_classify(self):
        assert classify(response(june=9.0, dec=9.0)).label == "Other"


class TestCohortAgreement:
    def test_rounding_is_half_up(self):
        rows = read_zscore_table()
        profiles = build_profiles(rows)
        ag = {
            (r["group_kind"], r["group"], r["anchor"]): r
            for r in cohort_agreement(profiles)
        }
        cell = ag[("identification", "Muslim", "eid-al-fitr")]
        # 23/30 = 76.66..%, rounds to 77
        assert cell["n_above"] == 23 and cell["n_group"] == 30
        assert cell["pct"] == 77
        cell = ag[("identification", "Christian", "christmas")]
        assert (cell["n_above"], cell["n_group"], cell["pct"]) == (64, 80, 80)

    def test_groups_cover_identifications_and_hemispheres(self):
        rows = read_zscore_table()
        ag = cohort_agreement(build_profiles(rows))
        kinds = {(r["group_kind"], r["group"]) for r in ag}
        assert ("identification", "Christian") in kinds
        assert ("identification", "Muslim") in kinds
        assert ("identification", "Other") in kinds
        assert ("hemisphere", "North") in kinds
        assert ("hemisphere", "South") in kinds


class TestCompareSearchTerms:
    def series(self, start: str, values):
        return WeeklySeries(dt.date.fromisoformat(start), np.asarray(values, dtype=float))

    def test_identity_pair_is_exactly_one_one(self):
        s = self.series("2004-01-04", [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
        ratio, r = compare_search_terms(s, s)
        assert ratio == 1.0
        assert r == 1.0

    def test_overlap_alignment_by_calendar_week(self):
        a = self.series("2004-01-04", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        # b starts two weeks later; overlap is a[2:10] vs b[0:8]
        b = self.series("2004-01-18", [2, 4, 6, 8, 10, 12, 14, 16])
        ratio, r = compare_search_terms(a, b)
        assert ratio == pytest.approx(sum(range(3, 11)) / sum(range(2, 17, 2)), abs=1e-15)
        assert r == pytest.approx(1.0, abs=1e-12)

    def test_misaligned_grids_are_rejected(self):
        a = self.series("2004-01-04", [1] * 9)
        b = self.series("2004-01-05", [1] * 9)
        with pytest.raises(DataError):
            compare_search_terms(a, b)

    def test_short_overlap_is_rejected(self):
        a = self.series("2004-01-04", [1] * 8)
        b = self.series("2004-02-29", [1] * 8)
        with pytest.raises(DataError):
            compare_search_terms(a, b)

    def test_zero_reference_is_rejected(self):
        a = self.series("2004-01-04", [1] * 8)
        b = self.series("2004-01-04", [0] * 8)
        with pytest.raises(DataError):
            compare_search_terms(a, b)
