"""Synthetic data generator: determinism and documented structure."""

import datetime as dt
import json

import numpy as np
import pytest

from moodcycles.errors import DataError
from moodcycles.io import read_records, read_weekly_series
from moodcycles.sentiment import tokenize
from moodcycles.synth import SynthSpec, generate_synthetic, mixture, vocabulary


SMALL = SynthSpec(n_years=1, weeks_per_year=8, holiday_weeks=(2, 5), records_per_week=50)


class TestSpec:
    def test_defaults_describe_three_years(self):
        spec = SynthSpec()
        assert spec.n_weeks == 156
        assert len(spec.holiday_rows()) == 12
        assert spec.holiday_rows()[:5] == [4, 17, 30, 43, 56]
        starts = spec.holiday_week_starts()
        assert starts[0] == dt.date(2011, 1, 2) + dt.timedelta(weeks=4)
        assert all(d.weekday() == 6 for d in starts)

    def test_validation(self):
        with pytest.raises(DataError):
            SynthSpec(start=dt.date(2011, 1, 3))  # a Monday
        with pytest.raises(DataError):
            SynthSpec(holiday_weeks=(52,))
        with pytest.raises(DataError):
            SynthSpec(records_per_week=3)

    def test_the_grid_ends_by_9999_and_a_week_holds_at_most_a_million_records(self):
        # only the specs are built: generating either grid would take hours
        last = SynthSpec(n_years=8016)
        assert last.start + dt.timedelta(weeks=last.n_weeks - 1, days=6) <= dt.date.max
        with pytest.raises(DataError, match="9999-12-31"):
            SynthSpec(n_years=8017)
        SynthSpec(records_per_week=1_000_000)
        with pytest.raises(DataError, match="records per week"):
            SynthSpec(records_per_week=1_000_001)

    def test_vocabulary_is_tokenizable_and_bin_centered(self):
        rows = vocabulary(SynthSpec())
        assert len(rows) == 25
        for i, (word, v, a, d) in enumerate(rows):
            assert tokenize(word) == [word]  # survives the letters-only tokenizer
            assert v == pytest.approx(1.0 + 8.0 * (i + 0.5) / 25.0, abs=1e-12)
            assert (a, d) == (5.0, 5.0)
        assert len({w for w, *_ in rows}) == 25

    def test_mixture_shifts_toward_higher_valence_on_holidays(self):
        spec = SynthSpec()
        base, shifted = mixture(spec, False), mixture(spec, True)
        assert base.sum() == pytest.approx(1.0, abs=1e-12)
        assert shifted.sum() == pytest.approx(1.0, abs=1e-12)
        values = np.array([v for _, v, _, _ in vocabulary(spec)])
        assert values @ shifted > values @ base


class TestGenerate:
    def test_same_seed_is_byte_identical(self, tmp_path):
        generate_synthetic(tmp_path / "a", SMALL)
        generate_synthetic(tmp_path / "b", SMALL)
        for name in ("records.tsv", "lexicon.csv", "search.csv", "gen_spec.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        generate_synthetic(tmp_path / "a", SMALL)
        generate_synthetic(tmp_path / "b", SynthSpec(
            seed=43, n_years=1, weeks_per_year=8, holiday_weeks=(2, 5), records_per_week=50,
        ))
        assert (tmp_path / "a" / "records.tsv").read_bytes() != (tmp_path / "b" / "records.tsv").read_bytes()

    def test_records_fill_every_week_evenly(self, tmp_path):
        summary = generate_synthetic(tmp_path, SMALL)
        records, malformed = read_records(summary["records"])
        assert malformed == 0
        assert len(records) == 8 * 50 == summary["n_records"]
        per_day = {}
        for ts, country, text in records:
            assert country == "ZZ"
            per_day[ts.date()] = per_day.get(ts.date(), 0) + 1
        # 50 records over 7 days: every day carries 7 or 8
        assert set(per_day.values()) <= {7, 8}
        days = sorted(per_day)
        assert days[0] == SMALL.start
        assert days[-1] == SMALL.start + dt.timedelta(weeks=7, days=6)

    def test_search_series_spikes_on_holiday_rows(self, tmp_path):
        summary = generate_synthetic(tmp_path, SMALL)
        series = read_weekly_series(summary["search"])
        assert len(series) == 8
        holidays = set(SMALL.holiday_rows())
        spiked = {i for i in range(8) if series.values[i] >= SMALL.search_spike}
        assert spiked == holidays

    def test_gen_spec_documents_the_run(self, tmp_path):
        summary = generate_synthetic(tmp_path, SMALL)
        meta = json.loads((tmp_path / "gen_spec.json").read_text())
        assert meta["seed"] == SMALL.seed
        assert meta["n_records"] == summary["n_records"]
        assert meta["holiday_week_starts"] == [d.isoformat() for d in SMALL.holiday_week_starts()]
        assert len(meta["mixture_baseline"]) == 25
