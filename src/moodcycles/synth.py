"""Deterministic synthetic data for end-to-end pipeline checks.

The generator emits single-word text records whose scores follow a known
weekly mixture: a discretized Gaussian over a 25-word valence vocabulary,
shifted upward on designated holiday weeks. Arousal and dominance are held
constant so only valence carries structure. A companion weekly search series
spikes on the same holiday weeks. Everything derives from one seed, so two
runs produce byte-identical files and tests can reason about the mixture
analytically (documented in gen_spec.json alongside the data).
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, asdict

import numpy as np

from .errors import DataError
from .io import atomic_write, fmt, write_json, write_weekly_series
from .timeseries import WeeklySeries

_WORD_GRID = 25  # one word per score bin
_MAX_RECORDS_PER_WEEK = 1_000_000  # a week's word arrays then take about 16 MB


@dataclass(frozen=True)
class SynthSpec:
    """Generator parameters; defaults match the end-to-end acceptance run."""

    seed: int = 42
    country: str = "ZZ"
    start: dt.date = dt.date(2011, 1, 2)        # a Sunday
    n_years: int = 3
    weeks_per_year: int = 52
    holiday_weeks: tuple[int, ...] = (4, 17, 30, 43)   # 0-based within a year
    records_per_week: int = 400
    baseline_valence: float = 5.0
    holiday_shift: float = 1.0
    mixture_sigma: float = 1.2
    constant_arousal: float = 5.0
    constant_dominance: float = 5.0
    search_base: float = 20.0
    search_spike: float = 100.0

    def __post_init__(self):
        if self.start.weekday() != 6:
            raise DataError("synthetic grid must start on a Sunday")
        if self.n_years < 1 or self.weeks_per_year < 1 or self.records_per_week < 7:
            raise DataError("synthetic spec is too small to be useful")
        if self.start.toordinal() + 7 * self.n_weeks - 1 > dt.date.max.toordinal():
            raise DataError("synthetic grid would run past 9999-12-31")
        if self.records_per_week > _MAX_RECORDS_PER_WEEK:
            raise DataError(f"at most {_MAX_RECORDS_PER_WEEK} records per week")
        if any(not 0 <= w < self.weeks_per_year for w in self.holiday_weeks):
            raise DataError("holiday weeks must fall inside the year")

    @property
    def n_weeks(self) -> int:
        return self.n_years * self.weeks_per_year

    def holiday_rows(self) -> list[int]:
        return [
            y * self.weeks_per_year + w
            for y in range(self.n_years)
            for w in self.holiday_weeks
        ]

    def holiday_week_starts(self) -> list[dt.date]:
        return [self.start + dt.timedelta(weeks=r) for r in self.holiday_rows()]


def _word(i: int) -> str:
    # letters only: the tokenizer splits on digits
    return "syn" + chr(ord("a") + i // 26) + chr(ord("a") + i % 26)


def vocabulary(spec: SynthSpec) -> list[tuple[str, float, float, float]]:
    """(word, valence, arousal, dominance) rows; valences sit at bin centers."""
    rows = []
    for i in range(_WORD_GRID):
        v = 1.0 + 8.0 * (i + 0.5) / _WORD_GRID
        rows.append((_word(i), v, spec.constant_arousal, spec.constant_dominance))
    return rows


def mixture(spec: SynthSpec, holiday: bool) -> np.ndarray:
    """Word-choice probabilities: discretized Gaussian over valence centers."""
    center = spec.baseline_valence + (spec.holiday_shift if holiday else 0.0)
    values = np.array([v for _, v, _, _ in vocabulary(spec)])
    weights = np.exp(-0.5 * ((values - center) / spec.mixture_sigma) ** 2)
    return weights / weights.sum()


def generate_synthetic(out_dir, spec: SynthSpec | None = None) -> dict:
    """Write records.tsv, lexicon.csv, search.csv, gen_spec.json.

    Returns a summary dict (paths and row counts). Record texts are single
    vocabulary words, so each record's score is exactly its word's entry.
    """
    from pathlib import Path

    spec = spec or SynthSpec()
    out = Path(out_dir)
    rng = np.random.default_rng(spec.seed)
    holiday_rows = set(spec.holiday_rows())

    p_base = mixture(spec, holiday=False)
    p_holiday = mixture(spec, holiday=True)

    # records.tsv and lexicon.csv are written by hand, not by write_table:
    # the records loop is the generator's hot path, and the lexicon has LF
    # line ends where the csv module writes CRLF
    records_path = out / "records.tsv"
    n_records = 0
    with atomic_write(records_path) as fh:
        for row in range(spec.n_weeks):
            week_start = spec.start + dt.timedelta(weeks=row)
            p = p_holiday if row in holiday_rows else p_base
            counts = rng.multinomial(spec.records_per_week, p)
            words = np.repeat(np.arange(_WORD_GRID), counts)
            words = rng.permutation(words)
            # round-robin across the week's 7 days keeps day weights even
            for j, word_idx in enumerate(words):
                day = week_start + dt.timedelta(days=int(j % 7))
                fh.write(f"{day.isoformat()}T12:00:00Z\t{spec.country}\t{_word(int(word_idx))}\n")
                n_records += 1

    lexicon_path = out / "lexicon.csv"
    with atomic_write(lexicon_path) as fh:
        fh.write("language,word,valence,arousal,dominance\n")
        for word, v, a, d in vocabulary(spec):
            fh.write(f"synthetic,{word},{fmt(v)},{fmt(a)},{fmt(d)}\n")

    search_values = rng.poisson(lam=spec.search_base, size=spec.n_weeks).astype(float)
    for row in holiday_rows:
        search_values[row] += spec.search_spike
    search_path = out / "search.csv"
    write_weekly_series(search_path, WeeklySeries(start_date=spec.start, values=search_values))

    meta = asdict(spec)
    meta["start"] = spec.start.isoformat()
    meta["holiday_weeks"] = list(spec.holiday_weeks)
    meta["holiday_week_starts"] = [d.isoformat() for d in spec.holiday_week_starts()]
    meta["n_records"] = n_records
    meta["mixture_baseline"] = [fmt(p) for p in p_base]
    meta["mixture_holiday"] = [fmt(p) for p in p_holiday]
    spec_path = out / "gen_spec.json"
    write_json(spec_path, meta)

    return {
        "records": str(records_path),
        "lexicon": str(lexicon_path),
        "search": str(search_path),
        "gen_spec": str(spec_path),
        "n_records": n_records,
        "n_weeks": spec.n_weeks,
    }
