"""File formats: round trips, validation locations, atomic writes."""

import datetime as dt
import os
import stat
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moodcycles import io
from moodcycles.errors import DataError
from moodcycles.io import (
    atomic_write,
    calendar_for,
    eid_calendar,
    expected_agreement,
    fmt,
    parse_timestamp,
    read_anchor_calendar,
    read_binned,
    read_births,
    read_keyed_values,
    read_lexicons,
    read_record_chunks,
    read_records,
    read_stoplist_lines,
    read_weekly_series,
    read_zscore_table,
    write_binned,
    write_table,
    write_weekly_series,
)
from moodcycles.timeseries import AnchorKind, WeeklySeries

UTC = dt.timezone.utc


class TestWeeklySeriesIO:
    def test_round_trip_is_exact(self, tmp_path):
        series = WeeklySeries(dt.date(2004, 1, 4), np.array([1.5, 0.1, 2.0 / 3.0]))
        path = tmp_path / "series.csv"
        assert write_weekly_series(path, series) == 3
        back = read_weekly_series(path)
        assert back.start_date == series.start_date
        assert np.array_equal(back.values, series.values)

    def test_gap_in_weeks_is_rejected_with_location(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("week_start,value\n2004-01-04,1.0\n2004-01-18,2.0\n")
        with pytest.raises(DataError) as err:
            read_weekly_series(path)
        assert "series.csv:3" in str(err.value)

    def test_header_must_match(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("date,value\n2004-01-04,1.0\n")
        with pytest.raises(DataError) as err:
            read_weekly_series(path)
        assert "expected header" in str(err.value)

    def test_bad_cells_point_at_their_line(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("week_start,value\n2004-01-04,1.0\n2004-01-11,abc\n")
        with pytest.raises(DataError) as err:
            read_weekly_series(path)
        assert "series.csv:3" in str(err.value) and "'abc'" in str(err.value)

    def test_empty_table_is_an_error(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("week_start,value\n")
        with pytest.raises(DataError):
            read_weekly_series(path)

    def test_invalid_utf8_points_at_its_line(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_bytes(b"week_start,value\n2004-01-04,1.0\n2004-01-11,\xff\n")
        with pytest.raises(DataError) as err:
            read_weekly_series(path)
        assert "series.csv:3" in str(err.value) and "0xff" in str(err.value)


class TestAtomicWrite:
    def test_failure_leaves_no_trace(self, tmp_path):
        target = tmp_path / "out.csv"
        with pytest.raises(RuntimeError):
            with atomic_write(target) as handle:
                handle.write("partial")
                raise RuntimeError("boom")
        assert not target.exists()
        assert os.listdir(tmp_path) == []

    def test_success_replaces_existing_content(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old")
        with atomic_write(target) as handle:
            handle.write("new")
        assert target.read_text() == "new"
        assert os.listdir(tmp_path) == ["out.csv"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"])
    def test_a_written_file_gets_the_mode_open_gives(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            with atomic_write(tmp_path / "new.csv") as handle:
                handle.write("a\n")
            write_table(tmp_path / "table.csv", ["a"], [[1.0]])
            with open(tmp_path / "plain.csv", "w") as handle:
                handle.write("a\n")
        finally:
            os.umask(old)
        assert {path.name: stat.S_IMODE(path.stat().st_mode) for path in tmp_path.iterdir()} == {
            "new.csv": mode, "table.csv": mode, "plain.csv": mode}


class TestCalendars:
    def test_bundled_lunar_calendar(self):
        cal = eid_calendar()
        assert cal.kind is AnchorKind.EID_AL_FITR
        assert len(cal.anchor_dates) == 10
        assert cal.anchor_dates[0] == dt.date(2004, 11, 14)
        assert cal.anchor_dates[-1] == dt.date(2013, 8, 8)

    def test_reader_filters_by_kind(self, tmp_path):
        path = tmp_path / "cal.csv"
        path.write_text(
            "kind,anchor_date\n"
            "christmas,2004-12-25\n"
            "june-solstice,2004-06-21\n"
            "christmas,2005-12-25\n"
        )
        cal = read_anchor_calendar(path, "christmas")
        assert [d.year for d in cal.anchor_dates] == [2004, 2005]
        with pytest.raises(DataError):
            read_anchor_calendar(path, AnchorKind.EID_AL_FITR)

    def test_unknown_kind_in_file(self, tmp_path):
        path = tmp_path / "cal.csv"
        path.write_text("kind,anchor_date\nhalloween,2004-10-31\n")
        with pytest.raises(DataError) as err:
            read_anchor_calendar(path, "christmas")
        assert "halloween" in str(err.value)

    def test_calendar_for_builds_solar_kinds(self):
        cal = calendar_for("christmas", range(2004, 2007))
        assert cal.anchor_dates == (
            dt.date(2004, 12, 25), dt.date(2005, 12, 25), dt.date(2006, 12, 25),
        )

    def test_calendar_for_accepts_an_eid_override(self, tmp_path):
        path = tmp_path / "eid.csv"
        path.write_text("kind,anchor_date\neid-al-fitr,2004-11-14\n")
        cal = calendar_for(AnchorKind.EID_AL_FITR, range(2004, 2014), eid_path=path)
        assert cal.anchor_dates == (dt.date(2004, 11, 14),)


class TestRecords:
    def test_malformed_lines_are_counted_not_fatal(self, tmp_path):
        path = tmp_path / "records.tsv"
        path.write_text(
            "2010-01-03T08:00:00Z\tUS\tgood morning\n"
            "not-a-timestamp\tUS\tbad stamp\n"
            "2010-01-03T09:00:00Z\tonly two fields\n"
            "\n"
            "2010-01-03T09:00:00Z\t\tno country\n"
            "2010-01-03T09:00:00Z\t \tblank country\n"
            "2010-01-03T10:00:00+01:00\tGB\tanother one\n"
        )
        records, malformed = read_records(path)
        assert malformed == 4
        assert len(records) == 2
        assert records[0][1] == "US" and records[0][2] == "good morning"
        # offset timestamps are converted to GMT
        assert records[1][0] == dt.datetime(2010, 1, 3, 9, 0, tzinfo=UTC)

    def test_timestamp_parsing(self):
        assert parse_timestamp("2010-06-01T12:00:00Z") == dt.datetime(2010, 6, 1, 12, tzinfo=UTC)
        assert parse_timestamp("2010-06-01T12:00:00") == dt.datetime(2010, 6, 1, 12, tzinfo=UTC)
        assert parse_timestamp("2010-06-01T12:00:00-05:00") == dt.datetime(2010, 6, 1, 17, tzinfo=UTC)
        assert parse_timestamp("yesterday") is None

    def test_timestamps_outside_the_gmt_calendar_are_none(self):
        assert parse_timestamp("9999-12-31T23:00:00-05:00") is None
        assert parse_timestamp("0001-01-01T00:30:00+01:00") is None
        assert parse_timestamp("9999-12-31T23:00:00+05:00") == dt.datetime(9999, 12, 31, 18, tzinfo=UTC)

    def test_undecodable_and_pre_calendar_lines_are_malformed(self, tmp_path):
        path = tmp_path / "records.tsv"
        path.write_bytes(
            b"2010-01-03T08:00:00Z\tUS\tgood\r"         # a lone CR ends a line
            b"2010-01-03T09:00:00Z\tUS\tba\xffd\r\n"
            b"0001-01-06T23:59:59Z\tUS\tsaturday before the first sunday\n"
            b"0001-01-07T00:00:00Z\tUS\tfirst sunday\n"
            b"2010-01-03T10:00:00Z\tDE\tgr\xc3\xbc\xc3\x9fe\n"
        )
        records, malformed = read_records(path)
        assert malformed == 2
        assert [text for _, _, text in records] == ["good", "first sunday", "grüße"]


# Stamps drawn for the chunk reader: offsets that move the GMT day across
# midnight, both Z cases, padding, days before the first Sunday week, and
# stamps that are not timestamps or leave the GMT calendar.
_CHUNK_STAMPS = st.one_of(
    st.builds(lambda day, time, zone, pad: f"{pad}2010-01-{day:02d}T{time}{zone}{pad}",
              st.integers(2, 9), st.sampled_from(["00:30:00", "12:00:00", "23:45:00"]),
              st.sampled_from(["", "Z", "z", "+05:30", "-08:00", "+14:00", "-12:00"]),
              st.sampled_from(["", " ", "  "])),
    st.sampled_from(["0001-01-06T23:59:59Z", "0001-01-07T00:30:00+01:00", "0001-01-07T00:00:00z",
                     "0001-01-01T00:30:00+01:00", "9999-12-31T23:00:00-05:00",
                     "9999-12-31T20:00:00+05:00", "2010-13-01T00:00:00Z", "nan", "", " "]),
)


_CHUNK_TEXTS = [b"joy", b"gr\xc3\xbc\xc3\x9fe", b"ba\xffd", b"", b"joy joy"]


@st.composite
def _chunk_lines(draw) -> bytes:
    """Records lines drawn from a pool of at most five, built from at most
    four stamps and three texts, so that whole lines, stamps alone and texts
    alone repeat within chunks and across their cuts, good or malformed
    (bad stamps, non-UTF-8 texts, wrong field counts) or empty. Each line
    ends with a newline, CRLF or a lone carriage return."""
    stamps = draw(st.lists(_CHUNK_STAMPS, min_size=1, max_size=4))
    texts = draw(st.lists(st.sampled_from(_CHUNK_TEXTS), min_size=1, max_size=3))
    field = st.tuples(st.sampled_from(stamps).map(str.encode), st.sampled_from([b"US", b" GB ", b""]),
                      st.sampled_from(texts))
    shape = st.sampled_from(["record", "record", "record", "two fields", "four fields", "empty"])
    lines = []
    for _ in range(draw(st.integers(1, 5))):
        (stamp, country, text), kind = draw(field), draw(shape)
        lines.append(b"\t".join({"record": [stamp, country, text], "two fields": [stamp, text],
                                 "four fields": [stamp, country, text, text], "empty": []}[kind]))
    ends = st.sampled_from([b"\n", b"\n", b"\r\n", b"\r"])
    return b"".join(draw(st.sampled_from(lines)) + draw(ends) for _ in range(draw(st.integers(0, 30))))


@settings(max_examples=300, deadline=None)
@given(content=_chunk_lines(), size=st.integers(1, 7))
def test_record_chunks_equal_read_records(content, size):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.tsv"
        path.write_bytes(content)
        records, malformed = read_records(path)
        chunks = list(read_record_chunks(path, size))
        with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
            lines = [line.rstrip("\n").rstrip("\r") for line in fh]
    # each block covers size lines, records, malformed and empty lines alike;
    # the last is shorter, and an empty file has none
    blocks = [[io._record(line) for line in lines[i:i + size] if line]
              for i in range(0, len(lines), size)]
    assert [(len(row), bad) for _, _, _, row, bad in chunks] == [
        (sum(r is not None for r in block), sum(r is None for r in block)) for block in blocks]
    assert [day for days, _, _, row, _ in chunks for day in days[row].tolist()] == [
        stamp.toordinal() for stamp, _, _ in records]
    assert [countries[r] for _, countries, _, row, _ in chunks for r in row] == [c for _, c, _ in records]
    assert [texts[r] for _, _, texts, row, _ in chunks for r in row] == [t for _, _, t in records]
    assert sum(bad for _, _, _, _, bad in chunks) == malformed
    for days, countries, texts, row, _ in chunks:
        # every distinct line is some record's, and rows are numbered first seen first
        assert len(days) == len(countries) == len(texts)
        assert list(dict.fromkeys(row.tolist())) == list(range(len(texts)))


def test_record_chunks_parse_each_distinct_line_once(tmp_path):
    # lines repeat whole, by stamp alone and by text alone; CRLF and LF
    # spell two raw lines; a repeated malformed line counts every time
    lines = [b"2010-01-03T08:00:00Z\tUS\tjoy\n", b"2010-01-03T08:00:00Z\tUS\tjoy\r\n",
             b"2010-01-03T08:00:00Z\tGB\tjoy\n", b"2010-01-04T08:00:00Z\tUS\tjoy\n",
             b"not-a-stamp\tUS\tjoy\n", b"2010-01-03T08:00:00Z\tUS\tba\xffd\n", b"\n"]
    pattern = [0, 1, 0, 4, 2, 0, 4, 3, 5, 6, 0, 5, 1, 6, 0]
    path = tmp_path / "records.tsv"
    path.write_bytes(b"".join(lines[i] for i in pattern))
    with mock.patch.object(io, "_records", wraps=io._records) as parse:
        chunks = list(read_record_chunks(path, 100))
    # every distinct raw line once, first seen first
    assert [line for call in parse.call_args_list for line in call.args[0]] == [
        lines[i].decode("utf-8", "surrogateescape") for i in dict.fromkeys(pattern)]
    ((days, countries, texts, row, bad),) = chunks
    assert bad == 4
    assert len(texts) == 4 and row.tolist() == [0, 1, 0, 2, 0, 3, 0, 1, 0]
    assert [texts[r] for r in row] == [t for _, _, t in read_records(path)[0]]


def test_record_chunks_hold_few_distinct_malformed_stamps(tmp_path):
    # Twitter's created_at format fails to parse and every stamp is
    # distinct, so the line memo gets no hit; it holds one block's lines
    def peak(n):
        path = tmp_path / f"{n}.tsv"
        path.write_text("".join(f"Wed Oct 10 20:{i // 60 % 60:02d}:{i % 60:02d} +0000 {2000 + i // 3600}"
                                "\tUS\tjoy\n" for i in range(n)))
        tracemalloc.start()
        try:
            blocks = Counter((len(row), bad) for _, _, _, row, bad in read_record_chunks(path, 10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert blocks == {(0, 10): n // 10}
        return peak

    peak(2_000)  # first-call allocations (caches, lazily built helpers) stay out of the bound
    assert peak(20_000) < 2 * peak(2_000)


# The stamp grammar, pinned by value: each stamp's GMT day, or None where
# its line is malformed. Century leap days, hour and offset 24, separators
# other than "T", padding, offsets that cross GMT midnight and the ends of
# the calendar, and the first-Sunday rule.
_STAMP_DAYS = [
    ("2010-01-03T10:00:00Z", dt.date(2010, 1, 3)),
    ("2010-01-03T10:00:00z", dt.date(2010, 1, 3)),
    ("2010-01-03T10:00:00", dt.date(2010, 1, 3)),
    ("2010-01-03t10:00:00", dt.date(2010, 1, 3)),
    ("2010-01-03 10:00:00+00:00", dt.date(2010, 1, 3)),
    ("  2010-01-03T10:00:00Z ", dt.date(2010, 1, 3)),
    ("2010-01-03", dt.date(2010, 1, 3)),
    ("2010-01-03T10:00:00x", None),
    ("2010-01-03T00:30:00+01:00", dt.date(2010, 1, 2)),
    ("2010-01-03T23:45:00-08:00", dt.date(2010, 1, 4)),
    ("2000-02-29T23:59:59-23:59", dt.date(2000, 3, 1)),
    ("2010-01-03T24:00:00Z", None),
    ("2010-01-03T10:00:00+24:00", None),
    ("2010-01-03T10:00:00-24:00", None),
    ("2010-01-03T10:60:00Z", None),
    ("1900-02-29T12:00:00Z", None),
    ("2100-02-29T00:00:00", None),
    ("2000-02-29T12:00:00Z", dt.date(2000, 2, 29)),
    ("2400-02-29T00:00:00z", dt.date(2400, 2, 29)),
    ("2010-04-31T00:00:00Z", None),
    ("2010-13-01T00:00:00Z", None),
    ("0000-01-01T00:00:00Z", None),
    ("0001-01-01T00:30:00+01:00", None),
    ("0001-01-06T23:59:59Z", None),
    ("0001-01-07T00:00:00Z", dt.date(1, 1, 7)),
    ("0001-01-07T00:00:00+23:59", None),
    ("9999-12-31T20:00:00+05:00", dt.date(9999, 12, 31)),
    ("9999-12-31T23:00:00-05:00", None),
    ("yesterday", None),
    ("", None),
]


@pytest.mark.parametrize("stamp, day", _STAMP_DAYS)
def test_both_readers_give_a_stamp_its_gmt_day(tmp_path, stamp, day):
    path = tmp_path / "records.tsv"
    path.write_text(f"{stamp}\tUS\tjoy\n")
    records, malformed = read_records(path)
    ((days, _, _, row, bad),) = read_record_chunks(path, 8)
    expected = [] if day is None else [day.toordinal()]
    assert [gmt.toordinal() for gmt, _, _ in records] == expected and malformed == (day is None)
    assert days[row].tolist() == expected and bad == (day is None)


def test_basic_format_stamps_need_python_3_11():
    # datetime.fromisoformat reads basic format, week dates and short or
    # comma fractions from Python 3.11 on; 3.10 refuses them
    assert (parse_timestamp("20111104T000523Z") is None) == (sys.version_info < (3, 11))
    assert (parse_timestamp("2011-W44-5") is None) == (sys.version_info < (3, 11))


class TestBinnedIO:
    def rows(self):
        return [
            (dt.date(2010, 1, 3), "valence", 4, np.array([0.25, 0.5, 0.25])),
            (dt.date(2010, 1, 10), "valence", 2, np.array([0.5, 0.0, 0.5])),
            (dt.date(2010, 1, 3), "arousal", 4, np.array([0.0, 1.0, 0.0])),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "binned.tsv"
        assert write_binned(path, self.rows(), n_bins=3) == 3
        back = read_binned(path)
        weeks, ns, probs = back["valence"]
        assert weeks == [dt.date(2010, 1, 3), dt.date(2010, 1, 10)]
        assert ns == [4, 2]
        assert np.array_equal(probs, np.array([[0.25, 0.5, 0.25], [0.5, 0.0, 0.5]]))
        assert "arousal" in back

    def test_bin_count_mismatch_on_write(self, tmp_path):
        with pytest.raises(DataError):
            write_binned(tmp_path / "b.tsv", self.rows(), n_bins=4)

    def test_weeks_must_increase_per_dimension(self, tmp_path):
        path = tmp_path / "b.tsv"
        write_binned(path, self.rows()[:2][::-1], n_bins=3)
        with pytest.raises(DataError) as err:
            read_binned(path)
        assert "out of order" in str(err.value)

    def test_header_validation(self, tmp_path):
        path = tmp_path / "b.tsv"
        path.write_text("week_start\tdim\tn\tp01\tq02\n")
        with pytest.raises(DataError):
            read_binned(path)

    @pytest.mark.parametrize("probs, problem, n", [
        ("0.5\t-0.25\t0.75", "bin probabilities must be finite and non-negative", 4),
        ("0.5\t0.25\t0.5", "every week's bin probabilities must sum to 1", 4),
        ("0.5\t0.25\t0.25", "n must be at least 1, got 0", 0),
        ("0.5\t0.25\t0.25", "n must be at least 1, got -1", -1),
    ])
    def test_a_row_that_is_not_a_distribution_names_its_line(self, tmp_path, probs, problem, n):
        path = tmp_path / "b.tsv"
        write_binned(path, self.rows(), n_bins=3)
        with open(path, "a") as fh:
            fh.write(f"2010-01-10\tarousal\t{n}\t{probs}\n")
        with pytest.raises(DataError) as err:
            read_binned(path)
        assert str(err.value) == f"{path}:5: {problem}"


class TestLexiconIO:
    def write(self, tmp_path, body):
        path = tmp_path / "lexicon.csv"
        path.write_text("language,word,valence,arousal,dominance\n" + body)
        return path

    def test_grouping_and_lowercasing(self, tmp_path):
        path = self.write(
            tmp_path,
            "english,Laughter,8.5,6.7,7.2\n"
            "english,gloom,2.3,3.8,3.3\n"
            "spanish,sol,7.9,5.0,5.5\n",
        )
        tables = read_lexicons(path)
        assert set(tables) == {"english", "spanish"}
        assert tables["english"]["laughter"] == (8.5, 6.7, 7.2)

    def test_duplicate_words_rejected(self, tmp_path):
        path = self.write(tmp_path, "english,word,5.0,5.0,5.0\nenglish,word,6.0,5.0,5.0\n")
        with pytest.raises(DataError) as err:
            read_lexicons(path)
        assert "duplicate" in str(err.value)

    def test_score_range_enforced(self, tmp_path):
        path = self.write(tmp_path, "english,word,9.5,5.0,5.0\n")
        with pytest.raises(DataError):
            read_lexicons(path)

    def test_stoplist_reads_custom_file(self, tmp_path):
        path = tmp_path / "phrases.txt"
        path.write_text("merry christmas\n\n  happy new year  \n")
        assert read_stoplist_lines(path) == ["merry christmas", "happy new year"]

    def test_bundled_stoplist_is_large(self):
        lines = read_stoplist_lines()
        assert len(lines) > 400
        assert "merry christmas" in lines


class TestFlatTables:
    def test_floats_round_trip_through_repr(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["k", "v"], [["a", 0.1], ["b", 2.0 / 3.0], ["c", 7]])
        text = path.read_text()
        assert "0.1" in text and fmt(2.0 / 3.0) in text and ",7" in text
        back = read_keyed_values(path)
        assert back["a"] == 0.1 and back["b"] == 2.0 / 3.0 and back["c"] == 7.0

    def test_duplicate_keys_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("k,v\na,1.0\na,2.0\n")
        with pytest.raises(DataError) as err:
            read_keyed_values(path)
        assert "duplicate" in str(err.value)

    @pytest.mark.parametrize("content", ["k,v,extra\na,1.0,2.0\n", "k\na\n", ""])
    def test_a_keyed_file_has_exactly_two_columns(self, tmp_path, content):
        path = tmp_path / "t.csv"
        path.write_text(content)
        with pytest.raises(DataError) as err:
            read_keyed_values(path)
        assert str(err.value) == f"{path}: expected a two-column CSV with a header"

    def test_missing_file_is_a_data_error(self, tmp_path):
        with pytest.raises(DataError):
            read_keyed_values(tmp_path / "absent.csv")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cells_point_at_their_line(self, tmp_path, cell):
        # a NaN z-score once went through classification (AE came out Muslim)
        path = tmp_path / "z.csv"
        path.write_text("code,name,identification,hemisphere,z_christmas,z_eid,z_june,z_dec\n"
                        f"AE,United Arab Emirates,Muslim,North,{cell},3.023,0.179,1.313\n")
        with pytest.raises(DataError) as err:
            read_zscore_table(path)
        assert "z.csv:2" in str(err.value) and repr(cell) in str(err.value)


class TestBirths:
    @pytest.mark.parametrize("row, message", [
        ("US,2010,13,1", "month 13 outside 1-12"),
        ("US,2010,0,1", "month 0 outside 1-12"),
        ("US,2010,2,-1", "negative birth count -1.0"),
        ("US,2010,1,2", "duplicate entry for US 2010-01 (first on line 2)"),
    ])
    def test_bad_rows_point_at_their_line(self, tmp_path, row, message):
        path = tmp_path / "b.csv"
        path.write_text(f"country,year,month,count\nUS,2010,1,1\nGB,2010,1,1\n{row}\n")
        with pytest.raises(DataError) as err:
            read_births(path)
        assert str(err.value) == f"{path}:4: {message}"


class TestExpectedAgreement:
    def test_bundled_table(self):
        table = expected_agreement()
        assert table[("identification", "Christian", "christmas")] == 80

    @pytest.mark.parametrize("row, message", [
        ("identification,Christian,christmas,eighty", "bad integer 'eighty'"),
        ("identification,Christian,christmas", "expected 4 fields, got 3"),
    ])
    def test_bad_rows_point_at_their_line(self, tmp_path, row, message):
        path = tmp_path / "expected.csv"
        path.write_text(f"group_kind,group,anchor,pct\nhemisphere,South,christmas,95\n{row}\n")
        with pytest.raises(DataError) as err:
            expected_agreement(path)
        assert "expected.csv:3" in str(err.value) and message in str(err.value)


# Every typed reader, with its header and some well-formed cells per column.
_DATES = ["2004-01-04", "2004-01-11", "2004-01-18", "9999-12-26", "9999-12-31"]
_NUMBERS = ["1.0", "0.5", "-1", "-0.5", "9.5"]
_TYPED_READERS = {
    "read_weekly_series": (read_weekly_series, "week_start,value", [_DATES, _NUMBERS]),
    "read_anchor_calendar": (lambda path: read_anchor_calendar(path, "christmas"),
                             "kind,anchor_date",
                             [["christmas", "eid-al-fitr"], ["2004-12-25", "2005-12-25"]]),
    "read_births": (read_births, "country,year,month,count",
                    [["US", "GB"], ["2004", "2005"], ["1", "12"], _NUMBERS]),
    "read_zscore_table": (read_zscore_table,
                          "code,name,identification,hemisphere,z_christmas,z_eid,z_june,z_dec",
                          [["US", "GB"], ["Name"], ["Christian"], ["North"]] + [_NUMBERS] * 4),
    "expected_agreement": (expected_agreement, "group_kind,group,anchor,pct",
                           [["identification"], ["Christian"], ["christmas"], ["80", "6"]]),
    "read_lexicons": (read_lexicons, "language,word,valence,arousal,dominance",
                      [["english"], ["word", "Word"]] + [_NUMBERS] * 3),
    "read_binned": (read_binned, "week_start\tdim\tn\tp01\tp02",
                    [_DATES, ["valence"], ["4", "-2"], ["0.5", "0.25"], ["0.5", "0.75"]]),
    "read_keyed_values": (read_keyed_values, "key,value", [["a", "b"], _NUMBERS]),
}

_ODD_CELLS = st.one_of(
    st.sampled_from(["", " ", '"', 'a"b', "\x00", "nan", "inf", "-Infinity", "p01", "1e999"]),
    st.text(max_size=4),
)


@st.composite
def _table_bytes(draw, header: str, columns: list[list[str]]) -> bytes:
    """A table near a reader's format: its header or not, short and long rows,
    odd cells, and a few arbitrary bytes spliced in anywhere."""
    sep = "\t" if "\t" in header else ","
    lines = [draw(st.one_of(st.just(header), st.text(max_size=12)))]
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            lines.append(sep.join(draw(st.sampled_from(good)) for good in columns))
            continue
        row = [draw(st.sampled_from(good) | _ODD_CELLS) for good in columns]
        change = draw(st.sampled_from([0, -1, 1]))
        if change < 0:
            row.pop()
        elif change > 0:
            row.append(draw(_ODD_CELLS))
        lines.append(sep.join(row))
    data = "\n".join(lines).encode("utf-8")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=3)) + data[at:]
    return data


@pytest.mark.parametrize("name", sorted(_TYPED_READERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_typed_readers_return_or_raise_a_data_error_naming_the_file(name, data):
    reader, header, columns = _TYPED_READERS[name]
    content = data.draw(_table_bytes(header, columns))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_bytes(content)
        try:
            reader(path)
        except DataError as exc:
            assert str(path) in str(exc)


@pytest.mark.parametrize("name, body, message", [
    ("read_weekly_series", "2004-01-04,-1\n", ""),                  # the series rejects it
    ("read_weekly_series", "9999-12-26,1\n9999-12-31,1\n", ""),    # no week after 9999-12-26
    *[(name, "\n", ": no data rows") for name in sorted(_TYPED_READERS)],
    ("read_anchor_calendar", "christmas,2004-12-25\nchristmas, 2004-12-25\n",
     ":3: duplicate anchor date 2004-12-25 for 'christmas' (first on line 2)"),
    ("read_births", "US,2010,1,1\nGB,2010,1,1\nUS,2010,01,2\n",
     ":4: duplicate entry for US 2010-01 (first on line 2)"),
    ("read_zscore_table", "AE,A,Muslim,North,1,1,1,1\nUS,U,Christian,North,1,1,1,1\n"
     "AE,B,Muslim,North,2,2,2,2\n", ":4: duplicate country code 'AE' (first on line 2)"),
    ("expected_agreement", "identification,Christian,christmas,80\n"
     "identification,Christian,christmas,81\n",
     ":3: duplicate cell identification Christian christmas (first on line 2)"),
    ("read_lexicons", "english,Word,5,5,5\nspanish,word,5,5,5\nenglish,word ,6,5,5\n",
     ":4: duplicate word 'word' for 'english' (first on line 2)"),
    ("read_keyed_values", "a,1\nb,2\na ,3\n", ":4: duplicate key 'a' (first on line 2)"),
])
def test_whole_table_errors_name_the_file(tmp_path, name, body, message):
    reader, header, _ = _TYPED_READERS[name]
    path = tmp_path / "table.csv"
    path.write_text(f"{header}\n{body}")
    with pytest.raises(DataError) as err:
        reader(path)
    assert str(err.value).startswith(f"{path}{message}")
