"""File formats: readers and writers for every on-disk interface.

All text files are UTF-8. Every output table is written by ``write_table``
and every JSON artifact by ``write_json``, atomically (temp file + rename)
and with repr floats and sorted keys, so identical inputs always produce
byte-identical artifacts. Readers validate hard (a malformed file is a data
error naming the file and line), with one exception: text-record TSVs skip
and count malformed lines instead of failing, since raw social-media dumps
are never clean.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
import os
from collections.abc import Iterable
from contextlib import contextmanager
from importlib.resources import files as _package_files
from io import StringIO
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import DataError, MoodcyclesError
from .timeseries import AnchorCalendar, AnchorKind, AveragedYear, CenteredYear, WeeklySeries


def _fixture(name: str):
    return _package_files("moodcycles").joinpath("fixtures", name)


def fmt(value: float) -> str:
    """Stable, round-trippable float formatting for output files."""
    return repr(float(value))


_O_BINARY = getattr(os, "O_BINARY", 0)  # no newline translation where the OS has it


def _create_temp(path: Path) -> tuple[int, Path]:
    """A new, empty hidden file beside ``path``, opened for writing, with
    the mode ``open()`` gives a new file: 0o666 less the umask."""
    while True:
        tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
        try:
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | _O_BINARY, 0o666), tmp
        except FileExistsError:
            continue


@contextmanager
def atomic_write(path: str | Path):
    """Write to a temp file in the target directory, rename on success."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = _create_temp(path)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@contextmanager
def naming(path):
    """Prefix ``path`` to the message of a package error raised inside."""
    try:
        yield
    except MoodcyclesError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _parse_date(text: str) -> dt.date:
    try:
        return dt.date.fromisoformat(text.strip())
    except ValueError:
        raise ValueError(f"bad date {text!r}") from None


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"bad number {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad integer {text!r}") from None


def read_text(path: str | Path) -> str:
    """A UTF-8 file's text; an unreadable or undecodable file is a DataError."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}:{line}: not UTF-8 (byte {data[exc.start]:#04x})") from exc


def _rows(path, columns, delimiter: str = ",", key: tuple[int, str] | None = None):
    """Yield ``(where, values)`` for each non-blank data row of a UTF-8
    table, its cells parsed; ``where`` is ``file:line`` for the reader's own
    row rules.

    ``columns`` maps each header name, in order, to the parser of its cells;
    or, for a header that varies, it is a function that checks the header row
    (``[]`` for an empty file), raising ValueError with the reason, and
    returns the parsers. A parser takes a cell's text and raises ValueError
    with the reason. With ``key = (n, what)``, a row's first ``n`` values are
    its key, and a repeated key is ``duplicate <what> (first on line N)``,
    ``what`` formatted with the row's values. An unreadable file, bad UTF-8,
    CSV syntax, a bad header, a wrong field count, a bad cell, a repeated key
    and a table with no data row are DataErrors.
    """
    reader = csv.reader(StringIO(read_text(path), newline=""), delimiter=delimiter)
    first_line: dict[tuple, int] = {}
    n_rows = 0
    try:
        head = next(reader, [])
        if callable(columns):
            try:
                parsers = columns(head)
            except ValueError as exc:
                raise DataError(f"{path}: {exc}") from None
        elif head != list(columns):
            raise DataError(
                f"{path}: expected header {','.join(columns)!r}, got "
                f"{','.join(head) if head else '<empty file>'!r}"
            )
        else:
            parsers = list(columns.values())
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            where = f"{path}:{line}"
            if len(row) != len(parsers):
                raise DataError(f"{where}: expected {len(parsers)} fields, got {len(row)}")
            try:
                values = [parse(cell) for parse, cell in zip(parsers, row)]
            except ValueError as exc:
                raise DataError(f"{where}: {exc}") from exc
            if key is not None:
                first = first_line.setdefault(tuple(values[:key[0]]), line)
                if first != line:
                    raise DataError(f"{where}: duplicate {key[1].format(*values)} (first on line {first})")
            n_rows += 1
            yield where, values
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
    if not n_rows:
        raise DataError(f"{path}: no data rows")


# ---------------------------------------------------------------- weekly series

def read_weekly_series(path: str | Path) -> WeeklySeries:
    """Read `week_start,value` rows; weeks must be consecutive Sundays-apart."""
    starts: list[dt.date] = []
    values: list[float] = []
    for where, (day, value) in _rows(path, {"week_start": _parse_date, "value": _parse_float}):
        if starts and (day - starts[-1]).days != 7:
            raise DataError(f"{where}: week {day} does not follow {starts[-1]} "
                            "(series must be strictly consecutive, no gaps)")
        starts.append(day)
        values.append(value)
    with naming(path):
        return WeeklySeries(start_date=starts[0], values=np.array(values))


def write_weekly_series(path: str | Path, series: WeeklySeries) -> int:
    return write_table(path, ["week_start", "value"],
                       [[series.week_start(i).isoformat(), float(value)]
                        for i, value in enumerate(series.values)])


# ------------------------------------------------------------- anchor calendars

def read_anchor_calendar(path: str | Path, kind: AnchorKind | str) -> AnchorCalendar:
    """Read `kind,anchor_date` rows, keeping rows matching ``kind``."""
    kind = AnchorKind(kind)
    dates = []
    for where, (name, day) in _rows(path, {"kind": str.strip, "anchor_date": _parse_date},
                                    key=(2, "anchor date {1} for {0!r}")):
        try:
            row_kind = AnchorKind(name)
        except ValueError as exc:
            raise DataError(f"{where}: unknown calendar kind {name!r}") from exc
        if row_kind is kind:
            dates.append(day)
    if not dates:
        raise DataError(f"{path}: no anchor dates of kind {kind.value!r}")
    with naming(path):
        return AnchorCalendar(kind=kind, anchor_dates=tuple(dates))


def eid_calendar() -> AnchorCalendar:
    """The bundled Eid al-Fitr anchor dates (2004-2013)."""
    return read_anchor_calendar(_fixture("eid_al_fitr_dates.csv"), AnchorKind.EID_AL_FITR)


def calendar_for(kind: AnchorKind | str, years, eid_path: str | Path | None = None) -> AnchorCalendar:
    """Calendar of ``kind`` covering ``years`` (solar) or the Eid date table."""
    kind = AnchorKind(kind)
    if kind is AnchorKind.EID_AL_FITR:
        if eid_path is not None:
            return read_anchor_calendar(eid_path, kind)
        return eid_calendar()
    return AnchorCalendar.solar(kind, years)


# ----------------------------------------------------------------------- births

def read_births(path: str | Path) -> dict[str, list[tuple[int, int, float]]]:
    """Read `country,year,month,count` rows grouped by country; months are
    1..12, counts non-negative, and no (country, year, month) repeats."""
    out: dict[str, list[tuple[int, int, float]]] = {}
    columns = {"country": str.strip, "year": _parse_int, "month": _parse_int, "count": _parse_float}
    for where, (country, year, month, count) in _rows(path, columns, key=(3, "entry for {} {}-{:02d}")):
        if not 1 <= month <= 12:
            raise DataError(f"{where}: month {month} outside 1-12")
        if count < 0:
            raise DataError(f"{where}: negative birth count {count!r}")
        out.setdefault(country, []).append((year, month, count))
    return out


def write_birth_series(path: str | Path, per_country: dict[str, list[tuple[int, int, float]]]) -> int:
    """Write shifted normalized rates as `country,year,month,rate` rows."""
    return write_table(path, ["country", "year", "month", "rate"],
                       [[country, year, month, float(rate)]
                        for country in sorted(per_country)
                        for year, month, rate in per_country[country]])


# --------------------------------------------------------------- centered years

def write_centered_years(path: str | Path, years: list[CenteredYear]) -> int:
    return write_table(path, ["anchor_date", "week_index", "value"],
                       [[year.anchor_date.isoformat(), i, float(value)]
                        for year in years for i, value in enumerate(year.weeks, start=1)])


def write_averaged_year(path: str | Path, avg: AveragedYear) -> int:
    return write_table(path, ["week_index", "mean", "std", "n_years"],
                       [[i, float(m), float(s), avg.n_years]
                        for i, (m, s) in enumerate(zip(avg.weeks, avg.per_week_std), start=1)])


# -------------------------------------------------------------------- countries

# the z table's column for each anchor's response, in table order
_Z_COLUMNS = {AnchorKind.CHRISTMAS: "z_christmas", AnchorKind.EID_AL_FITR: "z_eid",
              AnchorKind.JUNE_SOLSTICE: "z_june", AnchorKind.DECEMBER_SOLSTICE: "z_dec"}


def read_zscore_table(path: str | Path | None = None) -> list[dict]:
    """Per-country anchor z-scores; ``path=None`` loads the bundled table.

    The bundled ``identification`` column is the 50%-majority rule on each
    country's self-reported Christian and Muslim shares, with Kazakhstan
    (a majority on both counts) set to Muslim.
    """
    src = _fixture("holiday_zscores.csv") if path is None else path
    columns = {"code": str.strip, "name": str.strip, "identification": str.strip,
               "hemisphere": str.strip, **dict.fromkeys(_Z_COLUMNS.values(), _parse_float)}
    return [dict(zip(columns, values))
            for _, values in _rows(src, columns, key=(1, "country code {!r}"))]


def expected_agreement(path: str | Path | None = None) -> dict[tuple[str, str, str], int]:
    """Published agreement percentages keyed by (group_kind, group, anchor)."""
    src = _fixture("expected_agreement.csv") if path is None else path
    columns = {"group_kind": str.strip, "group": str.strip, "anchor": str.strip, "pct": _parse_int}
    return {(kind, group, anchor): pct
            for _, (kind, group, anchor, pct) in _rows(src, columns, key=(3, "cell {} {} {}"))}


# --------------------------------------------------------------------- lexicons

def read_lexicons(path: str | Path) -> dict[str, dict[str, tuple[float, float, float]]]:
    """Read `language,word,valence,arousal,dominance` grouped by language."""
    out: dict[str, dict[str, tuple[float, float, float]]] = {}
    columns = {"language": str.strip, "word": lambda text: text.strip().lower(),
               "valence": _parse_float, "arousal": _parse_float, "dominance": _parse_float}
    for where, (lang, word, *scores) in _rows(path, columns, key=(2, "word {1!r} for {0!r}")):
        if not word:
            raise DataError(f"{where}: empty word")
        for s in scores:
            if not 1.0 <= s <= 9.0:
                raise DataError(f"{where}: score {s} outside [1, 9]")
        out.setdefault(lang, {})[word] = tuple(scores)
    return out


def read_stoplist_lines(path: str | Path | None = None) -> list[str]:
    """Stoplist phrases, one per line; ``path=None`` loads the bundled list."""
    text = read_text(_fixture("holiday_greetings.txt") if path is None else path)
    return [line.strip() for line in text.splitlines() if line.strip()]


# ------------------------------------------------------------------ text records

# The first Sunday: an earlier GMT day's Sunday week would start before 0001-01-01.
_FIRST_SUNDAY = dt.datetime(1, 1, 7, tzinfo=dt.timezone.utc)


def _open_records(path: str | Path):
    """The records file, opened so that lines keep their line ends and a
    lone carriage return ends a line, as a newline does."""
    try:
        return open(path, encoding="utf-8", errors="surrogateescape", newline="")
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _record(line: str) -> tuple[dt.datetime, str, str] | None:
    """A non-empty records line, line end removed, as (GMT datetime, country,
    text): the one rule both readers apply to a line. None when the line is
    malformed: it has bytes that are not UTF-8, a wrong field count or a
    blank country, its stamp is unparseable (see ``parse_timestamp``), or the
    stamp's GMT day's Sunday week would start before 0001-01-01."""
    if not line.isascii():
        try:
            line.encode("utf-8")  # fails on the escapes of undecodable bytes
        except UnicodeEncodeError:
            return None
    parts = line.split("\t")
    if len(parts) != 3 or not (country := parts[1].strip()):
        return None
    gmt = parse_timestamp(parts[0])
    if gmt is None or gmt < _FIRST_SUNDAY:
        return None
    return gmt, country, parts[2]


_MALFORMED, _BLANK = -1, -2  # a line's row when it is not a record


def _records(lines: list[str]) -> tuple[list[int], np.ndarray, list[str], list[str]]:
    """Raw ``lines`` (line ends kept) through ``_record``: each line's row
    among the records, or ``_MALFORMED`` or ``_BLANK``, and the records as
    columns: GMT day ordinal (int64), country and text."""
    rows, days, countries, texts = [], [], [], []
    for line in lines:
        line = line.rstrip("\n").rstrip("\r")
        if not line:
            rows.append(_BLANK)
        elif (record := _record(line)) is None:
            rows.append(_MALFORMED)
        else:
            rows.append(len(texts))
            days.append(record[0].toordinal())
            countries.append(record[1])
            texts.append(record[2])
    return rows, np.array(days, np.int64), countries, texts


def read_records(path: str | Path) -> tuple[list[tuple[dt.datetime, str, str]], int]:
    """Read tab-separated `timestamp_utc, country, text` records.

    Returns (records, n_malformed). Empty lines are skipped; malformed lines
    (see ``_record``) are counted and skipped, not fatal.
    """
    records: list[tuple[dt.datetime, str, str]] = []
    malformed = 0
    with _open_records(path) as handle:
        for line in handle:
            line = line.rstrip("\n").rstrip("\r")
            if line:
                record = _record(line)
                if record is None:
                    malformed += 1
                else:
                    records.append(record)
    return records, malformed


def read_record_chunks(path: str | Path, size: int):
    """``read_records``'s records, a block of ``size`` raw lines at a time
    (the last shorter; none for an empty file), as columns of each block's
    distinct lines.

    Yields (days, countries, texts, row, n_malformed) per block: the GMT day
    ordinals (int64), countries and texts of the block's distinct good
    lines, first seen first; ``row`` (intp), the index in those columns of
    each of the block's records, in input order; and the number of the
    block's malformed lines. Each distinct raw line (line end included)
    goes through ``_record`` once (see ``_records``), and the block's own
    dict maps it to its row, so a repeated malformed line counts each time.
    """
    with _open_records(path) as handle:
        while block := list(islice(handle, size)):
            distinct = list(dict.fromkeys(block))  # first seen first
            rows, days, countries, texts = _records(distinct)
            row = np.fromiter(map(dict(zip(distinct, rows)).__getitem__, block), np.intp, len(block))
            del block, distinct  # hold no raw line while the block is used
            yield days, countries, texts, row[row >= 0], int(np.count_nonzero(row == _MALFORMED))


def parse_timestamp(text: str) -> dt.datetime | None:
    """ISO-8601 timestamp as UTC; naive values are taken to already be GMT.

    None when the text is not a timestamp or its GMT time falls outside
    years 1-9999.
    """
    text = text.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        stamp = dt.datetime.fromisoformat(text)
    except ValueError:
        return None
    if stamp.tzinfo is None:
        return stamp.replace(tzinfo=dt.timezone.utc)
    try:
        return stamp.astimezone(dt.timezone.utc)
    except OverflowError:
        return None


# --------------------------------------------------------- weekly mood / binned

def write_weekly_mood(path: str | Path, rows: Iterable[tuple[str, dt.date, str, float, int]]) -> int:
    """`country,week_start,dim,mean,n_scored` rows, each formatted as it is written."""
    return write_table(path, ["country", "week_start", "dim", "mean", "n_scored"],
                       ([country, week.isoformat(), dim, float(mean), n]
                        for country, week, dim, mean, n in rows))


def _prob_columns(n_bins: int) -> list[str]:
    return [f"p{i:02d}" for i in range(1, n_bins + 1)]


def write_binned(path: str | Path, rows: list[tuple[dt.date, str, int, np.ndarray]], n_bins: int) -> int:
    """Tab-separated `week_start,dim,n` plus one probability column per bin."""
    for week, dim, _, probs in rows:
        if len(probs) != n_bins:
            raise DataError(f"binned row for {week}/{dim} has {len(probs)} bins, wanted {n_bins}")
    return write_table(path, ["week_start", "dim", "n"] + _prob_columns(n_bins),
                       [[week.isoformat(), dim, n, *map(float, probs)] for week, dim, n, probs in rows],
                       delimiter="\t")


def _binned_columns(header: list[str]) -> list:
    if header[:3] != ["week_start", "dim", "n"]:
        raise ValueError("expected binned TSV header starting week_start,dim,n")
    n_bins = len(header) - 3
    if n_bins < 2 or header[3:] != _prob_columns(n_bins):
        raise ValueError("malformed probability columns")
    return [_parse_date, str.strip, _parse_int] + [_parse_float] * n_bins


ROW_SUM_TOL = 1e-12


def first_bad_row(m: np.ndarray) -> tuple[int, str] | None:
    """The first row of a weeks-by-bins matrix that is not a probability
    distribution, and what is wrong with it; None when every row is one."""
    negative = ~np.isfinite(m).all(axis=1) | (m < 0).any(axis=1)
    bad = np.flatnonzero(negative | (np.abs(m.sum(axis=1) - 1.0) > ROW_SUM_TOL))
    if not len(bad):
        return None
    row = int(bad[0])
    return row, ("bin probabilities must be finite and non-negative" if negative[row]
                 else "every week's bin probabilities must sum to 1")


def read_binned(path: str | Path) -> dict[str, tuple[list[dt.date], list[int], np.ndarray]]:
    """Binned TSV back as {dim: (week_starts, n_scored, probs matrix)}.

    A row whose probabilities are not a distribution (see
    ``first_bad_row``) is a DataError naming its line.
    """
    acc: dict[str, list[tuple[dt.date, int, list[float], str]]] = {}
    for where, (week, dim, n, *probs) in _rows(path, _binned_columns, delimiter="\t"):
        if n < 1:
            raise DataError(f"{where}: n must be at least 1, got {n}")
        rows = acc.setdefault(dim, [])
        if rows and week <= rows[-1][0]:
            raise DataError(f"{where}: weeks out of order for dim {dim!r}")
        rows.append((week, n, probs, where))
    out = {}
    for dim, rows in acc.items():
        weeks, counts, mat, wheres = zip(*rows)
        probs = np.array(mat)
        bad = first_bad_row(probs)
        if bad is not None:
            raise DataError(f"{wheres[bad[0]]}: {bad[1]}")
        out[dim] = (list(weeks), list(counts), probs)
    return out


# ------------------------------------------------------------------- flat tables

def write_table(path: str | Path, header: list[str], rows: Iterable[list], delimiter: str = ",") -> int:
    """The one table writer: ``csv``'s default dialect (CRLF line ends) and
    ``fmt`` for every float cell. ``rows`` may be any iterable, so a
    generator's rows are written as they are made. Returns the number of
    data rows."""
    n = 0
    with atomic_write(path) as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(header)
        for n, row in enumerate(rows, 1):
            writer.writerow([fmt(v) if isinstance(v, float) else v for v in row])
    return n


def write_json(path: str | Path, payload) -> None:
    """The one JSON writer: two-space indent, sorted keys, a final newline."""
    with atomic_write(path) as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _keyed_columns(header: list[str]) -> list:
    if len(header) != 2:
        raise ValueError("expected a two-column CSV with a header")
    return [str.strip, _parse_float]


def read_keyed_values(path: str | Path) -> dict[str, float]:
    """Two-column CSV (any header): key -> numeric value, for joins."""
    return dict(values for _, values in _rows(path, _keyed_columns, key=(1, "key {!r}")))
