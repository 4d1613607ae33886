"""Lexicon-based sentiment scoring of short texts.

Each text is matched, token by token, against per-language affective
lexicons that assign every word a valence, arousal, and dominance score in
[1, 9]. The language with the most matched tokens wins and the text's score
is the mean of its matched entries. Scores aggregate to daily means (GMT
days) and weekly means (Sunday-start weeks, days weighted equally), and each
week's individual scores can be binned into a 25-bin distribution.

Generic holiday greeting phrases are removed before tokenization so that
formulaic well-wishing does not masquerade as mood, and a handful of
holiday-named lexicon words never match for the same reason.
"""

from __future__ import annotations

import datetime as dt
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, repeat
from operator import attrgetter
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DataError
from .timeseries import _ordered_sum, _readonly

# Lexicon words that name the holidays themselves; matching them would
# conflate topical volume with mood.
DEFAULT_REMOVED_WORDS = frozenset(
    {"christmas", "valentine", "navidad", "natal", "valentín", "valentin", "valentim"}
)

_TOKEN = re.compile(r"[^\W\d_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercased letter-only tokens; digits and punctuation split tokens."""
    return _TOKEN.findall(text.lower())


@dataclass(frozen=True)
class Lexicon:
    """Per-language word scores. Entries in removed_words never match."""

    language: str
    entries: dict[str, tuple[float, float, float]]
    removed_words: frozenset[str] = DEFAULT_REMOVED_WORDS

    def __post_init__(self):
        for word, scores in self.entries.items():
            if len(scores) != 3 or not all(1.0 <= s <= 9.0 for s in scores):
                raise DataError(f"lexicon {self.language}: {word!r} scores out of [1,9]")

    def lookup(self, token: str) -> tuple[float, float, float] | None:
        if token in self.removed_words:
            return None
        return self.entries.get(token)


def load_lexicons(path) -> list[Lexicon]:
    from .io import read_lexicons

    tables = read_lexicons(path)
    return [Lexicon(lang, entries) for lang, entries in sorted(tables.items())]


_RUN = re.compile(r"[^\W_]+", re.UNICODE)  # the stoplist's token: a maximal alphanumeric run
_END = None  # trie key marking that a phrase ends at this node

def _trie_pattern(node: dict) -> str:
    """A regex for the phrases of a trie, matched between ``(?<![^\\W_])``
    and ``(?![^\\W_])``: each key a whole run, keys joined by separators
    ``[\\W_]+``, and a node's children tried before the phrase that ends
    there, so the longest phrase matches."""
    branches = []
    for key, child in node.items():
        if key is _END:
            continue
        branch = re.escape(key)
        if len(child) > (_END in child):
            branch += r"(?:[\W_]+" + _trie_pattern(child) + (")?" if _END in child else ")")
        branches.append(branch)
    return "(?:" + "|".join(branches) + ")"


class GreetingStoplist:
    """Removes whole-phrase holiday greetings from text.

    Phrases match as token sequences, where a token is a maximal run of
    letters and digits and any other characters separate tokens, so a match
    cannot sit inside a longer word. Phrases match the text as ``str.lower``
    spells it, the way lexicon words match tokens. Scanning left to right,
    the phrase with the most tokens starting at a token is removed; removal
    repeats until no phrase remains, so stripping is idempotent. One regex
    of the phrases' trie, compiled on first use, does the matching for
    ``strip`` and for ``Scorer``. ``strip`` runs it on every text;
    ``Scorer``, which has each text's lowered tokens already, first skips
    the texts that hold no phrase's first token.
    """

    def __init__(self, phrases: list[str]):
        if not phrases:
            raise DataError("stoplist has no phrase")
        cleaned = []
        seen = set()
        for phrase in phrases:
            if not tokenize(phrase):
                raise DataError(f"stoplist phrase {phrase!r} has no letter")
            tokens = _RUN.findall(phrase.lower())
            key = tuple(tokens)
            if key not in seen:
                seen.add(key)
                cleaned.append(tokens)
        cleaned.sort(key=lambda ts: (-len(ts), -sum(map(len, ts))))
        self.phrases = [" ".join(ts) for ts in cleaned]
        self._trie: dict = {}
        for ts in cleaned:
            node = self._trie
            for token in ts:
                node = node.setdefault(token, {})
            node[_END] = True
        # Scorer's prefilter: texts without the first ``tokenize`` token of
        # any phrase skip matching ("4th of july" is keyed on "th"). The
        # regex and the tokenizer read one lowered string, so no text it
        # skips holds a phrase.
        self._first_tokens = frozenset(tokenize(phrase)[0] for phrase in self.phrases)

    @cached_property
    def _phrase(self) -> re.Pattern:
        """The phrases as one regex; compiled on first use."""
        return re.compile(r"(?<![^\W_])" + _trie_pattern(self._trie) + r"(?![^\W_])")

    @classmethod
    def default(cls) -> "GreetingStoplist":
        from .io import read_stoplist_lines

        return cls(read_stoplist_lines())

    def strip(self, text: str) -> str:
        """``text`` itself when it holds no stoplist phrase; otherwise
        ``text.lower()`` with every phrase removed and whitespace collapsed."""
        stripped, n = self._phrase.subn(" ", text.lower())
        if not n:
            return text
        while n:
            # a removal can bring a phrase's tokens together
            stripped, n = self._phrase.subn(" ", stripped)
        return " ".join(stripped.split())


@dataclass(frozen=True, slots=True)
class TextScore:
    valence: float
    arousal: float
    dominance: float
    matched_language: str
    n_matched: int
    tie: bool = False


DIMENSIONS = ("valence", "arousal", "dominance")


def score_text(text: str, lexicons: list[Lexicon], stoplist: GreetingStoplist | None = None) -> TextScore | None:
    """Score one text, or None when no lexicon matches any token.

    The lexicon matching the most tokens (occurrences count) provides the
    score: the per-dimension mean of its matched entries. Lexicons tying for
    most matches contribute the mean of their per-language means, added left
    to right in lexicon order.
    """
    if not lexicons:
        raise DataError("need at least one lexicon")
    if stoplist is not None:
        text = stoplist.strip(text)
    tokens = tokenize(text)
    if not tokens:
        return None
    best: list[tuple[str, int, tuple[float, float, float]]] = []
    best_count = 0
    for lex in lexicons:
        totals = [0.0, 0.0, 0.0]
        count = 0
        for token in tokens:
            scores = lex.lookup(token)
            if scores is not None:
                count += 1
                for i in range(3):
                    totals[i] += scores[i]
        if count == 0 or count < best_count:
            continue
        mean = (totals[0] / count, totals[1] / count, totals[2] / count)
        if count > best_count:
            best, best_count = [(lex.language, count, mean)], count
        else:
            best.append((lex.language, count, mean))
    if not best:
        return None
    if len(best) == 1:
        language, count, (v, a, d) = best[0]
        return TextScore(v, a, d, language, count)
    k = len(best)
    v, a, d = (_ordered_sum(mean[i] for _, _, mean in best) / k for i in range(3))
    return TextScore(v, a, d, "+".join(b[0] for b in best), best_count, tie=True)


_CHUNK = 8192  # texts per scoring chunk; lines per block the score and bin stages read


class ScoreColumns(NamedTuple):
    """Scores of a run of texts, one row per text in input order."""

    n_matched: np.ndarray  # (n,) int64 matches of the winning lexicons; 0 when unscored
    vad: np.ndarray        # (n, 3) valence/arousal/dominance; NaN rows when unscored
    winners: np.ndarray    # (n, L) bool: the lexicons tying for most matches


class Scorer:
    """``score_text``'s rule over a chunk of texts at a time, as arrays, bit for bit.

    ``score`` scores each text it is handed, repeats included: the score
    and bin stages hand it the texts of a block's distinct lines (see
    ``io.read_record_chunks``). One table, built once, gives an id to each
    lexicon word and maps each word id to its entries in every lexicon that
    matches it. Each text is tokenized by ``tokenize``'s rule; a text with a
    token that starts a stoplist phrase is stripped by ``strip``, which
    matches the phrases on the same lowered text, so no other text holds
    one, and a text the stoplist changes is tokenized again. All tokens map
    to ids in one step, and each text's token count gives each token's
    text. Each id expands to its lexicon entries, and one ``np.bincount``
    over (text, lexicon) gives the match counts and one per dimension the
    sums. ``np.bincount`` adds its weights in input order, and a text's
    tokens stay in text order, so each sum runs in token order as
    ``score_text``'s loop does. Tied lexicons' means are added in lexicon
    order, non-winners adding an exact 0.0.
    """

    def __init__(self, lexicons: list[Lexicon], stoplist: GreetingStoplist | None = None):
        table: dict[str, list[tuple[int, tuple[float, float, float]]]] = {}
        for index, lex in enumerate(lexicons):
            for word, scores in lex.entries.items():
                if word not in lex.removed_words:
                    table.setdefault(word, []).append((index, scores))
        entries = list(table.values())
        self._id = {word: i for i, word in enumerate(table)}
        # an unknown token's id is len(table): one more row of each per-id array
        self._n_entries = np.array([len(e) for e in entries] + [0], dtype=np.intp)
        self._first_entry = np.cumsum(self._n_entries) - self._n_entries
        self._entry_lexicon = np.array([i for e in entries for i, _ in e], dtype=np.intp)
        self._entry_vad = np.array([s for e in entries for _, s in e],
                                   dtype=float).reshape(-1, 3).T.copy()
        self._n_lex = len(lexicons)
        self._stoplist = stoplist

    def _token_lists(self, texts: Sequence[str], lengths: list[int]) -> Iterator[list[str]]:
        """``tokenize`` of each text, mapped in C, or of what ``strip`` leaves
        when the stoplist changes it; appends each list's length to ``lengths``."""
        # one list alive at a time: holding a chunk's lists starts the cyclic GC
        stoplist, append = self._stoplist, lengths.append
        for text, tokens in zip(texts, map(_TOKEN.findall, map(str.lower, texts))):
            if stoplist is not None and not stoplist._first_tokens.isdisjoint(tokens):
                stripped = stoplist.strip(text)
                if stripped is not text:
                    tokens = tokenize(stripped)
            append(len(tokens))
            yield tokens

    def score(self, texts: Sequence[str]) -> ScoreColumns:
        """The scores of ``texts``, all at once: pass a chunk, not a corpus."""
        m, n_lex = len(texts), self._n_lex
        if m and not n_lex:
            raise DataError("need at least one lexicon")
        lengths: list[int] = []
        tokens = chain.from_iterable(self._token_lists(texts, lengths))
        ids = np.fromiter(map(self._id.get, tokens, repeat(len(self._id))), np.intp)
        text_of = np.repeat(np.arange(m), lengths)
        per_token = self._n_entries[ids]
        starts = np.cumsum(per_token) - per_token
        entry = (np.repeat(self._first_entry[ids] - starts, per_token)
                 + np.arange(int(per_token.sum()), dtype=np.intp))
        key = np.repeat(text_of, per_token) * n_lex + self._entry_lexicon[entry]
        counts = np.bincount(key, minlength=m * n_lex).reshape(m, n_lex)
        sums = np.stack([np.bincount(key, weights=self._entry_vad[i][entry], minlength=m * n_lex)
                         for i in range(3)]).reshape(3, m, n_lex)
        best = counts.max(axis=1, initial=0)
        won = (counts == best[:, None]) & (best[:, None] > 0)
        total = np.zeros((3, m))
        for j in range(n_lex):
            total += np.divide(sums[:, :, j], counts[:, j], out=np.zeros((3, m)), where=won[:, j])
        k = won.sum(axis=1)
        vad = np.full((m, 3), np.nan)
        np.divide(total.T, k[:, None], out=vad, where=k[:, None] > 0)
        return ScoreColumns(best.astype(np.int64, copy=False), vad, won)


def score_texts(texts: Sequence[str], lexicons: list[Lexicon],
                stoplist: GreetingStoplist | None = None) -> ScoreColumns:
    """Score every text by ``score_text``'s rule with one ``Scorer``,
    ``_CHUNK`` texts at a time, so only one chunk's tokens are alive."""
    n = len(texts)
    scorer = Scorer(lexicons, stoplist)
    out = ScoreColumns(np.zeros(n, np.int64), np.full((n, 3), np.nan),
                       np.zeros((n, len(lexicons)), bool))
    for lo in range(0, n, _CHUNK):
        cols = scorer.score(texts[lo:lo + _CHUNK])
        for whole, part in zip(out, cols):
            whole[lo:lo + len(part)] = part
    return out


@dataclass(frozen=True, slots=True)
class ScoredRecord:
    timestamp_utc: dt.datetime
    country: str
    score: TextScore | None


def score_records(
    records: list[tuple[dt.datetime, str, str]],
    lexicons: list[Lexicon],
    stoplist: GreetingStoplist | None = None,
) -> list[ScoredRecord]:
    """Score every record's text with ``score_texts``; each score equals ``score_text``'s."""
    cols = score_texts([text for _, _, text in records], lexicons, stoplist)
    languages = [lex.language for lex in lexicons]
    labels = [languages[j] for j in cols.winners.argmax(axis=1).tolist()] if lexicons else []
    n_winners = cols.winners.sum(axis=1)
    for row in np.flatnonzero(n_winners > 1).tolist():
        labels[row] = "+".join(compress(languages, cols.winners[row]))
    return [ScoredRecord(ts, country, TextScore(v, a, d, label, n, tie) if n else None)
            for (ts, country, _), n, v, a, d, label, tie in zip(
                records, cols.n_matched.tolist(), *cols.vad.T.tolist(), labels,
                (n_winners > 1).tolist())]


LOW_CONFIDENCE_WEEK = 100  # scored texts; below this the week is flagged, not dropped


def _columns(scored: list[ScoredRecord], country: str) -> tuple[np.ndarray, np.ndarray]:
    """GMT day ordinals (int64) and an (n, 3) valence/arousal/dominance array
    of ``country``'s scored records, in input order: the one place the
    adapters filter records for grouping."""
    mine = [r for r in scored if r.country == country and r.score is not None]
    days = np.fromiter((r.timestamp_utc.toordinal() for r in mine), np.int64, len(mine))
    vad_of = attrgetter(*(f"score.{dim}" for dim in DIMENSIONS))
    vad = np.fromiter(map(vad_of, mine), np.dtype((float, 3)), len(mine))
    return days, vad


def week_of(days: np.ndarray) -> np.ndarray:
    """The Sunday ordinal starting each GMT day ordinal's week.

    ``date.toordinal`` is 1 for Monday 0001-01-01, so a day is a Sunday
    when ``ordinal % 7 == 0``.
    """
    return days - days % 7


_KEY = dt.date.max.toordinal() + 1  # a cell key is group * _KEY + week start ordinal


class _WeekCells:
    """``width`` float64 sums per (group, Sunday week) cell, folded in a
    chunk of rows at a time.

    Only weeks with rows have a cell, so memory grows with the number of
    (group, week) cells, not with rows or with the span of weeks. A chunk's
    rows go through one ``np.add.at`` onto the carried sums; it adds in
    index order, so every sum is the one a loop over all the cell's rows in
    input order gives.
    """

    def __init__(self, width: int):
        self.keys = np.empty(0, np.int64)    # group * _KEY + week start ordinal, sorted
        self.sums = np.empty((0, width))

    def _fold(self, group, days: np.ndarray, at: np.ndarray, weights: np.ndarray) -> None:
        """Add ``weights[r, j]`` to sum ``at[r, j]`` of the cell of group
        ``group[r]`` (or one group for all) and GMT day ordinal ``days[r]``."""
        width = self.sums.shape[1]
        keys, slot = np.unique(np.concatenate([self.keys, group * _KEY + week_of(days)]),
                               return_inverse=True)
        carried = len(self.keys)
        sums = np.zeros((len(keys), width))
        sums[slot[:carried]] = self.sums
        np.add.at(sums.reshape(-1), (slot[carried:, None] * width + at).ravel(), weights.ravel())
        self.keys, self.sums = keys, sums

    def _cells(self, group: int) -> tuple[np.ndarray, np.ndarray]:
        """Week start ordinals and sums of ``group``'s cells, weeks in date order."""
        lo, hi = np.searchsorted(self.keys, [group * _KEY, (group + 1) * _KEY])
        return self.keys[lo:hi] - group * _KEY, self.sums[lo:hi]


@dataclass(frozen=True)
class WeeklyMood:
    week_start: dt.date                      # a Sunday
    mean: tuple[float, float, float]
    n_scored: int
    low_confidence: bool = False


class DayTotals(_WeekCells):
    """The count and valence/arousal/dominance sums of scored records per
    (group, GMT day): a week cell holds 7 weekdays of 4 sums."""

    def __init__(self):
        super().__init__(7 * 4)

    def add(self, group, days: np.ndarray, vad: np.ndarray) -> None:
        """Fold in scored records: group ``group[r]`` (or one group for all),
        GMT day ordinal ``days[r]``, (n, 3) scores ``vad[r]``, in input order."""
        self._fold(group, days, (days % 7 * 4)[:, None] + np.arange(4),
                   np.column_stack([np.ones(len(days)), vad]))

    def weekly(self, group: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Week start ordinals, scored records and (n, 3) means of ``group``'s
        weeks, in date order.

        Each day with a scored record contributes its mean with equal weight
        to its Sunday week's mean, days added in date order; a day without
        one adds an exact 0.0.
        """
        weeks, sums = self._cells(group)
        days = sums.reshape(-1, 7, 4)
        count, total = days[:, :, :1], days[:, :, 1:]
        day_mean = np.divide(total, count, out=np.zeros_like(total), where=count > 0)
        mean = sum(day_mean[:, day] for day in range(7)) / np.count_nonzero(count, axis=1)
        return weeks, count.sum(axis=(1, 2)).astype(np.int64), mean


def aggregate(scored: list[ScoredRecord], country: str) -> tuple[list[WeeklyMood], list[dt.date]]:
    """(weekly means, gap week starts) for one country.

    Days follow GMT; weeks run Sunday through Saturday. Each day with at
    least one scored record contributes its mean with equal weight to the
    weekly mean. Weeks between the country's first and last scored week
    with no scored records are returned as gaps rather than zero-filled
    rows. ``DayTotals`` computes it.
    """
    days, vad = _columns(scored, country)
    totals = DayTotals()
    totals.add(0, days, vad)
    starts, n_scored, mean = (a.tolist() for a in totals.weekly(0))
    weeks = [WeeklyMood(dt.date.fromordinal(start), tuple(m), n, low_confidence=n < LOW_CONFIDENCE_WEEK)
             for start, n, m in zip(starts, n_scored, mean)]
    present = set(starts)
    gaps = [dt.date.fromordinal(start) for start in range(starts[0], starts[-1], 7)
            if start not in present] if starts else []
    return weeks, gaps


def weekly_scores(scored: list[ScoredRecord], country: str) -> dict[dt.date, np.ndarray]:
    """One (n, 3) valence/arousal/dominance array per GMT Sunday week, for
    binning; weeks in date order, each week's rows in input order."""
    days, vad = _columns(scored, country)
    if not len(days):
        return {}
    week = week_of(days)
    order = np.argsort(week, kind="stable")
    week, vad = week[order], vad[order]
    cuts = np.flatnonzero(week[1:] != week[:-1]) + 1
    return {dt.date.fromordinal(int(week[i])): block
            for i, block in zip(np.r_[0, cuts], np.split(vad, cuts))}


N_BINS = 25


def bin_edges(n_bins: int = N_BINS) -> np.ndarray:
    """n_bins+1 edges splitting [1,9] into equal widths, endpoints exact."""
    return np.array([1.0 + 8.0 * k / n_bins for k in range(n_bins + 1)])


def bin_index(values, n_bins: int = N_BINS) -> np.ndarray:
    """0-based bin per value; bin i covers [edge_i, edge_{i+1}), last closed."""
    values = np.asarray(values, dtype=float)
    if values.size and (values.min() < 1.0 or values.max() > 9.0):
        raise DataError("scores outside [1,9] cannot be binned")
    idx = np.searchsorted(bin_edges(n_bins), values, side="right") - 1
    return np.minimum(idx, n_bins - 1)


@dataclass(frozen=True)
class BinnedWeek:
    """One week's score distribution for one dimension, as integer counts."""

    week_start: dt.date
    dimension: str
    counts: np.ndarray

    def __post_init__(self):
        counts = _readonly(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if counts.ndim != 1 or counts.sum() <= 0 or (counts < 0).any():
            raise DataError("binned week needs non-negative counts with a positive total")

    @property
    def n_scored(self) -> int:
        return int(self.counts.sum())

    @cached_property
    def probs(self) -> np.ndarray:
        return _readonly(self.counts / self.counts.sum())


class WeekBins(_WeekCells):
    """Integer counts of scores per (group, week, dimension, bin): a week
    cell holds 3 x ``n_bins`` counts, exact as float64 up to 2**53."""

    def __init__(self, n_bins: int = N_BINS):
        super().__init__(3 * n_bins)
        self.n_bins = n_bins

    def add(self, group, days: np.ndarray, vad: np.ndarray) -> None:
        """Fold in scores: group ``group[r]`` (or one group for all), GMT day
        ordinal ``days[r]``, (n, 3) scores ``vad[r]`` in [1, 9]."""
        at = bin_index(vad, self.n_bins) + np.arange(3) * self.n_bins
        self._fold(group, days, at, np.ones(at.shape))

    def groups(self) -> set[int]:
        """The groups with at least one score."""
        return set(np.unique(self.keys // _KEY).tolist())

    def binned(self, group: int) -> list[BinnedWeek]:
        """One BinnedWeek per (week, dimension) of ``group``: weeks in date
        order, dimensions in ``DIMENSIONS`` order."""
        weeks, sums = self._cells(group)
        counts = sums.astype(np.int64).reshape(-1, 3, self.n_bins)
        return [BinnedWeek(dt.date.fromordinal(week), dim, cell[i])
                for week, cell in zip(weeks.tolist(), counts)
                for i, dim in enumerate(DIMENSIONS)]


def bin_weeks(by_week: dict[dt.date, np.ndarray], n_bins: int = N_BINS) -> list[BinnedWeek]:
    """One BinnedWeek per (week, dimension) of ``weekly_scores`` blocks,
    weeks in date order, dimensions in ``DIMENSIONS`` order."""
    weeks = sorted(by_week)
    blocks = [np.asarray(by_week[week], dtype=float).reshape(-1, 3) for week in weeks]
    for week, block in zip(weeks, blocks):
        if not len(block):
            raise DataError(f"week {week}: no scores to bin")
    bins = WeekBins(n_bins)
    if weeks:
        bins.add(0, np.repeat([week.toordinal() for week in weeks], [len(b) for b in blocks]),
                 np.concatenate(blocks))
    return bins.binned(0)
