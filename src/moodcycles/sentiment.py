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
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, repeat
from operator import attrgetter
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DataError

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


def load_lexicons(path, removed_words: frozenset[str] = DEFAULT_REMOVED_WORDS) -> list[Lexicon]:
    from .io import read_lexicons

    tables = read_lexicons(path)
    return [Lexicon(lang, entries, removed_words) for lang, entries in sorted(tables.items())]


_RUN = re.compile(r"[^\W_]+", re.UNICODE)  # the stoplist's token: a maximal alphanumeric run
_END = None  # trie key marking that a phrase ends at this node


class _CaseFold(dict):
    """``str.translate`` table folding case the way ``re.IGNORECASE`` does.

    Characters that ``re.IGNORECASE`` treats as equal to a phrase character
    map to one representative of that character's class, so two folded
    strings are equal exactly when the regex would match one with the other.
    ``str.lower`` differs: it keeps the long s and the dotless i apart from
    s and i, and lowers dotted capital I to two characters. Other characters
    map to themselves. Each distinct character is resolved once, then cached.
    """

    def __init__(self, alphabet):
        super().__init__()
        self._classes: list[tuple[re.Pattern, str]] = []
        for char in sorted(alphabet):
            rep = self._class_of(char)
            if rep is None:
                self._classes.append((re.compile(re.escape(char), re.IGNORECASE), char))
                rep = char
            self[ord(char)] = rep

    def _class_of(self, char: str) -> str | None:
        for pattern, rep in self._classes:
            if pattern.fullmatch(char):
                return rep
        return None

    def __missing__(self, code: int) -> str:
        char = chr(code)
        rep = self[code] = self._class_of(char) or char
        return rep


class GreetingStoplist:
    """Removes whole-phrase holiday greetings from text.

    Phrases match as token sequences, where a token is a maximal run of
    letters and digits and any other characters separate tokens, so a match
    cannot sit inside a longer word. Tokens compare with ``re.IGNORECASE``
    case folding. Scanning left to right, the phrase with the most tokens
    starting at a token is removed; removal repeats until no phrase remains,
    so stripping is idempotent.
    """

    def __init__(self, phrases: list[str]):
        cleaned = []
        seen = set()
        for phrase in phrases:
            tokens = _RUN.findall(phrase.lower())
            if not tokens:
                raise DataError("stoplist contains an empty phrase")
            key = tuple(tokens)
            if key not in seen:
                seen.add(key)
                cleaned.append(tokens)
        cleaned.sort(key=lambda ts: (-len(ts), -sum(map(len, ts))))
        self.phrases = [" ".join(ts) for ts in cleaned]
        self._fold = _CaseFold({c for ts in cleaned for t in ts for c in t})
        self._trie: dict = {}
        for ts in cleaned:
            node = self._trie
            for token in ts:
                node = node.setdefault(token.translate(self._fold), {})
            node[_END] = True
        # cheap prefilter: texts without any phrase's first token skip matching
        self._first_tokens = frozenset(ts[0] for ts in cleaned)

    @classmethod
    def default(cls) -> "GreetingStoplist":
        from .io import read_stoplist_lines

        return cls(read_stoplist_lines())

    def _may_match(self, tokens: list[str]) -> bool:
        """Prefilter on the text's ``tokenize`` tokens."""
        return not self._first_tokens.isdisjoint(tokens)

    def strip(self, text: str) -> str:
        """Text with every stoplist phrase removed (whitespace collapsed if any)."""
        if not self._may_match(tokenize(text)):
            return text
        return self._remove(text)

    def _match_end(self, folded: list[str], alive: list[int], j: int) -> int:
        """End (exclusive, in ``alive``) of the longest phrase starting at alive[j]; 0 if none."""
        node, end = self._trie, 0
        for k in range(j, len(alive)):
            node = node.get(folded[alive[k]])
            if node is None:
                break
            if _END in node:
                end = k + 1
        return end

    def _remove(self, text: str) -> str:
        """``strip`` past the prefilter; returns ``text`` itself when nothing matches."""
        runs = list(_RUN.finditer(text))
        folded = [run.group().translate(self._fold) for run in runs]
        alive = list(range(len(runs)))
        removed: list[tuple[int, int]] = []  # (first, last) run of every match
        while True:
            kept, n_before, j = [], len(removed), 0
            while j < len(alive):
                end = self._match_end(folded, alive, j)
                if end:
                    removed.append((alive[j], alive[end - 1]))
                    j = end
                else:
                    kept.append(alive[j])
                    j += 1
            if len(removed) == n_before:
                break
            alive = kept
        if not removed:
            return text
        # A later pass's match spans the earlier matches between its tokens;
        # each outermost match becomes one space.
        pieces, pos, reach = [], 0, -1
        for first, last in sorted(removed, key=lambda m: (m[0], -m[1])):
            if first > reach:
                pieces += (text[pos:runs[first].start()], " ")
                pos, reach = runs[last].end(), last
        pieces.append(text[pos:])
        return " ".join("".join(pieces).split())


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
    # an explicit loop, not sum(): Python 3.12's sum() of floats is compensated
    v = a = d = 0.0
    for _, _, (mv, ma, md) in best:
        v, a, d = v + mv, a + ma, d + md
    k = len(best)
    return TextScore(v / k, a / k, d / k, "+".join(b[0] for b in best), best_count, tie=True)


_CHUNK = 8192  # texts per score_texts chunk: bounds the token lists alive at once


class ScoreColumns(NamedTuple):
    """``score_texts``'s result, one row per text in input order."""

    n_matched: np.ndarray  # (n,) int64 matches of the winning lexicons; 0 when unscored
    vad: np.ndarray        # (n, 3) valence/arousal/dominance; NaN rows when unscored
    winners: np.ndarray    # (n, L) bool: the lexicons tying for most matches


def score_texts(texts: Sequence[str], lexicons: list[Lexicon],
                stoplist: GreetingStoplist | None = None) -> ScoreColumns:
    """Score every text by ``score_text``'s rule, as arrays, bit for bit.

    One table maps each word to its entries in every lexicon that matches
    it. Texts are taken a fixed-size chunk at a time: each text is tokenized
    once (again only if the stoplist changed it), tokens become word ids,
    each id expands to its lexicon entries, and one ``np.bincount`` over
    (text, lexicon) gives the match counts and one per dimension the sums.
    ``np.bincount`` adds its weights in input order, so each sum runs in
    token order as ``score_text``'s loop does. Tied lexicons' means are
    added in lexicon order, non-winners adding an exact 0.0.
    """
    n = len(texts)
    if n and not lexicons:
        raise DataError("need at least one lexicon")
    table: dict[str, list[tuple[int, tuple[float, float, float]]]] = {}
    for index, lex in enumerate(lexicons):
        for word, scores in lex.entries.items():
            if word not in lex.removed_words:
                table.setdefault(word, []).append((index, scores))
    word_id = {word: i for i, word in enumerate(table)}
    entries = list(table.values())
    n_entries = np.array([len(e) for e in entries], dtype=np.intp)
    first_entry = np.cumsum(n_entries) - n_entries
    entry_lexicon = np.array([i for e in entries for i, _ in e], dtype=np.intp)
    entry_vad = np.array([s for e in entries for _, s in e], dtype=float).reshape(-1, 3).T.copy()
    n_lex = len(lexicons)

    out = ScoreColumns(np.zeros(n, np.int64), np.full((n, 3), np.nan), np.zeros((n, n_lex), bool))
    for lo in range(0, n, _CHUNK):
        chunk = texts[lo:lo + _CHUNK]
        m = len(chunk)
        tokens = []
        for text in chunk:
            toks = tokenize(text)
            if stoplist is not None and stoplist._may_match(toks):
                stripped = stoplist._remove(text)
                if stripped is not text:
                    toks = tokenize(stripped)
            tokens.append(toks)
        n_tokens = np.fromiter(map(len, tokens), np.intp, m)
        ids = np.fromiter(map(word_id.get, chain.from_iterable(tokens), repeat(-1)),
                          np.intp, int(n_tokens.sum()))
        del tokens
        text_of = np.repeat(np.arange(m), n_tokens)
        hit = ids >= 0
        ids, text_of = ids[hit], text_of[hit]
        per_token = n_entries[ids]
        starts = np.cumsum(per_token) - per_token
        entry = (np.repeat(first_entry[ids] - starts, per_token)
                 + np.arange(int(per_token.sum()), dtype=np.intp))
        key = np.repeat(text_of, per_token) * n_lex + entry_lexicon[entry]
        counts = np.bincount(key, minlength=m * n_lex).reshape(m, n_lex)
        sums = np.stack([np.bincount(key, weights=entry_vad[i][entry], minlength=m * n_lex)
                         for i in range(3)]).reshape(3, m, n_lex)
        best = counts.max(axis=1, initial=0)
        won = (counts == best[:, None]) & (best[:, None] > 0)
        total = np.zeros((3, m))
        for j in range(n_lex):
            total += np.divide(sums[:, :, j], counts[:, j], out=np.zeros((3, m)), where=won[:, j])
        k = won.sum(axis=1)
        rows = slice(lo, lo + m)
        out.n_matched[rows] = best
        np.divide(total.T, k[:, None], out=out.vad[rows], where=k[:, None] > 0)
        out.winners[rows] = won
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
    of ``country``'s scored records, in input order.

    The one place that filters records for grouping. ``date.toordinal`` is
    1 for Monday 0001-01-01, so a day is a Sunday when ``ordinal % 7 == 0``
    and its week starts at ``ordinal - ordinal % 7``.
    """
    mine = [r for r in scored if r.country == country and r.score is not None]
    days = np.fromiter((r.timestamp_utc.toordinal() for r in mine), np.int64, len(mine))
    vad_of = attrgetter(*(f"score.{dim}" for dim in DIMENSIONS))
    vad = np.fromiter(map(vad_of, mine), np.dtype((float, 3)), len(mine))
    return days, vad


@dataclass(frozen=True)
class WeeklyMood:
    week_start: dt.date                      # a Sunday
    mean: tuple[float, float, float]
    n_scored: int
    low_confidence: bool = False


def weekly_means(group: np.ndarray, days: np.ndarray, vad: np.ndarray,
                 n_groups: int) -> list[tuple[list[WeeklyMood], list[dt.date]]]:
    """``aggregate``'s (weekly means, gap week starts) for every group at once.

    Row r is a scored record of group ``group[r]`` (in ``range(n_groups)``)
    on GMT day ordinal ``days[r]`` with scores ``vad[r]``. Each group's span
    of Sunday weeks gets its own run of day slots, so one ``np.bincount``
    over (group, day) gives every day's count and one per dimension its
    sums, and one per dimension over (group, week) the sums of day means.
    ``np.bincount`` adds its weights in input order, so each mean is the one
    a loop over that group's records in input order gives.
    """
    out: list[tuple[list[WeeklyMood], list[dt.date]]] = [([], []) for _ in range(n_groups)]
    if not len(days):
        return out
    week = days - days % 7
    first = np.full(n_groups, np.iinfo(np.int64).max)
    last = np.full(n_groups, np.iinfo(np.int64).min)
    np.minimum.at(first, group, week)
    np.maximum.at(last, group, week)
    present = np.flatnonzero(last >= first)
    n_weeks = np.zeros(n_groups, np.int64)
    n_weeks[present] = (last[present] - first[present]) // 7 + 1
    base = np.cumsum(n_weeks) - n_weeks  # each group's first week slot
    slots = int(n_weeks.sum())
    day = 7 * base[group] + (days - first[group])
    per_day = np.bincount(day, minlength=7 * slots)
    has = per_day > 0
    week_of_day = np.flatnonzero(has) // 7
    day_means = [np.bincount(day, weights=vad[:, i], minlength=7 * slots)[has] / per_day[has]
                 for i in range(3)]
    n_days = np.bincount(week_of_day, minlength=slots)
    sums = np.column_stack([np.bincount(week_of_day, weights=m, minlength=slots)
                            for m in day_means])
    n_scored = per_day.reshape(slots, 7).sum(axis=1)

    for g in present.tolist():
        weeks, gaps = out[g]
        for w in range(int(n_weeks[g])):
            slot = int(base[g]) + w
            start = dt.date.fromordinal(int(first[g]) + 7 * w)
            if not n_days[slot]:
                gaps.append(start)
                continue
            n = int(n_scored[slot])
            mean = tuple((sums[slot] / n_days[slot]).tolist())
            weeks.append(WeeklyMood(start, mean, n, low_confidence=n < LOW_CONFIDENCE_WEEK))
    return out


def aggregate(scored: list[ScoredRecord], country: str) -> tuple[list[WeeklyMood], list[dt.date]]:
    """(weekly means, gap week starts) for one country.

    Days follow GMT; weeks run Sunday through Saturday. Each day with at
    least one scored record contributes its mean with equal weight to the
    weekly mean. Weeks between the country's first and last scored week
    with no scored records are returned as gaps rather than zero-filled
    rows. ``weekly_means`` computes it.
    """
    days, vad = _columns(scored, country)
    return weekly_means(np.zeros(len(days), np.intp), days, vad, 1)[0]


def weekly_scores(scored: list[ScoredRecord], country: str) -> dict[dt.date, np.ndarray]:
    """One (n, 3) valence/arousal/dominance array per GMT Sunday week, for
    binning; weeks in date order, each week's rows in input order."""
    week, vad = _columns(scored, country)
    if not len(week):
        return {}
    week -= week % 7
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
        counts = np.asarray(self.counts, dtype=np.int64)
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        if counts.ndim != 1 or counts.sum() <= 0 or (counts < 0).any():
            raise DataError("binned week needs non-negative counts with a positive total")

    @property
    def n_scored(self) -> int:
        return int(self.counts.sum())

    @cached_property
    def probs(self) -> np.ndarray:
        p = self.counts / self.counts.sum()
        p.flags.writeable = False
        return p


def _bin_counts(week: np.ndarray, vad: np.ndarray, n_weeks: int, n_bins: int) -> np.ndarray:
    """(3, n_weeks, n_bins) counts of the (n, 3) scores ``vad`` by week index
    ``week`` and bin: one ``np.bincount`` per dimension over (week, bin)."""
    idx = bin_index(vad, n_bins)
    key = week * n_bins
    return np.stack([np.bincount(key + idx[:, i], minlength=n_weeks * n_bins).reshape(n_weeks, n_bins)
                     for i in range(3)])


def _binned(week_starts, counts: np.ndarray) -> list[BinnedWeek]:
    return [BinnedWeek(start, dim, counts[i, w])
            for w, start in enumerate(week_starts) for i, dim in enumerate(DIMENSIONS)]


def bin_days(days: np.ndarray, vad: np.ndarray, n_bins: int = N_BINS) -> list[BinnedWeek]:
    """One BinnedWeek per (GMT Sunday week, dimension) of the (n, 3) scores
    ``vad`` on GMT day ordinals ``days``; weeks with no score are left out,
    weeks in date order, dimensions in ``DIMENSIONS`` order."""
    if not len(days):
        return []
    week = days // 7  # the week starting on Sunday ordinal 7 * week
    first = int(week.min())
    week -= first
    present = np.bincount(week) > 0  # at most the calendar's 521,775 weeks
    rank = np.cumsum(present) - 1
    starts = [dt.date.fromordinal(7 * (first + w)) for w in np.flatnonzero(present).tolist()]
    return _binned(starts, _bin_counts(rank[week], vad, len(starts), n_bins))


def bin_weeks(by_week: dict[dt.date, np.ndarray], n_bins: int = N_BINS) -> list[BinnedWeek]:
    """One BinnedWeek per (week, dimension) of ``weekly_scores`` blocks,
    weeks in date order, dimensions in ``DIMENSIONS`` order."""
    weeks = sorted(by_week)
    blocks = [np.asarray(by_week[week], dtype=float).reshape(-1, 3) for week in weeks]
    for week, block in zip(weeks, blocks):
        if not len(block):
            raise DataError(f"week {week}: no scores to bin")
    if not weeks:
        return []
    week = np.repeat(np.arange(len(weeks)), [len(block) for block in blocks])
    return _binned(weeks, _bin_counts(week, np.concatenate(blocks), len(weeks), n_bins))
