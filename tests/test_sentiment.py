"""Tokenization, greeting stripping, scoring, aggregation, and binning."""

import datetime as dt
import random
import re
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moodcycles import sentiment
from moodcycles.errors import DataError
from moodcycles.sentiment import (
    DIMENSIONS,
    LOW_CONFIDENCE_WEEK,
    BinnedWeek,
    DayTotals,
    GreetingStoplist,
    Lexicon,
    ScoredRecord,
    TextScore,
    WeekBins,
    WeeklyMood,
    aggregate,
    bin_edges,
    bin_index,
    bin_weeks,
    score_records,
    score_text,
    score_texts,
    tokenize,
    weekly_scores,
)

UTC = dt.timezone.utc


class RegexStoplist:
    """Reference stoplist: one alternation of the phrases, longest first,
    matched on the lowered text and substituted until no phrase remains;
    the text itself when nothing matched. It has no prefilter: every text
    goes through the regex."""

    def __init__(self, stoplist: GreetingStoplist):
        cleaned = [phrase.split(" ") for phrase in stoplist.phrases]
        alternation = "|".join(r"[\W_]+".join(map(re.escape, ts)) for ts in cleaned)
        self._pattern = re.compile(r"(?<![^\W_])(?:" + alternation + r")(?![^\W_])", re.UNICODE)

    def strip(self, text: str) -> str:
        result, changed = text.lower(), False
        while True:
            result, n = self._pattern.subn(" ", result)
            if n == 0:
                break
            changed = True
        return " ".join(result.split()) if changed else text


# Case variants of s, k and i: str.lower() lowers the Kelvin sign to k,
# keeps the long s and the dotless small i apart from s and i, and lowers
# the dotted capital I to i and a combining dot, which is no letter.
_CASE_VARIANTS = {"s": "sSſ", "k": "kK\u212a", "i": "iIİı"}


def cased(rng: random.Random, word: str) -> str:
    return "".join(rng.choice(_CASE_VARIANTS.get(c, c + c.upper())) for c in word)


@pytest.fixture(scope="module")
def reference_stoplist(default_stoplist) -> RegexStoplist:
    return RegexStoplist(default_stoplist)


_SEPARATORS = [" ", "  ", ", ", " - ", "!!", "...", "_", " 9 ", "3", "\n", ""]


class TestTokenize:
    def test_lowercases_and_splits_punctuation(self):
        assert tokenize("Laughter, SUNSHINE!") == ["laughter", "sunshine"]

    def test_digits_split_tokens(self):
        assert tokenize("abc123def 4x") == ["abc", "def", "x"]

    def test_accented_letters_are_kept(self):
        assert tokenize("Valentín feliz") == ["valentín", "feliz"]

    def test_empty_and_symbol_only(self):
        assert tokenize("") == []
        assert tokenize("!!! 123 ...") == []


class TestStoplist:
    def test_strips_known_greeting(self, default_stoplist):
        assert default_stoplist.strip("Merry Christmas everyone!") == "everyone!"

    def test_text_without_phrases_is_returned_verbatim(self, default_stoplist):
        text = "what   a    lovely  day"
        assert default_stoplist.strip(text) is text

    def test_pure_greeting_strips_to_empty(self, default_stoplist):
        assert default_stoplist.strip("feliz navidad feliz navidad") == ""

    def test_longest_phrase_wins(self, default_stoplist):
        # "merry christmas" is a phrase, the trailing word is not part of one
        assert default_stoplist.strip("merry christmas day") == "day"
        # "ſun" and "sun" are two trie keys, and the longer phrase wins
        assert GreetingStoplist(["ſun x y", "ſun", "sun day"]).strip("sun day z") == "z"

    def test_removal_can_expose_a_new_phrase(self, default_stoplist):
        # pass 1 removes "merry christmas", bringing "happy ... new year"
        # together; pass 2 removes that
        assert default_stoplist.strip("happy merry christmas new year") == ""

    def test_phrases_do_not_match_inside_words(self, default_stoplist):
        assert default_stoplist.strip("unhappy christmas") == "unhappy"
        text = "christmassy party"
        assert default_stoplist.strip(text) is text
        # the combining mark U+0345 is no letter: it splits "χρόνια" in two
        greek = GreetingStoplist(["χρόνια πολλά"])
        text = "χρόν\u0345α πολλά"
        assert greek.strip(text) is text
        assert RegexStoplist(greek).strip(text) == text

    def test_iota_phrases_strip_in_any_case(self):
        # an iota of the text, in either case, lowers to the phrase's iota
        greek = GreetingStoplist(["χρόνια πολλά"])
        for text in ["χρόνια πολλά x", "ΧΡΌΝΙΑ ΠΟΛΛΆ x", "Χρόνια Πολλά x", "χρόνΙα πΟλλά x"]:
            assert greek.strip(text) == "x"
            assert RegexStoplist(greek).strip(text) == "x"
        text = "χρόν\u0345α πολλά x"
        assert greek.strip(text) is text

    def test_punctuation_separates_phrase_tokens(self, default_stoplist):
        assert default_stoplist.strip("merry, christmas!!") == "!!"

    def test_duplicate_and_empty_phrases(self):
        s = GreetingStoplist(["Happy Day", "happy day"])
        assert s.phrases == ["happy day"]
        # a phrase without a letter counts as empty: a data error naming it
        for phrase in ["...", "2013 !"]:
            with pytest.raises(DataError, match=re.escape(repr(phrase))):
                GreetingStoplist(["merry christmas", phrase])
        with pytest.raises(DataError, match="stoplist has no phrase"):
            GreetingStoplist([])

    def test_a_phrase_whose_first_word_holds_a_digit_always_applies(self, english_lexicon):
        # tokenize("4th") is ["th"], so the prefilter keys "4th of july" on "th"
        stoplist = GreetingStoplist(["4th of july", "merry christmas"])
        texts = ["4th of july laughter", "merry 4th of july laughter", "4TH of July!"]
        assert [stoplist.strip(t) for t in texts] == ["laughter", "merry laughter", "!"]
        expected = score_text("laughter", [english_lexicon])
        assert score_text(texts[0], [english_lexicon], stoplist) == expected
        assert score_text(texts[2], [english_lexicon], stoplist) is None
        cols = sentiment.Scorer([english_lexicon], stoplist).score(texts)
        assert cols.n_matched.tolist() == [1, 1, 0]
        assert cols.vad[0].tolist() == [expected.valence, expected.arousal, expected.dominance]

    @settings(max_examples=200, deadline=None)
    @given(
        words=st.lists(
            st.sampled_from(
                ["merry", "christmas", "happy", "new", "year", "feliz",
                 "navidad", "everyone", "snow", "xmas"]
            ),
            max_size=8,
        ),
        seps=st.lists(st.sampled_from([" ", ", ", "  ", " - ", "_", "\n"]), min_size=8, max_size=8),
        seed=st.integers(0, 2**32),
    )
    def test_stripping_is_idempotent(self, default_stoplist, words, seps, seed):
        rng = random.Random(seed)
        text = "".join(cased(rng, w) + s for w, s in zip(words, seps))
        once = default_stoplist.strip(text)
        assert default_stoplist.strip(once) == once

    @pytest.mark.parametrize("text", ["merry CHRİSTMAS x", "merry chriſtmas x", "merry christmaſ x",
                                      "CHRİSTMAS x", "chriſtmas x", "chrıstmas x"])
    def test_case_folds_as_str_lower(self, default_stoplist, reference_stoplist, text):
        # str.lower() keeps ſ and ı apart from s and i, and lowers İ to i and
        # a combining dot that splits the word, so no phrase matches these
        assert default_stoplist.strip(text) is text
        assert reference_stoplist.strip(text) == text
        assert default_stoplist.strip(text.upper().replace("İ", "I")) == "x"
        # the Scorer keeps them too: every token of the text scores
        lexicon = Lexicon("en", {token: (5.0, 5.0, 5.0) for token in tokenize(text)},
                          removed_words=frozenset())
        cols = sentiment.Scorer([lexicon], default_stoplist).score([text, "x"])
        assert cols.n_matched.tolist() == [len(tokenize(text)), 1]

    @pytest.mark.parametrize("phrase, text", [
        ("iyi bayramlar", "İyi bayramlar dostum"),  # Turkish, opening a sentence
        ("iyi bayramlar", "ıyi bayramlar dostum"),
        ("ſun day", "Sun day x"),
        ("ıyi bayramlar", "IYI BAYRAMLAR dostum"),
        ("σοσ x", "ΣΟΣ x y"),                        # "ΣΟΣ".lower() ends in a final sigma
    ])
    def test_a_phrase_matches_the_text_as_str_lower_spells_it(self, phrase, text):
        # str.lower keeps each text's first word apart from the phrase's,
        # and a text strips as its lowered form does
        stoplist = GreetingStoplist([phrase])
        for spelling in [text, text.lower()]:
            assert stoplist.strip(spelling) is spelling
            assert RegexStoplist(stoplist).strip(spelling) == spelling
        assert stoplist.strip(f"{phrase} z") == "z"

    def test_lowering_is_idempotent_for_every_code_point(self):
        # strip hands back lowered text, which the Scorer lowers again to
        # tokenize, and the prefilter reads the tokens of the string the
        # phrases match; all of that takes a second str.lower to change nothing
        every = [chr(code) for code in range(sys.maxunicode + 1)]
        assert [c for c in every if c.lower().lower() != c.lower()] == []

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32))
    def test_bundled_phrases_match_the_regex_reference(self, default_stoplist, reference_stoplist,
                                                       data, seed):
        words = ["merry", "christmas", "happy", "new", "year", "feliz", "navidad", "año",
                 "nuevo", "día", "kiss", "snow", "unhappy", "xmas", "2013", "straße",
                 "İyi", "ıyi", "ſeason"]
        piece = st.one_of(st.sampled_from(default_stoplist.phrases), st.sampled_from(words))
        pieces = data.draw(st.lists(st.tuples(piece, st.sampled_from(_SEPARATORS)), max_size=10))
        rng = random.Random(seed)
        text = "".join(cased(rng, p) + sep for p, sep in pieces)
        assert default_stoplist.strip(text) == reference_stoplist.strip(text)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32))
    def test_generated_phrases_match_the_regex_reference(self, data, seed):
        words = ["a", "ab", "ba", "kiss", "sis", "ik", "año", "é", "x1", "İz", "ıyi", "ſun", "\u212a",
                 "σος", "ΣΟΣ"]
        phrase = st.lists(st.sampled_from(words), min_size=1, max_size=3).map(" ".join)
        phrases = data.draw(st.lists(phrase, min_size=1, max_size=6))
        stoplist = GreetingStoplist(phrases)
        pieces = data.draw(st.lists(
            st.tuples(st.sampled_from(words + phrases), st.sampled_from(_SEPARATORS)), max_size=12))
        rng = random.Random(seed)
        text = "".join(cased(rng, p) + sep for p, sep in pieces)
        assert stoplist.strip(text) == RegexStoplist(stoplist).strip(text)


class TestScoreText:
    def test_mean_of_matched_entries(self, english_lexicon):
        score = score_text("laughter and leprosy", [english_lexicon])
        assert score.valence == pytest.approx(5.3, abs=1e-12)
        assert score.arousal == pytest.approx(5.5, abs=1e-12)
        assert score.dominance == pytest.approx(5.1, abs=1e-12)
        assert score.matched_language == "english"
        assert score.n_matched == 2
        assert not score.tie

    def test_repeated_tokens_count_every_occurrence(self, english_lexicon):
        score = score_text("laughter laughter leprosy", [english_lexicon])
        assert score.valence == pytest.approx((8.5 * 2 + 2.1) / 3, abs=1e-12)
        assert score.n_matched == 3

    def test_language_with_most_matches_wins(self, english_lexicon, spanish_lexicon):
        score = score_text("laughter table sol", [english_lexicon, spanish_lexicon])
        assert score.matched_language == "english"
        assert score.valence == pytest.approx((8.5 + 5.2) / 2, abs=1e-12)

    def test_tie_averages_the_tying_language_means(self, english_lexicon, spanish_lexicon):
        score = score_text("laughter sol", [english_lexicon, spanish_lexicon])
        assert score.tie
        assert score.matched_language == "english+spanish"
        assert score.valence == pytest.approx((8.5 + 7.9) / 2, abs=1e-12)
        assert score.n_matched == 1

    def test_no_match_returns_none(self, english_lexicon):
        assert score_text("zzz qqq", [english_lexicon]) is None

    def test_pure_greeting_scores_none_after_stripping(self, english_lexicon, default_stoplist):
        assert score_text("Merry Christmas!", [english_lexicon], default_stoplist) is None

    def test_removed_words_never_match(self, english_lexicon):
        # "christmas" is in the lexicon but on the removed list
        assert score_text("christmas", [english_lexicon]) is None
        permissive = Lexicon("english", dict(english_lexicon.entries), removed_words=frozenset())
        assert score_text("christmas", [permissive]).valence == pytest.approx(7.7)

    def test_score_bounds_are_validated(self):
        with pytest.raises(DataError):
            Lexicon("bad", {"word": (0.5, 5.0, 5.0)})

    def test_empty_lexicon_list_is_an_error(self):
        with pytest.raises(DataError):
            score_text("anything", [])


class TestScoreRecords:
    # Few words and few score values force shared words, ties and removed
    # words; greeting-only texts strip to empty.
    WORDS = ["joy", "sad", "sol", "mesa", "both", "navidad", "feliz", "zzz"]
    VALUE = st.sampled_from([1.0, 2.5, 5.0, 7.25, 9.0])
    LEXICON = st.builds(
        Lexicon,
        language=st.sampled_from(["de", "en", "es", "pt"]),
        entries=st.dictionaries(st.sampled_from(WORDS), st.tuples(VALUE, VALUE, VALUE), max_size=6),
        removed_words=st.frozensets(st.sampled_from(WORDS), max_size=2),
    )

    @settings(max_examples=300, deadline=None)
    @given(
        lexicons=st.lists(LEXICON, min_size=1, max_size=4),
        stoplist=st.sampled_from([None, GreetingStoplist(["feliz navidad", "sad joy", "joy"])]),
        texts=st.lists(st.lists(st.sampled_from(WORDS + ["Feliz Navidad", "JOY", "!"]), max_size=6)
                       .map(" ".join), max_size=8),
    )
    def test_equals_score_text_on_every_record(self, lexicons, stoplist, texts):
        ts = dt.datetime(2010, 1, 3, tzinfo=UTC)
        records = [(ts, "US", text) for text in texts]
        expected = [ScoredRecord(ts, "US", score_text(
            text if stoplist is None else RegexStoplist(stoplist).strip(text), lexicons))
            for text in texts]
        assert score_records(records, lexicons, stoplist) == expected


def shared_lexicons(words, values, n):
    """``n`` lexicons over the same ``words``: a text of them ties all n."""
    return [Lexicon(lang, {w: values[(i + k) % len(values)] for k, w in enumerate(words)},
                    removed_words=frozenset({"navidad"} if i % 2 else ()))
            for i, lang in enumerate(["de", "en", "es", "pt"][:n])]


class TestScoreTexts:
    # "σος" and "σοσ" tell a final sigma from a medial one, "i" is what a
    # lowered dotted capital I tokenizes to, and the rest are words of
    # greetings in the stoplists below.
    WORDS = TestScoreRecords.WORDS + ["σος", "σοσ", "i", "merry", "x", "th", "july", "year", "годом", "πολλά"]
    LEXICON = st.builds(
        Lexicon,
        language=st.sampled_from(["de", "en", "es", "pt"]),
        entries=st.dictionaries(st.sampled_from(WORDS),
                                st.tuples(*[TestScoreRecords.VALUE | st.floats(1.0, 9.0)] * 3),
                                max_size=8),
        removed_words=st.frozensets(st.sampled_from(WORDS), max_size=2),
    )
    # "i sad" strips "İSAD" as it strips "İSAD".lower(): "İ" lowers to "i"
    # and a combining dot, which separates runs.
    STOPLIST = GreetingStoplist(["feliz navidad", "sad joy", "joy", "i sad"])
    BUNDLED = GreetingStoplist.default()
    # Greek and Cyrillic phrases hold letters that re.IGNORECASE would
    # equate with others that str.lower keeps apart (final and medial
    # sigma, iota and U+0345); "ſol mesa" does not match "sol mesa", as
    # str.lower keeps ſ apart from s; and "merry" stands inside "merry x1".
    MIXED = GreetingStoplist(["χρόνια πολλά", "σοσ joy", "с новым годом", "4th of july", "merry x1", "merry",
                              "joy", "ſol mesa"])
    # Arbitrary text beside the words, and pieces that a chunk-wide tokenizer
    # could get wrong at a seam: newlines, carriage returns, a final capital
    # sigma, a dotted capital I, digits, underscores and stoplist phrases,
    # some spelled with a long s or a dotless i, which str.lower keeps
    # apart from s and i; capital sigmas word-final and mid-word, digits
    # that touch letters, and bundled phrases in cased() spellings.
    PIECE = st.one_of(
        st.sampled_from(WORDS + ["Feliz Navidad", "JOY", "!"]),
        st.text(max_size=6),
        st.sampled_from(["\n", "\r", "\r\n", "ΣΟΣ", "ΟΣ", "Σ", "İ", "İSAD", "9", "joy9sad", "_",
                         "sad_joy", "feliz\nnavidad", "SAD JOY", "sad joy feliz navidad",
                         "ſad joy", "ı ſad", "JOY ſol", "ΑΣΑ", "ΣΟΣ JOY", "σοσ_joy", "4th", "4TH OF JULY",
                         "x1merry", "merry x1", "joy4th of july", "ΧΡΌΝΙΑ ΠΟΛΛΆ", "С НОВЫМ ГОДОМ",
                         "ΣΟΣ.merry christmas", "İjoy", "Sol Mesa", "ΧΡΌΝ\u0345Α ΠΟΛΛΆ"]),
        st.builds(cased, st.randoms(), st.sampled_from(BUNDLED.phrases)),
    )
    TEXT = st.lists(st.tuples(PIECE, st.sampled_from(["", " ", "\n"])), max_size=6).map(
        lambda pieces: "".join(piece + sep for piece, sep in pieces))
    # Pool texts: a stoplist candidate it keeps ("sad"), texts it changes,
    # an unscored one, words that shared lexicons tie on, and "İSAD", whose
    # lowered form is one character longer.
    POOLED = st.one_of(TEXT, st.sampled_from(["sad", "JOY", "sad joy sol", "feliz navidad mesa", "",
                                              "zzz", "sol mesa", "İSAD", "ΣΟΣ", "σοσ"]))
    # Texts drawn from a pool of at most four and their lowered forms, so
    # chunks repeat texts within themselves and across their seams, and hold
    # texts that are equal only under str.lower.
    REPEATED = st.lists(POOLED, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool + [text.lower() for text in pool]), max_size=20))

    @settings(max_examples=400, deadline=None)
    @given(
        lexicons=st.one_of(
            st.lists(LEXICON, min_size=1, max_size=4),
            st.builds(shared_lexicons,
                      st.lists(st.sampled_from(WORDS), min_size=1, max_size=5, unique=True),
                      st.lists(st.tuples(*[st.one_of(TestScoreRecords.VALUE, st.floats(1.0, 9.0))] * 3),
                               min_size=1, max_size=3),
                      st.integers(2, 4))),
        stoplist=st.sampled_from([None, STOPLIST, BUNDLED, MIXED]),
        texts=st.one_of(st.lists(TEXT, max_size=20), REPEATED),
        chunk=st.integers(1, 7),
    )
    @example(lexicons=[Lexicon("en", {"sad": (2.5, 5.0, 7.25)})], stoplist=STOPLIST,
             texts=["İSAD", "İSAD".lower(), "İSAD"], chunk=3)
    @example(lexicons=[Lexicon("en", {"joy": (2.5, 5.0, 7.25), "merry": (9.0, 9.0, 9.0), "year": (1.0, 1.0, 1.0),
                                      "σος": (1.0, 2.0, 3.0), "σοσ": (3.0, 2.0, 1.0)})],
             stoplist=BUNDLED, chunk=4,
             texts=["Merry Christmas joy", "merry CHRİSTMAS joy", "MERRY_CHRISTMAS\njoy", "merry chriſtmas",
                    "ΣΟΣ.merry christmas", "happy merry christmas new year joy", "4th of july merry"])
    @example(lexicons=[Lexicon("el", {"σος": (1.0, 2.0, 3.0), "joy": (5.0, 5.0, 5.0), "x": (9.0, 1.0, 5.0),
                                      "sol": (2.0, 2.0, 2.0)})],
             stoplist=MIXED, chunk=5,
             texts=["ΣΟΣ JOY x", "σοσ joy", "4TH of July x", "merry x1 joy", "С НОВЫМ ГОДОМ joy x", "İjoy",
                    "Sol Mesa x"])
    @example(lexicons=[Lexicon("el", {"πολλά": (1.0, 2.0, 3.0), "joy": (5.0, 5.0, 5.0)})],
             stoplist=MIXED, chunk=2,
             texts=["ΧΡΌΝΙΑ ΠΟΛΛΆ joy", "χρόνια πολλά joy", "Χρόνια Πολλά", "χρόν\u0345α πολλά joy",
                    "ΧΡΌΝ\u0345Α ΠΟΛΛΆ"])
    def test_equals_score_text_across_chunk_seams(self, lexicons, stoplist, texts, chunk):
        with mock.patch.object(sentiment, "_CHUNK", chunk):
            cols = score_texts(texts, lexicons, stoplist)
        assert cols.n_matched.shape == (len(texts),)
        assert cols.vad.shape == (len(texts), 3)
        assert cols.winners.shape == (len(texts), len(lexicons))
        for text, n, vad, won in zip(texts, cols.n_matched, cols.vad, cols.winners):
            expected = score_text(text if stoplist is None else RegexStoplist(stoplist).strip(text),
                                  lexicons)
            if expected is None:
                assert n == 0 and not won.any() and np.isnan(vad).all()
                continue
            assert n == expected.n_matched
            assert vad.tolist() == [expected.valence, expected.arousal, expected.dominance]
            names = [lex.language for lex, w in zip(lexicons, won) if w]
            assert "+".join(names) == expected.matched_language
            assert (len(names) > 1) == expected.tie

    def test_final_sigma_and_newlines_tokenize_as_each_text_alone(self):
        # lowered per text, the sigma ending each text is final; a newline
        # inside a text splits tokens and never starts a new text
        lexicons = [Lexicon("el", {"σος": (9.0, 9.0, 9.0), "σοσ": (1.0, 1.0, 1.0), "joy": (5.0, 5.0, 5.0)})]
        texts = ["ΣΟΣ", "ΣΟΣ\njoy", "ΣΟΣ\n", "\nΣΟΣ\n\njoy ΣΟΣ", "σοσ"]
        cols = score_texts(texts, lexicons)
        assert cols.vad[:, 0].tolist() == [score_text(t, lexicons).valence for t in texts]
        assert cols.n_matched.tolist() == [1, 2, 1, 3, 1]

    def test_a_stripped_text_adds_its_scores_in_token_order(self):
        # (1.0 + 1.2 + 1.6) / 3 and (1.6 + 1.2 + 1.0) / 3 differ in the last bit
        lexicons = [Lexicon("es", {"sol": (1.0, 1.0, 1.0), "mesa": (1.2, 1.2, 1.2),
                                   "both": (1.6, 1.6, 1.6)})]
        texts = ["joy sol mesa both", "sol mesa both", "both mesa sol"]
        cols = score_texts(texts, lexicons, self.STOPLIST)
        assert cols.vad[:, 0].tolist() == [score_text(t, lexicons, self.STOPLIST).valence
                                           for t in texts]
        assert cols.vad[0, 0] == cols.vad[1, 0] != cols.vad[2, 0]

    def test_needs_a_lexicon_only_for_texts(self):
        assert score_texts([], []).winners.shape == (0, 0)
        with pytest.raises(DataError):
            score_texts(["joy"], [])

    def test_memory_per_text_does_not_grow_with_the_corpus(self, english_lexicon, spanish_lexicon):
        # chunking holds one chunk's token lists at a time, so beyond the
        # (n, 3) scores, n counts and (n, L) winners, memory stays flat in n
        lexicons = [english_lexicon, spanish_lexicon]
        rng = random.Random(5)
        vocab = ["laughter", "gloom", "sol", "mesa", "zzz", "table", "word", "pena"]
        texts = [" ".join(rng.choice(vocab) for _ in range(8)) for _ in range(16 * 256)]

        def peak(n):
            tracemalloc.start()
            try:
                score_texts(texts[:n], lexicons)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        with mock.patch.object(sentiment, "_CHUNK", 256):
            small, large = peak(2 * 256), peak(16 * 256)
        per_text = (large - small) / (14 * 256)
        result_per_text = 8 + 3 * 8 + len(lexicons)
        assert per_text < 2 * result_per_text


def rec(iso: str, valence: float, country: str = "US") -> ScoredRecord:
    ts = dt.datetime.fromisoformat(iso).replace(tzinfo=UTC)
    return ScoredRecord(ts, country, TextScore(valence, 5.0, 5.0, "english", 1))


# Reference grouping: dict-of-lists group-bys by GMT date, summing with
# explicit loops so the result does not depend on how the Python version's
# sum() adds floats.

def _sunday(day: dt.date) -> dt.date:
    return day - dt.timedelta(days=(day.weekday() + 1) % 7)


def _loop_mean(values) -> float:
    values = list(values)
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def _vad(score: TextScore) -> tuple[float, float, float]:
    return (score.valence, score.arousal, score.dominance)


def reference_aggregate(scored, country):
    by_day: dict[dt.date, list] = {}
    for r in scored:
        if r.country == country and r.score is not None:
            by_day.setdefault(r.timestamp_utc.date(), []).append(_vad(r.score))
    if not by_day:
        return [], []
    first, last = _sunday(min(by_day)), _sunday(max(by_day))
    weeks, gaps = [], []
    for w in range((last - first).days // 7 + 1):
        start = first + dt.timedelta(weeks=w)
        day_means, n = [], 0
        for d in range(7):
            rows = by_day.get(start + dt.timedelta(days=d))
            if rows:
                n += len(rows)
                day_means.append(tuple(_loop_mean(r[i] for r in rows) for i in range(3)))
        if not day_means:
            gaps.append(start)
            continue
        mean = tuple(_loop_mean(m[i] for m in day_means) for i in range(3))
        weeks.append(WeeklyMood(start, mean, n, n < LOW_CONFIDENCE_WEEK))
    return weeks, gaps


def reference_weekly_scores(scored, country):
    by_week: dict[dt.date, list] = {}
    for r in scored:
        if r.country == country and r.score is not None:
            by_week.setdefault(_sunday(r.timestamp_utc.date()), []).append(_vad(r.score))
    return by_week


def reference_bin_weeks(by_week, n_bins):
    return [(week, dim, np.bincount(bin_index([row[i] for row in by_week[week]], n_bins),
                                    minlength=n_bins).tolist())
            for week in sorted(by_week) for i, dim in enumerate(DIMENSIONS)]


_EDGE_SCORES = sorted({float(e) for n in (1, 5, 25) for e in bin_edges(n)})
SCORE = st.one_of(st.sampled_from(_EDGE_SCORES), st.floats(1.0, 9.0))
TEXT_SCORE = st.builds(lambda v, a, d, tie: TextScore(v, a, d, "english", 1, tie),
                       SCORE, SCORE, SCORE, st.booleans())
COUNTRIES = ["US", "GB", "unknown"]
_FIRST_SUNDAY = dt.date(2010, 1, 3)


@st.composite
def local_records(draw):
    """Records stamped in local time at a UTC offset, then converted to UTC
    as ``read_records`` does; late-evening and early-morning local times
    cross GMT midnight, and on Saturdays and Sundays the GMT week."""
    week = draw(st.sampled_from([0, 1, 3, 6]))  # weeks 2, 4 and 5 stay empty
    day = _FIRST_SUNDAY + dt.timedelta(weeks=week, days=draw(st.integers(0, 6)))
    hour = draw(st.sampled_from([0, 1, 12, 22, 23]))
    offset = dt.timedelta(minutes=draw(st.integers(-12 * 60, 14 * 60)))
    local = dt.datetime.combine(day, dt.time(hour, draw(st.integers(0, 59))),
                                dt.timezone(offset))
    score = draw(st.one_of(st.none(), TEXT_SCORE))
    return ScoredRecord(local.astimezone(UTC), draw(st.sampled_from(COUNTRIES)), score)


@st.composite
def corpora(draw):
    """A few scattered records plus one busy week of 0, 99, 100 or 101
    records of one country, so weeks fall on both sides of the
    low-confidence threshold."""
    scored = draw(st.lists(local_records(), max_size=40))
    busy = draw(st.sampled_from([0, 99, 100, 101]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    start = dt.datetime.combine(_FIRST_SUNDAY + dt.timedelta(weeks=1), dt.time(), UTC)
    for _ in range(busy):
        ts = start + dt.timedelta(seconds=rng.randrange(7 * 86400))
        score = TextScore(*(rng.choice(_EDGE_SCORES + [rng.uniform(1, 9)]) for _ in range(3)),
                          "english", 1)
        scored.insert(rng.randrange(len(scored) + 1), ScoredRecord(ts, "US", score))
    return scored


class TestGroupingMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(scored=corpora(), country=st.sampled_from(COUNTRIES))
    def test_aggregate(self, scored, country):
        assert aggregate(scored, country) == reference_aggregate(scored, country)

    @settings(max_examples=300, deadline=None)
    @given(scored=corpora(), country=st.sampled_from(COUNTRIES), n_bins=st.sampled_from([1, 5, 25]))
    def test_weekly_scores_and_bin_weeks(self, scored, country, n_bins):
        by_week = weekly_scores(scored, country)
        expected = reference_weekly_scores(scored, country)
        assert sorted(by_week) == sorted(expected)
        for week, block in by_week.items():
            assert block.shape == (len(expected[week]), 3)
            assert block.tolist() == [list(row) for row in expected[week]]
        got = [(b.week_start, b.dimension, b.counts.tolist()) for b in bin_weeks(by_week, n_bins)]
        assert got == reference_bin_weeks(expected, n_bins)


class TestWeekCellFold:
    @settings(max_examples=300, deadline=None)
    @given(scored=corpora(), data=st.data(), by_stamp=st.booleans(),
           n_bins=st.sampled_from([1, 5, 25]))
    def test_chunks_of_many_groups_fold_to_the_reference(self, scored, data, by_stamp, n_bins):
        # every country's records share the fold, in drawn chunk cuts; sorting
        # by stamp moves the busy week's rows between chunks and days
        mine = [r for r in scored if r.score is not None]
        if by_stamp:
            mine.sort(key=lambda r: r.timestamp_utc)
        codes = dict(zip(COUNTRIES, data.draw(
            st.lists(st.integers(0, 10**6), min_size=3, max_size=3, unique=True))))
        group = np.array([codes[r.country] for r in mine], np.intp)
        days = np.array([r.timestamp_utc.toordinal() for r in mine], np.int64)
        vad = np.array([_vad(r.score) for r in mine]).reshape(-1, 3)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(mine)), max_size=8)))
        totals, bins = DayTotals(), WeekBins(n_bins)
        for lo, hi in zip([0, *cuts], [*cuts, len(mine)]):
            totals.add(group[lo:hi], days[lo:hi], vad[lo:hi])
            bins.add(group[lo:hi], days[lo:hi], vad[lo:hi])
        for country, code in codes.items():
            starts, n_scored, mean = totals.weekly(code)
            weeks = [WeeklyMood(dt.date.fromordinal(start), tuple(m), n, n < LOW_CONFIDENCE_WEEK)
                     for start, n, m in zip(starts.tolist(), n_scored.tolist(), mean.tolist())]
            assert weeks == reference_aggregate(mine, country)[0]
            got = [(b.week_start, b.dimension, b.counts.tolist()) for b in bins.binned(code)]
            assert got == reference_bin_weeks(reference_weekly_scores(mine, country), n_bins)


class TestAggregate:
    def test_days_weigh_equally_regardless_of_volume(self):
        scored = [
            rec("2010-01-03T08:00", 2.0),
            rec("2010-01-03T09:00", 2.0),
            rec("2010-01-03T10:00", 2.0),
            rec("2010-01-04T08:00", 8.0),
        ]
        weeks, gaps = aggregate(scored, "US")
        assert len(weeks) == 1 and not gaps
        assert weeks[0].mean[0] == pytest.approx(5.0, abs=1e-12)
        assert weeks[0].n_scored == 4
        assert weeks[0].week_start == dt.date(2010, 1, 3)

    def test_week_runs_sunday_through_saturday(self):
        scored = [rec("2010-01-09T23:59", 3.0), rec("2010-01-10T00:00", 7.0)]
        weeks, _ = aggregate(scored, "US")
        assert [w.week_start for w in weeks] == [dt.date(2010, 1, 3), dt.date(2010, 1, 10)]
        assert weeks[0].mean[0] == 3.0
        assert weeks[1].mean[0] == 7.0

    def test_weeks_without_records_are_gaps(self):
        scored = [rec("2010-01-03T08:00", 5.0), rec("2010-01-23T23:59", 5.0)]
        weeks, gaps = aggregate(scored, "US")
        assert [w.week_start for w in weeks] == [dt.date(2010, 1, 3), dt.date(2010, 1, 17)]
        assert gaps == [dt.date(2010, 1, 10)]

    def test_low_confidence_threshold(self):
        base = dt.datetime(2010, 1, 3, 0, 0, tzinfo=UTC)
        scored = [
            ScoredRecord(base + dt.timedelta(minutes=i), "US", TextScore(5.0, 5.0, 5.0, "english", 1))
            for i in range(100)
        ]
        weeks, _ = aggregate(scored, "US")
        assert not weeks[0].low_confidence
        weeks, _ = aggregate(scored[:99], "US")
        assert weeks[0].low_confidence

    def test_duplicating_every_record_keeps_means(self):
        scored = [rec("2010-01-03T08:00", 2.0), rec("2010-01-04T08:00", 8.0), rec("2010-01-04T09:00", 3.0)]
        weeks, _ = aggregate(scored, "US")
        doubled, _ = aggregate(scored + scored, "US")
        assert doubled[0].mean == weeks[0].mean
        assert doubled[0].n_scored == 2 * weeks[0].n_scored

    def test_other_countries_and_unscored_records_are_ignored(self):
        scored = [
            rec("2010-01-03T08:00", 2.0),
            rec("2010-01-03T08:00", 9.0, country="GB"),
            ScoredRecord(dt.datetime(2010, 1, 3, 9, tzinfo=UTC), "US", None),
        ]
        weeks, _ = aggregate(scored, "US")
        assert weeks[0].mean[0] == 2.0
        assert weeks[0].n_scored == 1


class TestBinning:
    def test_edges_cover_the_score_range_exactly(self):
        edges = bin_edges()
        assert len(edges) == 26
        assert edges[0] == 1.0 and edges[-1] == 9.0

    def test_endpoints_and_interior(self):
        assert bin_index([1.0]).tolist() == [0]
        assert bin_index([9.0]).tolist() == [24]  # top edge closes the last bin
        assert bin_index([1.32]).tolist() == [1]
        assert bin_index([5.0]).tolist() == [12]

    def test_out_of_range_scores_are_rejected(self):
        with pytest.raises(DataError):
            bin_index([0.9])
        with pytest.raises(DataError):
            bin_index([9.1])

    def test_extreme_scores_split_evenly(self):
        week = bin_weeks({dt.date(2010, 1, 3): np.array([[1.0, 5.0, 5.0], [9.0, 5.0, 5.0]])})[0]
        assert week.dimension == "valence"
        assert week.counts[0] == 1 and week.counts[24] == 1
        assert week.counts.sum() == 2
        assert week.probs[0] == 0.5 and week.probs[24] == 0.5
        assert week.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_a_binned_week_freezes_a_copy_of_the_callers_counts(self):
        counts = np.array([1, 0, 3])
        week = BinnedWeek(dt.date(2010, 1, 3), "valence", counts)
        assert counts.flags.writeable
        assert not week.counts.flags.writeable and not week.probs.flags.writeable
        counts[0] = 7
        assert week.counts.tolist() == [1, 0, 3]
        assert week.probs.tolist() == [0.25, 0.0, 0.75]

    def test_empty_week_cannot_be_binned(self):
        with pytest.raises(DataError):
            bin_weeks({dt.date(2010, 1, 3): np.empty((0, 3))})
