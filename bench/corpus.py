"""Seeded input generators for the benchmark workloads.

Every generator derives all of its output from one integer seed through
``random.Random``, whose sequence is stable across Python versions, so the
same seed writes the same bytes. Floats are written with ``repr`` so a
reader recovers exactly the values the generator kept for its checks.
"""

from __future__ import annotations

import datetime as dt
import itertools
import json
import math
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path

# ------------------------------------------------------------ multilingual text

# (code, UTC offset in minutes, share of records, {language: share of texts})
COUNTRIES = (
    ("US", -300, 0.22, {"en": 0.85, "es": 0.15}),
    ("BR", -180, 0.15, {"pt": 0.9, "es": 0.05, "en": 0.05}),
    ("MX", -360, 0.12, {"es": 0.9, "en": 0.1}),
    ("ES", 60, 0.10, {"es": 0.85, "en": 0.1, "pt": 0.05}),
    ("DE", 60, 0.09, {"de": 0.85, "en": 0.15}),
    ("IN", 330, 0.08, {"en": 1.0}),
    ("GB", 0, 0.07, {"en": 0.9, "de": 0.05, "es": 0.05}),
    ("AR", -180, 0.06, {"es": 0.95, "pt": 0.05}),
    ("AU", 600, 0.06, {"en": 1.0}),
    ("JP", 540, 0.05, {"en": 0.5, "de": 0.25, "pt": 0.25}),
)

# Syllables per language; accented letters exercise the Unicode tokenizer.
_SYLLABLES = {
    "en": ("ba", "th", "ow", "ri", "sle", "mor", "ght", "wi", "ck", "ly", "ster", "pa"),
    "es": ("ca", "ño", "rra", "lé", "ju", "ci", "ón", "gue", "lla", "te", "mi", "sá"),
    "pt": ("ção", "lh", "nh", "ão", "pe", "dú", "xi", "ro", "bê", "qua", "fi", "ma"),
    "de": ("sch", "ü", "ei", "tz", "ber", "kn", "ö", "rau", "pf", "ung", "ä", "zi"),
}

# Greeting first tokens that the lexicons also score, so a text that keeps
# them (a greeting's first word outside a greeting) scores differently from
# one whose greeting was stripped.
_GREETING_WORDS = {"en": ("happy", "merry"), "es": ("feliz",), "pt": ("feliz",)}


@dataclass(frozen=True)
class CorpusSpec:
    """Properties the multilingual corpus is asked to have."""

    seed: int
    n_records: int = 100_000
    languages: tuple[str, ...] = ("de", "en", "es", "pt")
    words_per_language: int = 3000
    shared_words: int = 300              # scored by every lexicon: forces ties
    filler_words: int = 2000             # in no lexicon
    token_length_range: tuple[int, int] = (4, 20)
    greeting_share: float = 0.10         # texts holding a bundled stoplist phrase
    loose_first_token_share: float = 0.08  # greeting first token outside a greeting
    malformed_share: float = 0.01
    start: str = "2012-01-01"            # a Sunday; timestamps span n_weeks
    n_weeks: int = 104
    countries: tuple[str, ...] = tuple(c[0] for c in COUNTRIES)
    utc_offsets_minutes: tuple[int, ...] = tuple(c[1] for c in COUNTRIES)
    bin_country: str = "US"


@dataclass
class Corpus:
    """What was written, plus the ground truth the checks need."""

    spec: CorpusSpec
    records_path: Path
    lexicon_path: Path
    lexicons: dict[str, dict[str, tuple[float, float, float]]]
    # well-formed records in file order: (GMT day, country, text)
    truth: list[tuple[dt.date, str, str]] = field(repr=False)
    n_malformed: int = 0
    n_with_greeting: int = 0
    n_loose_first_token: int = 0


def _words(rng: random.Random, syllables, count: int, seen: set[str]) -> list[str]:
    out = []
    while len(out) < count:
        word = "".join(rng.choice(syllables) for _ in range(rng.randint(2, 4)))
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def _score(rng: random.Random) -> tuple[float, float, float]:
    return tuple(round(rng.uniform(1.0, 9.0), 2) for _ in range(3))


def _stoplist_phrases(src_root: Path) -> list[str]:
    path = src_root / "moodcycles" / "fixtures" / "holiday_greetings.txt"
    return [line.strip() for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def _fmt_stamp(utc: dt.datetime, offset_min: int) -> str:
    local = utc + dt.timedelta(minutes=offset_min)
    sign = "+" if offset_min >= 0 else "-"
    hh, mm = divmod(abs(offset_min), 60)
    return local.strftime("%Y-%m-%dT%H:%M:%S") + f"{sign}{hh:02d}:{mm:02d}"


_SEPARATORS = (", ", " 2013 ", " ")
_SEPARATOR_CUM = (0.08, 0.10, 1.0)


def _dressed(rng: random.Random, tokens: list[str]) -> str:
    """Join tokens with the punctuation, case and digits real posts carry."""
    if rng.random() < 0.3:
        tokens = [tokens[0].capitalize()] + tokens[1:]
    seps = rng.choices(_SEPARATORS, cum_weights=_SEPARATOR_CUM, k=len(tokens))
    text = "".join(tok + sep for tok, sep in zip(tokens, seps)).rstrip(" ,")
    return text + rng.choice(("", "", "!", ".", " :)", "!!"))


def generate_multilingual(out_dir: Path, spec: CorpusSpec, src_root: Path) -> Corpus:
    """Write records.tsv, lexicon.csv and corpus.json into ``out_dir``."""
    rng = random.Random(spec.seed)
    seen: set[str] = {w for words in _GREETING_WORDS.values() for w in words}
    phrases = _stoplist_phrases(src_root)
    for phrase in phrases:
        seen.update(phrase.lower().split())

    shared = _words(rng, _SYLLABLES["en"] + _SYLLABLES["de"], spec.shared_words, seen)
    vocab: dict[str, list[str]] = {}
    filler: dict[str, list[str]] = {}
    lexicons: dict[str, dict[str, tuple[float, float, float]]] = {}
    for lang in spec.languages:
        vocab[lang] = _words(rng, _SYLLABLES[lang], spec.words_per_language, seen)
        filler[lang] = _words(rng, _SYLLABLES[lang], spec.filler_words, seen)
        entries = {w: _score(rng) for w in vocab[lang]}
        for w in shared:
            entries[w] = _score(rng)
        for w in _GREETING_WORDS.get(lang, ()):
            entries[w] = _score(rng)
        lexicons[lang] = entries

    # Token mix: 55% the text's language, 10% the shared block, 5% any
    # language's lexicon words, 30% filler words no lexicon scores.
    every_vocab = [w for lang in spec.languages for w in vocab[lang]]
    pools, cum = {}, {}
    for lang in spec.languages:
        parts = ((vocab[lang], 0.55), (shared, 0.10), (every_vocab, 0.05), (filler[lang], 0.30))
        pools[lang] = [w for words, _ in parts for w in words]
        cum[lang] = list(itertools.accumulate(
            share / len(words) for words, share in parts for _ in words))

    loose = sorted({p.lower().split()[0] for p in phrases})
    start = dt.datetime.fromisoformat(spec.start).replace(tzinfo=dt.timezone.utc)
    span_seconds = spec.n_weeks * 7 * 86400
    codes = [c[0] for c in COUNTRIES]
    country_cum = list(itertools.accumulate(c[2] for c in COUNTRIES))
    offsets = {c[0]: c[1] for c in COUNTRIES}
    mixes = {c[0]: (list(c[3]), list(itertools.accumulate(c[3].values()))) for c in COUNTRIES}
    lo, hi = spec.token_length_range
    n_bad = round(spec.n_records * spec.malformed_share)
    bad_at = set(rng.sample(range(spec.n_records), n_bad))

    truth: list[tuple[dt.date, str, str]] = []
    lines: list[str] = []
    n_greet = n_loose = 0
    for i in range(spec.n_records):
        country = rng.choices(codes, cum_weights=country_cum)[0]
        utc = start + dt.timedelta(seconds=rng.randrange(span_seconds))
        stamp = _fmt_stamp(utc, offsets[country])
        langs, lang_cum = mixes[country]
        lang = rng.choices(langs, cum_weights=lang_cum)[0]
        n_tokens = rng.randint(lo, hi)
        tokens = rng.choices(pools[lang], cum_weights=cum[lang], k=n_tokens)
        if rng.random() < spec.greeting_share:
            phrase = rng.choice(phrases)
            words = phrase.split()
            if rng.random() < 0.5:
                words = [w.capitalize() for w in words]
            keep = max(1, n_tokens - len(words))
            pos = rng.randint(0, keep)
            tokens = tokens[:pos] + words + tokens[pos:keep]
            n_greet += 1
        if rng.random() < spec.loose_first_token_share:
            tokens.insert(rng.randrange(len(tokens)), rng.choice(loose))
            n_loose += 1
        text = _dressed(rng, tokens)
        if i in bad_at:
            kind = i % 4
            if kind == 0:
                lines.append(f"{stamp}\t{country}")
            elif kind == 1:
                lines.append(f"{utc.year}-02-30T10:00:00+01:00\t{country}\t{text}")
            elif kind == 2:
                lines.append(f"not a record {text}")
            else:
                lines.append(f"{stamp}\t{country}\t{text}\textra")
            continue
        lines.append(f"{stamp}\t{country}\t{text}")
        truth.append((utc.date(), country, text))

    out_dir.mkdir(parents=True, exist_ok=True)
    records_path = out_dir / "records.tsv"
    records_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    lexicon_path = out_dir / "lexicon.csv"
    rows = ["language,word,valence,arousal,dominance"]
    for lang in sorted(lexicons):
        for word, (v, a, d) in lexicons[lang].items():
            rows.append(f"{lang},{word},{v!r},{a!r},{d!r}")
    lexicon_path.write_text("\n".join(rows) + "\n", encoding="utf-8")

    corpus = Corpus(spec, records_path, lexicon_path, lexicons, truth,
                    n_malformed=n_bad, n_with_greeting=n_greet, n_loose_first_token=n_loose)
    props = asdict(spec)
    props.update(n_malformed=n_bad, n_with_greeting=n_greet, n_loose_first_token=n_loose,
                 n_well_formed=len(truth))
    (out_dir / "corpus.json").write_text(json.dumps(props, indent=2, sort_keys=True) + "\n",
                                         encoding="utf-8")
    return corpus


# ------------------------------------------------------------ stats series


@dataclass
class StatsInputs:
    series: Path
    term_b: Path
    regress_y: Path
    regress_x: list[Path]
    dcor_x: Path
    dcor_y: Path
    dcor_seed: int


_CHRISTMAS = [dt.date(y, 12, 25) for y in range(2004, 2014)]


def _eid_dates(src_root: Path) -> list[dt.date]:
    path = src_root / "moodcycles" / "fixtures" / "eid_al_fitr_dates.csv"
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    return [dt.date.fromisoformat(r.split(",")[1]) for r in rows if r.strip()]


def _write_pairs(path: Path, header: str, pairs) -> None:
    path.write_text(header + "\n" + "".join(f"{k},{v!r}\n" for k, v in pairs), encoding="utf-8")


def generate_stats(out_dir: Path, seed: int, src_root: Path, n_keyed: int = 500) -> StatsInputs:
    """A 10-year weekly series with Christmas and Eid spikes, a second search
    term, three-regressor keyed data and a nonlinearly dependent x,y pair."""
    rng = random.Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    first = dt.date(2004, 1, 4)  # a Sunday
    n_weeks = 522
    anchors = _CHRISTMAS + _eid_dates(src_root)
    spikes = {(a - first).days // 7 for a in anchors if 0 <= (a - first).days < 7 * n_weeks}
    a_vals, b_vals = [], []
    for w in range(n_weeks):
        base = 40.0 + 10.0 * math.sin(2 * math.pi * w / 52.18) + rng.gauss(0.0, 3.0)
        a = base + (60.0 + rng.uniform(0.0, 20.0) if w in spikes else 0.0)
        a_vals.append(round(a, 3))
        b_vals.append(round(0.4 * a + 15.0 + rng.gauss(0.0, 4.0), 3))
    weeks = [(first + dt.timedelta(weeks=w)).isoformat() for w in range(n_weeks)]
    series, term_b = out_dir / "series.csv", out_dir / "term_b.csv"
    _write_pairs(series, "week_start,value", zip(weeks, a_vals))
    _write_pairs(term_b, "week_start,value", zip(weeks, b_vals))

    keys = [f"k{i:05d}" for i in range(n_keyed)]
    coef = (2.0, -0.5, 0.8)
    xs = [[round(rng.gauss(0.0, 1.0), 6) for _ in keys] for _ in coef]
    y = [round(1.5 + sum(c * x[i] for c, x in zip(coef, xs)) + rng.gauss(0.0, 0.5), 6)
         for i in range(n_keyed)]
    regress_y = out_dir / "reg_y.csv"
    _write_pairs(regress_y, "key,value", zip(keys, y))
    regress_x = []
    for j, x in enumerate(xs, start=1):
        path = out_dir / f"reg_x{j}.csv"
        _write_pairs(path, "key,value", zip(keys, x))
        regress_x.append(path)

    # y depends on x only through x**2: no linear correlation, strong dCor
    u = [round(rng.uniform(-1.0, 1.0), 6) for _ in keys]
    v = [round(ui * ui + rng.gauss(0.0, 0.1), 6) for ui in u]
    dcor_x, dcor_y = out_dir / "dep_x.csv", out_dir / "dep_y.csv"
    _write_pairs(dcor_x, "key,value", zip(keys, u))
    _write_pairs(dcor_y, "key,value", zip(keys, v))
    return StatsInputs(series, term_b, regress_y, regress_x, dcor_x, dcor_y,
                       dcor_seed=rng.randrange(1, 2**31))
