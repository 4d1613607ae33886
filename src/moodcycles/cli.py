"""Command-line pipeline driver.

Each subcommand runs one stage on files produced by the previous stage (no
hidden state) and writes its artifacts atomically into --out, together with
a manifest entry recording input digests and row counts. Options may come
from a flat key=value --config file; command-line flags win.

Exit codes: 0 ok, 1 usage, 2 data error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import datetime as dt
import math
import sys
from pathlib import Path

import numpy as np

from . import countries, eigenmood as em, io, sentiment, stats, synth
from .errors import DataError, MoodcyclesError, NumericalError
from .pipeline import RunManifest, config_hash, load_config, write_manifest
from .timeseries import (
    AnchorKind,
    average_years,
    build_centered_years,
    normalize_births,
    normalize_yearly_max,
    zscore,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(f"{self.prog}: {message}")


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in {"1", "true", "yes", "on"}:
        return True
    if lowered in {"0", "false", "no", "off"}:
        return False
    raise argparse.ArgumentTypeError(f"not a boolean: {text!r}")


def _ranged(kind, rule: str, ok):
    """An option ``type``: ``kind(text)``, refused unless ``ok``, as a flag or in the config."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _parse_anchor(text: str) -> AnchorKind:
    try:
        return AnchorKind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown anchor {text!r}; expected one of "
                                         + ", ".join(k.value for k in AnchorKind)) from None


_DIM_ALIASES = {"v": "valence", "a": "arousal", "d": "dominance"}


def _parse_years(text: str) -> range:
    try:
        first, _, last = text.partition("-")
        y0, y1 = int(first), int(last or first)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad year range {text!r}, expected e.g. 2004-2013") from None
    if y1 < y0:
        raise argparse.ArgumentTypeError(f"empty year range {text!r}")
    if y0 < 1 or y1 > 9999:
        raise argparse.ArgumentTypeError(f"year range {text!r} is outside years 1-9999")
    return range(y0, y1 + 1)


def _parse_dates(text: str) -> list[dt.date]:
    try:
        days = [dt.date.fromisoformat(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad date list {text!r}: {exc}") from None
    if len(set(days)) < len(days):
        raise argparse.ArgumentTypeError(f"repeated date in {text!r}")
    if len(days) < 2:
        raise argparse.ArgumentTypeError(f"needs at least 2 dates, got {text!r}")
    return days


def _parse_dims(text: str) -> list[str]:
    dims = []
    for part in text.split(","):
        name = _DIM_ALIASES.get(part.strip().lower(), part.strip().lower())
        if name not in sentiment.DIMENSIONS:
            raise argparse.ArgumentTypeError(f"unknown dimension {part!r}")
        if name not in dims:
            dims.append(name)
    if not dims:
        raise argparse.ArgumentTypeError("no dimensions given")
    return dims


def _parse_regressors(text: str) -> list[str]:
    paths = [p.strip() for p in text.split(",") if p.strip()]
    if not paths or len({Path(p).stem for p in paths}) < len(paths):  # a stem names its fields
        raise argparse.ArgumentTypeError(
            f"must name at least one file, no two with one stem: {text!r}")
    return paths


def _stoplist(args, manifest: RunManifest) -> sentiment.GreetingStoplist | None:
    if getattr(args, "no_stoplist", False):
        return None
    if getattr(args, "stoplist", None):
        manifest.add_input(args.stoplist)
        phrases = io.read_stoplist_lines(args.stoplist)
        with io.naming(args.stoplist):
            return sentiment.GreetingStoplist(phrases)
    return sentiment.GreetingStoplist.default()


def _fold_scored(args, manifest: RunManifest, fold) -> dict[str, int]:
    """Read and score the records a block of lines at a time, passing each
    block's scored records (only those of ``--country``, when it is given)
    to ``fold(country codes, GMT day ordinals, (n, 3) scores)`` in input
    order; returns each country's code, in first-seen order. Each distinct
    line of a block is scored and coded once, and its columns are gathered
    back to the block's records."""
    manifest.add_input(args.records)
    manifest.add_input(args.lexicons)
    scorer = sentiment.Scorer(sentiment.load_lexicons(args.lexicons), _stoplist(args, manifest))
    codes: dict[str, int] = {}
    n = n_malformed = n_unscored = 0
    for days, countries, texts, row, bad in io.read_record_chunks(args.records, sentiment._CHUNK):
        scores = scorer.score(texts)
        code = np.fromiter((codes.setdefault(c, len(codes)) for c in countries), np.intp,
                           len(countries))
        scored = scores.n_matched > 0
        keep = scored & (code == codes.get(args.country, -1)) if args.country else scored
        kept = row[keep[row]]
        fold(code[kept], days[kept], scores.vad[kept])
        n += len(row)
        n_malformed += bad
        n_unscored += len(row) - int(np.count_nonzero(scored[row]))
    manifest.counts["records"] = n
    manifest.counts["records_malformed"] = n_malformed
    manifest.counts["records_unscored"] = n_unscored
    if n_malformed:
        manifest.warnings.append(f"{n_malformed} malformed record lines skipped")
    return codes


# ------------------------------------------------------------------ subcommands

def cmd_center(args, manifest: RunManifest) -> None:
    manifest.add_input(args.series)
    series = io.read_weekly_series(args.series)
    if args.anchor is AnchorKind.EID_AL_FITR and args.eid_dates:
        manifest.add_input(args.eid_dates)
    cal = io.calendar_for(args.anchor, args.years, args.eid_dates)
    warnings: list[str] = []
    centered = build_centered_years(series, cal, warnings=warnings)
    if not centered:
        raise DataError("no complete centered years in the series span")
    avg = average_years(normalize_yearly_max(centered))
    z = zscore(avg.weeks)
    anchor_z = float(z[cal.anchor_week_index - 1])
    manifest.counts["centered_years"] = len(centered)
    manifest.counts["dropped_weeks"] = sum(len(y.dropped_weeks) for y in centered)
    manifest.warnings.extend(warnings)
    io.write_centered_years(args.out / "centered.csv", centered)
    io.write_averaged_year(args.out / "averaged.csv", avg)
    io.write_table(args.out / "zscores.csv", ["week_index", "z"],
                   [[i, float(v)] for i, v in enumerate(z, start=1)])
    io.write_table(args.out / "anchor_z.csv", ["anchor", "week_index", "z"],
                   [[args.anchor.value, cal.anchor_week_index, anchor_z]])
    print(f"{len(centered)} centered years; anchor-week z = {anchor_z:.3f}")


_CLASSIFICATION_HEADER = [
    "code", "name", "identification", "hemisphere",
    "z_christmas", "z_eid", "z_june", "z_dec", "label", "basis", "tie_resolved",
]

_AGREEMENT_HEADER = ["group_kind", "group", "anchor", "n_group", "n_above", "pct_exact", "pct"]


def _classified(args, manifest: RunManifest):
    """Classify the z table's countries; write classification.csv and agreement.csv.

    Returns the z rows, the profiles and the cohort agreement rows.
    """
    if args.zscores:
        manifest.add_input(args.zscores)
    zrows = io.read_zscore_table(args.zscores or None)
    profiles = countries.build_profiles(zrows, args.threshold, args.orthodox_as_other)
    agreement = countries.cohort_agreement(profiles, args.threshold)
    manifest.counts["countries"] = len(profiles)
    io.write_table(args.out / "classification.csv", _CLASSIFICATION_HEADER, [
        [p.code, p.name, p.identification, p.hemisphere,
         p.response.z_christmas, p.response.z_eid, p.response.z_june, p.response.z_dec,
         p.classification.label, "+".join(p.classification.basis),
         "yes" if p.classification.tie_resolved else "no"]
        for p in profiles
    ])
    io.write_table(args.out / "agreement.csv", _AGREEMENT_HEADER,
                   [[r[k] for k in _AGREEMENT_HEADER] for r in agreement])
    return zrows, profiles, agreement


def cmd_classify(args, manifest: RunManifest) -> None:
    _, profiles, _ = _classified(args, manifest)
    labels = {label: sum(1 for p in profiles if p.classification.label == label)
              for label in ("Christian", "Muslim", "Other")}
    print(f"classified {len(profiles)} countries: " +
          ", ".join(f"{k}={v}" for k, v in labels.items()))


def cmd_compare_terms(args, manifest: RunManifest) -> None:
    manifest.add_input(args.a)
    manifest.add_input(args.b)
    a = io.read_weekly_series(args.a)
    b = io.read_weekly_series(args.b)
    ratio, r = countries.compare_search_terms(a, b, args.min_overlap)
    io.write_table(args.out / "compare.csv", ["volume_ratio", "pearson_r"], [[ratio, r]])
    manifest.counts["weeks_a"] = len(a)
    manifest.counts["weeks_b"] = len(b)
    print(f"volume ratio = {io.fmt(ratio)}, pearson r = {io.fmt(r)}")


def cmd_births(args, manifest: RunManifest) -> None:
    manifest.add_input(args.births)
    data = io.read_births(args.births)
    shifted = {country: normalize_births(entries, args.shift) for country, entries in data.items()}
    rows = io.write_birth_series(args.out / "shifted_births.csv", shifted)
    manifest.counts["countries"] = len(shifted)
    manifest.counts["rows"] = rows
    print(f"shifted birth series for {len(shifted)} countries ({rows} rows)")


def _warn_low_confidence(manifest: RunManifest, n_low: int) -> None:
    if n_low:
        manifest.warnings.append(f"{n_low} low-confidence weeks (fewer than "
                                 f"{sentiment.LOW_CONFIDENCE_WEEK} scored records)")


def cmd_score(args, manifest: RunManifest) -> None:
    totals = sentiment.DayTotals()
    codes = _fold_scored(args, manifest, totals.add)
    wanted = [args.country] if args.country else sorted(set(codes) - {"unknown"})
    weekly = [(country, *totals.weekly(codes.get(country, -1))) for country in wanted]
    n_weeks = n_low = 0
    for country, starts, n_scored, _ in weekly:
        n_weeks += len(starts)
        n_low += int(np.count_nonzero(n_scored < sentiment.LOW_CONFIDENCE_WEEK))
        n_gaps = int(starts[-1] - starts[0]) // 7 + 1 - len(starts) if len(starts) else 0
        if n_gaps:
            manifest.warnings.append(f"{country}: {n_gaps} gap weeks with no scored records")
    if not n_weeks:
        raise DataError(f"no scored records for country {args.country!r}" if args.country
                        else "the records hold no scored record for any country")
    _warn_low_confidence(manifest, n_low)
    n_rows = io.write_weekly_mood(args.out / "weekly_mood.csv", (
        (country, dt.date.fromordinal(start), dim, value, n)
        for country, starts, n_scored, mean in weekly
        for start, n, values in zip(starts.tolist(), n_scored.tolist(), mean.tolist())
        for dim, value in zip(sentiment.DIMENSIONS, values)))
    manifest.counts["countries"] = len(wanted)
    manifest.counts["weekly_rows"] = n_rows
    print(f"wrote weekly means for {len(wanted)} countries ({n_rows} rows)")


def cmd_bin(args, manifest: RunManifest) -> None:
    bins = sentiment.WeekBins(args.bins)
    codes = _fold_scored(args, manifest, bins.add)
    country = args.country
    if not country:
        scored = bins.groups()
        present = [name for name, code in codes.items() if code in scored and name != "unknown"]
        if len(present) > 1:
            raise UsageError("--country is required when records cover several countries")
        if not present:
            raise DataError("the records hold no scored record for any country")
        country = present[0]
    binned = bins.binned(codes.get(country, -1))
    if not binned:
        raise DataError(f"no scored records for country {country!r}")
    weeks = binned[::len(sentiment.DIMENSIONS)]
    _warn_low_confidence(manifest, sum(w.n_scored < sentiment.LOW_CONFIDENCE_WEEK for w in weeks))
    io.write_binned(args.out / "binned.tsv",
                    [(b.week_start, b.dimension, b.n_scored, b.probs) for b in binned],
                    args.bins)
    manifest.counts["weeks"] = len(weeks)
    manifest.counts["binned_rows"] = len(binned)
    print(f"binned {len(weeks)} weeks for {country} into {args.bins} bins")


def _holiday_rows(days: list[dt.date], matrices: dict[str, em.BinnedMoodMatrix]):
    """The week list every loaded dimension shares, and the holiday weeks' rows in it."""
    (first, matrix), *others = matrices.items()
    weeks = matrix.week_starts
    for dim, other in others:
        if other.week_starts != weeks:
            raise DataError(f"binned dimensions {first} and {dim} disagree on their week lists")
    rows = []
    for day in days:
        try:
            rows.append(weeks.index(day))
        except ValueError:
            raise DataError(f"holiday week {day} is not present in the binned data") from None
    return weeks, rows


def _select(args, manifest: RunManifest):
    manifest.add_input(args.binned)
    data = io.read_binned(args.binned)
    matrices = {}
    for dim in args.dims:
        if dim not in data:
            raise DataError(f"{args.binned}: no rows for dimension {dim!r}")
        weeks, _, probs = data[dim]
        matrices[dim] = em.BinnedMoodMatrix(dimension=dim, week_starts=tuple(weeks), matrix=probs)
    with io.naming(args.binned):
        weeks, rows = _holiday_rows(args.holiday_weeks, matrices)
        decs = {dim: em.decompose(m) for dim, m in matrices.items()}
        mood = em.select_eigenmood(decs, rows, holiday=args.holiday,
                                   var_threshold=args.var_threshold, alt_score=args.alt_score)
    manifest.counts["weeks"] = len(weeks)
    manifest.counts["holiday_weeks"] = len(rows)
    manifest.counts["candidates"] = len(mood.selection)
    return weeks, matrices, decs, rows, mood


def _write_eigenmood_json(mood: em.Eigenmood, args) -> None:
    # component indices are reported both absolute (1 = base distribution)
    # and relative to the post-baseline tail, since either convention is
    # common when naming components like "v4".
    io.write_json(args.out / "eigenmood.json", {
        "holiday": mood.holiday,
        "var_threshold": args.var_threshold,
        "alt_score": bool(args.alt_score),
        "components": [
            {
                "dimension": c.dimension,
                "index": c.index,
                "index_after_baseline": c.index - 1,
                "label": c.label,
                "singular_value": c.singular_value,
            }
            for c in mood.components
        ],
    })


def cmd_eigenmood(args, manifest: RunManifest) -> None:
    weeks, matrices, decs, _, mood = _select(args, manifest)

    # per selected dimension, the linguistic characterization of the
    # holiday's mean reconstructed change (it needs 25 bins) and the heatmap
    # of the two-component reconstruction, computed before any output is written
    means = {(c.dimension, c.index): c.mean for c in mood.selection}
    ling_rows, heatmaps = [], {}
    for dim in sentiment.DIMENSIONS:
        comps = [c for c in mood.components if c.dimension == dim]
        if not comps:
            continue
        recon_row = np.zeros(matrices[dim].n_bins)
        for c in comps:
            recon_row += means[c.dimension, c.index] * c.eigenbin
        with io.naming(args.binned):
            response = em.linguistic_response(recon_row)
        for level, value in response.items():
            ling_rows.append([dim, level, value])
        heatmaps[dim] = em.heatmap(decs[dim].reconstruct([c.index for c in comps]))
    projs = em.project_weeks(mood, matrices)

    dec_rows = []
    for dim in sentiment.DIMENSIONS:
        if dim in decs:
            dec = decs[dim]
            for k in range(1, dec.rank + 1):
                dec_rows.append([dim, k, float(dec.S[k - 1]), float(dec.rel_var[k - 1])])
    io.write_table(args.out / "decomposition.csv",
                   ["dimension", "component", "singular_value", "rel_var"], dec_rows)

    selected = {(c.dimension, c.index) for c in mood.components}
    sel_rows = [
        [rank, c.dimension, c.index, c.index - 1, c.mean, c.std, c.score,
         "yes" if (c.dimension, c.index) in selected else "no"]
        for rank, c in enumerate(mood.selection, start=1)
    ]
    io.write_table(args.out / "selection.csv",
                   ["rank", "dimension", "component", "component_after_baseline",
                    "mean", "std", "score", "selected"], sel_rows)
    _write_eigenmood_json(mood, args)

    io.write_table(args.out / "projections.csv", ["week_start", "coord1", "coord2"],
                   [[w.isoformat(), p.coords[0], p.coords[1]] for w, p in zip(weeks, projs)])

    io.write_table(args.out / "linguistic.csv", ["dimension", "level", "response"], ling_rows)

    header = ["bin"] + [w.isoformat() for w in weeks]
    for dim, (dev, signs) in heatmaps.items():
        io.write_table(args.out / f"heatmap_{dim}.tsv", header,
                       [[b + 1] + [float(v) for v in row] for b, row in enumerate(dev)],
                       delimiter="\t")
        io.write_table(args.out / f"heatmap_{dim}_signs.tsv", header,
                       [[b + 1] + row for b, row in enumerate(signs)], delimiter="\t")

    print(f"eigenmood for {mood.holiday}: {mood.labels[0]}, {mood.labels[1]} "
          f"({len(mood.selection)} candidates)")


def cmd_similarity(args, manifest: RunManifest) -> None:
    weeks, matrices, _, rows, mood = _select(args, manifest)
    projs = em.project_weeks(mood, matrices)
    holiday_mean = em.mean_projection([projs[r] for r in rows])
    sims = [em.similarity(p, holiday_mean) for p in projs]
    io.write_table(args.out / "projections.csv",
                   ["week_start", "coord1", "coord2", "similarity"],
                   [[w.isoformat(), p.coords[0], p.coords[1], s]
                    for w, p, s in zip(weeks, projs, sims)])
    io.write_table(args.out / "similarity.csv", ["week_start", "similarity"],
                   [[w.isoformat(), s] for w, s in zip(weeks, sims)])
    _write_eigenmood_json(mood, args)
    print(f"projected {len(weeks)} weeks onto {mood.labels[0]}, {mood.labels[1]}")


def _joined(y_path: str, x_paths: list[str]) -> tuple[np.ndarray, np.ndarray, list[str]]:
    y_map = io.read_keyed_values(y_path)
    x_maps = [io.read_keyed_values(p) for p in x_paths]
    keys = sorted(set(y_map).intersection(*x_maps))
    if len(keys) < 3:
        raise DataError(f"only {len(keys)} keys shared between y and x files")
    y = np.array([y_map[k] for k in keys])
    X = np.column_stack([[m[k] for k in keys] for m in x_maps])
    return X, y, keys


def cmd_regress(args, manifest: RunManifest) -> None:
    manifest.add_input(args.y)
    for p in args.x:
        manifest.add_input(p)
    X, y, keys = _joined(args.y, args.x)
    result = stats.ols(X, y)
    manifest.counts["observations"] = result.n
    rows = [["n", float(result.n)],
            ["r_squared", result.r_squared],
            ["f_stat", result.f_stat],
            ["f_pvalue", result.f_pvalue],
            ["intercept", result.intercept]]
    bonf = result.bonferroni(len(args.x))
    for i, name in enumerate(Path(p).stem for p in args.x):
        rows.append([f"coef_{name}", float(result.coef[i])])
        rows.append([f"t_{name}", float(result.t_stats[i])])
        rows.append([f"t_pvalue_{name}", float(result.t_pvalues[i])])
        rows.append([f"t_pvalue_bonferroni_{name}", float(bonf[i])])
    io.write_table(args.out / "regression.csv", ["field", "value"], rows)
    print(f"OLS on {result.n} observations: R^2 = {result.r_squared:.4f}, "
          f"F p = {result.f_pvalue:.3g}")


def cmd_dcor(args, manifest: RunManifest) -> None:
    if args.permutations > 0 and args.seed is None:
        raise UsageError("--seed is required when --permutations > 0")
    if len(args.x) > 1:
        raise UsageError(f"dcor takes one --x file, not {len(args.x)}")
    manifest.add_input(args.x[0])
    manifest.add_input(args.y)
    X, y, _ = _joined(args.y, args.x)
    dcov, dcor, p = stats.distance_statistics(X[:, 0], y, args.permutations, args.seed)
    rows = [["dcov", dcov], ["dcor", dcor]]
    if p is not None:
        rows += [["permutation_p", p], ["n_permutations", float(args.permutations)]]
        manifest.counts["permutations"] = args.permutations
    manifest.counts["observations"] = len(y)
    io.write_table(args.out / "dcor.csv", ["field", "value"], rows)
    print(f"dCov = {io.fmt(dcov)}, dCor = {io.fmt(dcor)}" +
          (f", p = {io.fmt(p)}" if p is not None else ""))


def cmd_report(args, manifest: RunManifest) -> None:
    zrows, profiles, agreement = _classified(args, manifest)

    expected = io.expected_agreement()
    actual = {(r["group_kind"], r["group"], r["anchor"]): r["pct"] for r in agreement}
    variant = countries.build_profiles(zrows, args.threshold, orthodox_as_other=True)
    for row in countries.cohort_agreement(variant, args.threshold):
        if row["group_kind"] == "identification" and row["group"] == "Christian":
            actual[("identification-orthodox-as-other", "Christian", row["anchor"])] = row["pct"]
    check_rows = []
    mismatches = 0
    for key in sorted(expected):
        got = actual.get(key)
        ok = got == expected[key]
        if not ok:
            mismatches += 1
        check_rows.append(list(key) + [expected[key], "" if got is None else got,
                                       "yes" if ok else "NO"])
    io.write_table(args.out / "agreement_check.csv",
                   ["group_kind", "group", "anchor", "expected_pct", "actual_pct", "match"],
                   check_rows)
    manifest.counts["cells_checked"] = len(check_rows)
    manifest.counts["cells_mismatched"] = mismatches
    if mismatches:
        manifest.warnings.append(f"{mismatches} agreement cells differ from the expected table")

    lines = [
        "# Holiday classification report",
        "",
        f"Countries classified: {len(profiles)} (threshold z > {args.threshold}).",
        "",
        "## Agreement with self-reported identification and hemisphere",
        "",
        "| group kind | group | anchor | share above threshold |",
        "|---|---|---|---|",
    ]
    for r in agreement:
        lines.append(f"| {r['group_kind']} | {r['group']} | {r['anchor']} | "
                     f"{r['pct']}% ({r['n_above']}/{r['n_group']}) |")
    lines += [
        "",
        f"Expected-table check: {len(check_rows) - mismatches}/{len(check_rows)} cells match.",
        "",
    ]
    with io.atomic_write(args.out / "report.md") as fh:
        fh.write("\n".join(lines))
    status = "all cells match" if mismatches == 0 else f"{mismatches} MISMATCHES"
    print(f"report written ({status})")


def cmd_synth(args, manifest: RunManifest) -> None:
    try:
        spec = synth.SynthSpec(
            seed=args.seed if args.seed is not None else 42,
            n_years=args.n_years,
            records_per_week=args.records_per_week,
        )
    except DataError as exc:
        raise UsageError(f"--n-years {args.n_years}, --records-per-week "
                         f"{args.records_per_week}: {exc}") from None
    summary = synth.generate_synthetic(args.out, spec)
    manifest.counts["records"] = summary["n_records"]
    manifest.counts["weeks"] = summary["n_weeks"]
    print(f"synthetic corpus: {summary['n_records']} records over {summary['n_weeks']} weeks "
          f"(seed {spec.seed})")


# ------------------------------------------------------------------ entry point

def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(prog="moodcycles", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="flat key=value config file; flags override it")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser, metavar="COMMAND")
    commands: dict[str, _Parser] = {}
    finite = _ranged(float, "a finite number", math.isfinite)
    count = _ranged(int, "at least 0", lambda n: n >= 0)

    def add(name: str, func, help_text: str, need=()) -> _Parser:
        """Declare a subcommand; ``main`` checks --out and the ``need`` options before it runs."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func, need=("out", *need))
        p.add_argument("--out", help="output directory")
        commands[name] = p
        return p

    p = add("center", cmd_center, "re-center a weekly series on a recurring anchor",
            need=("series", "anchor"))
    p.add_argument("--series", help="weekly series CSV (week_start,value)")
    p.add_argument("--anchor", type=_parse_anchor, help=" | ".join(k.value for k in AnchorKind))
    p.add_argument("--years", type=_parse_years, default="2004-2013",
                   help="solar anchor year range, e.g. 2004-2013")
    p.add_argument("--eid-dates", help="anchor date CSV overriding the bundled Eid table")

    add("classify", cmd_classify, "classify countries from holiday z-scores")

    p = add("compare-terms", cmd_compare_terms, "volume ratio and correlation of two series",
            need=("a", "b"))
    p.add_argument("--a", help="numerator weekly series CSV")
    p.add_argument("--b", help="reference weekly series CSV")
    p.add_argument("--min-overlap", type=_ranged(int, "at least 2", lambda n: n >= 2),  # an r needs 2
                   default=8, help="minimum overlapping weeks")

    p = add("births", cmd_births, "normalize monthly births and shift to conception months",
            need=("births",))
    p.add_argument("--births", help="monthly births CSV (country,year,month,count)")
    p.add_argument("--shift", type=_ranged(int, "in [0, 12)", lambda n: 0 <= n < 12), default=9,
                   help="months to shift back (default 9)")

    for name, func, help_text in (
        ("score", cmd_score, "score text records and aggregate weekly means"),
        ("bin", cmd_bin, "score text records and bin weekly distributions"),
    ):
        p = add(name, func, help_text, need=("records", "lexicons"))
        p.add_argument("--records", help="TSV records: timestamp_utc, country, text")
        p.add_argument("--lexicons", help="lexicon CSV (language,word,valence,arousal,dominance)")
        p.add_argument("--stoplist", help="greeting stoplist file (default: bundled list)")
        p.add_argument("--no-stoplist", action="store_true", help="skip greeting removal")
        p.add_argument("--country", help="restrict to one country code")
        if name == "bin":
            # 3 float64 counts per bin in each (country, week) cell: 24 KB at most
            p.add_argument("--bins", type=_ranged(int, "in [2, 1000]", lambda n: 2 <= n <= 1000),
                           default=sentiment.N_BINS, help="number of score bins (default 25)")

    for name, func, help_text in (
        ("eigenmood", cmd_eigenmood, "decompose binned weeks and select a holiday eigenmood"),
        ("similarity", cmd_similarity, "project weeks and compare them with the holiday mean"),
    ):
        p = add(name, func, help_text, need=("binned", "holiday-weeks"))
        p.add_argument("--binned", help="binned TSV from the bin stage")
        p.add_argument("--holiday-weeks", type=_parse_dates,
                       help="comma-separated week-start dates of the holiday (at least 2)")
        p.add_argument("--holiday", default="holiday", help="name for the anchor in outputs")
        p.add_argument("--dims", type=_parse_dims, default="v,a,d",
                       help="dimensions to decompose (default v,a,d)")
        p.add_argument("--var-threshold", default=0.95,
                       type=_ranged(float, "in (0, 1]", lambda v: 0 < v <= 1),
                       help="share of post-baseline variance to keep (default 0.95)")
        p.add_argument("--alt-score", action="store_true",
                       help="rank candidates by |mean - std| instead of |mean| - std")

    p = add("regress", cmd_regress, "ordinary least squares between keyed CSV files",
            need=("y", "x"))
    p.add_argument("--y", help="response CSV (key,value)")
    p.add_argument("--x", type=_parse_regressors, help="regressor CSV, or several comma-separated")

    p = add("dcor", cmd_dcor, "distance covariance/correlation with permutation test",
            need=("x", "y"))
    # regress's type, so one config key x has one rule; dcor refuses several files
    p.add_argument("--x", type=_parse_regressors, help="regressor CSV (key,value)")
    p.add_argument("--y", help="response CSV (key,value)")
    p.add_argument("--permutations", type=count, default=999,
                   help="permutations for the p-value (default 999; 0 disables)")
    p.add_argument("--seed", type=count, help="RNG seed (required when permutations > 0)")

    add("report", cmd_report, "compose classification tables and check them")
    for name in ("classify", "report"):
        p = commands[name]
        p.add_argument("--zscores", help="z-score table CSV (default: bundled table)")
        p.add_argument("--threshold", type=finite, default=1.0, help="z threshold (default 1.0)")
        p.add_argument("--orthodox-as-other", action="store_true",
                       help="group January-Christmas countries as Other")

    p = add("synth", cmd_synth, "generate a deterministic synthetic corpus")
    p.add_argument("--seed", type=count, help="generator seed (default 42)")
    p.add_argument("--n-years", type=int, default=3, help="years of weekly data (default 3)")
    p.add_argument("--records-per-week", type=int, default=400,
                   help="records per week (default 400)")

    return parser, commands


def _apply_config(parser: _Parser, commands: dict[str, _Parser], argv: list[str]) -> argparse.Namespace:
    """Parse argv with config-file values installed as subcommand defaults.

    Config keys are the subcommands' option names (``dest``, e.g.
    ``holiday_weeks``) and become the chosen subcommand's option defaults,
    so explicit flags always win. Each subcommand with the key's option
    coerces the value as the option does (``_bool`` for a switch), so a bad
    value is a usage error whichever stage runs, but only the chosen one
    uses it (one config file may drive several stages). A key that no
    subcommand has is a usage error. Errors name the key's file and line.
    """
    probe = _Parser(add_help=False)
    probe.add_argument("--config")
    known, rest = probe.parse_known_args(argv)
    if known.config:
        chosen = commands.get(rest[0]) if rest else None
        for key, (raw, line) in load_config(known.config).items():
            where = f"{known.config}:{line}"
            options = [(command, action) for command in commands.values()
                       for action in command._actions if action.dest == key != "help"]
            if not options:
                raise UsageError(f"{where}: unknown config key {key!r}")
            for command, action in options:
                try:
                    value = (_bool if action.nargs == 0 else action.type or str)(raw)
                except (ValueError, argparse.ArgumentTypeError) as exc:
                    raise UsageError(f"{where}: config key {key!r}: bad value {raw!r}: {exc}") from exc
                if command is chosen:
                    command.set_defaults(**{key: value})
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = _build_parser()
    try:
        args = _apply_config(parser, commands, argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            print("moodcycles: a subcommand is required", file=sys.stderr)
            return 1
        missing = [f"--{n}" for n in args.need if getattr(args, n.replace("-", "_")) in (None, "")]
        if missing:
            raise UsageError("missing required option(s): " + ", ".join(missing))
        settings = {k: v for k, v in vars(args).items() if k not in ("func", "need", "config")}
        manifest = RunManifest(command=args.command, config_hash=config_hash(settings))
        args.out = Path(args.out)  # made by the stage's first write, so a failed stage leaves none
        args.func(args, manifest)
        write_manifest(args.out, manifest)
        return 0
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (DataError, MoodcyclesError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"data error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
