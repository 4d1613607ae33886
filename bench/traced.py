"""In-process mirror of the CLI stages, with a span around each module call.

Each function here calls the package's public functions in the same order
as the matching ``moodcycles`` subcommand and writes the same artifacts, so
the per-layer self times describe what the untraced CLI run spends.
``run.py --self-check`` compares this mirror's output files with the CLI's
byte for byte, so a CLI change it does not follow fails there. Work
the benchmark adds for its own counters or checks is deferred until the
stage's span has closed, so it lands in no span.

One deliberate difference: greeting stripping is called as
``GreetingStoplist.strip`` per text, and ``score_records`` then runs with
``stoplist=None``. Stripping is idempotent and happens before tokenizing,
so the scores are identical; the first traced pass asserts that on a
fixed sample of records.
"""

from __future__ import annotations

import datetime as dt
import json
import os
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from moodcycles import countries, io, sentiment, stats
from moodcycles import eigenmood as em
from moodcycles.pipeline import RunManifest, config_hash, write_manifest
from moodcycles.timeseries import (
    AnchorKind,
    average_years,
    build_centered_years,
    normalize_yearly_max,
    zscore,
)

from spans import Recorder

# name -> unit; every span outside "stage.*" is named after one of the
# timing metrics below without its "_s" suffix.
PER_LAYER = {
    "import.cli_s": "s",
    "import.scipy_stats_s": "s",
    "cli.glue_s": "s",
    "io.read_records_s": "s",
    "io.read_records_bytes": "bytes",
    "io.records_malformed": "count",
    "io.read_binned_s": "s",
    "io.read_keyed_values_s": "s",
    "io.read_weekly_series_s": "s",
    "io.read_zscore_table_s": "s",
    "io.read_fixtures_s": "s",
    "io.write_s": "s",
    "pipeline.input_digest_s": "s",
    "pipeline.digest_bytes": "bytes",
    "synth.generate_s": "s",
    "sentiment.load_lexicons_s": "s",
    "sentiment.score_records_s": "s",
    "sentiment.tokens": "count",
    "sentiment.lexicon_lookups": "count",
    "sentiment.records_scored": "count",
    "sentiment.records_unscored": "count",
    "sentiment.tie_records": "count",
    "sentiment.stoplist_build_s": "s",
    "sentiment.stoplist_strip_s": "s",
    "sentiment.stoplist_prefilter_pass": "count",
    "sentiment.stoplist_hits": "count",
    "sentiment.stoplist_hit_ratio": "ratio",
    "sentiment.aggregate_s": "s",
    "sentiment.weekly_scores_s": "s",
    "sentiment.bin_weeks_s": "s",
    "sentiment.weeks": "count",
    "sentiment.low_confidence_weeks": "count",
    "eigenmood.matrix_s": "s",
    "eigenmood.decompose_s": "s",
    "eigenmood.select_s": "s",
    "eigenmood.project_s": "s",
    "eigenmood.reconstruct_s": "s",
    "eigenmood.candidates": "count",
    "stats.ols_s": "s",
    "stats.dcov_s": "s",
    "stats.dcor_s": "s",
    "stats.permutation_s": "s",
    "stats.permutations": "count",
    "stats.pair_evaluations": "count",
    "timeseries.center_s": "s",
    "timeseries.centered_years": "count",
    "timeseries.dropped_weeks": "count",
    "countries.build_profiles_s": "s",
    "countries.cohort_agreement_s": "s",
    "countries.compare_search_terms_s": "s",
}

DIMS = sentiment.DIMENSIONS
_ORACLE_STRIDE = 20  # every 20th record checks strip-then-score against the stoplist path


class Tracer:
    """Spans, counters and deferred checks for one in-process pass."""

    def __init__(self, recorder: Recorder, check_identity: bool = False):
        self.rec = recorder
        self.counts: Counter = Counter()
        self.problems: list[str] = []
        self.check_identity = check_identity
        self.stage_seconds = 0.0   # stage time, without the deferred work
        self._deferred = []

    def call(self, name: str, fn, *args, **kwargs):
        return self.rec.call(name, fn, *args, **kwargs)

    def defer(self, fn) -> None:
        if self.rec.enabled:
            self._deferred.append(fn)

    @contextmanager
    def stage(self, name: str):
        start = perf_counter()
        with self.rec.span("stage." + name):
            yield
        self.stage_seconds += perf_counter() - start
        for fn in self._deferred:
            fn()
        self._deferred.clear()

    def add_input(self, manifest: RunManifest, path: Path) -> None:
        self.call("pipeline.input_digest", manifest.add_input, path)
        self.counts["pipeline.digest_bytes"] += os.path.getsize(path)

    def write(self, fn, *args, **kwargs):
        return self.call("io.write", fn, *args, **kwargs)


def _manifest(command: str) -> RunManifest:
    return RunManifest(command=command, config_hash=config_hash({"command": command}))


def _write_json(path: Path, payload) -> None:
    with io.atomic_write(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ------------------------------------------------------------------ text stages


def _strip_all(stoplist: sentiment.GreetingStoplist, records):
    return [(ts, country, stoplist.strip(text)) for ts, country, text in records]


def _count_scoring(t: Tracer, texts, lexicons, scored) -> None:
    tokens = sum(len(sentiment.tokenize(text)) for _, _, text in texts)
    t.counts["sentiment.tokens"] += tokens
    t.counts["sentiment.lexicon_lookups"] += tokens * len(lexicons)
    t.counts["sentiment.records_unscored"] += sum(1 for r in scored if r.score is None)
    t.counts["sentiment.records_scored"] += sum(1 for r in scored if r.score is not None)
    t.counts["sentiment.tie_records"] += sum(1 for r in scored if r.score is not None and r.score.tie)


def _count_stoplist(t: Tracer, stoplist, records, stripped) -> None:
    first = {phrase.split()[0] for phrase in stoplist.phrases}
    t.counts["sentiment.stoplist_prefilter_pass"] += sum(
        1 for _, _, text in records if not first.isdisjoint(sentiment.tokenize(text)))
    t.counts["sentiment.stoplist_hits"] += sum(
        1 for a, b in zip(records, stripped) if a[2] != b[2])


def _check_strip_identity(t: Tracer, records, lexicons, stoplist, scored) -> None:
    sample = range(0, len(records), _ORACLE_STRIDE)
    direct = sentiment.score_records([records[i] for i in sample], lexicons, stoplist)
    bad = sum(1 for i, r in zip(sample, direct) if r != scored[i])
    if bad:
        t.problems.append(f"strip-then-score differs from scoring with the stoplist "
                          f"on {bad} of {len(direct)} sampled records")


def _scored(t: Tracer, manifest: RunManifest, records: Path, lexicons: Path, use_stoplist: bool):
    t.add_input(manifest, records)
    t.add_input(manifest, lexicons)
    recs, n_bad = t.call("io.read_records", io.read_records, records)
    t.counts["io.read_records_bytes"] += os.path.getsize(records)
    t.counts["io.records_malformed"] += n_bad
    lex = t.call("sentiment.load_lexicons", sentiment.load_lexicons, lexicons)
    texts = recs
    if use_stoplist:
        stoplist = t.call("sentiment.stoplist_build", sentiment.GreetingStoplist.default)
        texts = t.call("sentiment.stoplist_strip", _strip_all, stoplist, recs)
        t.defer(lambda: _count_stoplist(t, stoplist, recs, texts))
    scored = t.call("sentiment.score_records", sentiment.score_records, texts, lex, None)
    t.defer(lambda: _count_scoring(t, texts, lex, scored))
    if use_stoplist and t.check_identity:
        t.defer(lambda: _check_strip_identity(t, recs, lex, stoplist, scored))
    manifest.counts["records"] = len(recs)
    manifest.counts["records_malformed"] = n_bad
    manifest.counts["records_unscored"] = sum(1 for r in scored if r.score is None)
    return scored


def score_stage(t: Tracer, records: Path, lexicons: Path, out: Path) -> None:
    """``moodcycles score`` over every country, bundled stoplist."""
    m = _manifest("score")
    scored = _scored(t, m, records, lexicons, use_stoplist=True)
    wanted = sorted({r.country for r in scored if r.country != "unknown"})
    rows = []
    for country in wanted:
        weeks, _ = t.call("sentiment.aggregate", sentiment.aggregate, scored, country)
        t.counts["sentiment.weeks"] += len(weeks)
        t.counts["sentiment.low_confidence_weeks"] += sum(1 for w in weeks if w.low_confidence)
        for week in weeks:
            for i, dim in enumerate(DIMS):
                rows.append((country, week.week_start, dim, week.mean[i], week.n_scored))
    t.write(io.write_weekly_mood, out / "weekly_mood.csv", rows)
    m.counts["countries"] = len(wanted)
    m.counts["weekly_rows"] = len(rows)
    t.write(write_manifest, out, m)


def bin_stage(t: Tracer, records: Path, lexicons: Path, out: Path,
              country: str | None, use_stoplist: bool) -> None:
    """``moodcycles bin``; ``country=None`` takes the corpus's only country."""
    m = _manifest("bin")
    scored = _scored(t, m, records, lexicons, use_stoplist)
    present = sorted({r.country for r in scored if r.country != "unknown" and r.score})
    if country is None:
        (country,) = present
    by_week = t.call("sentiment.weekly_scores", sentiment.weekly_scores, scored, country)
    binned = t.call("sentiment.bin_weeks", sentiment.bin_weeks, by_week, sentiment.N_BINS)
    t.write(io.write_binned, out / "binned.tsv",
            [(b.week_start, b.dimension, b.n_scored, b.probs) for b in binned], sentiment.N_BINS)
    t.counts["sentiment.weeks"] += len(by_week)
    t.counts["sentiment.low_confidence_weeks"] += sum(
        1 for s in by_week.values() if len(s) < sentiment.LOW_CONFIDENCE_WEEK)
    m.counts["weeks"] = len(by_week)
    m.counts["binned_rows"] = len(binned)
    t.write(write_manifest, out, m)


# ------------------------------------------------------------- eigenmood stages


def _matrices(data) -> dict[str, em.BinnedMoodMatrix]:
    return {dim: em.BinnedMoodMatrix(dimension=dim, week_starts=tuple(data[dim][0]),
                                     matrix=data[dim][2]) for dim in DIMS}


def _decompose(matrices):
    return {dim: em.decompose(m) for dim, m in matrices.items()}


def _select(t: Tracer, m: RunManifest, binned: Path, holiday_weeks: list[dt.date]):
    t.add_input(m, binned)
    data = t.call("io.read_binned", io.read_binned, binned)
    matrices = t.call("eigenmood.matrix", _matrices, data)
    weeks = matrices[DIMS[0]].week_starts
    rows = [weeks.index(day) for day in holiday_weeks]
    decs = t.call("eigenmood.decompose", _decompose, matrices)
    mood = t.call("eigenmood.select", em.select_eigenmood, decs, rows,
                  holiday="holiday", var_threshold=0.95, alt_score=False)
    t.counts["eigenmood.candidates"] += len(mood.selection)
    m.counts["weeks"] = len(weeks)
    m.counts["holiday_weeks"] = len(rows)
    m.counts["candidates"] = len(mood.selection)
    return matrices, decs, rows, mood


def _project(mood, matrices):
    needed = {c.dimension for c in mood.components}
    return em.project_weeks(mood, {d: matrices[d] for d in needed})


def _eigenmood_payload(mood) -> dict:
    return {
        "holiday": mood.holiday, "var_threshold": 0.95, "alt_score": False,
        "components": [{"dimension": c.dimension, "index": c.index,
                        "index_after_baseline": c.index - 1, "label": c.label,
                        "singular_value": c.singular_value} for c in mood.components],
    }


def _reconstruct(mood, decs, matrices, rows):
    """Linguistic summary of the holiday's mean change, and the heatmaps."""
    ling, maps = [], {}
    for dim in DIMS:
        comps = [c for c in mood.components if c.dimension == dim]
        if not comps:
            continue
        dec = decs[dim]
        recon_row = np.zeros(matrices[dim].n_bins)
        for c in comps:
            recon_row += float(np.mean([dec.coord(r, c.index) for r in rows])) * c.eigenbin
        ling += [[dim, level, value] for level, value in em.linguistic_response(recon_row).items()]
        idx = [c.index - 1 for c in comps]
        maps[dim] = em.heatmap((dec.U[:, idx] * dec.S[idx]) @ dec.V[:, idx].T)
    return ling, maps


def eigenmood_stage(t: Tracer, binned: Path, holiday_weeks, out: Path) -> None:
    m = _manifest("eigenmood")
    matrices, decs, rows, mood = _select(t, m, binned, holiday_weeks)
    dec_rows = [[dim, k, float(decs[dim].S[k - 1]), float(decs[dim].rel_var[k - 1])]
                for dim in DIMS for k in range(1, decs[dim].rank + 1)]
    t.write(io.write_table, out / "decomposition.csv",
            ["dimension", "component", "singular_value", "rel_var"], dec_rows)
    selected = {(c.dimension, c.index) for c in mood.components}
    t.write(io.write_table, out / "selection.csv",
            ["rank", "dimension", "component", "component_after_baseline",
             "mean", "std", "score", "selected"],
            [[rank, c.dimension, c.index, c.index - 1, c.mean, c.std, c.score,
              "yes" if (c.dimension, c.index) in selected else "no"]
             for rank, c in enumerate(mood.selection, start=1)])
    t.write(_write_json, out / "eigenmood.json", _eigenmood_payload(mood))
    weeks = matrices[DIMS[0]].week_starts
    projs = t.call("eigenmood.project", _project, mood, matrices)
    t.write(io.write_table, out / "projections.csv", ["week_start", "coord1", "coord2"],
            [[w.isoformat(), p.coords[0], p.coords[1]] for w, p in zip(weeks, projs)])
    ling, maps = t.call("eigenmood.reconstruct", _reconstruct, mood, decs, matrices, rows)
    t.write(io.write_table, out / "linguistic.csv", ["dimension", "level", "response"], ling)
    header = ["bin"] + [w.isoformat() for w in weeks]
    for dim, (dev, signs) in sorted(maps.items()):
        t.write(io.write_table, out / f"heatmap_{dim}.tsv", header,
                [[b + 1] + [float(v) for v in row] for b, row in enumerate(dev)], delimiter="\t")
        t.write(io.write_table, out / f"heatmap_{dim}_signs.tsv", header,
                [[b + 1] + row for b, row in enumerate(signs)], delimiter="\t")
    t.write(write_manifest, out, m)


def _similarities(mood, matrices, rows):
    projs = _project(mood, matrices)
    center = em.mean_projection([projs[r] for r in rows])
    return projs, [em.similarity(p, center) for p in projs]


def similarity_stage(t: Tracer, binned: Path, holiday_weeks, out: Path) -> None:
    m = _manifest("similarity")
    matrices, _, rows, mood = _select(t, m, binned, holiday_weeks)
    weeks = matrices[DIMS[0]].week_starts
    projs, sims = t.call("eigenmood.project", _similarities, mood, matrices, rows)
    t.write(io.write_table, out / "projections.csv",
            ["week_start", "coord1", "coord2", "similarity"],
            [[w.isoformat(), p.coords[0], p.coords[1], s] for w, p, s in zip(weeks, projs, sims)])
    t.write(io.write_table, out / "similarity.csv", ["week_start", "similarity"],
            [[w.isoformat(), s] for w, s in zip(weeks, sims)])
    t.write(_write_json, out / "eigenmood.json", _eigenmood_payload(mood))
    t.write(write_manifest, out, m)


# ----------------------------------------------------------------- stats stages


def _joined(t: Tracer, m: RunManifest, y_path: Path, x_paths: list[Path]):
    for p in [y_path, *x_paths]:
        t.add_input(m, p)
    y_map = t.call("io.read_keyed_values", io.read_keyed_values, y_path)
    x_maps = [t.call("io.read_keyed_values", io.read_keyed_values, p) for p in x_paths]
    keys = sorted(set(y_map).intersection(*x_maps))
    y = np.array([y_map[k] for k in keys])
    X = np.column_stack([[xm[k] for k in keys] for xm in x_maps])
    return X, y


def regress_stage(t: Tracer, y_path: Path, x_paths: list[Path], out: Path) -> None:
    m = _manifest("regress")
    X, y = _joined(t, m, y_path, x_paths)
    res = t.call("stats.ols", stats.ols, X, y)
    rows = [["n", float(res.n)], ["r_squared", res.r_squared], ["f_stat", res.f_stat],
            ["f_pvalue", res.f_pvalue], ["intercept", res.intercept]]
    bonf = res.bonferroni(len(x_paths))
    for i, path in enumerate(x_paths):
        rows += [[f"coef_{path.stem}", float(res.coef[i])], [f"t_{path.stem}", float(res.t_stats[i])],
                 [f"t_pvalue_{path.stem}", float(res.t_pvalues[i])],
                 [f"t_pvalue_bonferroni_{path.stem}", float(bonf[i])]]
    t.write(io.write_table, out / "regression.csv", ["field", "value"], rows)
    m.counts["observations"] = res.n
    t.write(write_manifest, out, m)


def dcor_stage(t: Tracer, x_path: Path, y_path: Path, permutations: int, seed: int,
               out: Path) -> None:
    m = _manifest("dcor")
    X, y = _joined(t, m, y_path, [x_path])
    x = X[:, 0]
    dcov = t.call("stats.dcov", stats.distance_covariance, x, y)
    dcor = t.call("stats.dcor", stats.distance_correlation, x, y)
    _, p = t.call("stats.permutation", stats.permutation_test, x, y,
                  stats.distance_covariance, permutations, seed)
    t.counts["stats.permutations"] += permutations
    t.counts["stats.pair_evaluations"] += permutations * len(y) ** 2
    t.write(io.write_table, out / "dcor.csv", ["field", "value"],
            [["dcov", dcov], ["dcor", dcor], ["permutation_p", p],
             ["n_permutations", float(permutations)]])
    m.counts["permutations"] = permutations
    m.counts["observations"] = len(y)
    t.write(write_manifest, out, m)


# ------------------------------------------------------- series and country stages


def _averaged(centered):
    return average_years(normalize_yearly_max(centered))


def center_stage(t: Tracer, series: Path, anchor: str, out: Path) -> None:
    m = _manifest("center")
    t.add_input(m, series)
    s = t.call("io.read_weekly_series", io.read_weekly_series, series)
    kind = AnchorKind(anchor)
    cal = t.call("io.read_fixtures", io.calendar_for, kind, range(2004, 2014), None)
    warnings: list[str] = []
    centered = t.call("timeseries.center", build_centered_years, s, cal, warnings=warnings)
    t.counts["timeseries.centered_years"] += len(centered)
    t.counts["timeseries.dropped_weeks"] += sum(len(y.dropped_weeks) for y in centered)
    t.write(io.write_centered_years, out / "centered.csv", centered)
    avg = t.call("timeseries.center", _averaged, centered)
    t.write(io.write_averaged_year, out / "averaged.csv", avg)
    z = t.call("timeseries.center", zscore, avg.weeks)
    t.write(io.write_table, out / "zscores.csv", ["week_index", "z"],
            [[i, float(v)] for i, v in enumerate(z, start=1)])
    t.write(io.write_table, out / "anchor_z.csv", ["anchor", "week_index", "z"],
            [[kind.value, cal.anchor_week_index, float(z[cal.anchor_week_index - 1])]])
    m.counts["centered_years"] = len(centered)
    m.counts["dropped_weeks"] = sum(len(y.dropped_weeks) for y in centered)
    m.warnings.extend(warnings)
    t.write(write_manifest, out, m)


def compare_terms_stage(t: Tracer, a: Path, b: Path, out: Path) -> None:
    m = _manifest("compare-terms")
    t.add_input(m, a)
    t.add_input(m, b)
    sa = t.call("io.read_weekly_series", io.read_weekly_series, a)
    sb = t.call("io.read_weekly_series", io.read_weekly_series, b)
    ratio, r = t.call("countries.compare_search_terms", countries.compare_search_terms, sa, sb, 8)
    t.write(io.write_table, out / "compare.csv", ["volume_ratio", "pearson_r"], [[ratio, r]])
    m.counts["weeks_a"] = len(sa)
    m.counts["weeks_b"] = len(sb)
    t.write(write_manifest, out, m)


_CLASSIFICATION_HEADER = ["code", "name", "identification", "hemisphere",
                          "z_christmas", "z_eid", "z_june", "z_dec", "label", "basis",
                          "tie_resolved"]
_AGREEMENT_HEADER = ["group_kind", "group", "anchor", "n_group", "n_above", "pct_exact", "pct"]


def _classified(t: Tracer, out: Path):
    zrows = t.call("io.read_zscore_table", io.read_zscore_table, None)
    profiles = t.call("countries.build_profiles", countries.build_profiles, zrows, 1.0, False)
    t.write(io.write_table, out / "classification.csv", _CLASSIFICATION_HEADER,
            [[p.code, p.name, p.identification, p.hemisphere, p.response.z_christmas,
              p.response.z_eid, p.response.z_june, p.response.z_dec, p.classification.label,
              "+".join(p.classification.basis), "yes" if p.classification.tie_resolved else "no"]
             for p in profiles])
    agreement = t.call("countries.cohort_agreement", countries.cohort_agreement, profiles, 1.0)
    t.write(io.write_table, out / "agreement.csv", _AGREEMENT_HEADER,
            [[r[k] for k in _AGREEMENT_HEADER] for r in agreement])
    return profiles, agreement


def classify_stage(t: Tracer, out: Path) -> None:
    m = _manifest("classify")
    profiles, _ = _classified(t, out)
    m.counts["countries"] = len(profiles)
    t.write(write_manifest, out, m)


def report_stage(t: Tracer, out: Path) -> None:
    m = _manifest("report")
    profiles, agreement = _classified(t, out)
    expected = t.call("io.read_fixtures", io.expected_agreement)
    actual = {(r["group_kind"], r["group"], r["anchor"]): r["pct"] for r in agreement}
    zrows = t.call("io.read_zscore_table", io.read_zscore_table, None)
    variant = t.call("countries.build_profiles", countries.build_profiles, zrows, 1.0, True)
    for row in t.call("countries.cohort_agreement", countries.cohort_agreement, variant, 1.0):
        if row["group_kind"] == "identification" and row["group"] == "Christian":
            actual[("identification-orthodox-as-other", "Christian", row["anchor"])] = row["pct"]
    check_rows = []
    for key in sorted(expected):
        got = actual.get(key)
        check_rows.append(list(key) + [expected[key], "" if got is None else got,
                                       "yes" if got == expected[key] else "NO"])
    mismatches = sum(1 for r in check_rows if r[-1] == "NO")
    t.write(io.write_table, out / "agreement_check.csv",
            ["group_kind", "group", "anchor", "expected_pct", "actual_pct", "match"], check_rows)
    lines = [
        "# Holiday classification report",
        "",
        f"Countries classified: {len(profiles)} (threshold z > 1.0).",
        "",
        "## Agreement with self-reported identification and hemisphere",
        "",
        "| group kind | group | anchor | share above threshold |",
        "|---|---|---|---|",
    ] + [f"| {r['group_kind']} | {r['group']} | {r['anchor']} | "
         f"{r['pct']}% ({r['n_above']}/{r['n_group']}) |" for r in agreement] + [
        "",
        f"Expected-table check: {len(check_rows) - mismatches}/{len(check_rows)} cells match.",
        "",
    ]
    with t.rec.span("io.write"), io.atomic_write(out / "report.md") as fh:
        fh.write("\n".join(lines))
    m.counts["countries"] = len(profiles)
    m.counts["cells_checked"] = len(check_rows)
    m.counts["cells_mismatched"] = mismatches
    t.write(write_manifest, out, m)
