"""Acceptance suite: the ten numbered release criteria, one test each.

Every test prints a single ``criterion N: PASS`` / ``criterion N: FAIL`` line
(run ``pytest tests/test_acceptance.py -v -rA`` to see them all) and enforces
the criterion's numeric tolerance plus, where stated, a wall-clock budget.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
import time
from importlib.resources import files

import numpy as np

from moodcycles import countries, io, sentiment, stats, synth
from moodcycles import eigenmood as em
from moodcycles import timeseries as ts
from moodcycles.cli import main as cli_main


def _check(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _report(n: int, problems: list, elapsed: float | None = None, budget: float | None = None) -> None:
    if budget is not None and elapsed is not None and elapsed >= budget:
        problems.append(f"took {elapsed:.2f}s, budget {budget:g}s")
    line = f"criterion {n}: " + ("PASS" if not problems else "FAIL")
    if elapsed is not None:
        line += f" ({elapsed:.2f}s)"
    if problems:
        line += " :: " + "; ".join(problems)
    print(line)
    assert not problems, f"criterion {n}: " + "; ".join(problems)


def _agreement_cells(profiles) -> dict:
    rows = countries.cohort_agreement(profiles)
    return {(r["group_kind"], r["group"], r["anchor"]): r for r in rows}


def test_criterion_01_cohort_agreement_levels():
    """Bundled z-score table: Christian 80% of 80 on christmas, Muslim 77%
    (23/30) on eid; the orthodox-as-other variant lifts Christian to 91%."""
    t0 = time.perf_counter()
    problems = []
    zrows = io.read_zscore_table()

    cells = _agreement_cells(countries.build_profiles(zrows))
    christian = cells[("identification", "Christian", "christmas")]
    _check(problems, christian["pct"] == 80,
           f"Christian/christmas pct {christian['pct']}, want 80")
    _check(problems, christian["n_group"] == 80,
           f"Christian cohort size {christian['n_group']}, want 80")
    muslim = cells[("identification", "Muslim", "eid-al-fitr")]
    _check(problems, muslim["pct"] == 77,
           f"Muslim/eid pct {muslim['pct']}, want 77")
    _check(problems, (muslim["n_above"], muslim["n_group"]) == (23, 30),
           f"Muslim/eid counts {muslim['n_above']}/{muslim['n_group']}, want 23/30")

    variant = _agreement_cells(countries.build_profiles(zrows, orthodox_as_other=True))
    v = variant[("identification", "Christian", "christmas")]
    _check(problems, v["pct"] == 91,
           f"orthodox-as-other Christian/christmas pct {v['pct']}, want 91")
    _report(1, problems, time.perf_counter() - t0, 1.0)


def test_criterion_02_agreement_grid():
    """All 16 identification/hemisphere grid cells match the shipped
    expected-agreement table after integer rounding."""
    t0 = time.perf_counter()
    problems = []
    expected = io.expected_agreement()
    grid = {k: v for k, v in expected.items() if k[0] in ("identification", "hemisphere")}
    _check(problems, len(grid) == 16, f"expected table lists {len(grid)} grid cells, want 16")
    _check(problems, grid.get(("hemisphere", "South", "christmas")) == 95,
           "South/christmas example cell is not 95 in the table")
    _check(problems, grid.get(("hemisphere", "South", "june-solstice")) == 14,
           "South/june-solstice example cell is not 14 in the table")

    cells = _agreement_cells(countries.build_profiles(io.read_zscore_table()))
    for key, pct in sorted(grid.items()):
        cell = cells.get(key)
        if cell is None:
            problems.append(f"{key}: no computed cell")
        elif cell["pct"] != pct:
            problems.append(f"{key}: computed {cell['pct']}, table says {pct}")
    _report(2, problems, time.perf_counter() - t0, 1.0)


def _fixture_rows(name: str) -> list[dict]:
    with files("moodcycles").joinpath("fixtures", name).open(encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _compare_calendar(problems: list, label: str, years, rows: list[dict], cal) -> None:
    complete = [r for r in rows if r["last_week_start"]]
    if len(years) != len(complete):
        problems.append(f"{label}: built {len(years)} years, table lists {len(complete)} complete rows")
        return
    for i, (year, row) in enumerate(zip(years, complete)):
        got = (year.week1_start,
               year.week1_start + dt.timedelta(weeks=cal.anchor_week_index - 1),
               year.week1_start + dt.timedelta(weeks=len(year.weeks) - 1))
        want = tuple(dt.date.fromisoformat(row[c])
                     for c in ("week1_start", "anchor_week_start", "last_week_start"))
        if got != want:
            problems.append(f"{label} year {i + 1}: dates {got} != {want}")
    if years and years[0].dropped_weeks:
        problems.append(f"{label}: first year reports dropped weeks {years[0].dropped_weeks}")
    # a row's dropped_after week sits in the gap before the NEXT kept year
    for i in range(len(complete) - 1):
        cell = complete[i]["dropped_after"].strip()
        want = (dt.date.fromisoformat(cell),) if cell else ()
        got = years[i + 1].dropped_weeks
        if got != want:
            problems.append(f"{label} year {i + 2}: dropped {got}, table says {want}")


def test_criterion_03_centered_calendar_tables():
    """build_centered_years reproduces every start date and exception week in
    both shipped centered-calendar boundary tables, by exact date equality."""
    t0 = time.perf_counter()
    problems = []
    start = dt.date(2004, 1, 4)
    series = ts.WeeklySeries(start, np.ones(530))  # grid the boundary tables assume

    xmas_rows = _fixture_rows("christmas_centered_years.csv")
    xmas_cal = ts.AnchorCalendar.solar(ts.AnchorKind.CHRISTMAS, range(2004, 2014))
    notes: list[str] = []
    xmas_years = ts.build_centered_years(series, xmas_cal, warnings=notes)
    _compare_calendar(problems, "christmas", xmas_years, xmas_rows, xmas_cal)
    _check(problems, len(xmas_years) == 9, f"built {len(xmas_years)} christmas years, want 9")
    _check(problems, any("2013-12-25" in n and "omitted" in n for n in notes),
           "no omission warning for the year that runs past the series")
    # the omitted row's start columns still follow from plain grid arithmetic
    tail = xmas_rows[-1]
    anchor_week = start + dt.timedelta(weeks=(dt.date(2013, 12, 25) - start).days // 7)
    _check(problems, dt.date.fromisoformat(tail["anchor_week_start"]) == anchor_week,
           f"incomplete-row anchor week {tail['anchor_week_start']}, grid says {anchor_week}")
    _check(problems, dt.date.fromisoformat(tail["week1_start"]) == anchor_week - dt.timedelta(weeks=25),
           "incomplete-row week 1 does not sit 25 weeks before its anchor week")
    _check(problems, any(y.dropped_weeks == (dt.date(2011, 6, 26),) for y in xmas_years),
           "late-June 2011 exception week missing")

    eid_rows = _fixture_rows("eid_centered_years.csv")
    eid_cal = io.eid_calendar()
    eid_years = ts.build_centered_years(series, eid_cal, [])
    _compare_calendar(problems, "eid", eid_years, eid_rows, eid_cal)
    _check(problems, len(eid_years) == 10, f"built {len(eid_years)} eid years, want 10")
    last = eid_years[-1] if eid_years else None
    _check(problems, last is not None and last.anchor_date == dt.date(2013, 8, 8)
           and last.week1_start + dt.timedelta(weeks=24) == dt.date(2013, 8, 4),
           "2013 eid year does not put its anchor in week 25 starting 2013-08-04")
    _report(3, problems, time.perf_counter() - t0, 1.0)


def test_criterion_04_volume_ratio_and_correlation():
    """A pair engineered to ratio 3.29 and r 0.92 comes back within 1e-6;
    the identity pair returns exactly (1.0, 1.0)."""
    t0 = time.perf_counter()
    problems = []
    rng = np.random.default_rng(20240404)
    n = 120
    ratio, r = 3.29, 0.92

    b_vals = rng.uniform(50.0, 150.0, size=n)
    centered = b_vals - b_vals.mean()
    u = centered / np.linalg.norm(centered)
    w = rng.normal(size=n)
    w -= w.mean()
    w -= (w @ u) * u
    w /= np.linalg.norm(w)
    # unit vectors u, w are zero-mean and orthogonal, so the mean term alone
    # fixes the volume ratio while the u coefficient alone fixes Pearson r
    a_vals = ratio * b_vals.mean() + 40.0 * (r * u + math.sqrt(1.0 - r * r) * w)
    _check(problems, float(a_vals.min()) > 0.0, "construction produced a non-positive volume")

    start = dt.date(2004, 1, 4)
    got_ratio, got_r = countries.compare_search_terms(
        ts.WeeklySeries(start, a_vals), ts.WeeklySeries(start, b_vals))
    _check(problems, abs(got_ratio - ratio) <= 1e-6, f"ratio {got_ratio!r}, want {ratio} +/- 1e-6")
    _check(problems, abs(got_r - r) <= 1e-6, f"pearson {got_r!r}, want {r} +/- 1e-6")

    same = ts.WeeklySeries(start, b_vals)
    ident = countries.compare_search_terms(same, same)
    _check(problems, ident == (1.0, 1.0), f"identity pair returned {ident}, want exactly (1.0, 1.0)")
    _report(4, problems, time.perf_counter() - t0)


def test_criterion_05_svd_properties():
    """200 seeded row-stochastic matrices: orthonormal factors, exact
    reconstruction, rel_var a partition of 1, and threshold-1.0 denoising
    equal to M minus its best rank-1 approximation."""
    t0 = time.perf_counter()
    problems = []
    rng = np.random.default_rng(20240505)
    worst = {"orth": 0.0, "recon": 0.0, "var": 0.0, "denoise": 0.0}

    for _ in range(200):
        n_weeks = int(rng.integers(2, 61))
        n_bins = int(rng.integers(2, 26))
        M = rng.dirichlet(np.ones(n_bins), size=n_weeks)
        dec = em.decompose(M)

        k = dec.rank
        eye = np.eye(k)
        worst["orth"] = max(worst["orth"],
                            float(np.abs(dec.U.T @ dec.U - eye).max()),
                            float(np.abs(dec.V.T @ dec.V - eye).max()))
        norm_m = float(np.linalg.norm(M))
        worst["recon"] = max(worst["recon"],
                             float(np.linalg.norm((dec.U * dec.S) @ dec.V.T - M)) / norm_m)
        worst["var"] = max(worst["var"], abs(float(dec.rel_var.sum()) - 1.0))

        # independent best-rank-1: leading eigenpair of the Gram matrix
        evals, evecs = np.linalg.eigh(M.T @ M)
        v1 = evecs[:, -1]
        s1 = math.sqrt(max(float(evals[-1]), 0.0))
        u1 = (M @ v1) / s1
        expected = M - s1 * np.outer(u1, v1)
        den = dec.reconstruct(em.retained_components(dec, var_threshold=1.0))
        worst["denoise"] = max(worst["denoise"],
                               float(np.linalg.norm(den - expected)) / norm_m)

    _check(problems, worst["orth"] < 1e-10, f"orthonormality error {worst['orth']:.3e}")
    _check(problems, worst["recon"] < 1e-10, f"reconstruction error {worst['recon']:.3e}")
    _check(problems, worst["var"] <= 1e-12, f"rel_var sum error {worst['var']:.3e}")
    _check(problems, worst["denoise"] < 1e-10, f"denoise vs rank-1 oracle {worst['denoise']:.3e}")
    _report(5, problems, time.perf_counter() - t0, 10.0)


def _dcov_oracle(x: list, y: list) -> float:
    # textbook double-centering with explicit loops, no shared code path
    n = len(x)
    a = [[abs(x[i] - x[j]) for j in range(n)] for i in range(n)]
    b = [[abs(y[i] - y[j]) for j in range(n)] for i in range(n)]

    def center(d):
        row = [sum(r) / n for r in d]
        col = [sum(d[i][j] for i in range(n)) / n for j in range(n)]
        grand = sum(row) / n
        return [[d[i][j] - row[i] - col[j] + grand for j in range(n)] for i in range(n)]

    A, B = center(a), center(b)
    total = sum(A[i][j] * B[i][j] for i in range(n) for j in range(n))
    return math.sqrt(max(total, 0.0) / (n * n))


def test_criterion_06_distance_covariance_oracle():
    """distance_covariance matches a brute-force oracle to 1e-12 on 100 small
    pairs; dCor(x,x)=1; the 999-permutation p on dependent data is 0.001."""
    t0 = time.perf_counter()
    problems = []
    rng = np.random.default_rng(20240606)

    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        gap = abs(stats.distance_covariance(x, y) - _dcov_oracle(list(x), list(y)))
        worst = max(worst, gap)
    _check(problems, worst <= 1e-12, f"worst oracle gap {worst:.3e}")

    x = rng.normal(size=40)
    self_cor = stats.distance_correlation(x, x)
    _check(problems, abs(self_cor - 1.0) <= 1e-12, f"dCor(x,x) = {self_cor!r}")

    dep = rng.normal(size=64)
    _, p = stats.permutation_test(dep, dep, n_permutations=999, seed=7)
    _check(problems, p == 1.0 / 1000.0, f"dependent-data p {p!r}, want exactly 0.001")
    _report(6, problems, time.perf_counter() - t0, 10.0)


def test_criterion_07_membership_partition():
    """The five membership functions sum to 1 in every bin and each covers a
    total area of 5 bins."""
    t0 = time.perf_counter()
    problems = []
    m = em.membership_matrix()
    _check(problems, m.shape == (5, 25), f"membership matrix shape {m.shape}, want (5, 25)")
    col_err = float(np.abs(m.sum(axis=0) - 1.0).max())
    row_err = float(np.abs(m.sum(axis=1) - 5.0).max())
    _check(problems, col_err <= 1e-12, f"per-bin sum off by {col_err:.3e}")
    _check(problems, row_err <= 1e-12, f"per-function sum off by {row_err:.3e}")
    _report(7, problems, time.perf_counter() - t0)


def test_criterion_08_synthetic_end_to_end(tmp_path):
    """Seed-42 synthetic corpus (3 years, 4 holiday weeks/year, +1 valence
    shift, search spikes): the selected eigenmood separates holiday weeks and
    weekly similarity explains the search series (positive slope, R^2 >= 0.3)."""
    t0 = time.perf_counter()
    problems = []
    spec = synth.SynthSpec()
    out = tmp_path / "gen"
    synth.generate_synthetic(out, spec)

    lexicons = sentiment.load_lexicons(out / "lexicon.csv")
    records, malformed = io.read_records(out / "records.tsv")
    _check(problems, malformed == 0, f"{malformed} malformed synthetic records")
    scored = sentiment.score_records(records, lexicons)
    by_week = sentiment.weekly_scores(scored, spec.country)
    binned = sentiment.bin_weeks(by_week)
    matrices = {}
    for dim in sentiment.DIMENSIONS:
        weeks = [b for b in binned if b.dimension == dim]  # bin_weeks gives weeks in date order
        matrices[dim] = em.BinnedMoodMatrix(dim, tuple(b.week_start for b in weeks),
                                            np.vstack([b.probs for b in weeks]))
    decs = {dim: em.decompose(matrices[dim]) for dim in sentiment.DIMENSIONS}

    base = matrices["valence"]
    _check(problems, len(base.week_starts) == spec.n_weeks,
           f"{len(base.week_starts)} scored weeks, want {spec.n_weeks}")
    rows = [base.week_starts.index(w) for w in spec.holiday_week_starts()]
    mood = em.select_eigenmood(decs, rows, "synthetic")
    projs = em.project_weeks(mood, matrices)

    holiday = set(rows)
    h_projs = [projs[r] for r in rows]
    pair_sims = [em.similarity(h_projs[i], h_projs[j])
                 for i in range(len(h_projs)) for j in range(i + 1, len(h_projs))]
    cross_sims = [em.similarity(projs[r], projs[q])
                  for r in rows for q in range(len(projs)) if q not in holiday]
    cohesion = min(pair_sims)  # strictest reading: every holiday pair clears the bar
    cutoff = float(np.percentile(cross_sims, 95.0))
    _check(problems, cohesion > cutoff,
           f"holiday cohesion {cohesion:.4g} not above 95th pct of cross similarity {cutoff:.4g}")

    center = em.mean_projection(h_projs)
    sims = np.array([em.similarity(p, center) for p in projs])
    search = io.read_weekly_series(out / "search.csv")
    lookup = {search.week_start(i): float(v) for i, v in enumerate(search.values)}
    y = np.array([lookup[w] for w in base.week_starts])
    fit = stats.ols(sims.reshape(-1, 1), y)
    _check(problems, float(fit.coef[0]) > 0.0, f"similarity->search slope {float(fit.coef[0]):.4g}")
    _check(problems, fit.r_squared >= 0.3, f"R^2 {fit.r_squared:.4f}, want >= 0.3")
    _report(8, problems, time.perf_counter() - t0, 60.0)


def test_criterion_09_scoring_arithmetic():
    """A two-word record averages its word valences exactly; a pure greeting
    is stripped before lookup and contributes zero matches."""
    t0 = time.perf_counter()
    problems = []
    lex = sentiment.Lexicon("english", {
        "laughter": (8.5, 6.7, 6.0),
        "leprosy": (2.1, 4.0, 3.0),
    })
    score = sentiment.score_text("laughter leprosy", [lex])
    if score is None:
        problems.append("two-word record did not score")
    else:
        _check(problems, abs(score.valence - 5.3) <= 1e-12,
               f"valence {score.valence!r}, want 5.3 +/- 1e-12")
        _check(problems, score.n_matched == 2, f"{score.n_matched} matches, want 2")

    # both greeting words are in this lexicon, so only stripping can zero them
    greeting_lex = sentiment.Lexicon(
        "english", {"merry": (8.0, 5.0, 5.0), "christmas": (7.8, 5.0, 5.0)},
        removed_words=frozenset())
    stop = sentiment.GreetingStoplist(["merry christmas"])
    _check(problems, sentiment.score_text("merry christmas", [greeting_lex]) is not None,
           "control without the stoplist should match")
    _check(problems, sentiment.score_text("merry christmas", [greeting_lex], stop) is None,
           "stripped greeting still produced matches")
    _report(9, problems, time.perf_counter() - t0)


def test_criterion_10_deterministic_reruns(tmp_path):
    """Two full pipeline runs with identical config into the same output
    directories produce byte-identical artifacts, manifests included."""
    t0 = time.perf_counter()
    problems = []
    root = tmp_path / "run"
    data, binned, sim = root / "data", root / "binned", root / "sim"

    def run_pipeline() -> bool:
        stages = [
            ["synth", "--out", str(data), "--n-years", "1", "--records-per-week", "120"],
            ["bin", "--records", str(data / "records.tsv"),
             "--lexicons", str(data / "lexicon.csv"),
             "--no-stoplist", "--out", str(binned)],
        ]
        for argv in stages:
            code = cli_main(argv)
            if code != 0:
                problems.append(f"{argv[0]} exited {code}")
                return False
        meta = json.loads((data / "gen_spec.json").read_text())
        argv = ["similarity", "--binned", str(binned / "binned.tsv"),
                "--holiday-weeks", ",".join(meta["holiday_week_starts"]),
                "--out", str(sim)]
        code = cli_main(argv)
        if code != 0:
            problems.append(f"similarity exited {code}")
            return False
        return True

    def snapshot() -> dict:
        return {str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    if run_pipeline():
        first = snapshot()
        _check(problems, bool(first), "first run produced no artifacts")
        if run_pipeline():
            second = snapshot()
            if first.keys() != second.keys():
                problems.append(f"file sets differ: {sorted(set(first) ^ set(second))}")
            else:
                diffs = [name for name in sorted(first) if first[name] != second[name]]
                _check(problems, not diffs, f"artifacts changed bytes on rerun: {diffs}")
    _report(10, problems, time.perf_counter() - t0)
