"""The three benchmark workloads: inputs, CLI stages, traced mirror, checks.

A workload is prepared once per run from the benchmark seed. A pass runs its
stages in order, each stage reading the files the previous one wrote into
the pass's own output root. Checks read only the stage's output files and
the generator's ground truth; they run outside the timed region.
"""

from __future__ import annotations

import bisect
import csv
import datetime as dt
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from moodcycles import sentiment, synth

from corpus import CorpusSpec, generate_multilingual, generate_stats
import traced

PERMUTATIONS = 999


@dataclass
class Stage:
    name: str                                   # metric stem, e.g. "compare_terms"
    argv: list[str]                             # arguments after ``moodcycles``
    out: Path
    check: Callable[[Path], list[str]] | None = None


def _read_rows(path: Path, delimiter: str = ",") -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh, delimiter=delimiter))


def _fields(path: Path) -> dict[str, float]:
    return {r["field"]: float(r["value"]) for r in _read_rows(path)}


def _manifest_counts(out: Path, command: str) -> dict:
    return json.loads((out / "manifest.json").read_text(encoding="utf-8"))[command]["counts"]


def _sunday(day: dt.date) -> dt.date:
    return day - dt.timedelta(days=(day.weekday() + 1) % 7)


class Workload:
    """Why each workload exists is recorded in BENCHMARK.json."""

    name = ""
    n_records = 0  # text records in the input, for records_per_s

    def prepare(self, inputs: Path, seed: int, src_root: Path, recorder) -> None:
        raise NotImplementedError

    def stages(self, out_root: Path) -> list[Stage]:
        raise NotImplementedError

    def traced_pass(self, t: traced.Tracer, out_root: Path) -> None:
        """Run every stage in process, in CLI order, under ``t``."""
        for stage in self.stages(out_root):
            stage.out.mkdir(parents=True, exist_ok=True)
            with t.stage(stage.name):
                self.traced_stage(t, stage)

    def traced_stage(self, t: traced.Tracer, stage: Stage) -> None:
        raise NotImplementedError


# ------------------------------------------------------------------ synth-pipeline


class SynthPipeline(Workload):
    name = "synth-pipeline"
    records_per_week = 4000
    n_years = 3

    def prepare(self, inputs, seed, src_root, recorder):
        # numpy seeds must be non-negative
        self.spec = synth.SynthSpec(seed=seed % 2**32, n_years=self.n_years,
                                    records_per_week=self.records_per_week)
        self.data = inputs
        recorder.call("synth.generate", synth.generate_synthetic, inputs, self.spec)
        self.n_records = self.spec.n_weeks * self.records_per_week
        self.holiday_weeks = self.spec.holiday_week_starts()
        self.dcor_seed = random.Random(seed).randrange(1, 2**31)

    def stages(self, out_root):
        d, o = self.data, out_root
        binned, sim = o / "bin" / "binned.tsv", o / "similarity" / "similarity.csv"
        weeks = ",".join(w.isoformat() for w in self.holiday_weeks)
        return [
            Stage("bin", ["bin", "--records", str(d / "records.tsv"), "--lexicons",
                          str(d / "lexicon.csv"), "--no-stoplist", "--out", str(o / "bin")],
                  o / "bin", self.check_bin),
            Stage("eigenmood", ["eigenmood", "--binned", str(binned), "--holiday-weeks", weeks,
                                "--out", str(o / "eigenmood")], o / "eigenmood"),
            Stage("similarity", ["similarity", "--binned", str(binned), "--holiday-weeks", weeks,
                                 "--out", str(o / "similarity")], o / "similarity"),
            Stage("regress", ["regress", "--y", str(d / "search.csv"), "--x", str(sim),
                              "--out", str(o / "regress")], o / "regress", self.check_regress),
            Stage("dcor", ["dcor", "--x", str(sim), "--y", str(d / "search.csv"),
                           "--permutations", str(PERMUTATIONS), "--seed", str(self.dcor_seed),
                           "--out", str(o / "dcor")], o / "dcor"),
        ]

    def traced_stage(self, t, stage):
        d, o = self.data, stage.out.parent
        if stage.name == "bin":
            traced.bin_stage(t, d / "records.tsv", d / "lexicon.csv", stage.out, None, False)
        elif stage.name == "eigenmood":
            traced.eigenmood_stage(t, o / "bin" / "binned.tsv", self.holiday_weeks, stage.out)
        elif stage.name == "similarity":
            traced.similarity_stage(t, o / "bin" / "binned.tsv", self.holiday_weeks, stage.out)
        elif stage.name == "regress":
            traced.regress_stage(t, d / "search.csv", [o / "similarity" / "similarity.csv"],
                                 stage.out)
        else:
            traced.dcor_stage(t, o / "similarity" / "similarity.csv", d / "search.csv",
                              PERMUTATIONS, self.dcor_seed, stage.out)

    def check_bin(self, out):
        rows = _read_rows(out / "binned.tsv", "\t")
        problems = []
        if len(rows) != self.spec.n_weeks * 3:
            problems.append(f"binned.tsv has {len(rows)} rows, want {self.spec.n_weeks * 3}")
        bad = [r["week_start"] for r in rows if int(r["n"]) != self.records_per_week]
        if bad:
            problems.append(f"{len(bad)} binned rows with n != {self.records_per_week}, "
                            f"first {bad[0]}")
        return problems

    def check_regress(self, out):
        f = _fields(out / "regression.csv")
        if f["coef_similarity"] > 0 and f["r_squared"] >= 0.3:
            return []
        return [f"similarity->search slope {f['coef_similarity']} with R^2 {f['r_squared']}; "
                "want slope > 0 and R^2 >= 0.3"]


# ------------------------------------------------------------------ multilingual-text


class MultilingualText(Workload):
    name = "multilingual-text"
    sample_cells = 24
    sample_weeks = 12

    def prepare(self, inputs, seed, src_root, recorder):
        self.corpus = generate_multilingual(inputs, CorpusSpec(seed=seed), src_root)
        self.n_records = self.corpus.spec.n_records
        self.country = self.corpus.spec.bin_country
        rng = random.Random(seed + 1)
        cells = sorted({(c, _sunday(day)) for day, c, _ in self.corpus.truth})
        score_cells = rng.sample(cells, self.sample_cells)
        bin_cells = rng.sample([cell for cell in cells if cell[0] == self.country],
                               self.sample_weeks)
        wanted = set(score_cells) | set(bin_cells)
        self.cell_texts: dict[tuple[str, dt.date], list[tuple[dt.date, str]]] = {c: [] for c in wanted}
        for day, country, text in self.corpus.truth:
            cell = (country, _sunday(day))
            if cell in wanted:
                self.cell_texts[cell].append((day, text))
        self.score_cells, self.bin_cells = score_cells, bin_cells
        self.oracle_lexicons = [sentiment.Lexicon(lang, entries)
                                for lang, entries in sorted(self.corpus.lexicons.items())]
        self.oracle_stoplist = sentiment.GreetingStoplist.default()

    def stages(self, out_root):
        rec, lex = str(self.corpus.records_path), str(self.corpus.lexicon_path)
        return [
            Stage("score", ["score", "--records", rec, "--lexicons", lex,
                            "--out", str(out_root / "score")], out_root / "score", self.check_score),
            Stage("bin", ["bin", "--records", rec, "--lexicons", lex, "--country", self.country,
                          "--out", str(out_root / "bin")], out_root / "bin", self.check_bin),
        ]

    def traced_stage(self, t, stage):
        rec, lex = self.corpus.records_path, self.corpus.lexicon_path
        if stage.name == "score":
            traced.score_stage(t, rec, lex, stage.out)
        else:
            traced.bin_stage(t, rec, lex, stage.out, self.country, True)

    def _oracle(self, cell):
        """Oracle scores of a cell's texts, grouped by GMT day in file order."""
        by_day: dict[dt.date, list] = {}
        for day, text in self.cell_texts[cell]:
            s = sentiment.score_text(text, self.oracle_lexicons, self.oracle_stoplist)
            if s is not None:
                by_day.setdefault(day, []).append((s.valence, s.arousal, s.dominance))
        return by_day

    def check_score(self, out):
        problems = []
        malformed = _manifest_counts(out, "score")["records_malformed"]
        if malformed != self.corpus.n_malformed:
            problems.append(f"manifest records_malformed {malformed}, injected "
                            f"{self.corpus.n_malformed}")
        got = {(r["country"], r["week_start"], r["dim"]): (float(r["mean"]), int(r["n_scored"]))
               for r in _read_rows(out / "weekly_mood.csv")}
        for cell in self.score_cells:
            by_day = self._oracle(cell)
            daily = [tuple(sum(s[i] for s in scores) / len(scores) for i in range(3))
                     for _, scores in sorted(by_day.items())]
            n = sum(len(v) for v in by_day.values())
            for i, dim in enumerate(traced.DIMS):
                key = (cell[0], cell[1].isoformat(), dim)
                if not daily:
                    if key in got:
                        problems.append(f"{key}: row present but no text scores")
                    continue
                want = sum(m[i] for m in daily) / len(daily)
                if key not in got or got[key][1] != n or not math.isclose(
                        got[key][0], want, rel_tol=1e-12, abs_tol=0.0):
                    problems.append(f"{key}: got {got.get(key)}, oracle ({want}, {n})")
        return problems

    def check_bin(self, out):
        problems = []
        edges = [1.0 + 8.0 * k / 25 for k in range(26)]
        got = {(r["week_start"], r["dim"]): r for r in _read_rows(out / "binned.tsv", "\t")}
        for cell in self.bin_cells:
            scores = [s for day_scores in self._oracle(cell).values() for s in day_scores]
            for i, dim in enumerate(traced.DIMS):
                row = got.get((cell[1].isoformat(), dim))
                if not scores:
                    if row is not None:
                        problems.append(f"bin {self.country} {cell[1]} {dim}: row for a week "
                                        "with no scored texts")
                    continue
                counts = [0] * 25
                for s in scores:
                    counts[min(bisect.bisect_right(edges, s[i]) - 1, 24)] += 1
                want = [c / len(scores) for c in counts]
                if row is None or int(row["n"]) != len(scores) or any(
                        not math.isclose(float(row[f"p{k + 1:02d}"]), want[k], rel_tol=1e-12)
                        for k in range(25)):
                    problems.append(f"bin {self.country} {cell[1]} {dim}: counts differ "
                                    f"from the oracle ({len(scores)} texts)")
        return problems


# ------------------------------------------------------------------ stats-series


class StatsSeries(Workload):
    name = "stats-series"

    def prepare(self, inputs, seed, src_root, recorder):
        self.inp = generate_stats(inputs, seed, src_root)
        self.p_values: list[float] = []

    def stages(self, out_root):
        i, o = self.inp, out_root
        xs = ",".join(str(p) for p in i.regress_x)
        return [
            Stage("center_christmas", ["center", "--series", str(i.series), "--anchor",
                                       "christmas", "--years", "2004-2013",
                                       "--out", str(o / "center-christmas")],
                  o / "center-christmas"),
            Stage("center_eid", ["center", "--series", str(i.series), "--anchor", "eid-al-fitr",
                                 "--out", str(o / "center-eid")], o / "center-eid"),
            Stage("compare_terms", ["compare-terms", "--a", str(i.series), "--b", str(i.term_b),
                                    "--out", str(o / "compare-terms")], o / "compare-terms"),
            Stage("classify", ["classify", "--out", str(o / "classify")], o / "classify"),
            Stage("report", ["report", "--out", str(o / "report")], o / "report",
                  self.check_report),
            Stage("regress", ["regress", "--y", str(i.regress_y), "--x", xs,
                              "--out", str(o / "regress")], o / "regress", self.check_regress),
            Stage("dcor", ["dcor", "--x", str(i.dcor_x), "--y", str(i.dcor_y),
                           "--permutations", str(PERMUTATIONS), "--seed", str(i.dcor_seed),
                           "--out", str(o / "dcor")], o / "dcor", self.check_dcor),
        ]

    def traced_stage(self, t, stage):
        i = self.inp
        if stage.name.startswith("center"):
            anchor = stage.argv[stage.argv.index("--anchor") + 1]
            traced.center_stage(t, i.series, anchor, stage.out)
        elif stage.name == "compare_terms":
            traced.compare_terms_stage(t, i.series, i.term_b, stage.out)
        elif stage.name == "classify":
            traced.classify_stage(t, stage.out)
        elif stage.name == "report":
            traced.report_stage(t, stage.out)
        elif stage.name == "regress":
            traced.regress_stage(t, i.regress_y, i.regress_x, stage.out)
        else:
            traced.dcor_stage(t, i.dcor_x, i.dcor_y, PERMUTATIONS, i.dcor_seed, stage.out)

    def check_report(self, out):
        n = _manifest_counts(out, "report")["cells_mismatched"]
        return [] if n == 0 else [f"report: {n} agreement cells mismatched"]

    def check_regress(self, out):
        def values(path):
            return [float(r["value"]) for r in _read_rows(path)]

        y = np.array(values(self.inp.regress_y))
        A = np.column_stack([np.ones(len(y))] + [values(p) for p in self.inp.regress_x])
        beta = np.linalg.lstsq(A, y, rcond=None)[0]
        f = _fields(out / "regression.csv")
        got = [f["intercept"]] + [f[f"coef_{p.stem}"] for p in self.inp.regress_x]
        if np.allclose(got, beta, rtol=1e-9, atol=1e-12):
            return []
        return [f"OLS coefficients {got} differ from lstsq {beta.tolist()}"]

    def check_dcor(self, out):
        p = _fields(out / "dcor.csv")["permutation_p"]
        self.p_values.append(p)
        problems = []
        if p >= 0.05:
            problems.append(f"dcor permutation p = {p} on the dependent pair, want < 0.05")
        if p != self.p_values[0]:
            problems.append(f"dcor p = {p} differs from {self.p_values[0]} with the same seed")
        return problems


WORKLOADS = {w.name: w for w in (SynthPipeline, MultilingualText, StatsSeries)}
