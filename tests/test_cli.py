"""Command-line interface: exit codes, config handling, artifacts."""

import csv
import datetime as dt
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moodcycles
from moodcycles import eigenmood as em, io, sentiment, stats
from moodcycles.cli import _apply_config, _build_parser, main
from moodcycles.io import _fixture, expected_agreement, fmt


def run(*argv) -> int:
    return main(list(argv))


def write_series(path, start, values):
    day = dt.date.fromisoformat(start)
    with open(path, "w") as fh:
        fh.write("week_start,value\n")
        for i, v in enumerate(values):
            fh.write(f"{(day + dt.timedelta(weeks=i)).isoformat()},{fmt(float(v))}\n")


def write_keyed(path, pairs):
    with open(path, "w") as fh:
        fh.write("key,value\n")
        for k, v in pairs:
            fh.write(f"{k},{fmt(float(v))}\n")


def read_keyed_rows(path):
    with open(path) as fh:
        return {row["field"]: float(row["value"]) for row in csv.DictReader(fh)}


class TestExitCodes:
    def test_no_subcommand_is_a_usage_error(self, capsys):
        assert run() == 1
        assert "subcommand" in capsys.readouterr().err

    def test_unknown_flag_is_a_usage_error(self, capsys):
        assert run("classify", "--bogus") == 1

    def test_missing_required_option(self, capsys):
        assert run("center", "--out", "/tmp/unused") == 1
        err = capsys.readouterr().err
        assert "--series" in err and "--anchor" in err

    def test_missing_input_file_is_a_data_error(self, tmp_path, capsys):
        code = run("compare-terms", "--a", str(tmp_path / "absent.csv"),
                   "--b", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "out"))
        assert code == 2
        assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_degenerate_numerics_exit_three(self, tmp_path, capsys):
        x, y = tmp_path / "x.csv", tmp_path / "y.csv"
        write_keyed(x, [("a", 1.0), ("b", 1.0), ("c", 1.0)])  # constant
        write_keyed(y, [("a", 1.0), ("b", 2.0), ("c", 3.0)])
        code = run("dcor", "--x", str(x), "--y", str(y),
                   "--permutations", "0", "--out", str(tmp_path / "out"))
        assert code == 3
        assert "numerical error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["terms-apart", "regress-collinear", "center-zero-year",
                                      "bin-unscored", "bin-unknown-only", "score-unscored",
                                      "score-unknown-only", "score-absent-country"])
    def test_a_failed_stage_creates_no_out(self, tmp_path, capsys, case):
        # --out appears with a stage's first artifact, after every check
        write_series(tmp_path / "a.csv", "2010-01-03", [1.0, 2.0])
        write_series(tmp_path / "b.csv", "2011-01-02", [1.0, 2.0])
        write_series(tmp_path / "zero.csv", "2010-01-03", [0.0] * 156)
        for name in ("k.csv", "k2.csv"):
            write_keyed(tmp_path / name, [("a", 1.0), ("b", 2.0), ("c", 4.0), ("d", 3.0)])
        (tmp_path / "lex.csv").write_text(LEXICON_CSV)
        (tmp_path / "zzz.tsv").write_text("2010-01-03T08:00:00Z\tUS\tzzz\n"
                                          "2010-01-04T08:00:00Z\tGB\tzzz\n")
        (tmp_path / "unknown.tsv").write_text("2010-01-03T08:00:00Z\tunknown\tsun\n")
        def f(name):
            return str(tmp_path / name)
        records = ["--lexicons", f("lex.csv"), "--no-stoplist", "--records"]
        argv, code, message = {
            "terms-apart": (["compare-terms", "--a", f("a.csv"), "--b", f("b.csv")], 2,
                            "overlap 0 weeks"),
            "regress-collinear": (["regress", "--y", f("k.csv"), "--x", f"{f('k.csv')},{f('k2.csv')}"],
                                  3, "rank-deficient"),
            "center-zero-year": (["center", "--series", f("zero.csv"), "--anchor", "christmas",
                                  "--years", "2010-2011"], 3, "no positive value"),
            "bin-unscored": (["bin", *records, f("zzz.tsv")], 2, "no scored record"),
            "bin-unknown-only": (["bin", *records, f("unknown.tsv")], 2, "no scored record"),
            "score-unscored": (["score", *records, f("zzz.tsv")], 2,
                               "the records hold no scored record for any country"),
            "score-unknown-only": (["score", *records, f("unknown.tsv")], 2,
                                   "the records hold no scored record for any country"),
            "score-absent-country": (["score", *records, f("zzz.tsv"), "--country", "XX"], 2,
                                     "no scored records for country 'XX'"),
        }[case]
        assert run(*argv, "--out", str(tmp_path / "out")) == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_a_manifest_that_is_not_utf8_is_a_data_error(self, tmp_path, capsys):
        write_series(tmp_path / "a.csv", "2010-01-03", range(1, 11))
        out = tmp_path / "out"
        out.mkdir()
        manifest = out / "manifest.json"
        manifest.write_bytes(b'{\n"births": "\xff"}\n')
        assert run("compare-terms", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "a.csv"),
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"{manifest}:2: not UTF-8" in err and "Traceback" not in err

    def test_a_bad_births_row_names_its_line(self, tmp_path, capsys):
        # the reader's checks are listed in tests/test_io.py
        births = tmp_path / "births.csv"
        births.write_text("country,year,month,count\nUS,2010,1,5\nUS,2010,13,5\n")
        out = tmp_path / "out"
        assert run("births", "--births", str(births), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"{births}:3: month 13 outside 1-12" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("stage", ["eigenmood", "similarity"])
    @pytest.mark.parametrize("options, message", [
        (["--dims", "bogus", "--holiday-weeks", "2010-01-03"], "unknown dimension 'bogus'"),
        ([], "missing required option(s): --holiday-weeks"),
        (["--holiday-weeks", "2010-01-03, 2010-01-03"], "repeated date"),
        (["--holiday-weeks", "2011-01-30"], "argument --holiday-weeks: needs at least 2 dates"),
        (["--holiday-weeks", ","], "argument --holiday-weeks: needs at least 2 dates"),
    ], ids=["bad-dims", "no-holiday-weeks", "repeated-week", "one-holiday-date", "empty-date-list"])
    def test_binned_stage_usage_errors_precede_the_read(self, tmp_path, capsys, stage, options,
                                                        message):
        out = tmp_path / "out"
        assert run(stage, "--binned", str(tmp_path / "absent.tsv"), *options, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_dcor_requires_a_seed_for_permutations(self, tmp_path, capsys):
        x = tmp_path / "x.csv"
        write_keyed(x, [("a", 1.0), ("b", 2.0), ("c", 3.0)])
        assert run("dcor", "--x", str(x), "--y", str(x), "--out", str(tmp_path / "o")) == 1
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("stage, key, value", [
        ("bin", "bins", "0"),
        ("bin", "bins", "-3"),
        ("bin", "bins", "1"),
        ("bin", "bins", "1001"),
        ("compare-terms", "min-overlap", "1"),
        ("compare-terms", "min-overlap", "0"),
        ("compare-terms", "min-overlap", "-3"),
        ("center", "anchor", "bogus"),
        ("dcor", "permutations", "-5"),
        ("dcor", "seed", "-1"),
        ("synth", "seed", "-1"),
        ("classify", "threshold", "nan"),
        ("report", "threshold", "inf"),
        ("births", "shift", "12"),
        ("eigenmood", "var-threshold", "0"),
        ("similarity", "var-threshold", "1.5"),
        ("synth", "n-years", "0"),
        ("synth", "records-per-week", "3"),
        ("synth", "n-years", "8017"),
        ("synth", "records-per-week", "1000001"),
        ("center", "years", "2004-99999"),
        ("center", "years", "0-3"),
    ])
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_bad_values_are_rejected_before_any_work(self, tmp_path, capsys, stage, key, value, route):
        # the inputs do not exist: a check made after reading them would exit 2
        absent = str(tmp_path / "absent")
        inputs = {"bin": ["--records", absent, "--lexicons", absent],
                  "center": ["--series", absent],
                  "compare-terms": ["--a", absent, "--b", absent],
                  "dcor": ["--x", absent, "--y", absent],
                  "synth": [],
                  "classify": ["--zscores", absent],
                  "report": ["--zscores", absent],
                  "births": ["--births", absent],
                  "eigenmood": ["--binned", absent, "--holiday-weeks", "2010-12-26,2011-12-25"],
                  "similarity": ["--binned", absent, "--holiday-weeks", "2010-12-26,2011-12-25"]}[stage]
        if stage == "dcor" and key != "seed":
            inputs += ["--seed", "1"]
        if stage == "center" and key != "anchor":
            inputs += ["--anchor", "christmas"]
        argv = [stage, *inputs, "--out", str(tmp_path / "out")]
        if route == "flag":
            argv += [f"--{key}", value]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key}={value}\n")
            argv = ["--config", str(cfg), *argv]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert value in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("x", [",", " , "])
    def test_regress_needs_an_x_file(self, tmp_path, capsys, x):
        y = tmp_path / "y.csv"
        write_keyed(y, [("a", 1.0), ("b", 2.0), ("c", 4.0)])
        assert run("regress", "--y", str(y), "--x", x, "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert "--x" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_regress_refuses_two_x_files_with_one_stem(self, tmp_path, capsys):
        # each regressor's fields are named by its file's stem; the y file
        # does not exist, so a check made after reading would exit 2
        x = [tmp_path / d / "x.csv" for d in ("p", "q")]
        for i, path in enumerate(x):
            path.parent.mkdir()
            write_keyed(path, [("a", 1.0), ("b", 2.0 + i), ("c", 4.0), ("d", 3.0)])
        assert run("regress", "--y", str(tmp_path / "absent.csv"), "--x", f"{x[0]},{x[1]}",
                   "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert "no two with one stem" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["score", "--lexicons", "lex.csv"],
                                      ["bin", "--records", "r.tsv"],
                                      ["bin", "--records", "r.tsv", "--lexicons", "lex.csv"]],
                             ids=["score-no-records", "bin-no-lexicons", "bin-no-country"])
    def test_score_and_bin_usage_errors_create_no_out(self, tmp_path, capsys, argv):
        (tmp_path / "r.tsv").write_text("2010-01-03T08:00:00Z\tUS\tsun\n"
                                        "2010-01-04T08:00:00Z\tGB\train\n")
        (tmp_path / "lex.csv").write_text(LEXICON_CSV)
        argv = [str(tmp_path / a) if a.endswith((".tsv", ".csv")) else a for a in argv]
        assert run(*argv, "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert "--" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("target", ["regress-y", "zscores", "config", "stoplist"])
    def test_invalid_utf8_input_is_a_data_error(self, tmp_path, capsys, target):
        keyed, records, lexicon = tmp_path / "x.csv", tmp_path / "r.tsv", tmp_path / "lex.csv"
        write_keyed(keyed, [("a", 1.0), ("b", 2.0), ("c", 4.0), ("d", 3.0)])
        records.write_text("2010-01-03T08:00:00Z\tUS\tsun\n")
        lexicon.write_text("language,word,valence,arousal,dominance\nenglish,sun,8.0,5.0,5.0\n")
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"key,value\na,1.0\nb,\xff\n")
        out = str(tmp_path / "out")
        argv = {
            "regress-y": ["regress", "--y", str(bad), "--x", str(keyed), "--out", out],
            "zscores": ["report", "--zscores", str(bad), "--out", out],
            "config": ["--config", str(bad), "regress", "--y", str(keyed), "--x", str(keyed)],
            "stoplist": ["score", "--records", str(records), "--lexicons", str(lexicon),
                         "--stoplist", str(bad), "--out", out],
        }[target]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert f"{bad}:3" in err and "Traceback" not in err

    def test_a_stoplist_phrase_without_a_letter_is_a_data_error(self, tmp_path, capsys):
        records, lexicon, stoplist = tmp_path / "r.tsv", tmp_path / "lex.csv", tmp_path / "stop.txt"
        records.write_text("2010-01-03T08:00:00Z\tUS\tsun\n")
        lexicon.write_text(LEXICON_CSV)
        for content, message in [("merry christmas\n2013!\n", "stoplist phrase '2013!' has no letter"),
                                 ("", "stoplist has no phrase"), (" \n\n", "stoplist has no phrase")]:
            stoplist.write_text(content)
            assert run("score", "--records", str(records), "--lexicons", str(lexicon),
                       "--stoplist", str(stoplist), "--out", str(tmp_path / "out")) == 2
            err = capsys.readouterr().err
            assert f"{stoplist}: {message}" in err and "Traceback" not in err
            assert not (tmp_path / "out").exists()


class TestConfig:
    def test_config_supplies_options(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        write_series(a, "2004-01-04", range(1, 11))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comparison inputs\n"
            f"a={a}\n"
            f"b={a}\n"
            f"out={tmp_path / 'out'}\n"
        )
        assert run("--config", str(cfg), "compare-terms") == 0
        assert (tmp_path / "out" / "compare.csv").exists()

    def test_flags_override_the_config(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_series(a, "2004-01-04", range(1, 11))
        write_series(b, "2004-01-04", [2 * v for v in range(1, 11)])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"a={a}\nb={a}\nout={tmp_path / 'cfg_out'}\n")
        out = tmp_path / "flag_out"
        assert run("--config", str(cfg), "compare-terms", "--b", str(b), "--out", str(out)) == 0
        with open(out / "compare.csv") as fh:
            row = list(csv.DictReader(fh))[0]
        assert float(row["volume_ratio"]) == 0.5

    def test_unknown_config_key_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense=1\n")
        assert run("--config", str(cfg), "classify", "--out", str(tmp_path / "o")) == 1
        assert f"{cfg}:1: unknown config key 'nonsense'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("years", "abc"), ("dims", "q"), ("holiday_weeks", "nope"),
                                            ("anchor", "easter"), ("x", "a.csv,b/a.csv")])
    def test_a_bad_value_of_another_stages_key_is_rejected(self, tmp_path, capsys, key, value):
        # classify has no such option, yet the value is checked by the option's own rule
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# run\nthreshold=1.5\n{key}={value}\n")
        out = tmp_path / "out"
        assert run("--config", str(cfg), "classify", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert f"{cfg}:3: config key {key!r}: bad value {value!r}: " in err and "Traceback" not in err
        assert not out.exists()

    def test_the_key_x_has_one_rule_for_regress_and_dcor(self, tmp_path, capsys):
        # dcor read "a.csv,b.csv" as one file name and exited 2
        rng = np.random.default_rng(0)
        for name in ("a", "b", "y"):
            write_keyed(tmp_path / f"{name}.csv", [(f"k{i}", v) for i, v in enumerate(rng.normal(size=20))])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"x={tmp_path / 'a.csv'},{tmp_path / 'b.csv'}\ny={tmp_path / 'y.csv'}\n"
                       "permutations=9\nseed=1\n")
        out = tmp_path / "out"
        assert run("--config", str(cfg), "dcor", "--out", str(out)) == 1
        assert "--x" in capsys.readouterr().err
        assert not out.exists()
        assert run("--config", str(cfg), "regress", "--out", str(out)) == 0

    def test_a_repeated_key_names_its_first_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# run\nbins=10\nthreshold=2.0\nbins = 12\n")
        assert run("--config", str(cfg), "classify", "--out", str(tmp_path / "o")) == 2
        assert f"{cfg}:4: duplicate key 'bins' (first on line 2)" in capsys.readouterr().err

    def test_stale_search_key_is_rejected(self, tmp_path, capsys):
        # "search" names no option of any subcommand
        cfg = tmp_path / "run.cfg"
        cfg.write_text("search=x\n")
        assert run("--config", str(cfg), "classify", "--out", str(tmp_path / "o")) == 1
        assert "'search'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_every_option_is_a_config_key_with_its_flag_type(self, tmp_path):
        parser, commands = _build_parser()
        cfg = tmp_path / "run.cfg"
        checked = 0
        for name, command in commands.items():
            for action in command._actions:
                if action.dest == "help":
                    continue
                flag = action.option_strings[0]
                if action.nargs == 0:  # a switch
                    flag_argv, raw = [flag], "yes"
                else:
                    kind = getattr(action.type, "__name__", None)  # a ranged type's too
                    raw = {"int": "7", "float": "0.5", "_parse_anchor": "christmas",
                           "_parse_years": "2004-2013", "_parse_dates": "2010-12-26,2011-12-25",
                           "_parse_dims": "a, valence", "_parse_regressors": "a.csv, b/c.csv"}.get(
                        kind, "2010-01-03")
                    flag_argv = [flag, raw]
                from_flag = getattr(parser.parse_args([name, *flag_argv]), action.dest)
                cfg.write_text(f"{action.dest}={raw}\n")
                fresh = _build_parser()  # config values become parser defaults
                from_config = getattr(_apply_config(*fresh, ["--config", str(cfg), name]), action.dest)
                assert (from_config, type(from_config)) == (from_flag, type(from_flag)), \
                    (name, action.dest)
                checked += 1
        assert checked >= 40

    def test_keys_for_other_stages_are_ignored(self, tmp_path):
        # one config file may drive a whole pipeline of subcommands
        a = tmp_path / "a.csv"
        write_series(a, "2004-01-04", range(1, 11))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"a={a}\nb={a}\nbins=10\nthreshold=2.0\n")
        assert run("--config", str(cfg), "compare-terms", "--out", str(tmp_path / "o")) == 0


class TestClassifyAndReport:
    def test_repeated_country_code_is_a_data_error(self, tmp_path, capsys):
        lines = _fixture("holiday_zscores.csv").read_text(encoding="utf-8").splitlines()
        ae = next(i for i, line in enumerate(lines) if line.startswith("AE,"))
        table = tmp_path / "z.csv"
        table.write_text("\n".join(lines + [lines[ae]]) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("classify", "--zscores", str(table), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"{table}:{len(lines) + 1}: duplicate country code 'AE'" in err
        assert f"first on line {ae + 1}" in err
        assert not (out / "agreement.csv").exists()

    @pytest.mark.parametrize("stage", ["classify", "report"])
    def test_a_header_only_z_table_is_a_data_error(self, tmp_path, capsys, stage):
        table = tmp_path / "z.csv"
        table.write_text("code,name,identification,hemisphere,z_christmas,z_eid,z_june,z_dec\n")
        out = tmp_path / "out"
        assert run(stage, "--zscores", str(table), "--out", str(out)) == 2
        assert f"{table}: no data rows" in capsys.readouterr().err
        assert not out.exists()

    def test_report_matches_the_expected_table(self, tmp_path, capsys):
        out = tmp_path / "report"
        assert run("report", "--out", str(out)) == 0
        assert "all cells match" in capsys.readouterr().out
        with open(out / "agreement_check.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(expected_agreement())
        assert all(r["match"] == "yes" for r in rows)
        assert (out / "report.md").read_text().startswith("# Holiday classification report")

    def test_threshold_changes_the_counts(self, tmp_path, capsys):
        assert run("classify", "--out", str(tmp_path / "t1")) == 0
        base = capsys.readouterr().out
        assert run("classify", "--threshold", "3.0", "--out", str(tmp_path / "t3")) == 0
        strict = capsys.readouterr().out
        assert base != strict

    def test_orthodox_variant_moves_countries(self, tmp_path):
        assert run("classify", "--out", str(tmp_path / "plain")) == 0
        assert run("classify", "--orthodox-as-other", "--out", str(tmp_path / "variant")) == 0

        def identifications(path):
            with open(path) as fh:
                return {r["code"]: r["identification"] for r in csv.DictReader(fh)}

        plain = identifications(tmp_path / "plain" / "classification.csv")
        variant = identifications(tmp_path / "variant" / "classification.csv")
        assert plain["RU"] == "Christian" and variant["RU"] == "Other"
        assert plain["BG"] == variant["BG"] == "Christian"


class TestCompareAndDcor:
    def test_identity_series_compare_exactly(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        write_series(a, "2004-01-04", [3, 1, 4, 1, 5, 9, 2, 6])
        out = tmp_path / "out"
        assert run("compare-terms", "--a", str(a), "--b", str(a), "--out", str(out)) == 0
        with open(out / "compare.csv") as fh:
            row = list(csv.DictReader(fh))[0]
        assert float(row["volume_ratio"]) == 1.0
        assert float(row["pearson_r"]) == 1.0

    def test_dcor_identity_hits_the_permutation_floor(self, tmp_path):
        x = tmp_path / "x.csv"
        write_keyed(x, [(f"k{i}", float(i)) for i in range(20)])
        out = tmp_path / "out"
        assert run("dcor", "--x", str(x), "--y", str(x),
                   "--permutations", "99", "--seed", "1", "--out", str(out)) == 0
        values = read_keyed_rows(out / "dcor.csv")
        assert values["dcor"] == pytest.approx(1.0, abs=1e-12)
        assert values["permutation_p"] == pytest.approx(0.01, abs=1e-15)

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    @pytest.mark.parametrize("stage, scale", [("dcor", 1e200), ("compare-terms", 1e80),
                                              ("dcor", 1e-100), ("compare-terms", 1e-100),
                                              ("dcor", 1e-200), ("compare-terms", 1e-200)])
    def test_a_statistic_beyond_float64_is_a_numerical_error(self, tmp_path, stage, scale):
        rng = np.random.default_rng(3)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for factor, out in [(1.0, tmp_path / "fine"), (scale, tmp_path / "out")]:
            if stage == "dcor":
                write_keyed(a, [(f"k{i}", v * factor) for i, v in enumerate(rng.standard_normal(40))])
                write_keyed(b, [(f"k{i}", v * factor) for i, v in enumerate(rng.standard_normal(40))])
                argv = ["dcor", "--x", str(a), "--y", str(b), "--permutations", "9", "--seed", "1"]
            else:
                write_series(a, "2010-01-03", rng.uniform(0.0, 1.0, 60) * factor)
                write_series(b, "2010-01-03", rng.uniform(0.5, 1.0, 60) * factor)
                argv = ["compare-terms", "--a", str(a), "--b", str(b)]
            code, err = run_quietly([*argv, "--out", str(out)])
            if factor == 1.0:
                assert code == 0, err
                continue
            assert code == 3
            assert err.startswith("numerical error: ")
            assert ("overflows" if scale > 1.0 else "underflows") in err
            assert "Traceback" not in err
            assert not out.exists()

    def test_running_out_of_memory_is_a_data_error(self, tmp_path, monkeypatch):
        message = "Unable to allocate 6.71 GiB for an array with shape (30000, 30000)"

        def no_memory(x):
            raise MemoryError(message)

        monkeypatch.setattr(stats, "_centered_distances", no_memory)
        x, out = tmp_path / "x.csv", tmp_path / "out"
        write_keyed(x, [(f"k{i}", float(i)) for i in range(20)])
        code, err = run_quietly(["dcor", "--x", str(x), "--y", str(x), "--permutations", "0",
                                 "--out", str(out)])
        assert (code, err) == (2, f"data error: out of memory: {message}\n")
        assert not out.exists()

    def test_regress_recovers_a_slope(self, tmp_path):
        rng = np.random.default_rng(0)
        xs = rng.standard_normal(30)
        ys = 2.0 * xs + 0.01 * rng.standard_normal(30)
        x, y = tmp_path / "x.csv", tmp_path / "y.csv"
        write_keyed(x, [(f"k{i}", v) for i, v in enumerate(xs)])
        write_keyed(y, [(f"k{i}", v) for i, v in enumerate(ys)])
        out = tmp_path / "out"
        assert run("regress", "--y", str(y), "--x", str(x), "--out", str(out)) == 0
        values = read_keyed_rows(out / "regression.csv")
        assert values["coef_x"] == pytest.approx(2.0, abs=0.01)
        assert values["r_squared"] > 0.99
        assert values["n"] == 30


class TestManifest:
    def test_manifest_collects_commands_without_timestamps(self, tmp_path):
        a = tmp_path / "a.csv"
        write_series(a, "2004-01-04", range(1, 11))
        out = tmp_path / "out"
        assert run("compare-terms", "--a", str(a), "--b", str(a), "--out", str(out)) == 0
        assert run("classify", "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == {"compare-terms", "classify"}
        entry = manifest["compare-terms"]
        assert set(entry) == {"tool_version", "config_hash", "inputs", "counts", "warnings"}
        assert str(a) in entry["inputs"]
        assert len(entry["inputs"][str(a)]) == 64  # sha256 hex
        assert entry["counts"]["weeks_a"] == 10

    def test_config_hash_digests_the_parsed_settings(self, tmp_path):
        # spellings of one setting hash alike
        binned, out = tmp_path / "binned.tsv", tmp_path / "out"
        binned.write_text(binned_tsv(TestBinnedErrors().rows()))
        hashes = set()
        for dims in ("v,a,d", "valence, arousal, dominance", "V,a,d,v"):
            assert run("similarity", "--binned", str(binned), "--holiday-weeks", "2010-12-26,2011-12-25",
                       "--dims", dims, "--out", str(out)) == 0
            hashes.add(json.loads((out / "manifest.json").read_text())["similarity"]["config_hash"])
        assert len(hashes) == 1

    def test_rerun_with_same_inputs_is_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        write_series(a, "2004-01-04", range(1, 11))
        out = tmp_path / "out"
        for _ in range(2):
            assert run("compare-terms", "--a", str(a), "--b", str(a), "--out", str(out)) == 0
        first = (out / "manifest.json").read_bytes()
        assert run("compare-terms", "--a", str(a), "--b", str(a), "--out", str(out)) == 0
        assert (out / "manifest.json").read_bytes() == first

    def test_bin_flags_low_confidence_weeks_as_score_does(self, tmp_path):
        records, lexicon = tmp_path / "r.tsv", tmp_path / "lex.csv"
        records.write_text("2010-01-04T08:00:00Z\tUS\tsun\n"
                           "2010-01-05T08:00:00Z\tUS\train\n")
        lexicon.write_text("language,word,valence,arousal,dominance\n"
                           "english,sun,8.0,5.0,5.0\nenglish,rain,3.0,4.0,4.0\n")
        out = tmp_path / "out"
        for stage in ("score", "bin"):
            assert run(stage, "--records", str(records), "--lexicons", str(lexicon),
                       "--no-stoplist", "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        warning = "1 low-confidence weeks (fewer than 100 scored records)"
        assert warning in manifest["score"]["warnings"]
        assert manifest["bin"]["warnings"] == [warning]
        assert manifest["bin"]["counts"]["weeks"] == 1


# "joy" ties english and spanish; "merry" matches only without the stoplist
LEXICON_CSV = ("language,word,valence,arousal,dominance\n"
               "english,sun,8.0,5.0,5.0\nenglish,rain,3.0,4.0,4.0\nenglish,joy,7.5,6.25,6.0\n"
               "english,merry,7.1,6.3,5.9\n"
               "spanish,sol,7.9,5.0,5.5\nspanish,joy,6.5,5.5,4.75\nspanish,lluvia,2.9,4.1,3.3\n")
COUNTRIES = ["US", "GB", "DE", "unknown"]


# "merry" alone is a stoplist candidate the stoplist keeps
TEXTS = st.lists(st.sampled_from(["sun", "rain", "joy", "sol", "lluvia", "zzz", "merry",
                                  "Merry Christmas"]), max_size=4).map(" ".join)


@st.composite
def record_lines(draw, texts=TEXTS):
    """A records line on one of six weeks, at a UTC offset or none."""
    stamp = dt.datetime(2010, 1, 1) + dt.timedelta(days=draw(st.integers(0, 41)),
                                                   minutes=draw(st.integers(0, 1439)))
    offset = draw(st.sampled_from(["Z", "", "+05:30", "-08:00"]))
    return f"{stamp.isoformat()}{offset}\t{draw(st.sampled_from(COUNTRIES))}\t{draw(texts)}"


# lines that end up in no chunk: malformed or blank
SKIPPED_LINES = [b"", b"not-a-stamp\tUS\tsun", b"2010-01-05T08:00:00Z\tUS\tsun\textra",
                 b"2010-01-05T08:00:00Z\tUS", b"2010-01-05T08:00:00Z\tUS\tsu\xffn"]


@st.composite
def records_files(draw):
    """The lines of a records file. In pool mode every text comes from a
    pool of at most three (a greeting, "merry", a tie on "joy", an unscored
    text), so chunks repeat texts within themselves and across their seams."""
    texts = TEXTS
    if draw(st.booleans()):
        pool = st.one_of(TEXTS, st.sampled_from(["Merry Christmas sun", "merry", "joy", "zzz", ""]))
        texts = st.sampled_from(draw(st.lists(pool, min_size=1, max_size=3)))
    line = st.one_of(record_lines(texts).map(str.encode), st.sampled_from(SKIPPED_LINES))
    return draw(st.lists(line, max_size=40))


def manifest_entry(out, command):
    return json.loads((Path(out) / "manifest.json").read_text())[command]


class TestColumnarStages:
    """``score`` and ``bin`` write what ``score_records`` → ``aggregate`` and
    ``weekly_scores`` → ``bin_weeks`` give, whatever the chunk size."""

    @settings(max_examples=60, deadline=None)
    @given(lines=records_files(),
           country=st.sampled_from([None, *COUNTRIES]), stoplist=st.booleans(),
           chunk=st.integers(1, 7))
    def test_outputs_equal_the_adapter_path(self, lines, country, stoplist, chunk):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            records, lexicon = tmp / "r.tsv", tmp / "lex.csv"
            records.write_bytes(b"".join(line + b"\n" for line in lines))
            lexicon.write_text(LEXICON_CSV)
            argv = ["--records", str(records), "--lexicons", str(lexicon)]
            argv += [] if stoplist else ["--no-stoplist"]
            argv += ["--country", country] if country else []
            recs, n_malformed = io.read_records(records)
            scored = sentiment.score_records(recs, sentiment.load_lexicons(lexicon),
                                             sentiment.GreetingStoplist.default() if stoplist else None)
            read_counts = {"records": len(recs), "records_malformed": n_malformed,
                           "records_unscored": sum(r.score is None for r in scored)}

            with mock.patch.object(sentiment, "_CHUNK", chunk):
                code = run("score", *argv, "--out", str(tmp / "cli"))
            wanted = [country] if country else sorted({r.country for r in scored} - {"unknown"})
            rows = [(c, week.week_start, dim, week.mean[i], week.n_scored)
                    for c in wanted for week in sentiment.aggregate(scored, c)[0]
                    for i, dim in enumerate(sentiment.DIMENSIONS)]
            # as in bin, no scored record to write is a data error
            assert code == (0 if rows else 2)
            if code == 0:
                io.write_weekly_mood(tmp / "weekly_mood.csv", rows)
                assert ((tmp / "cli" / "weekly_mood.csv").read_bytes()
                        == (tmp / "weekly_mood.csv").read_bytes())
                assert manifest_entry(tmp / "cli", "score")["counts"] == {
                    **read_counts, "countries": len(wanted), "weekly_rows": len(rows)}

            with mock.patch.object(sentiment, "_CHUNK", chunk):
                code = run("bin", *argv, "--out", str(tmp / "cli"))
            present = sorted({r.country for r in scored if r.country != "unknown" and r.score})
            chosen = country or (present[0] if len(present) == 1 else None)
            by_week = sentiment.weekly_scores(scored, chosen) if chosen else {}
            # several scored countries need --country; none at all is a data error
            assert code == (1 if len(present) > 1 and not country else 2 if not by_week else 0)
            if code == 0:
                binned = sentiment.bin_weeks(by_week)
                io.write_binned(tmp / "binned.tsv", [
                    (b.week_start, b.dimension, b.n_scored, b.probs) for b in binned],
                    sentiment.N_BINS)
                assert (tmp / "cli" / "binned.tsv").read_bytes() == (tmp / "binned.tsv").read_bytes()
                assert manifest_entry(tmp / "cli", "bin")["counts"] == {
                    **read_counts, "weeks": len(by_week), "binned_rows": len(binned)}


def synth_records(path, n, n_days=28):
    """``n`` one-word records cycling through ``n_days`` days and two countries."""
    words = ["sun", "rain", "joy", "sol", "lluvia", "zzz"]
    with open(path, "w") as fh:
        for i in range(n):
            day = dt.date(2010, 1, 3) + dt.timedelta(days=i % n_days)
            fh.write(f"{day.isoformat()}T12:00:00Z\t{'US' if i % 3 else 'GB'}\t{words[i % 6]}\n")


class TestBoundedMemory:
    """``score`` and ``bin`` hold a chunk of records at a time, plus one cell
    per (country, day) or (country, week) seen."""

    @pytest.mark.parametrize("stage", [["score"], ["bin", "--country", "US"]])
    def test_peak_does_not_grow_with_the_records(self, tmp_path, stage):
        lexicon = tmp_path / "lex.csv"
        lexicon.write_text(LEXICON_CSV)

        def peak(n):
            records = tmp_path / f"r{n}.tsv"
            synth_records(records, n)
            argv = [*stage, "--records", str(records), "--lexicons", str(lexicon),
                    "--no-stoplist", "--out", str(tmp_path / f"out{n}")]
            tracemalloc.start()
            try:
                assert run(*argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        with mock.patch.object(sentiment, "_CHUNK", 256), redirect_stdout(StringIO()):
            small, large = peak(2048), peak(4 * 2048)
        assert large <= 1.5 * small

    def test_gap_weeks_across_the_whole_calendar_are_only_counted(self, tmp_path, capsys):
        records, lexicon = tmp_path / "r.tsv", tmp_path / "lex.csv"
        records.write_text("".join(f"{stamp}T00:00:00Z\t{country}\tsun\n"
                                   for country in ("US", "GB")
                                   for stamp in ("0001-01-08", "9999-12-30")))
        lexicon.write_text(LEXICON_CSV)
        tracemalloc.start()
        try:
            assert run("score", "--records", str(records), "--lexicons", str(lexicon),
                       "--out", str(tmp_path / "out")) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000
        warnings = manifest_entry(tmp_path / "out", "score")["warnings"]
        assert "GB: 521720 gap weeks with no scored records" in warnings
        assert "US: 521720 gap weeks with no scored records" in warnings


def run_quietly(argv) -> tuple[int, str]:
    """``main(argv)``'s exit code and stderr, with stdout dropped."""
    err = StringIO()
    with redirect_stderr(err), redirect_stdout(StringIO()):
        code = main(argv)
    return code, err.getvalue()


# The tables each stage writes when it succeeds, each with its text
# columns: every other column holds numbers, or is blank where the value
# does not exist and the column is in BLANK_CELLS
BLANK_CELLS = {"actual_pct"}  # agreement_check.csv: a cell the z table has no group for
TABLE_TEXT_COLUMNS = {
    "score": {"weekly_mood.csv": {"country", "week_start", "dim"}},
    "bin": {"binned.tsv": {"week_start", "dim"}},
    "eigenmood": {"decomposition.csv": {"dimension"},
                  "selection.csv": {"dimension", "selected"},
                  "projections.csv": {"week_start"},
                  "linguistic.csv": {"dimension", "level"}},
    "similarity": {"projections.csv": {"week_start"}, "similarity.csv": {"week_start"}},
    "regress": {"regression.csv": {"field"}},
    "dcor": {"dcor.csv": {"field"}},
    "classify": {"classification.csv": {"code", "name", "identification", "hemisphere", "label",
                                        "basis", "tie_resolved"},
                 "agreement.csv": {"group_kind", "group", "anchor"}},
    "report": {"classification.csv": {"code", "name", "identification", "hemisphere", "label",
                                      "basis", "tie_resolved"},
               "agreement.csv": {"group_kind", "group", "anchor"},
               "agreement_check.csv": {"group_kind", "group", "anchor", "match"}},
}


def assert_only_finite_numbers(out: Path, stage: str) -> None:
    """A successful ``stage`` wrote its tables under ``out``, and every cell
    of their numeric columns is a finite number. In any other file, JSON
    holds no NaN or infinity, and a cell that reads as a number is finite."""
    def no_constant(name):
        raise AssertionError(f"{name} in a JSON output")

    def read(path):
        with open(path, newline="") as fh:
            return list(csv.reader(fh, delimiter="\t" if path.suffix == ".tsv" else ","))

    tables = TABLE_TEXT_COLUMNS[stage]
    for name, text in tables.items():
        header, *rows = read(out / name)
        assert text < set(header), (name, header)
        numeric = [i for i, column in enumerate(header) if column not in text]
        for row in rows:
            assert len(row) == len(header), (name, row)
            assert all(math.isfinite(float(row[i])) for i in numeric
                       if row[i] or header[i] not in BLANK_CELLS), (name, row)
    for path in out.iterdir():
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=no_constant)
        elif path.name not in tables:
            for row in read(path)[1:]:
                for cell in row:
                    try:
                        value = float(cell)
                    except ValueError:
                        continue
                    assert math.isfinite(value), (path.name, row)


STAMPS = ["0001-01-01T00:00:00Z", "0001-01-07T00:00:00+00:01", "0001-01-07T00:00:00Z",
          "0001-01-08T00:30:00-23:59", "2010-01-03T23:59:59+14:00", "2010-01-09T23:00:00-12:00",
          "2010-01-04T08:00:00", "9999-12-31T23:59:59Z", "9999-12-31T23:00:00-05:00",
          "9999-12-31T20:00:00+05:00", "2010-13-01T00:00:00Z", "", "nan"]
FUZZ_PIECES = [b"sun", b"rain", b"joy", b"sol", b" ", b"\t", b"\r", b"\xff", b"\xc3", b"\xc3\xbc",
               b"Merry Christmas", b"9.5", b"nan", b"-", b"US", b"unknown"]


@st.composite
def fuzz_lines(draw):
    """A records line that may be anything: extreme or offset stamps, bad
    bytes, lone carriage returns, extra tabs, or nothing at all."""
    stamp = draw(st.one_of(st.sampled_from(STAMPS), st.text(max_size=12))).encode("utf-8", "surrogatepass")
    country = draw(st.sampled_from([b"US", b"GB", b"unknown", b"", b" US "]))
    text = b"".join(draw(st.lists(st.sampled_from(FUZZ_PIECES), max_size=6)))
    return draw(st.sampled_from([stamp + b"\t" + country + b"\t" + text, b"", text,
                                 stamp + b"\t" + text]))


class TestRecordsFuzz:
    @settings(max_examples=150, deadline=None)
    @given(lines=st.lists(fuzz_lines(), max_size=12), ending=st.sampled_from([b"\n", b"\r\n", b"\r"]),
           argv=st.sampled_from([["score"], ["score", "--country", "GB"], ["bin"],
                                 ["bin", "--country", "US"], ["bin", "--bins", "3"]]),
           chunk=st.integers(1, 4))
    def test_score_and_bin_end_in_an_exit_code_and_finite_numbers(self, lines, ending, argv, chunk):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            records, lexicon, out = tmp / "r.tsv", tmp / "lex.csv", tmp / "out"
            records.write_bytes(ending.join(lines))
            lexicon.write_text(LEXICON_CSV)
            with mock.patch.object(sentiment, "_CHUNK", chunk):
                code, err = run_quietly([*argv, "--records", str(records), "--lexicons", str(lexicon),
                                         "--out", str(out)])
            assert code in (0, 1, 2, 3)
            assert "Traceback" not in err
            if code == 0:
                assert_only_finite_numbers(out, argv[0])


# Sundays of three holiday seasons: holiday rows can come from 1, 2 or 3 years
BINNED_WEEKS = ["2010-12-19", "2010-12-26", "2011-01-02", "2011-12-25", "2012-01-01",
                "2012-12-23", "2012-12-30"]


def binned_tsv(rows, n_bins=3) -> str:
    """A binned TSV of (week, dim, probabilities as text) rows."""
    header = ["week_start", "dim", "n"] + [f"p{i:02d}" for i in range(1, n_bins + 1)]
    return "".join("\t".join(row) + "\n"
                   for row in [header] + [[week, dim, "10", *probs] for week, dim, probs in rows])


def spread(i: int, n_bins: int = 3) -> list[str]:
    """A valid distribution over ``n_bins`` bins that varies with ``i``."""
    weights = [(i * 7 + b * 3) % 5 + 1 for b in range(n_bins)]
    return [fmt(w / sum(weights)) for w in weights]


class TestBinnedErrors:
    """A bad ``--binned`` file ends in a data error that names the file, and
    the line when one row is at fault."""

    def rows(self, weeks=BINNED_WEEKS, dims=sentiment.DIMENSIONS):
        return [(week, dim, spread(i + j)) for i, week in enumerate(weeks)
                for j, dim in enumerate(dims)]

    @pytest.mark.parametrize("stage", ["eigenmood", "similarity"])
    @pytest.mark.parametrize("case", ["one-week", "negative", "unsummed", "weeks-disagree"])
    def test_message_names_the_file(self, tmp_path, stage, case):
        rows, holidays = self.rows(), "2010-12-26,2011-12-25"
        if case == "one-week":
            rows, holidays = self.rows(weeks=BINNED_WEEKS[:1]), ",".join(BINNED_WEEKS[:2])
        elif case == "negative":
            rows[4] = (*rows[4][:2], ["0.5", "-0.25", "0.75"])
        elif case == "unsummed":
            rows[4] = (*rows[4][:2], ["0.5", "0.25", "0.5"])
        elif case == "weeks-disagree":
            rows = [row for row in rows if not (row[1] == "arousal" and row[0] == BINNED_WEEKS[-1])]
        path = tmp_path / "binned.tsv"
        path.write_text(binned_tsv(rows))
        code, err = run_quietly([stage, "--binned", str(path), "--holiday-weeks", holidays,
                                 "--out", str(tmp_path / "out")])
        expected = {
            "one-week": f"{path}: holiday week {BINNED_WEEKS[1]} is not present in the binned data",
            "negative": f"{path}:6: bin probabilities must be finite and non-negative",
            "unsummed": f"{path}:6: every week's bin probabilities must sum to 1",
            "weeks-disagree": f"{path}: binned dimensions valence and arousal disagree on their week lists",
        }[case]
        assert (code, err) == (2, f"data error: {expected}\n")

    def test_the_linguistic_summary_names_the_file(self, tmp_path):
        # the five-level summary is defined for 25 bins only
        path = tmp_path / "binned.tsv"
        path.write_text(binned_tsv(self.rows()))
        code, err = run_quietly(["eigenmood", "--binned", str(path), "--holiday-weeks",
                                 "2010-12-26,2011-12-25", "--out", str(tmp_path / "out")])
        assert (code, err) == (2, f"data error: {path}: expected a 25-bin row\n")
        assert not (tmp_path / "out").exists()


PROBABILITY_CELLS = st.one_of(
    st.sampled_from(["0", "1", "0.5", "-0.5", "nan", "inf", "", "x", "1e308", "1e-320"]),
    st.floats(allow_nan=False, allow_infinity=False).map(fmt))


@st.composite
def binned_files(draw) -> bytes:
    """A binned TSV that is valid or has one defect: a bad header, an odd
    probability, a short row, a bad count, a row out of order or missing."""
    n_bins = draw(st.sampled_from([2, 3, 25]))
    weeks = BINNED_WEEKS if draw(st.booleans()) else sorted(draw(
        st.lists(st.sampled_from(BINNED_WEEKS), unique=True, min_size=1, max_size=len(BINNED_WEEKS))))
    dims = draw(st.sampled_from([list(sentiment.DIMENSIONS)] * 3 + [["valence"], ["arousal", "mood"]]))
    header = ["week_start", "dim", "n"] + [f"p{i:02d}" for i in range(1, n_bins + 1)]
    rows = [[week, dim, "10", *spread(draw(st.integers(0, 20)), n_bins)]
            for week in weeks for dim in dims]
    at = draw(st.integers(0, len(rows) - 1))
    defect = draw(st.sampled_from([None] * 4 + ["header", "cell", "short", "count", "order",
                                                "missing"]))
    if defect == "header":
        header = draw(st.lists(st.sampled_from(header + ["p99", "", "x"]), max_size=6))
    elif defect == "cell":
        rows[at][draw(st.integers(3, 2 + n_bins))] = draw(PROBABILITY_CELLS)
    elif defect == "short":
        rows[at].pop()
    elif defect == "count":
        rows[at][2] = draw(st.sampled_from(["0", "-1", "x", ""]))
    elif defect == "order":
        rows.append(rows.pop(at))
    elif defect == "missing":
        del rows[at]
    return "".join("\t".join(row) + "\n" for row in [header] + rows).encode()


Z_HEADER = ["code", "name", "identification", "hemisphere", "z_christmas", "z_eid", "z_june", "z_dec"]
Z_TEXT_CELLS = ["US", "RU", "KZ", "", " Muslim ", "Christian", "Muslim", "Other", "North", "South",
                "Ünïcode", "a,b", 'say "hi"']


@st.composite
def zscore_files(draw) -> bytes:
    """A z table that is valid or has defects: a bad header, odd text or
    number cells, a short row, a repeated code, bytes that are not UTF-8."""
    header = Z_HEADER
    if draw(st.integers(0, 5)) == 0:
        header = draw(st.lists(st.sampled_from(Z_HEADER + ["", "z"]), max_size=9))
    rows = [[draw(st.sampled_from(Z_TEXT_CELLS)) for _ in range(4)]
            + [draw(st.one_of(PROBABILITY_CELLS, st.sampled_from(["2.5", "-3"]))) for _ in range(4)]
            for _ in range(draw(st.integers(0, 6)))]
    if rows and draw(st.integers(0, 9)) == 0:
        del rows[0][draw(st.integers(0, 7)):]
    text = StringIO()
    csv.writer(text, lineterminator="\n").writerows([header] + rows)
    content = text.getvalue().encode()
    if draw(st.integers(0, 9)) == 0:
        content += draw(st.sampled_from([b"\n", b"\xff,x\n", b"US,\n", b'"open\n']))
    return content


CONFIG_KEYS = sorted({action.dest for command in _build_parser()[1].values()
                      for action in command._actions if action.dest != "help"})
CONFIG_VALUES = ["0", "1", "3", "-1", "0.5", "nan", "inf", "yes", "no", "", "x", "v,a", "d,bogus",
                 "2010-12-26,2011-12-25", "2010-12-26", "٣", "1e400", "US", "=", "a=b"]


@st.composite
def config_files(draw) -> bytes:
    """A config file of real keys with odd values, unknown keys, lines with
    no '=', comments, duplicates and bytes that are not UTF-8."""
    key = st.sampled_from(CONFIG_KEYS * 4 + ["bogus", "holiday-weeks", " bins ", "", "search_terms"])
    value = st.one_of(st.sampled_from(CONFIG_VALUES), st.text(alphabet="ab,.-=# \t", max_size=5))
    line = st.tuples(key, value).map(lambda kv: f"{kv[0]}={kv[1]}".encode())
    lines = draw(st.lists(line, max_size=4))
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(
            [b"", b"# comment", b"no value here", b"=1", b"bins=\xff", b"\xef\xbb\xbfbins=3"])))
    return b"\n".join(lines)


class TestInputFuzz:
    """``--binned``, ``--zscores`` and ``--config`` files, like records
    files, end in an exit code, never a traceback, and a run that succeeds
    writes only finite numbers."""

    @settings(max_examples=150, deadline=None)
    @given(content=binned_files(), stage=st.sampled_from(["eigenmood", "similarity"]),
           holidays=st.one_of(st.sampled_from([BINNED_WEEKS[1::2], BINNED_WEEKS[:2]]),
                              st.lists(st.sampled_from(BINNED_WEEKS + ["2010-12-12"]), max_size=4)),
           options=st.sampled_from([[], ["--dims", "v"], ["--dims", "a,d"], ["--alt-score"],
                                    ["--var-threshold", "1"], ["--var-threshold", "0.5"],
                                    ["--var-threshold", "0"], ["--var-threshold", "nan"]]))
    def test_binned_files(self, content, stage, holidays, options):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "binned.tsv").write_bytes(content)
            code, err = run_quietly([stage, "--binned", str(tmp / "binned.tsv"),
                                     "--holiday-weeks", ",".join(holidays), *options,
                                     "--out", str(tmp / "out")])
            assert code in (0, 1, 2, 3)
            assert "Traceback" not in err
            if code == 0:
                assert_only_finite_numbers(tmp / "out", stage)

    @settings(max_examples=150, deadline=None)
    @given(content=zscore_files(), stage=st.sampled_from(["classify", "report"]),
           options=st.sampled_from([[], ["--orthodox-as-other"], ["--threshold", "0"],
                                    ["--threshold", "-1e308"], ["--threshold", "nan"]]))
    def test_zscore_tables(self, content, stage, options):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "z.csv").write_bytes(content)
            code, err = run_quietly([stage, "--zscores", str(tmp / "z.csv"), *options,
                                     "--out", str(tmp / "out")])
            assert code in (0, 1, 2, 3)
            assert "Traceback" not in err
            if code == 0:
                assert_only_finite_numbers(tmp / "out", stage)

    @settings(max_examples=150, deadline=None)
    @given(content=config_files(), stage=st.sampled_from(
        ["classify", "report", "score", "bin", "regress", "dcor", "eigenmood", "similarity"]))
    def test_config_files(self, content, stage):
        # every option whose value sets the size of the work is given as a
        # flag, which wins over the config
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "run.cfg").write_bytes(content)
            (tmp / "r.tsv").write_text("2010-01-03T08:00:00Z\tUS\tsun joy\n"
                                       "2010-01-12T08:00:00Z\tGB\train\n")
            (tmp / "lex.csv").write_text(LEXICON_CSV)
            write_keyed(tmp / "x.csv", [("a", 1.0), ("b", 2.0), ("c", 4.0), ("d", 3.0)])
            write_keyed(tmp / "y.csv", [("a", 2.0), ("b", 1.0), ("c", 5.0), ("d", 3.5)])
            (tmp / "binned.tsv").write_text(binned_tsv(TestBinnedErrors().rows()))
            records = ["--records", str(tmp / "r.tsv"), "--lexicons", str(tmp / "lex.csv")]
            keyed = ["--x", str(tmp / "x.csv"), "--y", str(tmp / "y.csv")]
            binned = ["--binned", str(tmp / "binned.tsv"), "--holiday-weeks", "2010-12-26,2011-12-25"]
            argv = {"classify": [], "report": [], "score": records, "bin": records + ["--bins", "3"],
                    "regress": keyed, "dcor": keyed + ["--permutations", "9", "--seed", "1"],
                    "eigenmood": binned, "similarity": binned}[stage]
            code, err = run_quietly(["--config", str(tmp / "run.cfg"), stage, *argv,
                                     "--out", str(tmp / "out")])
            assert code in (0, 1, 2, 3)
            assert "Traceback" not in err
            if code == 0:
                assert_only_finite_numbers(tmp / "out", stage)


def tiny_inputs(tmp: Path) -> dict[str, str]:
    """A valid value for every option of every subcommand that takes one,
    keyed by the option's ``dest``; the files it names are written to ``tmp``,
    and ``--out`` is ``out`` in the working directory."""
    write_series(tmp / "series.csv", "2010-01-03",
                 [9.0 if i % 52 == 51 else 1.0 + i % 3 for i in range(156)])
    (tmp / "eid.csv").write_text("kind,anchor_date\neid-al-fitr,2010-09-10\neid-al-fitr,2011-08-30\n")
    (tmp / "births.csv").write_text("country,year,month,count\n"
                                    + "".join(f"US,2010,{m},{100 + m}\n" for m in range(1, 13)))
    (tmp / "r.tsv").write_text("2010-01-03T08:00:00Z\tUS\tsun joy\n2010-01-12T08:00:00Z\tUS\train\n"
                               "2010-01-13T08:00:00Z\tunknown\tsol\n")
    (tmp / "lex.csv").write_text(LEXICON_CSV)
    (tmp / "stop.txt").write_text("merry christmas\n")
    (tmp / "binned.tsv").write_text(binned_tsv(  # eigenmood's linguistic summary needs 25 bins
        [(week, dim, spread(i + j, 25)) for i, week in enumerate(BINNED_WEEKS)
         for j, dim in enumerate(sentiment.DIMENSIONS)], 25))
    write_keyed(tmp / "x.csv", [("a", 1.0), ("b", 2.0), ("c", 4.0), ("d", 3.0)])
    write_keyed(tmp / "y.csv", [("a", 2.0), ("b", 1.0), ("c", 5.0), ("d", 3.5)])
    files = {"series": "series.csv", "eid_dates": "eid.csv", "births": "births.csv",
             "records": "r.tsv", "lexicons": "lex.csv", "stoplist": "stop.txt",
             "binned": "binned.tsv", "x": "x.csv", "y": "y.csv", "a": "series.csv",
             "b": "series.csv"}
    return {**{dest: str(tmp / name) for dest, name in files.items()},
            "zscores": str(_fixture("holiday_zscores.csv")), "out": "out",
            "anchor": "christmas", "years": "2010-2011", "country": "US",
            "holiday_weeks": "2010-12-26,2011-12-25", "holiday": "xmas", "dims": "v,a",
            "threshold": "1.5", "min_overlap": "2", "shift": "3", "bins": "3",
            "var_threshold": "0.9", "permutations": "9", "seed": "1", "n_years": "1",
            "records_per_week": "7"}


# No large numbers: no value asks --bins, --permutations or synth for big work
ARGV_POOL = ["0", "1", "2", "3", "-1", "0.5", "nan", "inf", "1e400", "", ",", "x", "٣"]


@st.composite
def subcommand_argv(draw, command: str, valid: dict[str, str]) -> list[str]:
    """``command`` with each of its options omitted or given a valid value,
    an absent path or a value from ``ARGV_POOL``, in a drawn order."""
    options = []
    for action in _build_parser()[1][command]._actions:
        flag = action.option_strings[0]
        if action.dest == "help":
            continue
        if action.nargs == 0:  # a switch
            options += [[flag]] if draw(st.booleans()) else []
            continue
        value = draw(st.sampled_from([None, "valid", "valid", "valid", "absent", "pool"]))
        if value == "valid":
            value = valid[action.dest]
        elif value == "pool":
            value = draw(st.sampled_from(ARGV_POOL))
        options += [[flag, value]] if value is not None else []
    return [command] + [part for option in draw(st.permutations(options)) for part in option]


class TestArgvFuzz:
    """Every subcommand, on any argv its options allow, ends in an exit
    code and never an exception, and a run that fails creates no --out."""

    @pytest.mark.parametrize("command", sorted(_build_parser()[1]))
    def test_every_subcommand(self, tmp_path, command):
        @settings(max_examples=40, deadline=None)
        @given(argv=subcommand_argv(command, tiny_inputs(tmp_path)))
        def check(argv):
            cwd = os.getcwd()
            with tempfile.TemporaryDirectory() as run_dir:
                os.chdir(run_dir)  # relative paths, --out among them, start out absent
                try:
                    code, err = run_quietly(argv)
                    assert code in (0, 1, 2, 3), (argv, err)
                    assert "Traceback" not in err
                    out = argv[argv.index("--out") + 1] if "--out" in argv else ""
                    if code != 0 and out:
                        assert not Path(out).exists(), (argv, err)
                finally:
                    os.chdir(cwd)

        check()


class TestMalformedRecords:
    @pytest.mark.parametrize("stage", ["score", "bin"])
    @pytest.mark.parametrize("line", [
        b"9999-12-31T23:00:00-05:00\tUS\tsun",  # GMT time past year 9999
        b"0001-01-02T00:30:00Z\tUS\tsun",       # its Sunday week starts before 0001-01-01
        b"2010-01-04T09:00:00Z\tUS\tsu\xffn",   # not UTF-8
        b"2010-01-04T09:00:00Z\t \tsun",         # no --country could select "", so bin bins US
    ], ids=["gmt-overflow", "before-first-week", "undecodable", "blank-country"])
    def test_line_is_counted_and_skipped(self, tmp_path, capsys, stage, line):
        records, lexicon = tmp_path / "r.tsv", tmp_path / "lex.csv"
        records.write_bytes(b"2010-01-04T08:00:00Z\tUS\train\n" + line + b"\n")
        lexicon.write_text(LEXICON_CSV)
        out = tmp_path / "out"
        assert run(stage, "--records", str(records), "--lexicons", str(lexicon),
                   "--no-stoplist", "--out", str(out)) == 0
        assert "Traceback" not in capsys.readouterr().err
        entry = json.loads((out / "manifest.json").read_text())[stage]
        assert entry["counts"]["records"] == 1
        assert entry["counts"]["records_malformed"] == 1
        assert "1 malformed record lines skipped" in entry["warnings"]


class TestPipelineChain:
    def test_synth_bin_similarity(self, tmp_path):
        data = tmp_path / "data"
        assert run("synth", "--out", str(data), "--n-years", "1",
                   "--records-per-week", "120") == 0
        meta = json.loads((data / "gen_spec.json").read_text())

        binned = tmp_path / "binned"
        assert run("bin", "--records", str(data / "records.tsv"),
                   "--lexicons", str(data / "lexicon.csv"),
                   "--no-stoplist", "--out", str(binned)) == 0
        assert (binned / "binned.tsv").exists()

        sim = tmp_path / "sim"
        code = run("similarity", "--binned", str(binned / "binned.tsv"),
                   "--holiday-weeks", ",".join(meta["holiday_week_starts"]),
                   "--out", str(sim))
        assert code == 0
        with open(sim / "similarity.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 52
        mood = json.loads((sim / "eigenmood.json").read_text())
        assert len(mood["components"]) == 2

    def test_eigenmood_summarizes_the_selected_means(self, tmp_path):
        # linguistic.csv is linguistic_response(sum of mean x eigenbin) per
        # dimension, the means being select_eigenmood's on the same file
        binned = tiny_inputs(tmp_path)["binned"]
        holidays = [dt.date(2010, 12, 26), dt.date(2011, 12, 25)]
        out = tmp_path / "out"
        assert run("eigenmood", "--binned", binned, "--out", str(out),
                   "--holiday-weeks", ",".join(map(str, holidays))) == 0
        data = io.read_binned(binned)
        decs = {dim: em.decompose(probs) for dim, (_, _, probs) in data.items()}
        rows = [data["valence"][0].index(day) for day in holidays]
        mood = em.select_eigenmood(decs, rows, "holiday")
        means = {(c.dimension, c.index): c.mean for c in mood.selection}
        expected = {}
        for dim in sentiment.DIMENSIONS:
            comps = [c for c in mood.components if c.dimension == dim]
            if comps:
                recon = sum(means[c.dimension, c.index] * c.eigenbin for c in comps)
                expected |= {(dim, level): v for level, v in em.linguistic_response(recon).items()}
        with open(out / "linguistic.csv") as fh:
            got = {(r["dimension"], r["level"]): float(r["response"]) for r in csv.DictReader(fh)}
        assert expected and got == expected

    def test_center_finds_a_december_anchor(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        start = dt.date(2004, 1, 4)
        values = []
        for i in range(560):
            day = start + dt.timedelta(weeks=i)
            values.append(100.0 if day.month == 12 and 18 <= day.day <= 25 else 10.0)
        write_series(series, "2004-01-04", values)
        out = tmp_path / "out"
        assert run("center", "--series", str(series), "--anchor", "christmas",
                   "--out", str(out)) == 0
        with open(out / "anchor_z.csv") as fh:
            row = list(csv.DictReader(fh))[0]
        assert row["anchor"] == "christmas"
        assert int(row["week_index"]) == 26
        assert float(row["z"]) > 3.0


def test_dcor_builds_each_centered_distance_matrix_once(tmp_path):
    x, y = tmp_path / "x.csv", tmp_path / "y.csv"
    write_keyed(x, [(f"k{i}", float(i % 7)) for i in range(30)])
    write_keyed(y, [(f"k{i}", float(i * i % 11)) for i in range(30)])
    argv = ["dcor", "--x", str(x), "--y", str(y), "--permutations", "49", "--seed", "3"]
    with mock.patch.object(stats, "_centered_distances", wraps=stats._centered_distances) as spy:
        assert run(*argv, "--out", str(tmp_path / "out")) == 0
    assert spy.call_count == 2
    written = read_keyed_rows(tmp_path / "out" / "dcor.csv")
    xs, ys = io.read_keyed_values(x), io.read_keyed_values(y)
    keys = sorted(xs)
    xv, yv = [xs[k] for k in keys], [ys[k] for k in keys]
    assert written["dcov"] == stats.distance_covariance(xv, yv)
    assert written["dcor"] == stats.distance_correlation(xv, yv)
    assert written["permutation_p"] == stats.permutation_test(xv, yv, n_permutations=49, seed=3)[1]


def test_regress_and_dcor_run_without_scipy(tmp_path):
    # with sys.modules["scipy"] = None, any import of scipy raises
    rng = np.random.default_rng(8)
    paths = {name: tmp_path / f"{name}.csv" for name in ("y", "a", "b")}
    for path in paths.values():
        write_keyed(path, [(f"k{i}", v) for i, v in enumerate(rng.standard_normal(40))])
    y, a, b = (str(p) for p in paths.values())
    argvs = [["regress", "--y", y, "--x", f"{a},{b}", "--out", str(tmp_path / "regress")],
             ["dcor", "--y", y, "--x", a, "--permutations", "19", "--seed", "1",
              "--out", str(tmp_path / "dcor")]]
    code = ("import json, sys; sys.modules['scipy'] = None; from moodcycles.cli import main; "
            "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))")
    src = str(Path(moodcycles.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    fields = read_keyed_rows(tmp_path / "regress" / "regression.csv")
    p_values = [v for k, v in fields.items() if k == "f_pvalue" or k.startswith("t_pvalue")]
    assert len(p_values) == 5 and all(0.0 <= p <= 1.0 for p in p_values)
    assert (tmp_path / "dcor" / "dcor.csv").is_file()


def test_console_entry_point_help():
    result = subprocess.run(
        [sys.executable, "-m", "moodcycles.cli", "--help"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "COMMAND" in result.stdout
