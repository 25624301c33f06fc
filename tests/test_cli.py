import hashlib
import io
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from animacy.cli import _beginners, _load_predictions, build_parser, main
from animacy.corpus import Label
from animacy.data import mini_corpus_path, toy_taxonomy_path
from animacy.taxonomy import BeginnerClass
from tests.test_corpus import write_lines

TAX = toy_taxonomy_path()
CORPUS = mini_corpus_path()
FOLD_STREAM_SEED7 = [16, 19, 53, 0, 54, 37, 12, 36]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_happy_path_rule_classification(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--method", "rule",
            "--taxonomy", TAX, "--corpus", CORPUS,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 60
        assert lines[0].split("\t") == ["d1", "0", "0", "A"]

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "classify", "--frobnicate")
        assert code == 2

    def test_sweep_without_seed_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "sweep", "--corpus", CORPUS)
        assert code == 2

    def test_stochastic_classify_without_seed(self, capsys):
        code, _, err = run(
            capsys, "classify", "--method", "random", "--corpus", CORPUS
        )
        assert code == 2
        assert "--seed" in err

    def test_missing_file_is_runtime_error(self, capsys):
        code, _, err = run(
            capsys, "classify", "--method", "rule",
            "--taxonomy", "/nonexistent.tax", "--corpus", CORPUS,
        )
        assert code == 1
        assert err

    def test_help_exits_zero_everywhere(self, capsys):
        for command in ("import-wndb", "annotate", "enrich", "classify",
                        "xval", "eval", "kappa", "simulate", "sweep"):
            code, out, _ = run(capsys, command, "--help")
            assert code == 0
            assert command in out

    def test_help_documents_all_named_flags(self, capsys):
        named = {
            "classify": ["--method", "--t1", "--t2", "--t3", "--wsd",
                         "--taxonomy", "--corpus", "--train", "--test",
                         "--enriched", "--k", "--seed", "--ic"],
            "enrich": ["--taxonomy", "--corpus", "--out", "--alpha"],
            "xval": ["--folds", "--seed"],
            "eval": ["--gold", "--pred"],
            "kappa": ["--a", "--b"],
            "simulate": ["--corpus", "--labels"],
            "sweep": ["--p-from", "--p-to", "--r-from", "--r-to",
                      "--runs", "--seed", "--marginals", "--out"],
        }
        for command, flags in named.items():
            _, out, _ = run(capsys, command, "--help")
            for flag in flags:
                assert flag in out, (command, flag)


    @pytest.mark.parametrize("alpha", ["2", "1", "0", "-0.5", "nan", "inf", "abc"])
    def test_alpha_outside_unit_interval_is_usage_error(self, capsys, alpha):
        code, out, err = run(capsys, "enrich", "--taxonomy", TAX,
                             "--corpus", CORPUS, "--alpha", alpha)
        assert code == 2
        assert "--alpha" in err
        assert out == ""

    @pytest.mark.parametrize("flag", ["--animate-noun-lexfiles", "--animate-verb-lexfiles"])
    @pytest.mark.parametrize("value", ["x", "5,,18", "5;18"])
    def test_bad_lexfile_list_is_usage_error(self, capsys, flag, value):
        code, out, err = run(capsys, "classify", "--method", "rule",
                             "--taxonomy", TAX, "--corpus", CORPUS, flag, value)
        assert code == 2
        assert flag in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("command, flag, value", [
        ("sweep", "--runs", "0"),
        ("sweep", "--runs", "-3"),
        ("sweep", "--p-step", "0"),
        ("sweep", "--r-step", "0"),
        ("sweep", "--window", "-1"),
        ("sweep", "--p-from", "0"),
        ("sweep", "--r-from", "0"),
        ("sweep", "--p-to", "101"),
        ("sweep", "--r-to", "101"),
        ("sweep", "--p-from", "x"),
        ("sweep", "--seed", "-1"),
        ("simulate", "--window", "-1"),
    ])
    def test_bad_harness_number_is_usage_error(self, capsys, command, flag, value):
        seed = ["--seed", "1"] if command == "sweep" else []
        code, out, err = run(capsys, command, "--corpus", CORPUS, *seed, flag, value)
        assert code == 2
        assert flag in err
        assert "Traceback" not in err and "Warning" not in err
        assert out == ""

    @pytest.mark.parametrize("axis, low, high", [("p", "50", "10"), ("r", "100", "99")])
    def test_empty_sweep_range_is_usage_error(self, capsys, tmp_path, axis, low, high):
        out_path = tmp_path / "grid.csv"
        code, out, err = run(capsys, "sweep", "--corpus", CORPUS, "--seed", "1",
                             f"--{axis}-from", low, f"--{axis}-to", high,
                             "--out", str(out_path))
        assert code == 2
        assert f"--{axis}-from" in err and f"--{axis}-to" in err
        assert out == "" and not out_path.exists()

    @pytest.mark.parametrize("command", [
        ["xval", "--taxonomy", TAX, "--corpus", CORPUS],
        ["classify", "--method", "random", "--corpus", CORPUS],
    ])
    def test_negative_seed_is_usage_error(self, capsys, command):
        code, out, err = run(capsys, *command, "--seed", "-1")
        assert code == 2
        assert "argument --seed:" in err
        assert out == ""

    @pytest.mark.parametrize("command, flag, value", [
        (["classify", "--method", "ml", "--train", CORPUS, "--test", CORPUS], "--k", "0"),
        (["classify", "--method", "ml", "--train", CORPUS, "--test", CORPUS], "--k", "-2"),
        (["xval", "--corpus", CORPUS, "--seed", "1"], "--k", "0"),
        (["xval", "--corpus", CORPUS, "--seed", "1"], "--folds", "1"),
        (["xval", "--corpus", CORPUS, "--seed", "1"], "--folds", "0"),
    ])
    def test_bad_learner_number_is_usage_error(self, capsys, command, flag, value):
        code, out, err = run(capsys, *command, "--taxonomy", TAX, flag, value)
        assert code == 2
        assert f"argument {flag}:" in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("flag", ["--t1", "--t2", "--t3"])
    @pytest.mark.parametrize("value", ["1.5", "-0.1", "nan", "inf", "abc"])
    def test_threshold_outside_unit_interval_is_usage_error(self, capsys, flag, value):
        code, out, err = run(capsys, "classify", "--method", "rule",
                             "--taxonomy", "/nonexistent.tax", "--corpus", CORPUS,
                             flag, value)
        assert code == 2
        assert f"argument {flag}:" in err
        assert "Traceback" not in err
        assert out == ""

    def test_huge_integers_are_accepted(self):
        huge = "1" + "0" * 400
        args = build_parser().parse_args(
            ["sweep", "--corpus", CORPUS, "--seed", huge, "--runs", huge])
        assert args.seed == args.runs == int(huge)

    def test_thresholds_at_the_bounds_are_accepted(self, capsys):
        code, out, _ = run(capsys, "classify", "--method", "rule", "--taxonomy", TAX,
                           "--corpus", CORPUS, "--t1", "0", "--t2", "1", "--t3", "1.0")
        assert code == 0
        assert len(out.strip().split("\n")) == 60

    @pytest.mark.parametrize("flags, message", [
        (["--method", "ml", "--taxonomy", "/nonexistent.tax"],
         "--method ml requires --train and --test"),
        (["--method", "ml", "--taxonomy", "/nonexistent.tax", "--train", "/nonexistent.tsv"],
         "--method ml requires --test"),
        (["--method", "ml", "--train", "/nonexistent.tsv", "--test", "/nonexistent.tsv"],
         "--method ml requires --taxonomy"),
        (["--method", "rule", "--taxonomy", "/nonexistent.tax"],
         "--method rule requires --corpus"),
        (["--method", "weighted", "--corpus", "/nonexistent.tsv"],
         "--method weighted requires --seed"),
    ])
    def test_missing_method_input_is_usage_error_before_any_load(self, capsys, flags,
                                                                 message):
        code, out, err = run(capsys, "classify", *flags)
        assert (code, out, err) == (2, "", f"usage error: {message}\n")

    @pytest.mark.parametrize("flags, message", [
        (["--method", "ml", "--taxonomy", "/nonexistent.tax", "--train", "/nonexistent.tsv",
          "--test", "/nonexistent.tsv", "--corpus", "/nonexistent.tsv"],
         "--method ml does not read --corpus"),
        (["--method", "rule", "--taxonomy", "/nonexistent.tax", "--corpus", "/nonexistent.tsv",
          "--train", "/nonexistent.tsv"], "--method rule does not read --train"),
        (["--method", "rule", "--taxonomy", "/nonexistent.tax", "--corpus", "/nonexistent.tsv",
          "--test", "/nonexistent.tsv"], "--method rule does not read --test"),
        (["--method", "rule", "--taxonomy", "/nonexistent.tax", "--corpus", "/nonexistent.tsv",
          "--enriched", "/nonexistent.tsv"], "--method rule does not read --enriched"),
        (["--method", "rule", "--taxonomy", "/nonexistent.tax", "--corpus", "/nonexistent.tsv",
          "--enriched", "/nonexistent.tsv", "--train", "/nonexistent.tsv", "--seed", "1"],
         "--method rule does not read --train or --seed or --enriched"),
        (["--method", "dummy", "--corpus", "/nonexistent.tsv", "--taxonomy", "/nonexistent.tax"],
         "--method dummy does not read --taxonomy"),
        (["--method", "random", "--corpus", "/nonexistent.tsv", "--seed", "1",
          "--enriched", "/nonexistent.tsv"], "--method random does not read --enriched"),
        (["--method", "ml", "--taxonomy", "/nonexistent.tax", "--train", "/nonexistent.tsv",
          "--test", "/nonexistent.tsv", "--t1", "0.5"], "--method ml does not read --t1"),
        (["--method", "ml", "--taxonomy", "/nonexistent.tax", "--train", "/nonexistent.tsv",
          "--test", "/nonexistent.tsv", "--no-reflexive"],
         "--method ml does not read --no-reflexive"),
        (["--method", "rule", "--taxonomy", "/nonexistent.tax", "--corpus", "/nonexistent.tsv",
          "--k", "7"], "--method rule does not read --k"),
        (["--method", "dummy", "--corpus", "/nonexistent.tsv", "--wsd", "--ic",
          "/nonexistent.count"], "--method dummy does not read --wsd or --ic"),
        (["--method", "random", "--seed", "1", "--corpus", "/nonexistent.tsv",
          "--animate-noun-lexfiles", "18"],
         "--method random does not read --animate-noun-lexfiles"),
        (["--method", "weighted", "--seed", "1", "--corpus", "/nonexistent.tsv",
          "--t1", "0.2", "--k", "4"], "--method weighted does not read --t1 or --k"),
    ])
    def test_unread_method_input_is_usage_error_before_any_load(self, capsys, flags,
                                                                message):
        code, out, err = run(capsys, "classify", *flags)
        assert (code, out, err) == (2, "", f"usage error: {message}\n")

    @pytest.mark.parametrize("command", [
        ["classify", "--method", "rule", "--taxonomy", TAX, "--corpus", CORPUS],
        ["classify", "--method", "ml", "--taxonomy", TAX, "--train", CORPUS,
         "--test", CORPUS],
        ["xval", "--taxonomy", TAX, "--corpus", CORPUS, "--seed", "1"],
    ])
    def test_ic_without_wsd_is_usage_error(self, capsys, command):
        code, out, err = run(capsys, *command, "--ic", "/nonexistent.count")
        assert code == 2
        assert "--ic requires --wsd" in err
        assert out == ""

    @pytest.mark.parametrize("flags, expected", [
        ([], BeginnerClass()),
        (["--animate-noun-lexfiles", ""], BeginnerClass()),
        (["--animate-noun-lexfiles", "5,18,24"], BeginnerClass()),
        (["--animate-noun-lexfiles", "18"],
         BeginnerClass(animate_noun_lexfiles=frozenset({18}))),
        (["--animate-verb-lexfiles", " 31, 32"],
         BeginnerClass(animate_verb_lexfiles=frozenset({31, 32}))),
        (["--animate-noun-lexfiles", "5,5,6", "--animate-verb-lexfiles", "41"],
         BeginnerClass(frozenset({5, 6}), frozenset({41}))),
    ])
    def test_lexfile_lists_give_beginner_class(self, flags, expected):
        for command in (["classify", "--method", "rule"],
                        ["xval", "--taxonomy", TAX, "--corpus", CORPUS, "--seed", "1"]):
            args = build_parser().parse_args(command + flags)
            assert _beginners(args) == expected


class TestDeterminism:
    def test_classify_is_byte_identical(self, capsys):
        _, first, _ = run(capsys, "classify", "--method", "rule",
                          "--taxonomy", TAX, "--corpus", CORPUS)
        _, second, _ = run(capsys, "classify", "--method", "rule",
                           "--taxonomy", TAX, "--corpus", CORPUS)
        assert first == second

    def test_enrich_and_xval_are_byte_identical(self, capsys):
        for argv in (
            ["enrich", "--taxonomy", TAX, "--corpus", CORPUS],
            ["xval", "--taxonomy", TAX, "--corpus", CORPUS, "--seed", "7"],
        ):
            _, first, _ = run(capsys, *argv)
            _, second, _ = run(capsys, *argv)
            assert first == second, argv[0]

    def test_seeded_sweep_is_byte_identical(self, tmp_path, capsys):
        argv = ["sweep", "--corpus", CORPUS, "--p-from", "90", "--p-to", "100",
                "--p-step", "10", "--r-from", "100", "--r-to", "100",
                "--runs", "3", "--seed", "4"]
        code, first, _ = run(capsys, *argv)
        assert code == 0
        _, second, _ = run(capsys, *argv)
        assert first == second
        assert first.startswith("precision,recall,mean_success")


class TestPipeline:
    def test_enrich_then_ml_classify_then_eval(self, tmp_path, capsys):
        statuses = tmp_path / "statuses.tsv"
        code, _, err = run(capsys, "enrich", "--taxonomy", TAX,
                           "--corpus", CORPUS, "--out", str(statuses))
        assert code == 0
        assert "coverage" in err
        assert "unresolved sense keys: 0" in err

        pred = tmp_path / "pred.tsv"
        code, _, _ = run(
            capsys, "classify", "--method", "ml", "--taxonomy", TAX,
            "--enriched", str(statuses), "--train", CORPUS, "--test", CORPUS,
            "--out", str(pred),
        )
        assert code == 0

        code, out, _ = run(capsys, "eval", "--gold", CORPUS, "--pred", str(pred))
        assert code == 0
        header, row = out.strip().split("\n")
        assert header.split("\t")[0] == "accuracy"
        assert float(row.split("\t")[0]) > 90.0  # trained and tested on itself

    def test_xval_emits_report(self, capsys):
        code, out, _ = run(capsys, "xval", "--taxonomy", TAX, "--corpus", CORPUS,
                           "--folds", "5", "--seed", "3")
        assert code == 0
        assert out.startswith("accuracy\t")

    def test_wsd_variants_run_end_to_end(self, tmp_path, capsys):
        code, rule_out, _ = run(capsys, "classify", "--method", "rule", "--wsd",
                                "--taxonomy", TAX, "--corpus", CORPUS)
        assert code == 0 and len(rule_out.strip().split("\n")) == 60
        code, _, _ = run(capsys, "classify", "--method", "ml", "--wsd",
                         "--taxonomy", TAX, "--train", CORPUS, "--test", CORPUS)
        assert code == 0
        ic = tmp_path / "ic.tsv"
        ic.write_text("COUNT\tn-teacher\t5\nCOUNT\tn-table\t9\n")
        code, out, _ = run(capsys, "xval", "--taxonomy", TAX, "--corpus", CORPUS,
                           "--seed", "7", "--wsd", "--ic", str(ic))
        assert code == 0 and out.startswith("accuracy\t")

    def test_enrich_reports_unresolved_sense_keys(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text(
            open(CORPUS, encoding="utf-8").read()
            + "DOC\tghost\t0\t0\n"
            + "NP\tghost\t0\t0\tghost\t0\t-\t0\t0\tA\tn-ghost\ta ghost\n"
        )
        code, plain, _ = run(capsys, "enrich", "--taxonomy", TAX, "--corpus", CORPUS)
        assert code == 0
        code, out, err = run(capsys, "enrich", "--taxonomy", TAX, "--corpus", str(corpus))
        assert code == 0
        assert out == plain
        assert "coverage: " in err
        assert "unresolved sense keys: 1" in err

    def test_eval_ignore_unknown_flag(self, tmp_path, capsys):
        pred = tmp_path / "pred.tsv"
        run(capsys, "classify", "--method", "rule", "--taxonomy", TAX,
            "--corpus", CORPUS, "--out", str(pred))
        _, strict, _ = run(capsys, "eval", "--gold", CORPUS, "--pred", str(pred))
        _, lenient, _ = run(capsys, "eval", "--gold", CORPUS, "--pred", str(pred),
                            "--ignore-unknown")
        strict_acc = float(strict.split("\n")[1].split("\t")[0])
        lenient_acc = float(lenient.split("\n")[1].split("\t")[0])
        assert lenient_acc > strict_acc  # the corpus has out-of-vocabulary heads

    def test_baseline_classify_and_kappa(self, tmp_path, capsys):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        for path, seed in ((a, 1), (b, 2)):
            code, _, _ = run(capsys, "classify", "--method", "random",
                             "--corpus", CORPUS, "--seed", str(seed),
                             "--out", str(path))
            assert code == 0
        code, out, _ = run(capsys, "kappa", "--a", str(a), "--b", str(b))
        assert code == 0
        assert out.startswith("kappa\traw_agreement\titems")

    def test_kappa_against_gold_corpus(self, tmp_path, capsys):
        pred = tmp_path / "p.tsv"
        run(capsys, "classify", "--method", "dummy", "--corpus", CORPUS,
            "--out", str(pred))
        code, out, _ = run(capsys, "kappa", "--a", CORPUS, "--b", str(pred))
        assert code == 0
        assert out.strip().split("\n")[1].split("\t")[2] == "60"

    def test_simulate_defaults_to_gold_labels(self, capsys):
        code, out, _ = run(capsys, "simulate", "--corpus", CORPUS)
        assert code == 0
        header, row = out.strip().split("\n")
        assert header.split("\t") == [
            "success_rate", "avg_candidates", "pct_no_antecedent"
        ]
        assert float(row.split("\t")[0]) == pytest.approx(10 / 12)

    def test_sweep_marginals_file(self, tmp_path, capsys):
        out_csv = tmp_path / "grid.csv"
        marg_csv = tmp_path / "marginals.csv"
        code, _, _ = run(
            capsys, "sweep", "--corpus", CORPUS, "--p-from", "100",
            "--p-to", "100", "--r-from", "90", "--r-to", "100", "--r-step", "10",
            "--runs", "2", "--seed", "5", "--out", str(out_csv),
            "--marginals", str(marg_csv),
        )
        assert code == 0
        assert out_csv.read_text().startswith("precision,recall")
        assert marg_csv.read_text().startswith("axis,value")

    def test_import_wndb_round_trip(self, tmp_path, capsys):
        from tests.test_wndb import DATA_NOUN

        (tmp_path / "data.noun").write_text(DATA_NOUN)
        out_tax = tmp_path / "wn.tax"
        code, _, _ = run(capsys, "import-wndb", "--noun",
                         str(tmp_path / "data.noun"), "--out", str(out_tax))
        assert code == 0
        from animacy.taxonomy import load_taxonomy

        assert len(load_taxonomy(out_tax)) == 4


class TestMalformedInput:
    """Bad input exits 1 with one `error:` line naming the file and line."""

    def assert_error(self, code, err, where):
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert where in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("index_line", ["entity n", "entity n 0 0 0 0"])
    def test_short_index_line(self, tmp_path, capsys, index_line):
        (tmp_path / "data.noun").write_text("00001740 03 n 01 entity 0 000 | x\n")
        (tmp_path / "index.noun").write_text(index_line + "\n")
        code, out, err = run(capsys, "import-wndb",
                             "--noun", str(tmp_path / "data.noun"),
                             "--index-noun", str(tmp_path / "index.noun"))
        assert out == ""
        self.assert_error(code, err, "index.n line 1: ")

    @pytest.mark.parametrize("row, message", [
        ("d1\t0\t2\tX", "'X' is not a valid Label"),
        ("d1\tzero\t2\tA", "bad sentence id 'zero'"),
        ("d1\t+0\t2\tA", "bad sentence id '+0'"),
        ("d1\t0\t1_0\tA", "bad np id '1_0'"),
        ("d1\t 3\t2\tA", "bad sentence id ' 3'"),
        ("d1\t0\t\u0661\u0668\tA", "bad np id '\u0661\u0668'"),
    ])
    def test_bad_prediction_row(self, tmp_path, capsys, row, message):
        pred = tmp_path / "pred.tsv"
        run(capsys, "classify", "--method", "rule", "--taxonomy", TAX,
            "--corpus", CORPUS, "--out", str(pred))
        lines = pred.read_text().split("\n")
        lines[2] = row
        pred.write_text("\n".join(lines))
        code, _, err = run(capsys, "eval", "--gold", CORPUS, "--pred", str(pred))
        self.assert_error(code, err, f"{pred} line 3: {message}")

    @pytest.mark.parametrize("argv", [
        ["eval", "--gold", CORPUS, "--pred", "{pred}"],
        ["kappa", "--a", CORPUS, "--b", "{pred}"],
        ["simulate", "--corpus", CORPUS, "--labels", "{pred}"],
    ])
    def test_duplicate_prediction_key(self, tmp_path, capsys, argv):
        pred = tmp_path / "pred.tsv"
        run(capsys, "classify", "--method", "rule", "--taxonomy", TAX,
            "--corpus", CORPUS, "--out", str(pred))
        with open(pred, "a", encoding="utf-8") as handle:
            handle.write("d1\t0\t2\tA\n")
        code, out, err = run(capsys, *(arg.format(pred=pred) for arg in argv))
        assert out == ""
        self.assert_error(code, err, f"{pred} line 61: duplicate NP key ('d1', 0, 2)")

    def test_duplicate_status_line(self, tmp_path, capsys):
        statuses = tmp_path / "statuses.tsv"
        run(capsys, "enrich", "--taxonomy", TAX, "--corpus", CORPUS,
            "--out", str(statuses))
        with open(statuses, "a", encoding="utf-8") as handle:
            handle.write("STATUS\tn-animal\tI\n")
        code, out, err = run(capsys, "classify", "--method", "ml", "--taxonomy", TAX,
                             "--enriched", str(statuses),
                             "--train", CORPUS, "--test", CORPUS)
        assert out == ""
        self.assert_error(
            code, err, f"{statuses} line 55: duplicate STATUS for synset n-animal")

    def test_bad_status_value(self, tmp_path, capsys):
        statuses = tmp_path / "statuses.tsv"
        statuses.write_text("STATUS\tn-teacher\tA\nSTATUS\tn-table\tQ\n")
        code, _, err = run(capsys, "classify", "--method", "ml", "--taxonomy", TAX,
                           "--enriched", str(statuses),
                           "--train", CORPUS, "--test", CORPUS)
        self.assert_error(code, err, f"{statuses} line 2: 'Q' is not a valid Status")

    @pytest.mark.parametrize("value, message", [
        ("lots", "could not convert string to float: 'lots'"),
        ("-5", "count must be finite and >= 0, got '-5'"),
        ("nan", "count must be finite and >= 0, got 'nan'"),
    ])
    def test_bad_count_value(self, tmp_path, capsys, value, message):
        counts = tmp_path / "counts.tsv"
        counts.write_text(f"COUNT\tn-teacher\t3\nCOUNT\tn-table\t{value}\n")
        code, out, err = run(capsys, "classify", "--method", "rule", "--wsd",
                             "--ic", str(counts), "--taxonomy", TAX, "--corpus", CORPUS)
        assert out == ""
        self.assert_error(code, err, f"{counts} line 2: {message}")

    def test_short_synset_line(self, tmp_path, capsys):
        taxonomy = tmp_path / "bad.tax"
        taxonomy.write_text("SYNSET\tn-thing\tn\n")
        code, _, err = run(capsys, "classify", "--method", "rule",
                           "--taxonomy", str(taxonomy), "--corpus", CORPUS)
        self.assert_error(
            code, err, f"{taxonomy} line 1: expected 6 tab-separated fields, got 3")

    @pytest.mark.parametrize("text, message", [
        ("DOC\td1\t0\n", "line 1: DOC record needs 4 fields"),
        ("DOC\td1\t0\t0\nNP\td1\t0\t0\tman\t0\t-\t0\t0\tX\t-\tthe man\n",
         "line 2: 'X' is not a valid Label"),
        ("DOC\td1\t0\t0\nNP\td1\t0\t0\tman\t0\t-\t0\t0\tA\t-\tx\n"
         "NP\td1\t1\t0\trock\t0\t-\t0\t0\tI\t-\ty\n"
         "NP\td1\t0\t0\tman\t0\t-\t0\t0\tA\t-\tz\n",
         "line 4: duplicate NP key ('d1', 0, 0)"),
        ("DOC\td1\t1\t0\nPRON\td1\t1\the\t1\t0\t0\n"
         "PRON\td1\t2\the\t1\t0\t9\nNP\td1\t0\t0\tman\t0\t-\t0\t0\tA\t-\tx\n",
         "line 3: d1: pronoun at sentence 2 points to missing antecedent (0, 9)"),
    ])
    def test_malformed_corpus_record(self, tmp_path, capsys, text, message):
        corpus = tmp_path / "bad.tsv"
        corpus.write_text(text)
        code, _, err = run(capsys, "classify", "--method", "rule",
                           "--taxonomy", TAX, "--corpus", str(corpus))
        self.assert_error(code, err, f"{corpus} {message}")

    BAD_BYTE_CASES = {
        # name: (text, bad line, argv with {bad} for the file)
        "taxonomy": (TAX, 2, ["classify", "--method", "rule", "--taxonomy", "{bad}",
                              "--corpus", CORPUS]),
        "corpus": (CORPUS, 3, ["classify", "--method", "rule", "--taxonomy", TAX,
                               "--corpus", "{bad}"]),
        "statuses": ("STATUS\tn-teacher\tA\nSTATUS\tn-table\tI\n", 2,
                     ["classify", "--method", "ml", "--taxonomy", TAX, "--enriched",
                      "{bad}", "--train", CORPUS, "--test", CORPUS]),
        "counts": ("COUNT\tn-teacher\t3\nCOUNT\tn-table\t4\n", 2,
                   ["classify", "--method", "rule", "--wsd", "--ic", "{bad}",
                    "--taxonomy", TAX, "--corpus", CORPUS]),
        "predictions": ("d1\t0\t0\tA\nd1\t0\t1\tI\nd1\t1\t0\tI\n", 3,
                        ["eval", "--gold", CORPUS, "--pred", "{bad}"]),
        "labels, first line": (CORPUS, 1, ["simulate", "--corpus", CORPUS,
                                           "--labels", "{bad}"]),
        "data.noun": ("00001740 03 n 01 entity 0 000 | x\n", 1,
                      ["import-wndb", "--noun", "{bad}"]),
        "index.noun": ("entity n 1 0 1 0 00001740\n", 1,
                       ["import-wndb", "--noun", "{data}", "--index-noun", "{bad}"]),
    }

    @pytest.mark.parametrize("case", sorted(BAD_BYTE_CASES))
    def test_invalid_utf8_names_file_and_line(self, tmp_path, capsys, case):
        source, lineno, argv = self.BAD_BYTE_CASES[case]
        text = source if "\n" in source else open(source, encoding="utf-8").read()
        lines = text.encode("utf-8").split(b"\n")
        lines[lineno - 1] += b"caf\xe9"
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\n".join(lines))
        data = tmp_path / "data.noun"
        data.write_text(self.BAD_BYTE_CASES["data.noun"][0])
        argv = [arg.format(bad=bad, data=data) for arg in argv]
        code, out, err = run(capsys, *argv)
        assert out == ""
        self.assert_error(code, err, f"{bad} line {lineno}: invalid UTF-8 byte 0xe9")


# free text for a drawn line: anything but a line break or a lone surrogate
FREE_TEXT = st.text(
    st.characters(blacklist_characters="\r\n", blacklist_categories=("Cs",)),
    max_size=8,
)


def oracle_load_predictions(lines):
    """The key -> label map of prediction rows, or the number of the first
    line that is malformed or repeats a key."""
    out = {}
    for lineno, line in enumerate(lines, 1):
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        try:
            ids = fields[1], fields[2]
            # ASCII digits after an optional '-', as the corpus loader reads ids
            if not all(re.fullmatch(r"-?[0-9]+", text) for text in ids):
                return lineno
            key = (fields[0], *map(int, ids))
            label = Label(fields[3])
        except (ValueError, IndexError):
            return lineno
        if len(fields) != 4 or key in out:
            return lineno
        out[key] = label
    return out


PREDICTION_LINES = st.lists(st.one_of(
    st.tuples(
        st.sampled_from(["d1", "d2", ""]),
        st.sampled_from(["0", "1", "01", "-1", "x", "", "+0", " 3"]),
        st.sampled_from(["0", "2", "+2", "1.5", "1_0", "\u0661\u0668"]),
        st.sampled_from(["A", "I", "U", "X", "a", ""]),
    ).map("\t".join),
    st.lists(FREE_TEXT, max_size=6).map("\t".join),
    st.sampled_from(["", "# note", "d1\t0\t0\tA\textra"]),
), max_size=8)


class TestPredictionLoaderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(lines=PREDICTION_LINES)
    def test_map_or_value_error_naming_the_line(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_lines(tmp, lines)
            expected = oracle_load_predictions(lines)
            try:
                got = _load_predictions(path)
            except ValueError as exc:
                assert isinstance(expected, int), exc
                assert str(exc).startswith(f"{path} line {expected}: ")
            else:
                assert got == expected


class TestAnnotate:
    def test_keystrokes_from_stdin(self, tmp_path, capsys, monkeypatch):
        corpus = tmp_path / "todo.tsv"
        corpus.write_text(
            "DOC\td\t0\t0\n"
            "NP\td\t0\t0\tman\t0\t-\t0\t0\t-\t-\tthe man\n"
            "NP\td\t0\t1\trock\t0\t-\t0\t0\t-\t-\ta rock\n"
        )
        out = tmp_path / "done.tsv"
        monkeypatch.setattr("sys.stdin", io.StringIO("a\ni\nq\n"))
        code = main(["annotate", "--corpus", str(corpus), "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "\tA\t-\tthe man" in text
        assert "\tI\t-\ta rock" in text
        capsys.readouterr()


def test_parser_lists_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for command in ("import-wndb", "annotate", "enrich", "classify", "xval",
                    "eval", "kappa", "simulate", "sweep"):
        assert command in text


class TestGoldenBytes:
    """Every data output of the unseeded commands and of `xval` on the
    bundled data.

    Each digest is the sha256 of the exit code and the sha256s of stdout,
    stderr and each `--out` file, in that order.  A change that alters
    these bytes on purpose updates the digest and says why.  The `xval`
    folds follow numpy's Generator stream, which
    `test_fold_stream_is_pinned` pins, so a numpy stream change fails there
    under its own name.  The other seeded commands (random/weighted, sweep)
    are left out.
    """

    # (name, argv, --out file or None); "{tmp}" is the test's directory and
    # later cases read the files that earlier ones wrote
    CASES = [
        ("enrich-0.05", ["enrich", "--taxonomy", TAX, "--corpus", CORPUS],
         "statuses.tsv"),
        ("enrich-0.01", ["enrich", "--taxonomy", TAX, "--corpus", CORPUS,
                         "--alpha", "0.01"], None),
        ("rule", ["classify", "--method", "rule", "--taxonomy", TAX,
                  "--corpus", CORPUS], "rule.tsv"),
        ("rule-wsd", ["classify", "--method", "rule", "--wsd", "--taxonomy", TAX,
                      "--corpus", CORPUS], None),
        ("rule-lexfiles", ["classify", "--method", "rule", "--taxonomy", TAX,
                           "--corpus", CORPUS, "--animate-noun-lexfiles", "18",
                           "--no-reflexive"], None),
        ("ml-enriched", ["classify", "--method", "ml", "--taxonomy", TAX,
                         "--train", CORPUS, "--test", CORPUS,
                         "--enriched", "{tmp}/statuses.tsv"], "ml.tsv"),
        ("ml-wsd", ["classify", "--method", "ml", "--wsd", "--k", "5",
                    "--taxonomy", TAX, "--train", CORPUS, "--test", CORPUS], None),
        ("dummy", ["classify", "--method", "dummy", "--corpus", CORPUS],
         "dummy.tsv"),
        ("eval", ["eval", "--gold", CORPUS, "--pred", "{tmp}/rule.tsv"], None),
        ("eval-ignore-unknown", ["eval", "--gold", CORPUS, "--pred", "{tmp}/rule.tsv",
                                 "--ignore-unknown"], "eval.tsv"),
        ("kappa", ["kappa", "--a", "{tmp}/rule.tsv", "--b", "{tmp}/dummy.tsv"], None),
        ("simulate-0", ["simulate", "--corpus", CORPUS, "--window", "0"], None),
        ("simulate-1", ["simulate", "--corpus", CORPUS, "--window", "1"], None),
        ("simulate-2", ["simulate", "--corpus", CORPUS, "--window", "2"],
         "simulate.tsv"),
        ("simulate-3", ["simulate", "--corpus", CORPUS, "--window", "3"], None),
        ("simulate-filter-losses", ["simulate", "--corpus", CORPUS,
                                    "--only-filter-losses"], None),
        ("import-wndb", ["import-wndb", "--noun", "{tmp}/data.noun"], "wn.tax"),
        ("xval-seed1-k1", ["xval", "--taxonomy", TAX, "--corpus", CORPUS,
                           "--seed", "1", "--k", "1"], None),
        ("xval-seed1-k3", ["xval", "--taxonomy", TAX, "--corpus", CORPUS,
                           "--seed", "1", "--k", "3"], "xval.tsv"),
        ("xval-seed7-k1", ["xval", "--taxonomy", TAX, "--corpus", CORPUS,
                           "--seed", "7", "--k", "1"], None),
        ("xval-seed7-k3", ["xval", "--taxonomy", TAX, "--corpus", CORPUS,
                           "--seed", "7", "--k", "3"], None),
        ("xval-3-folds", ["xval", "--taxonomy", TAX, "--corpus", CORPUS,
                          "--seed", "7", "--k", "2", "--folds", "3"], None),
        ("xval-wsd", ["xval", "--wsd", "--taxonomy", TAX, "--corpus", CORPUS,
                      "--seed", "7", "--enriched", "{tmp}/statuses.tsv"], None),
    ]

    DIGESTS = {
        "enrich-0.05":
            "61c8fa5a71eae9b25d6f70e2f74a383344baaa37b0b9a917dc1ed285d8d31ae4",
        "enrich-0.01":
            "de4b7c5aa8ab1728b66b347c9f4e377a976544f776b3fff6b6960302045c644a",
        "rule":
            "ca3d0b5ed207b44e239f3dc33fee2137901048af7071809d0a43fa45879bdcc0",
        "rule-wsd":
            "023bc90b4b6dd7d81046e960cd4ac35b8849ffa0c730ff270c960a15b4643d41",
        "rule-lexfiles":
            "38aa7ba052f9dede840b360311f3e32daa90a00ffa79d3e7d6ff636e3df63269",
        "ml-enriched":
            "b5f2981351c24b3e779330c9521cc3e603614fcd5cd0d20555a44a5e53bf3468",
        "ml-wsd":
            "3193c996c4ecaf124f0edd1e5a5ce7929413f29efe0fa948a40fd2371669d8d8",
        "dummy":
            "e3c27bcb59ffd807443785807e533700a32d9231757190034686a12664654580",
        "eval":
            "d7152c53eb1a9e61bf51c9b0b85fe28de34e98a2ec62e7ff30a09a1f0577e9ea",
        "eval-ignore-unknown":
            "b71bee74865521d303cd519c530b19dbce2ee56a9f1c1ee04305ee1dcf63acd3",
        "kappa":
            "f13714eafc97c699a5ec962e26ebc9deaa9779be14619b89d0160495a327caf0",
        "simulate-0":
            "2c0c65b933f0a942c7f8e7a9bbc1efcfd7e287287a1d1af7b8a390457855e18e",
        "simulate-1":
            "1059d1ef18acfd26f55ecc9e3ef0709ab973e1832e757938f689e5c8de6aa38a",
        "simulate-2":
            "cdeda69aa653ebaa13d51daadbd5fc6e39297ca7e93bae643547d608b3ae0170",
        "simulate-3":
            "caf5b50881464b47003ec8e5a0d8646af699e0fb14dde9584a9ed82c07d98e58",
        "simulate-filter-losses":
            "7f5fe55cb3e4875a0616c24be1e0f2a202295138866a5e293e26f80dbc608694",
        "import-wndb":
            "ea5d43dab5cd8cd5c503870ed9724149b61a6f5ac5dc15b76dae89b69349ed76",
        "xval-seed1-k1":
            "21d81725bbd78dbe768e7c180645983255ddfc8f469a21a233064ec69beb29d1",
        "xval-seed1-k3":
            "310993674ddc2fdf7ef66c6dd1a18c796f351802e43197b754ab62447fb28a06",
        "xval-seed7-k1":
            "21d81725bbd78dbe768e7c180645983255ddfc8f469a21a233064ec69beb29d1",
        "xval-seed7-k3":
            "21d81725bbd78dbe768e7c180645983255ddfc8f469a21a233064ec69beb29d1",
        "xval-3-folds":
            "478a5d62b35fd4d68618f16c942fae61c991f6da4b9cb878a688d2538493a212",
        "xval-wsd":
            "b39fd99defa26a036ee4827be81315518a135e5c4dc36854060035fbfc622ef7",
    }

    def test_fold_stream_is_pinned(self):
        # the xval digests assume this permutation stream
        order = np.random.default_rng(7).permutation(60)
        assert order[:8].tolist() == FOLD_STREAM_SEED7

    def test_outputs_match_recorded_digests(self, tmp_path, capsys):
        from tests.test_wndb import DATA_NOUN

        def sha(data: bytes) -> str:
            return hashlib.sha256(data).hexdigest()

        (tmp_path / "data.noun").write_text(DATA_NOUN)
        got = {}
        for name, argv, out_name in self.CASES:
            argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
            if out_name is not None:
                argv += ["--out", str(tmp_path / out_name)]
            code, out, err = run(capsys, *argv)
            parts = [str(code), sha(out.encode()), sha(err.encode())]
            if out_name is not None:
                parts.append(sha((tmp_path / out_name).read_bytes()))
            got[name] = sha("\n".join(parts).encode())
        assert got == self.DIGESTS
