"""Tests of the benchmark itself: generator shape and output checks.

Run from the repository root:  python3 -m pytest -q benchmarks

The shape tests pin the WordNet-3.0-like properties the workloads rely
on.  The check tests build a correct output from the benchmark's own
computations, show it passes, then corrupt it one way at a time and show
the check rejects each corruption.
"""

from __future__ import annotations

import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import synth  # noqa: E402
import workloads  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def tax():
    return synth.make_taxonomy(SEED)


@pytest.fixture(scope="module")
def paper(tax):
    return synth.make_corpus(tax, SEED, "p", *synth.ANIMATE_SHARE_PAPER)


@pytest.fixture(scope="module")
def small(tax):
    return synth.make_corpus(tax, SEED, "s", 30, 170, nps_per_doc=20)


# --- generator shape --------------------------------------------------------


def test_shape_matches_wordnet(tax, paper):
    stats = synth.shape_stats(tax, paper)
    assert 80_000 <= stats["noun_synsets"] <= 84_000
    assert 13_000 <= stats["verb_synsets"] <= 14_500
    assert stats["noun_max_depth"] <= 18 and stats["verb_max_depth"] <= 12
    assert 0.015 <= stats["multi_parent_share"] <= 0.025
    assert abs(stats["person_share"] - 11088 / 82115) < 0.01
    assert abs(stats["artifact_share"] - 11587 / 82115) < 0.01
    assert {tax.lexfile[i] for i, p in enumerate(tax.pos) if p == "n"} == set(synth.NOUN_LEXFILES)
    assert {tax.lexfile[i] for i, p in enumerate(tax.pos) if p == "v"} == set(synth.VERB_LEXFILES)
    assert stats["max_polysemy"] == synth.MAX_POLYSEMY
    assert 0.08 <= stats["polysemous_lemma_share"] <= 0.2
    # frequent heads are the polysemous ones
    assert stats["top50_heads_mean_polysemy"] > 4 * stats["noun_senses_per_lemma"]
    assert (stats["labelled_nps"], stats["animate_nps"]) == (19_701, 2_321)
    assert 0.37 <= stats["subject_with_verb_share"] <= 0.43
    assert stats["pronouns_with_antecedent_in_window"] == stats["pronouns_with_antecedent"]
    assert stats["pronouns_with_antecedent"] > 0.95 * stats["pronouns"]
    assert 0.008 <= stats["oov_head_share"] <= 0.025
    assert 0.002 <= stats["absent_sense_share"] <= 0.01


def test_graph_is_acyclic_with_earlier_parents(tax):
    for idx, parents in enumerate(tax.parents):
        assert all(p < idx and tax.pos[p] == tax.pos[idx] for p in parents)
        assert tax.depth[idx] == (1 + max(tax.depth[p] for p in parents) if parents else 0)


def test_same_seed_same_files(tmp_path, tax):
    again = synth.make_taxonomy(SEED)
    synth.write_taxonomy(tax, tmp_path / "a.tax")
    synth.write_taxonomy(again, tmp_path / "b.tax")
    assert (tmp_path / "a.tax").read_bytes() == (tmp_path / "b.tax").read_bytes()
    synth.write_corpus(synth.make_corpus(tax, SEED, "s", 30, 170), tmp_path / "a.tsv")
    synth.write_corpus(synth.make_corpus(tax, SEED, "s", 30, 170), tmp_path / "b.tsv")
    synth.write_corpus(synth.make_corpus(tax, SEED + 1, "s", 30, 170), tmp_path / "c.tsv")
    assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()
    assert (tmp_path / "a.tsv").read_bytes() != (tmp_path / "c.tsv").read_bytes()


# --- percentages ------------------------------------------------------------


def test_exact_percent_and_roundoff_recognition():
    assert checks.exact_percent(29, 50) == "58.00"
    assert checks.exact_percent(17380, 19701) == "88.21"
    assert checks.percent_verdict("58.00", 29, 50) == "ok"
    assert checks.percent_verdict("57.99", 29, 50) == "roundoff"
    assert checks.percent_verdict("88.20", 17380, 19701) == "bad"  # not a boundary
    assert checks.percent_verdict("57.98", 29, 50) == "bad"
    # the program's float truncation really does lose 0.01 on 29/50
    assert math.floor(29 / 50 * 100 * 100) / 100 == 57.99


def report_text(confusion: checks.Confusion) -> str:
    cells = [checks.exact_percent(*f) if f else "-" for f in confusion.figures()]
    return "\t".join(checks.REPORT_HEADER) + "\n" + "\t".join(
        cells + [str(confusion.unknown)]) + "\n"


def replace_cell(report: str, column: int, value: str) -> str:
    header, row, _ = report.split("\n")
    cells = row.split("\t")
    cells[column] = value
    return header + "\n" + "\t".join(cells) + "\n"


def bump(cell: str) -> str:
    return f"{float(cell) - 0.37:.2f}"


# --- xval -------------------------------------------------------------------


def xval_inputs(tax, docs):
    inputs = workloads.Inputs("xval", taxonomy=tax)
    inputs.corpora["xval"] = docs
    return inputs


def test_xval_check(tax, small):
    inputs = xval_inputs(tax, small)
    good = report_text(checks.Confusion(20, 5, 10, 165, 10, 5, 0))
    assert checks.check_xval(inputs, {"xval.tsv": good}).problems == []
    for corrupt in (
        replace_cell(good, 0, bump(good.split("\n")[1].split("\t")[0])),
        replace_cell(good, 1, "99.99"),
        replace_cell(good, 7, "3"),
        report_text(checks.Confusion(0, 0, 30, 170, 30, 0, 0)),  # always inanimate
        good.split("\n")[1] + "\n",
    ):
        assert checks.check_xval(inputs, {"xval.tsv": corrupt}).problems


# --- wsd-rule ---------------------------------------------------------------


def rule_predictions(tax, docs) -> dict:
    """Predictions that satisfy every rule property: U only for senseless
    heads without contextual evidence, the class of single-class heads."""
    out = {}
    for x in synth.labelled_nps(docs):
        senses = tax.senses["n"].get(x.head, [])
        classes = {tax.animate(i) for i in senses}
        contextual = x.who or x.refl or checks._verb_animacy(tax, x.verb) > 0.9
        if not senses:
            label = "A" if contextual else "U"
        elif len(classes) == 1:
            label = "A" if classes == {True} else "I"
        else:
            label = x.gold
        out[(x.doc, x.sent, x.np)] = label
    return out


def wsd_outputs(tax, docs, predicted) -> dict:
    nps = synth.labelled_nps(docs)
    confusion = checks.confusion_of([x.gold for x in nps],
                                    [predicted[(x.doc, x.sent, x.np)] for x in nps])
    probe = checks.confusion_of(workloads.PROBE_GOLD, workloads.PROBE_PRED)
    return {
        "pred.tsv": "".join(f"{d}\t{s}\t{n}\t{lab}\n" for (d, s, n), lab in predicted.items()),
        "eval.tsv": report_text(confusion),
        "probe.tsv": report_text(probe),
    }


def test_wsd_rule_check(tax, small):
    inputs = workloads.Inputs("wsd-rule", taxonomy=tax)
    inputs.corpora["wsd"] = small
    predicted = rule_predictions(tax, small)
    assert "U" in predicted.values()
    good = wsd_outputs(tax, small, predicted)
    verdict = checks.check_wsd_rule(inputs, good)
    assert verdict.problems == [] and verdict.failed_calls == {}

    def rejects(outputs):
        return checks.check_wsd_rule(inputs, outputs).problems

    lines = good["pred.tsv"].splitlines(keepends=True)
    assert rejects(dict(good, **{"pred.tsv": "".join(lines[1:])}))
    assert rejects(dict(good, **{"pred.tsv": good["pred.tsv"] + lines[0]}))
    row = good["eval.tsv"].split("\n")[1].split("\t")
    assert rejects(dict(good, **{"eval.tsv": replace_cell(good["eval.tsv"], 0, bump(row[0]))}))
    for key, label in predicted.items():
        x = next(n for n in synth.labelled_nps(small) if (n.doc, n.sent, n.np) == key)
        if label == "U":
            wrong = {**predicted, key: "I"}
        elif len({tax.animate(i) for i in tax.senses["n"].get(x.head, [])}) == 1:
            wrong = {**predicted, key: "A" if label == "I" else "I"}
        else:
            wrong = {**predicted, key: "U"}
        # the eval report is rebuilt, so only the rule property is broken
        assert rejects(wsd_outputs(tax, small, wrong)), (key, label)


def test_probe_fails_on_the_roundoff_report(tax, small):
    inputs = workloads.Inputs("wsd-rule", taxonomy=tax)
    inputs.corpora["wsd"] = small
    outputs = wsd_outputs(tax, small, rule_predictions(tax, small))
    program_style = replace_cell(outputs["probe.tsv"], 0, "57.99")
    verdict = checks.check_wsd_rule(inputs, dict(outputs, **{"probe.tsv": program_style}))
    assert verdict.problems == [] and list(verdict.failed_calls) == [2]
    wrong = replace_cell(outputs["probe.tsv"], 0, "57.98")
    assert checks.check_wsd_rule(inputs, dict(outputs, **{"probe.tsv": wrong})).problems


# --- ml-paper ---------------------------------------------------------------


def test_ml_paper_check(tax, small):
    inputs = workloads.Inputs("ml-paper", taxonomy=tax)
    inputs.corpora["paper"] = small
    inputs.corpora["test"] = small[:2]
    evidence = checks.propagated_evidence(tax, small)
    status = {}
    for idx, sid in enumerate(tax.ids):
        seen = evidence.get(idx, set())
        status[sid] = "U" if not seen else ("A" if len(seen) == 2 else next(iter(seen)))
    statuses = "".join(f"STATUS\t{sid}\t{s}\n" for sid, s in status.items())
    pred = "".join(f"{x.doc}\t{x.sent}\t{x.np}\tI\n" for x in synth.labelled_nps(small[:2]))
    good = {"statuses.tsv": statuses, "pred.tsv": pred}
    assert checks.check_ml_paper(inputs, good).problems == []

    unanimous = next(sid for idx, sid in enumerate(tax.ids) if len(evidence.get(idx, ())) == 1)
    silent = next(sid for idx, sid in enumerate(tax.ids) if idx not in evidence)
    lines = statuses.splitlines(keepends=True)
    for corrupt in (
        statuses.replace(f"{unanimous}\t{status[unanimous]}",
                         f"{unanimous}\t{'I' if status[unanimous] == 'A' else 'A'}"),
        statuses.replace(f"{silent}\tU", f"{silent}\tI"),
        "".join(lines[1:]),
        statuses + lines[0],
    ):
        assert checks.check_ml_paper(inputs, dict(good, **{"statuses.tsv": corrupt})).problems
    assert checks.check_ml_paper(inputs, dict(good, **{"pred.tsv": pred.replace("\tI\n", "\tU\n", 1)})).problems
    assert checks.check_ml_paper(inputs, dict(good, **{"pred.tsv": pred.split("\n", 1)[1]})).problems


# --- sweep-paper ------------------------------------------------------------


def sweep_outputs(inputs) -> dict:
    n_a, n_i = checks.paper_counts(inputs)
    rows = [checks.SWEEP_HEADER]
    axes: dict = {}
    for p, r in checks.grid_points():
        if not checks.feasible(p, r, n_a, n_i):
            rows.append(f"{p},{r},,,0,0")
            continue
        mean = float(checks.recency_success(inputs.corpora["paper"])) if (p, r) == (100, 100) else (p + r) / 400
        std = 0.0 if (p, r) == (100, 100) else 0.01
        rows.append(f"{p},{r},{mean!r},{std!r},{workloads.SWEEP_RUNS},1")
        axes.setdefault(("precision", p), []).append(mean)
        axes.setdefault(("recall", r), []).append(mean)
    marg = ["axis,value,mean_success"] + [
        f"{axis},{value},{math.fsum(v) / len(v)!r}"
        for (axis, value), v in sorted(axes.items())]
    return {"grid.csv": "\n".join(rows) + "\n", "marginals.csv": "\n".join(marg) + "\n"}


def test_sweep_check(tax, small):
    inputs = workloads.Inputs("sweep-paper", taxonomy=tax)
    inputs.corpora["paper"] = small
    good = sweep_outputs(inputs)
    assert checks.check_sweep_paper(inputs, good).problems == []
    grid = good["grid.csv"]
    infeasible = next(line for line in grid.splitlines() if line.endswith(",0,0"))
    p, r = infeasible.split(",")[:2]
    identity = next(line for line in grid.splitlines() if line.startswith("100,100,"))
    lines = grid.splitlines(keepends=True)
    for corrupt_grid in (
        grid.replace(infeasible, f"{p},{r},0.1,0.0,{workloads.SWEEP_RUNS},1"),
        grid.replace(identity, identity.replace(",0.0,", ",0.001,")),
        grid.replace(identity, "100,100,0.5,0.0,4,1"),
        "".join(lines[:1] + lines[2:]),
        grid + lines[1],
    ):
        assert checks.check_sweep_paper(inputs, dict(good, **{"grid.csv": corrupt_grid})).problems
    marg = good["marginals.csv"].splitlines(keepends=True)
    axis, value, mean = marg[1].rstrip("\n").split(",")
    shifted = "".join(marg[:1] + [f"{axis},{value},{float(mean) + 1e-6!r}\n"] + marg[2:])
    assert checks.check_sweep_paper(inputs, dict(good, **{"marginals.csv": shifted})).problems
    assert checks.check_sweep_paper(inputs, dict(good, **{"marginals.csv": "".join(marg[:-1])})).problems
