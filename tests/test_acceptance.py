"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

The oracles here are deliberately independent re-derivations: the
goodness-of-fit oracle recomputes the statistic and looks critical values
up in an embedded table (computed offline with mpmath at 40 digits), and
the nearest-neighbour oracle is an exhaustive scan with its own vote and
tie-break logic.
"""

import itertools
from contextlib import contextmanager
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, strategies as st

from animacy.corpus import Document, Label
from animacy.enrichment import (
    Status,
    SynsetCounts,
    accumulate_counts,
    classify_node,
    enrich,
    merge_low_frequency,
)
from animacy.evaluation import as_percent, baseline, kappa, score
from animacy.mbl import (
    LABELS,
    FeatureTable,
    FeatureVector,
    InstanceStore,
    MblConfig,
    cross_validate,
    knn_classify,
)
from animacy.resolution import (
    gold_assignment,
    inject_errors,
    run_harness,
    sweep,
    sweep_csv,
)
from animacy.rules import Thresholds
from animacy.taxonomy import Synset, Taxonomy
from animacy.wsd import disambiguation_weights, information_content
from tests.test_corpus import make_np
from tests.test_resolution import measured_precision_recall
from tests.test_rules import cascade_of, classify_rule, ratios
from tests.test_taxonomy import all_lemmas
from tests.test_wsd import occurrences, pair_taxonomy, uniform_weighting

A, I, U = Label.ANIMATE, Label.INANIMATE, Label.UNKNOWN


@contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL  {summary}")
        raise
    print(f"criterion {number:2d}: PASS  {summary}")


# Upper 0.05 critical values for df 1..30, solved offline from the
# regularized upper incomplete gamma function with mpmath at 40 digits.
CHI2_CRITICAL_05 = {
    1: 3.841458820694126, 2: 5.991464547107982, 3: 7.81472790325118,
    4: 9.4877290367811568, 5: 11.070497693516354, 6: 12.591587243743979,
    7: 14.067140449340169, 8: 15.507313055865454, 9: 16.91897760462045,
    10: 18.307038053275147, 11: 19.675137572682496, 12: 21.026069817483065,
    13: 22.36203249482694, 14: 23.68479130484058, 15: 24.99579013972863,
    16: 26.29622760486424, 17: 27.587111638275324, 18: 28.869299430392635,
    19: 30.143527205646159, 20: 31.410432844230927, 21: 32.670573340917305,
    22: 33.924438471443803, 23: 35.172461626908059, 24: 36.415028501807314,
    25: 37.652484133482778, 26: 38.88513865983004, 27: 40.113272069413629,
    28: 41.337138151427398, 29: 42.556967804292685, 30: 43.772971825742188,
}


def test_criterion_01_dummy_baseline_and_reported_accuracies(mini_corpus):
    with criterion(1, "dummy accuracy is exact; reported figures match"):
        gold = [np_.gold for d in mini_corpus for np_ in d.nps]
        report = score(gold, baseline("dummy", mini_corpus))
        inanimate_fraction = sum(1 for g in gold if g is I) / len(gold)
        assert report.accuracy == inanimate_fraction

        for animate, inanimate, expected in ((2321, 17380, 88.21), (538, 2586, 82.77)):
            stream_gold = [A] * animate + [I] * inanimate
            stream_pred = [I] * (animate + inanimate)
            result = score(stream_gold, stream_pred)
            assert abs(as_percent(result.accuracy) - expected) <= 0.005


# --- criterion 2: goodness-of-fit decision oracle ---------------------------

def oracle_merge(cells):
    """Independent merge: (observed, expected, id) triples."""
    cells = list(cells)

    def low(cs):
        return sum(1 for o, e, _ in cs if e < 5) / len(cs)

    while cells and low(cells) > 0.2:
        pairs = []
        zero = sorted((c for c in cells if c[0] == 0), key=lambda c: (c[1], c[2]))
        full = sorted((c for c in cells if c[0] == c[1]), key=lambda c: (c[1], c[2]))
        for group in (zero, full):
            if len(group) >= 2:
                pairs.append((group[0][1], group[0][2], group[1][1], group[1][2],
                              group[0], group[1]))
        if not pairs:
            break
        pairs.sort(key=lambda item: item[:4])
        first, second = pairs[0][4], pairs[0][5]
        ia, ib = sorted((cells.index(first), cells.index(second)))
        merged = (cells[ia][0] + cells[ib][0], cells[ia][1] + cells[ib][1],
                  f"{cells[ia][2]}+{cells[ib][2]}")
        cells[ia] = merged
        del cells[ib]
    return cells


def oracle_test_passes(cells):
    merged = oracle_merge(cells)
    if not merged or len(merged) < 2:
        return False
    if sum(1 for o, e, _ in merged if e < 5) / len(merged) > 0.2:
        return False
    statistic = sum((o - e) ** 2 / e for o, e, _ in merged)
    return statistic < CHI2_CRITICAL_05[len(merged) - 1]


def oracle_classify(children):
    """children: [(child_id, ani, inani)] below one star-taxonomy root."""
    total_ani = sum(a for _, a, _ in children)
    total_inani = sum(i for _, _, i in children)
    if total_ani == 0 and total_inani == 0:
        return Status.UNDECIDED
    if total_inani == 0:
        return Status.ANIMATE
    if total_ani == 0:
        return Status.INANIMATE
    observed = [(cid, a, i) for cid, a, i in children if a + i > 0]
    animate_ok = oracle_test_passes([(a, a + i, cid) for cid, a, i in observed])
    inanimate_ok = oracle_test_passes([(i, a + i, cid) for cid, a, i in observed])
    if animate_ok and inanimate_ok:
        if total_ani > total_inani:
            return Status.ANIMATE
        if total_inani > total_ani:
            return Status.INANIMATE
        return Status.UNDECIDED
    if animate_ok:
        return Status.ANIMATE
    if inanimate_ok:
        return Status.INANIMATE
    return Status.UNDECIDED


def _random_child_counts(rng, n):
    """Counts under one node, drawn from regimes that reach every branch:
    unanimous subtrees, lightly contaminated ones (the tests should often
    pass), sparse ones (merging and validity questions) and heavy mixes."""
    regime = rng.random()
    children = []
    for i in range(n):
        if regime < 0.20:      # unanimous
            ani, inani = int(rng.integers(0, 30)), 0
        elif regime < 0.55:    # dominant class with light contamination
            ani = int(rng.integers(3, 51))
            inani = int(rng.integers(0, 4))
        elif regime < 0.80:    # sparse: low expected frequencies
            ani = int(rng.integers(0, 4))
            inani = int(rng.integers(0, 4))
        else:                  # heavily mixed
            ani = int(rng.integers(0, 51))
            inani = int(rng.integers(0, 51))
        if rng.random() < 0.5:
            ani, inani = inani, ani
        children.append((f"c{i}", ani, inani))
    return children


def test_criterion_02_chi_square_decision_matches_oracle():
    with criterion(2, "200 random contingency tables agree with the oracle"):
        rng = np.random.default_rng(20250809)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            synsets = [Synset("root", "n", ("top",), (), 18)]
            synsets += [
                Synset(f"c{i}", "n", (f"w{i}",), ("root",), 18) for i in range(n)
            ]
            taxonomy = Taxonomy(synsets)
            counts = SynsetCounts()
            children = _random_child_counts(rng, n)
            for cid, ani, inani in children:
                counts.add(cid, True, ani)
                counts.add(cid, False, inani)
                counts.add("root", True, ani)
                counts.add("root", False, inani)
            got = classify_node("root", counts, taxonomy)
            assert got is oracle_classify(children), children


def test_criterion_02_one_merge_matches_oracle_on_cross_group_tie():
    with criterion(2, "one merge per node agrees with one merge per hypothesis on a tie"):
        # x, y, a, b lack animate counts and merge into x+y and a+b, which
        # then tie exactly on (total, id, total, id) with the original x+y
        # and a+b that lack inanimate counts: the two hypotheses' merges
        # take different groups first, and the one merge takes one of them
        tie = [("x", 0, 1), ("y", 0, 1), ("a", 0, 2), ("b", 0, 2), ("x+y", 2, 0), ("a+b", 4, 0)]
        rng = np.random.default_rng(20261020)
        for _ in range(200):
            # 7 to 15 mixed children of totals >= 5, the minority class light
            # enough that the tables reach every decision
            light = int(rng.integers(1, 16))
            mixed = [(int(rng.integers(1, light + 1)), int(rng.integers(5, 51)))
                     for _ in range(int(rng.integers(7, 16)))]
            if rng.random() < 0.5:
                mixed = [(inani, ani) for ani, inani in mixed]
            children = tie + [(f"m{i}", ani, inani) for i, (ani, inani) in enumerate(mixed)]
            children = [children[i] for i in rng.permutation(len(children))]
            synsets = [Synset("root", "n", ("top",), (), 18)]
            synsets += [Synset(cid, "n", (f"w{i}",), ("root",), 18)
                        for i, (cid, _, _) in enumerate(children)]
            counts = SynsetCounts()
            for cid, ani, inani in children:
                for sid in (cid, "root"):
                    counts.add(sid, True, ani)
                    counts.add(sid, False, inani)
            # the third merge is the tied one
            assert len(merge_low_frequency(children)) == len(children) - 3
            got = classify_node("root", counts, Taxonomy(synsets))
            assert got is oracle_classify(children), children


# --- criterion 3: nearest-neighbour oracle ----------------------------------

def numeric_of(inst):
    """The five numeric features of a `FeatureVector`, in table order."""
    return astuple(inst)[1:6]


def table_of(instances, lemma_ids=None):
    """The `FeatureTable` of a sequence of `FeatureVector`s, their lemmas
    coded through `lemma_ids` if given."""
    rows = tuple(instances)
    numeric = np.array([numeric_of(inst) for inst in rows], np.float64).reshape(-1, 5).T
    return FeatureTable.of_columns([inst.lemma for inst in rows], numeric,
                                   [inst.label for inst in rows], lemma_ids)


def store_of(instances):
    """The store of a sequence of labelled `FeatureVector`s, in order."""
    return InstanceStore(table_of(instances))


def instances_of(table):
    """The labelled rows of a training `FeatureTable` as `FeatureVector`s,
    in row order."""
    lemmas = list(table.lemma_ids)
    return tuple(FeatureVector(lemmas[code], *values, LABELS[label]) for code, values, label
                 in zip(table.codes.tolist(), table.numeric.T.tolist(), table.labels.tolist()))


def knn_of(query, store, config):
    """`knn_classify` of one `FeatureVector`, as the one row of a table
    coded through the store's lemma codes."""
    return knn_classify(table_of([query], store.table.lemma_ids), 0, store, config)


def oracle_knn(query, store, k):
    weights = store.weights
    ranges = store.ranges
    scored = []
    for inst in instances_of(store.table):
        d = 0.0 if query.lemma == inst.lemma else weights[0]
        qn, instn = numeric_of(query), numeric_of(inst)
        for j in range(5):
            lo, hi = ranges[j]
            if hi > lo:
                d += weights[j + 1] * (abs(qn[j] - instn[j]) / (hi - lo))
        scored.append((d, inst.label))
    chosen = sorted({d for d, _ in scored})[:k]
    votes, sums = {}, {}
    for d, label in scored:
        if d in chosen:
            votes[label] = votes.get(label, 0) + 1
            sums[label] = sums.get(label, 0.0) + d
    top = max(votes.values())
    tied = sorted(lab for lab, v in votes.items() if v == top)
    if len(tied) == 1:
        return tied[0]
    closest = min(sums[lab] for lab in tied)
    tied = [lab for lab in tied if sums[lab] == closest]
    if len(tied) == 1:
        return tied[0]
    return I if I in tied else tied[0]


def test_criterion_03_knn_matches_exhaustive_oracle():
    with criterion(3, "100 random instance stores agree with the oracle"):
        rng = np.random.default_rng(1234)
        lemma_pool = ["ant", "bee", "cow", "dog", "elk", "fox", "gnu", "hen"]
        ratios_pool = [0.0, 0.25, 1 / 3, 0.5, 0.75, 1.0]
        for _ in range(100):
            size = int(rng.integers(2, 201))
            instances = [
                FeatureVector(
                    lemma=lemma_pool[int(rng.integers(len(lemma_pool)))],
                    animate_senses=float(rng.integers(0, 5)),
                    inanimate_senses=float(rng.integers(0, 5)),
                    verb_animate=float(rng.integers(0, 3)),
                    verb_inanimate=float(rng.integers(0, 3)),
                    pronoun_ratio=ratios_pool[int(rng.integers(len(ratios_pool)))],
                    label=A if rng.random() < 0.4 else I,
                )
                for _ in range(size)
            ]
            store = store_of(instances)
            query = FeatureVector(
                lemma=lemma_pool[int(rng.integers(len(lemma_pool)))],
                animate_senses=float(rng.integers(0, 5)),
                inanimate_senses=float(rng.integers(0, 5)),
                verb_animate=float(rng.integers(0, 3)),
                verb_inanimate=float(rng.integers(0, 3)),
                pronoun_ratio=ratios_pool[int(rng.integers(len(ratios_pool)))],
            )
            k = int(rng.integers(1, 6))
            assert knn_of(query, store, MblConfig(k=k)) is oracle_knn(query, store, k)


def test_criterion_04_rule_cascade_branch_table():
    with criterion(4, "every cascade branch behaves at the tuned thresholds"):
        defaults = Thresholds()
        assert (defaults.noun_animacy, defaults.noun_inanimacy,
                defaults.verb_animacy) == (0.71, 0.92, 0.90)
        table = [
            (ratios(na=0.72, ni=0.28), False, False, A),
            (ratios(na=0.71, ni=0.29), False, False, I),   # strict comparison
            (ratios(na=0.07, ni=0.93), False, False, I),
            (ratios(na=0.07, ni=0.92), False, False, I),   # strict, falls through
            (ratios(na=0.6, ni=0.4, va=0.55, vi=0.45, verbs=2), False, False, A),
            (ratios(na=0.4, ni=0.6, va=0.95, vi=0.05, verbs=2), False, False, A),
            (ratios(na=0.4, ni=0.6, va=0.90, vi=0.10, verbs=2), False, False, I),
            (ratios(na=0.2, ni=0.8), True, False, A),      # who-complementizer
            (ratios(na=0.2, ni=0.8), False, True, A),      # reflexive extension
            (ratios(na=0.5, ni=0.5), False, False, I),     # final fall-through
            (ratios(nouns=0), False, False, U),            # out of vocabulary
            (ratios(nouns=0), True, False, A),
        ]
        nps = [make_np(has_who=who, has_reflexive=refl) for _, who, refl, _ in table]
        for (r, who, refl, expected), np_ in zip(table, nps):
            assert classify_rule(np_, r) is expected, (r, who, refl)
        # the column cascade, over the whole table at once
        assert cascade_of([row[0] for row in table], nps) == [row[3] for row in table]
        np_ = make_np(has_reflexive=True)
        assert classify_rule(np_, ratios(na=0.2, ni=0.8), reflexive_counts=False) is I
        assert cascade_of([ratios(na=0.2, ni=0.8)], [np_], reflexive_counts=False) == [I]


def test_criterion_05_enrichment_properties(toy_taxonomy):
    with criterion(5, "unambiguous corpus decides everything; counts conserve"):
        forest = Taxonomy([
            Synset("p", "n", ("being",), (), 18),
            Synset("p-a", "n", ("adult",), ("p",), 18),
            Synset("p-a1", "n", ("elder",), ("p-a",), 18),
            Synset("p-b", "n", ("youth",), ("p",), 18),
            Synset("s", "n", ("stuff",), (), 6),
            Synset("s-x", "n", ("tool",), ("s",), 6),
            Synset("s-x1", "n", ("hammer",), ("s-x",), 6),
            Synset("s-y", "n", ("box",), ("s",), 6),
        ])
        nps = []
        for i, sid in enumerate(forest):
            label = A if sid.startswith("p") else I
            nps.append(make_np(sent=0, np=i, head=sid, gold=label, sense_key=sid))
        docs = [Document("d", tuple(nps), 0, 0)]

        enriched = enrich(forest, docs)
        assert enriched.coverage() == 1.0
        assert all(enriched.status(sid) is not Status.UNDECIDED for sid in forest)

        counts, _ = accumulate_counts(docs, forest)
        assert counts.animate("p") == 4      # one occurrence per animate synset
        assert counts.inanimate("s") == 4

        # diamond: one n-lamp occurrence reaches n-artifact exactly once
        lamp_docs = [Document("d", (
            make_np(head="lamp", gold=I, sense_key="n-lamp"),
        ), 0, 0)]
        lamp_counts, _ = accumulate_counts(lamp_docs, toy_taxonomy)
        assert lamp_counts.inanimate("n-artifact") == 1
        assert lamp_counts.inanimate("n-device") == 1
        assert lamp_counts.inanimate("n-furniture") == 1


def test_criterion_06_injection_accuracy(mini_corpus):
    with criterion(6, "measured precision/recall sit within 1/A of targets"):
        gold = [np_.gold for d in mini_corpus for np_ in d.nps if np_.gold]
        animate = sum(1 for g in gold if g is A)
        tolerance = 1.0 / animate
        for p, r in itertools.product((0.5, 0.8, 1.0), repeat=2):
            out = inject_errors(gold, p, r, seed=17)
            mp, mr = measured_precision_recall(gold, out)
            assert abs(mp - p) <= tolerance, (p, r, mp)
            assert abs(mr - r) <= tolerance, (p, r, mr)
        assert inject_errors(gold, 1.0, 1.0, seed=17) == gold


def test_criterion_07_sweep_determinism_and_identity_cell(mini_corpus):
    with criterion(7, "sweeps repeat byte-identically; (100,100) is the gold run"):
        first = sweep(mini_corpus, [90, 100], [90, 100], runs=5, seed=99)
        second = sweep(mini_corpus, [90, 100], [90, 100], runs=5, seed=99)
        assert sweep_csv(first) == sweep_csv(second)
        stats = first.cells[(100, 100)]
        gold = run_harness(mini_corpus, gold_assignment(mini_corpus))
        assert stats.mean_success == gold.success_rate
        assert stats.std_success == 0.0


def test_criterion_08_metric_identities():
    with criterion(8, "F bounds, accuracy identity, kappa fixed points"):
        @given(
            tp=st.integers(0, 30), fp=st.integers(0, 30),
            fn=st.integers(0, 30), tn=st.integers(0, 30),
        )
        def check(tp, fp, fn, tn):
            total = tp + fp + fn + tn
            if total == 0:
                return
            gold = [A] * tp + [I] * fp + [A] * fn + [I] * tn
            pred = [A] * tp + [A] * fp + [I] * fn + [I] * tn
            report = score(gold, pred)
            assert report.accuracy == (tp + tn) / total
            s = report.scores(A)
            if s.precision is not None and s.recall is not None and s.f_measure is not None:
                assert min(s.precision, s.recall) - 1e-12 <= s.f_measure
                assert s.f_measure <= max(s.precision, s.recall) + 1e-12

        check()
        value, _ = kappa([A, I, A, I, I], [A, I, A, I, I])
        assert value == 1.0
        first = [A] * 45 + [A] * 5 + [I] * 5 + [I] * 45
        second = [A] * 45 + [I] * 5 + [A] * 5 + [I] * 45
        value, _ = kappa(first, second)
        assert value == pytest.approx(0.8, abs=1e-9)


def test_criterion_09_sense_weighting_consistency(toy_taxonomy, mini_corpus):
    with criterion(9, "uniform weights reproduce hard counts; support ranks"):
        from animacy.rules import noun_ratios, sense_table

        uniform = uniform_weighting(toy_taxonomy)
        senses = sense_table(toy_taxonomy)
        for lemma in all_lemmas(toy_taxonomy, "n"):
            assert noun_ratios(lemma, senses) == noun_ratios(lemma, senses, weighting=uniform)

        table = information_content(mini_corpus, toy_taxonomy)
        lemmas = set(all_lemmas(toy_taxonomy, "n"))
        weighting = disambiguation_weights(lemmas, toy_taxonomy, table)
        for lemma in lemmas:
            senses = toy_taxonomy.senses(lemma, "n")
            total = sum(weighting.weight(lemma, sid) for sid in senses)
            assert total == pytest.approx(1.0, abs=1e-9)

        t = pair_taxonomy()
        ic = information_content(
            occurrences([("s1a", 2), ("s2a", 2), ("s1b", 10), ("s2b", 10)]), t
        )
        w = disambiguation_weights({"alpha", "beta"}, t, ic)
        assert w.weight("alpha", "s1a") > w.weight("alpha", "s1b")
        assert w.weight("beta", "s2a") > w.weight("beta", "s2b")


def test_criterion_10_cross_validation_beats_random_baseline(enriched, mini_corpus):
    with criterion(10, "10-fold animate F beats the random baseline's mean F"):
        first = cross_validate(mini_corpus, enriched.sense_table(), folds=10, seed=7)
        second = cross_validate(mini_corpus, enriched.sense_table(), folds=10, seed=7)
        assert first[0] == second[0]

        labelled = [np_ for d in mini_corpus for np_ in d.nps if np_.gold]
        assert first[0].total == len(labelled)

        mbl_f = first[0].scores(A).f_measure
        gold = [np_.gold for d in mini_corpus for np_ in d.nps]
        baseline_fs = []
        for seed in range(100):
            report = score(gold, baseline("random", mini_corpus, seed=seed))
            f = report.scores(A).f_measure
            baseline_fs.append(0.0 if f is None else f)
        assert mbl_f > sum(baseline_fs) / len(baseline_fs)
