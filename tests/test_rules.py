from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from animacy import wsd
from animacy.cli import main
from animacy.corpus import Document, Label, NPRecord, dump_corpus, load_corpus
from animacy.data import toy_taxonomy_path
from animacy.mbl import sense_masses
from animacy.rules import (
    Thresholds,
    cascade,
    classify_corpus,
    classify_np,
    noun_ratios,
    sense_table,
    verb_ratios,
)
from animacy.taxonomy import NOUN, VERB, SenseTable, dump_taxonomy
from animacy.wsd import SenseWeighting, document_weights, information_content
from tests.test_corpus import make_np
from tests.test_taxonomy import all_lemmas
from tests.test_wsd import LEMMA_SENSES, RULE_CLASSES, beginner_taxonomy, drawn_beginners


# --- the record path, kept as an oracle for the column cascade --------------

class RatioResult(NamedTuple):
    animate: float
    inanimate: float
    total: int


@dataclass(frozen=True)
class AnimacyRatios:
    """Animate/inanimate sense fractions for one NP occurrence.

    The fractions are complements whenever the corresponding sense total is
    positive.  Verb fractions are zero for non-subjects and for unknown
    verbs; a zero noun total marks an out-of-vocabulary head.
    """

    noun_animacy: float
    noun_inanimacy: float
    verb_animacy: float
    verb_inanimacy: float
    noun_sense_total: int
    verb_sense_total: int


def oracle_ratios(lemma: str, pos: str, table: SenseTable, weighting) -> RatioResult:
    senses = table.senses(lemma, pos)
    if not senses:
        return RatioResult(0.0, 0.0, 0)
    weights = weighting.for_lemma(lemma, senses) if weighting is not None else None
    animate_mass, inanimate_mass = table.mass(lemma, pos, weights)
    if animate_mass + inanimate_mass == 0.0:
        # every sense carried weight zero; fall back to plain counts
        animate_mass, inanimate_mass = table.mass(lemma, pos)
    animate = animate_mass / (animate_mass + inanimate_mass)
    return RatioResult(animate, 1.0 - animate, len(senses))


def compute_ratios(np_: NPRecord, table: SenseTable, weighting=None) -> AnimacyRatios:
    """The NP's fractions; the document's weighting is offered to the verb
    too, as the record path did."""
    noun = oracle_ratios(np_.head_lemma, NOUN, table, weighting)
    verb = (oracle_ratios(np_.verb_lemma, VERB, table, weighting)
            if np_.is_subject and np_.verb_lemma is not None else RatioResult(0.0, 0.0, 0))
    return AnimacyRatios(noun.animate, noun.inanimate, verb.animate, verb.inanimate,
                         noun.total, verb.total)


def classify_rule(np_: NPRecord, ratios: AnimacyRatios, thresholds: Thresholds = Thresholds(),
                  reflexive_counts: bool = True) -> Label:
    """The cascade, one branch at a time."""
    if ratios.noun_animacy > thresholds.noun_animacy:
        return Label.ANIMATE
    if ratios.noun_inanimacy > thresholds.noun_inanimacy:
        return Label.INANIMATE
    if (
        ratios.noun_animacy > ratios.noun_inanimacy
        and ratios.verb_animacy > ratios.verb_inanimacy
    ):
        return Label.ANIMATE
    contextual = np_.has_who or (reflexive_counts and np_.has_reflexive)
    if contextual or ratios.verb_animacy > thresholds.verb_animacy:
        return Label.ANIMATE
    if ratios.noun_sense_total == 0:
        return Label.UNKNOWN
    return Label.INANIMATE


def oracle_labels(docs, table, thresholds, reflexive_counts, weighting_of=lambda doc: None):
    return [classify_rule(np_, compute_ratios(np_, table, weighting_of(doc)), thresholds,
                          reflexive_counts)
            for doc in docs for np_ in doc.nps]


def cascade_of(rows, nps, thresholds=Thresholds(), reflexive_counts=True):
    """`cascade` over the `AnimacyRatios` rows of the records `nps`."""
    ratios = np.array([[r.noun_animacy, r.noun_inanimacy, r.verb_animacy, r.verb_inanimacy]
                       for r in rows], dtype=np.float64).reshape(-1, 4).T
    return cascade(ratios, [r.noun_sense_total for r in rows], [x.has_who for x in nps],
                   [x.has_reflexive for x in nps], thresholds, reflexive_counts)


# --- tests --------------------------------------------------------------------

@pytest.fixture(scope="module")
def senses(toy_taxonomy):
    return sense_table(toy_taxonomy)


def ratios(na=0.0, ni=0.0, va=0.0, vi=0.0, nouns=1, verbs=0):
    return AnimacyRatios(na, ni, va, vi, nouns, verbs)


class TestRatios:
    def test_two_of_five_animate(self, senses):
        # no toy lemma has 5 senses; check the arithmetic on 'mouse' (2 of 3)
        animate, inanimate, total = noun_ratios("mouse", senses)
        assert animate == pytest.approx(2 / 3)
        assert inanimate == pytest.approx(1 / 3)
        assert total == 3

    def test_all_senses_animate(self, senses):
        assert noun_ratios("teacher", senses) == (1.0, 0.0, 1)

    def test_unknown_lemma_gives_no_senses(self, senses):
        assert noun_ratios("quux", senses) == (0.0, 0.0, 0)

    def test_verb_three_of_four_communication(self, senses):
        animate, _, total = verb_ratios("address", senses)
        assert animate == 0.75
        assert total == 4

    def test_unknown_verb(self, senses):
        assert verb_ratios("frobnicate", senses) == (0.0, 0.0, 0)

    def test_non_subject_has_zero_verb_ratios(self, senses):
        np_ = make_np(head="head", is_subject=False)
        verb = sense_masses([Document("d", (np_,), 0, 0)], senses).verb
        assert verb.T.tolist() == [[0.0, 0.0]]
        r = compute_ratios(np_, senses)
        assert r.verb_animacy == 0.0 and r.verb_inanimacy == 0.0
        assert r.verb_sense_total == 0

    def test_complement_identity_holds_exactly(self, toy_taxonomy, senses):
        for lemma in all_lemmas(toy_taxonomy, "n"):
            animate, inanimate, total = noun_ratios(lemma, senses)
            if total > 0:
                assert animate + inanimate == 1.0


class TestCascade:
    """One row per branch of the decision cascade, default thresholds."""

    CASES = [
        # (ratios, who, refl, expected, reason)
        (ratios(na=0.8, ni=0.2), False, False, Label.ANIMATE, "noun animacy > 0.71"),
        (ratios(na=0.71, ni=0.29), False, False, Label.INANIMATE, "strict: 0.71 does not fire"),
        (ratios(na=0.05, ni=0.95), False, False, Label.INANIMATE, "noun inanimacy > 0.92"),
        (ratios(na=0.6, ni=0.4, va=0.6, vi=0.4, verbs=2), False, False,
         Label.ANIMATE, "noun and verb majorities agree"),
        (ratios(na=0.6, ni=0.4, va=0.4, vi=0.6, verbs=2), False, False,
         Label.INANIMATE, "verb majority blocks the joint rule"),
        (ratios(na=0.2, ni=0.8), True, False, Label.ANIMATE, "who-complementizer"),
        (ratios(na=0.2, ni=0.8), False, True, Label.ANIMATE, "animate reflexive"),
        (ratios(na=0.2, ni=0.8, va=0.95, vi=0.05, verbs=2), False, False,
         Label.ANIMATE, "verb animacy > 0.90"),
        (ratios(na=0.5, ni=0.5), False, False, Label.INANIMATE, "fall-through"),
        (ratios(nouns=0), False, False, Label.UNKNOWN, "no senses, no context"),
        (ratios(nouns=0), True, False, Label.ANIMATE, "no senses but who fires"),
        (ratios(nouns=0, va=0.95, vi=0.05, verbs=2), False, False,
         Label.ANIMATE, "no senses but verb animacy fires"),
    ]

    @pytest.mark.parametrize("r, who, refl, expected, reason", CASES)
    def test_branch(self, r, who, refl, expected, reason):
        np_ = make_np(has_who=who, has_reflexive=refl)
        assert cascade_of([r], [np_]) == [expected], reason
        assert classify_rule(np_, r) is expected, reason

    def test_whole_table_in_one_call(self):
        rows = [case[0] for case in self.CASES]
        nps = [make_np(has_who=who, has_reflexive=refl) for _, who, refl, _, _ in self.CASES]
        assert cascade_of(rows, nps) == [case[3] for case in self.CASES]
        assert cascade_of([], []) == []

    def test_reflexive_extension_can_be_disabled(self):
        np_ = make_np(has_reflexive=True)
        r = ratios(na=0.2, ni=0.8)
        assert cascade_of([r], [np_], reflexive_counts=True) == [Label.ANIMATE]
        assert cascade_of([r], [np_], reflexive_counts=False) == [Label.INANIMATE]

    def test_determinism(self, senses):
        np_ = make_np(head="mouse", is_subject=True, verb_lemma="run")
        first = classify_np(np_, senses)
        assert all(classify_np(np_, senses) is first for _ in range(5))


class TestProperties:
    @given(
        na=st.floats(0, 1), higher=st.floats(0, 1),
        ni=st.floats(0, 1), va=st.floats(0, 1), vi=st.floats(0, 1),
    )
    def test_raising_noun_animacy_never_flips_animate_off(self, na, higher, ni, va, vi):
        lo, hi = sorted((na, max(na, higher)))
        np_ = make_np()
        before, after = cascade_of([ratios(na=lo, ni=ni, va=va, vi=vi, verbs=1),
                                    ratios(na=hi, ni=ni, va=va, vi=vi, verbs=1)], [np_, np_])
        if before is Label.ANIMATE:
            assert after is Label.ANIMATE

    def test_degenerate_thresholds_make_any_animate_sense_decisive(self, toy_taxonomy, senses):
        th = Thresholds(0.0, 1.0, 1.0)
        for lemma in all_lemmas(toy_taxonomy, "n"):
            animate, _, _ = noun_ratios(lemma, senses)
            np_ = make_np(head=lemma)
            label = classify_np(np_, senses, thresholds=th)
            if animate > 0:
                assert label is Label.ANIMATE

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            Thresholds(noun_animacy=1.5)


# --- the column cascade against the record oracle ----------------------------

THRESHOLDS = st.builds(Thresholds, *[st.sampled_from([0.0, 0.25, 0.5, 0.71, 0.9, 1.0])] * 3)


@st.composite
def ratio_rows(draw, thresholds):
    """One NP's fractions: each drawn from the thresholds' own values, a
    few fixed ones and any float in [0, 1]; the two of a pair may be equal,
    complements or unrelated, and a zero total zeroes the pair."""
    values = st.sampled_from(sorted({*map(float, (thresholds.noun_animacy,
                                                  thresholds.noun_inanimacy,
                                                  thresholds.verb_animacy)),
                                     0.0, 0.5, 1.0, 1 / 3})) | st.floats(0.0, 1.0)

    def pair():
        first = draw(values)
        second = draw(st.sampled_from(["same", "complement", "other"]))
        if second == "other":
            return first, draw(values)
        return first, first if second == "same" else 1.0 - first

    nouns, verbs = draw(st.sampled_from([0, 1, 3])), draw(st.sampled_from([0, 2]))
    na, ni = pair() if nouns else (0.0, 0.0)
    va, vi = pair() if verbs else (0.0, 0.0)
    return ratios(na=na, ni=ni, va=va, vi=vi, nouns=nouns, verbs=verbs)


class TestColumnCascadeMatchesRecordOracle:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), thresholds=THRESHOLDS, reflexive_counts=st.booleans())
    def test_drawn_ratio_columns(self, data, thresholds, reflexive_counts):
        rows = data.draw(st.lists(ratio_rows(thresholds), max_size=12))
        nps = [make_np(has_who=data.draw(st.booleans()), has_reflexive=data.draw(st.booleans()))
               for _ in rows]
        assert cascade_of(rows, nps, thresholds, reflexive_counts) == [
            classify_rule(np_, r, thresholds, reflexive_counts) for r, np_ in zip(rows, nps)]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), beginners=drawn_beginners(), thresholds=THRESHOLDS,
           reflexive_counts=st.booleans())
    def test_drawn_documents_and_weightings(self, data, beginners, thresholds, reflexive_counts):
        """Each document weighs a drawn subset of the head lemmas over
        their noun senses (as `disambiguation_weights` does), some senses
        left out and some lemmas weighing every sense zero."""
        taxonomy = beginner_taxonomy(beginners)
        lemmas = st.sampled_from(sorted(LEMMA_SENSES) + ["ghost"])
        docs, weightings = [], {}
        for d in range(data.draw(st.integers(1, 3))):
            # a subject's verb may be missing, unknown, or a noun lemma too
            verbs = st.none() | lemmas
            nps = tuple(
                make_np(doc=f"d{d}", np=i, head=data.draw(lemmas), is_subject=verb is not None,
                        verb_lemma=verb, has_who=data.draw(st.booleans()),
                        has_reflexive=data.draw(st.booleans()))
                for i, verb in enumerate(data.draw(st.lists(verbs, max_size=6))))
            docs.append(Document(f"d{d}", nps, 0, 0))
            weights = {}
            for lemma in data.draw(st.lists(st.sampled_from(sorted(LEMMA_SENSES)), unique=True)):
                nouns = LEMMA_SENSES[lemma][0]
                kind = data.draw(st.sampled_from(["all", "zero", "partial"]))
                chosen = nouns if kind != "partial" else data.draw(
                    st.lists(st.sampled_from(nouns), unique=True))
                weights[lemma] = {sid: 0.0 if kind == "zero" else data.draw(
                    st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)) for sid in chosen}
            weightings[f"d{d}"] = SenseWeighting(weights)

        def weigh(doc, taxonomy_, ic):
            assert taxonomy_ is taxonomy and ic == "ic"
            return weightings[doc.doc_id]

        for classes in RULE_CLASSES:
            table = sense_table(taxonomy, classes)
            with mock.patch.object(wsd, "document_weights", weigh):
                got = classify_corpus(docs, table, thresholds, reflexive_counts, ic="ic")
            assert got == oracle_labels(docs, table, thresholds, reflexive_counts,
                                        lambda doc: weightings[doc.doc_id])
            assert classify_corpus(docs, table, thresholds, reflexive_counts) == oracle_labels(
                docs, table, thresholds, reflexive_counts)
            assert got == [classify_np(np_, table, thresholds, weightings[doc.doc_id],
                                       reflexive_counts) for doc in docs for np_ in doc.nps]


def test_verb_lemma_that_is_a_weighted_noun_keeps_plain_counts(tmp_path, capsys):
    """Document weights cover noun senses only, so a subject's verb counts
    plainly even when its lemma is a weighted noun of the same document:
    `classify --method rule --wsd` gives the labels of the record oracle,
    which offers the document's weights to the verb too."""
    taxonomy = beginner_taxonomy({"n1": 18, "n2": 6, "n3": 18, "n4": 5, "n5": 18, "n6": 6,
                                  "n7": 5, "v1": 38, "v2": 31, "v3": 30})
    docs = [Document("d", tuple(
        make_np(np=i, head=head, is_subject=verb is not None, verb_lemma=verb,
                sense_key=sense, gold=Label.ANIMATE)
        for i, (head, verb, sense) in enumerate([
            ("run", "cut", "n3"), ("cut", "run", "n4"), ("cat", "run", "n1"),
            ("oak", "cut", None), ("cut", None, "n6"), ("run", None, None)])), 0, 0)]
    tax_path, corpus_path = tmp_path / "t.tax", tmp_path / "c.tsv"
    tax_path.write_text(dump_taxonomy(taxonomy))
    corpus_path.write_text(dump_corpus(docs))

    thresholds = Thresholds(1.0, 1.0, 0.4)
    table = sense_table(taxonomy)
    ic = information_content(docs, taxonomy)
    weighting = document_weights(docs[0], taxonomy, ic)
    for verb in ("run", "cut"):
        assert weighting.for_lemma(verb, table.senses(verb, NOUN)) is not None
        assert weighting.for_lemma(verb, table.senses(verb, VERB)) is None
    expected = oracle_labels(docs, table, thresholds, True, lambda doc: weighting)

    assert main(["classify", "--method", "rule", "--wsd", "--taxonomy", str(tax_path),
                 "--corpus", str(corpus_path), "--t1", "1.0", "--t2", "1.0",
                 "--t3", "0.4"]) == 0
    got = [Label(line.split("\t")[3]) for line in capsys.readouterr().out.splitlines()]
    assert got == expected
    assert set(got) == {Label.ANIMATE, Label.INANIMATE}


CONTEXTUAL = Path(__file__).with_name("contextual.tsv")


@pytest.mark.parametrize("reflexive_counts, flips", [(True, 9), (False, 5)])
def test_contextual_rule_fixture(toy_taxonomy, capsys, reflexive_counts, flips):
    """`classify --method rule` on the contextual fixture gives the labels
    of the record oracle, and the contextual rule alone turns `flips` of
    its NPs animate: each NP with a who-complementizer (or, unless
    --no-reflexive, an animate reflexive) but the all-inanimate table."""
    docs = load_corpus(CONTEXTUAL)
    table = sense_table(toy_taxonomy)
    expected = oracle_labels(docs, table, Thresholds(), reflexive_counts)
    argv = ["classify", "--method", "rule", "--taxonomy", toy_taxonomy_path(),
            "--corpus", str(CONTEXTUAL)]
    assert main(argv + ([] if reflexive_counts else ["--no-reflexive"])) == 0
    got = [Label(line.split("\t")[3]) for line in capsys.readouterr().out.splitlines()]
    assert got == expected

    plain = [Document(doc.doc_id, tuple(replace(np_, has_who=False, has_reflexive=False)
                                        for np_ in doc.nps),
                      doc.animate_pronoun_count, doc.inanimate_pronoun_count)
             for doc in docs]
    without = oracle_labels(plain, table, Thresholds(), reflexive_counts)
    changed = [(label, before) for label, before in zip(got, without) if label != before]
    assert len(changed) == flips
    assert {label for label, _ in changed} == {Label.ANIMATE}
