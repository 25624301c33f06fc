import pytest
from hypothesis import given, strategies as st

from animacy.corpus import Label
from animacy.rules import (
    AnimacyRatios,
    Thresholds,
    classify_np,
    classify_rule,
    compute_ratios,
    noun_ratios,
    sense_table,
    verb_ratios,
)
from tests.test_corpus import make_np


@pytest.fixture(scope="module")
def senses(toy_taxonomy):
    return sense_table(toy_taxonomy)


def ratios(na=0.0, ni=0.0, va=0.0, vi=0.0, nouns=1, verbs=0):
    return AnimacyRatios(na, ni, va, vi, nouns, verbs)


class TestRatios:
    def test_two_of_five_animate(self, senses):
        # no toy lemma has 5 senses; check the arithmetic on 'mouse' (2 of 3)
        r = noun_ratios("mouse", senses)
        assert r.animate == pytest.approx(2 / 3)
        assert r.inanimate == pytest.approx(1 / 3)
        assert r.total == 3

    def test_all_senses_animate(self, senses):
        r = noun_ratios("teacher", senses)
        assert r == (1.0, 0.0, 1)

    def test_unknown_lemma_gives_no_senses(self, senses):
        assert noun_ratios("quux", senses) == (0.0, 0.0, 0)

    def test_verb_three_of_four_communication(self, senses):
        r = verb_ratios("address", senses)
        assert r.animate == 0.75
        assert r.total == 4

    def test_unknown_verb(self, senses):
        assert verb_ratios("frobnicate", senses) == (0.0, 0.0, 0)

    def test_non_subject_has_zero_verb_ratios(self, senses):
        np = make_np(head="head", is_subject=False)
        r = compute_ratios(np, senses)
        assert r.verb_animacy == 0.0 and r.verb_inanimacy == 0.0
        assert r.verb_sense_total == 0

    def test_complement_identity_holds_exactly(self, toy_taxonomy, senses):
        for lemma in toy_taxonomy.lemmas("n"):
            r = noun_ratios(lemma, senses)
            if r.total > 0:
                assert r.animate + r.inanimate == 1.0


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
        np = make_np(has_who=who, has_reflexive=refl)
        assert classify_rule(np, r) is expected, reason

    def test_reflexive_extension_can_be_disabled(self):
        np = make_np(has_reflexive=True)
        r = ratios(na=0.2, ni=0.8)
        assert classify_rule(np, r, reflexive_counts=True) is Label.ANIMATE
        assert classify_rule(np, r, reflexive_counts=False) is Label.INANIMATE

    def test_determinism(self, senses):
        np = make_np(head="mouse", is_subject=True, verb_lemma="run")
        first = classify_np(np, senses)
        assert all(classify_np(np, senses) is first for _ in range(5))


class TestProperties:
    @given(
        na=st.floats(0, 1), higher=st.floats(0, 1),
        ni=st.floats(0, 1), va=st.floats(0, 1), vi=st.floats(0, 1),
    )
    def test_raising_noun_animacy_never_flips_animate_off(self, na, higher, ni, va, vi):
        lo, hi = sorted((na, max(na, higher)))
        np = make_np()
        before = classify_rule(np, ratios(na=lo, ni=ni, va=va, vi=vi, verbs=1))
        after = classify_rule(np, ratios(na=hi, ni=ni, va=va, vi=vi, verbs=1))
        if before is Label.ANIMATE:
            assert after is Label.ANIMATE

    def test_degenerate_thresholds_make_any_animate_sense_decisive(self, toy_taxonomy, senses):
        th = Thresholds(0.0, 1.0, 1.0)
        for lemma in toy_taxonomy.lemmas("n"):
            r = noun_ratios(lemma, senses)
            np = make_np(head=lemma)
            label = classify_np(np, senses, thresholds=th)
            if r.animate > 0:
                assert label is Label.ANIMATE

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            Thresholds(noun_animacy=1.5)
