from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from animacy.corpus import Document, Label, pronoun_ratio
from animacy.evaluation import (
    as_percent,
    baseline,
    format_report,
    kappa,
    score,
)

A, I, U = Label.ANIMATE, Label.INANIMATE, Label.UNKNOWN


def streams_from_confusion(tp, fp, fn, tn):
    gold = [A] * tp + [I] * fp + [A] * fn + [I] * tn
    pred = [A] * tp + [A] * fp + [I] * fn + [I] * tn
    return gold, pred


class TestScore:
    def test_hand_computed_precision_recall_f(self):
        gold, pred = streams_from_confusion(tp=9, fp=1, fn=3, tn=10)
        report = score(gold, pred)
        animate = report.scores(A)
        assert animate.precision == pytest.approx(0.9)
        assert animate.recall == pytest.approx(0.75)
        assert animate.f_measure == pytest.approx(2 * 0.9 * 0.75 / 1.65)

    def test_accuracy_is_correct_over_total(self):
        gold, pred = streams_from_confusion(tp=2, fp=1, fn=1, tn=4)
        report = score(gold, pred)
        assert report.accuracy == 6 / 8

    def test_unknown_prediction_is_error_and_miss_not_positive(self):
        report = score([A, I], [U, U])
        assert report.accuracy == 0.0
        assert report.unknown_predictions == 2
        animate = report.scores(A)
        assert animate.false_negatives == 1
        assert animate.false_positives == 0
        inanimate = report.scores(I)
        assert inanimate.false_negatives == 1
        assert inanimate.false_positives == 0

    def test_undefined_precision_carries_marker(self):
        # no animate predictions at all: the dummy situation
        report = score([A, I, I], [I, I, I])
        animate = report.scores(A)
        assert animate.precision is None
        assert animate.recall == 0.0
        assert animate.f_measure is None
        assert "-" in format_report(report)

    def test_unknowns_can_be_excluded_from_the_denominator(self):
        report = score([A, I, I], [A, U, I], include_unknown=False)
        assert report.total == 2
        assert report.accuracy == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            score([A], [A, I])

    def test_unknown_gold_rejected(self):
        with pytest.raises(ValueError):
            score([U], [A])


class TestKappa:
    def test_identical_streams_with_both_classes(self):
        value, agreement = kappa([A, I, A, I], [A, I, A, I])
        assert value == 1.0
        assert agreement == 1.0

    def test_balanced_confusion_is_point_eight(self):
        # 45 + 45 agreements, 5 + 5 disagreements, marginals 50/50
        first = [A] * 45 + [A] * 5 + [I] * 5 + [I] * 45
        second = [A] * 45 + [I] * 5 + [A] * 5 + [I] * 45
        value, agreement = kappa(first, second)
        assert agreement == pytest.approx(0.9)
        assert value == pytest.approx(0.8, abs=1e-9)

    def test_constant_identical_streams_undefined(self):
        value, agreement = kappa([I, I, I], [I, I, I])
        assert value is None
        assert agreement == 1.0

    def test_works_over_arbitrary_label_sets(self):
        value, _ = kappa(["x", "y", "x"], ["x", "y", "y"])
        assert value is not None

    @given(st.lists(st.sampled_from([A, I]), min_size=2, max_size=40))
    def test_self_agreement_is_one_or_undefined(self, stream):
        value, agreement = kappa(stream, stream)
        assert agreement == 1.0
        assert value is None or value == pytest.approx(1.0)


class TestBaselines:
    def test_dummy_never_predicts_animate(self, mini_corpus):
        stream = baseline("dummy", mini_corpus)
        assert all(label is I for label in stream)

    def test_dummy_accuracy_equals_inanimate_fraction(self, mini_corpus):
        gold = [np.gold for d in mini_corpus for np in d.nps]
        report = score(gold, baseline("dummy", mini_corpus))
        inanimate_fraction = sum(1 for g in gold if g is I) / len(gold)
        assert report.accuracy == inanimate_fraction

    def test_weighted_with_ratio_one_is_all_animate(self):
        docs = [Document("d", tuple(_np(i) for i in range(8)), 5, 0)]
        assert all(x is A for x in baseline("weighted", docs, seed=0))

    def test_random_is_reproducible(self, mini_corpus):
        assert baseline("random", mini_corpus, seed=42) == baseline(
            "random", mini_corpus, seed=42
        )

    def test_stochastic_modes_require_seed(self, mini_corpus):
        with pytest.raises(ValueError, match="seed"):
            baseline("random", mini_corpus)

    def test_unknown_mode(self, mini_corpus):
        with pytest.raises(ValueError):
            baseline("oracle", mini_corpus, seed=0)

    def test_weighted_rate_converges_to_pronoun_ratio(self):
        doc = Document("d", tuple(_np(i) for i in range(50)), 3, 1)
        target = pronoun_ratio(doc)
        draws = []
        for seed in range(200):
            draws.extend(1 if x is A else 0 for x in baseline("weighted", [doc], seed=seed))
        n = len(draws)
        sigma = (target * (1 - target) / n) ** 0.5
        assert abs(sum(draws) / n - target) < 3 * sigma


class TestFormatting:
    def test_percent_truncates_not_rounds(self):
        assert as_percent(0.8821887) == 88.21
        assert as_percent(0.8277848) == 82.77
        assert as_percent(None) is None

    def test_percent_of_a_fraction_truncates_exactly(self):
        for d in range(1, 201):
            for n in range(d + 1):
                q = n * 10**4 // d
                assert f"{as_percent(Fraction(n, d)):.2f}" == f"{q // 100}.{q % 100:02d}"

    def test_report_figures_on_exact_boundaries(self):
        # 29 of 50 correct: the float path printed 57.99
        gold, pred = streams_from_confusion(tp=29, fp=0, fn=21, tn=0)
        row = format_report(score(gold, pred)).split("\n")[1]
        assert row == "58.00\t100.00\t58.00\t73.41\t0.00\t-\t-\t0"

    def test_report_row_is_tab_separated(self):
        gold, pred = streams_from_confusion(tp=9, fp=1, fn=3, tn=10)
        text = format_report(score(gold, pred))
        header, row = text.strip().split("\n")
        assert len(header.split("\t")) == len(row.split("\t")) == 8


@given(
    tp=st.integers(0, 40), fp=st.integers(0, 40),
    fn=st.integers(0, 40), tn=st.integers(0, 40),
)
def test_f_measure_between_precision_and_recall(tp, fp, fn, tn):
    if tp + fn == 0 or tp + fp + fn + tn == 0:
        return
    gold, pred = streams_from_confusion(tp, fp, fn, tn)
    scores = score(gold, pred).scores(A)
    p, r, f = scores.precision, scores.recall, scores.f_measure
    if p is None or r is None or f is None:
        return
    assert min(p, r) - 1e-12 <= f <= max(p, r) + 1e-12


def _exact_cell(ratio):
    if ratio is None:
        return "-"
    q = ratio.numerator * 10**4 // ratio.denominator
    return f"{q // 100}.{q % 100:02d}"


@given(
    tp=st.integers(0, 60), fp=st.integers(0, 60),
    fn=st.integers(0, 60), tn=st.integers(0, 60),
)
def test_report_cells_are_exact_truncations(tp, fp, fn, tn):
    gold, pred = streams_from_confusion(tp, fp, fn, tn)
    row = format_report(score(gold, pred)).split("\n")[1].split("\t")

    def prf(t, f_pos, f_neg):
        p = Fraction(t, t + f_pos) if t + f_pos else None
        r = Fraction(t, t + f_neg) if t + f_neg else None
        f = 2 * p * r / (p + r) if p is not None and r is not None and p + r else None
        return [p, r, f]

    total = tp + fp + fn + tn
    expected = [Fraction(tp + tn, total) if total else Fraction(0)]
    expected += prf(tp, fp, fn) + prf(tn, fn, fp)
    assert row[:7] == [_exact_cell(x) for x in expected]


def _np(i):
    from tests.test_corpus import make_np

    return make_np(sent=0, np=i, head=f"w{i}", gold=I)
