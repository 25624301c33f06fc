"""Intrinsic scoring: accuracy, per-class precision/recall/F, agreement,
and the three reference baselines.

UNKNOWN predictions are counted as errors and as misses for the gold
class, never as positives of anything, so an abstaining classifier cannot
gain precision for free.  Undefined ratios (zero denominators) stay None
and are rendered as "-" in reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Sequence

import numpy as np
from numpy.random import default_rng

from .corpus import Document, Label, iter_nps, pronoun_ratio

BASELINE_MODES = ("random", "weighted", "dummy")


@dataclass(frozen=True)
class ClassScores:
    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float | None:
        predicted = self.true_positives + self.false_positives
        return self.true_positives / predicted if predicted else None

    @property
    def recall(self) -> float | None:
        actual = self.true_positives + self.false_negatives
        return self.true_positives / actual if actual else None

    @property
    def f_measure(self) -> float | None:
        p, r = self.precision, self.recall
        if p is None or r is None or p + r == 0:
            return None
        return 2 * p * r / (p + r)


@dataclass(frozen=True)
class EvalReport:
    total: int
    correct: int
    unknown_predictions: int
    per_class: dict[Label, ClassScores]

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0

    def scores(self, label: Label) -> ClassScores:
        return self.per_class[label]


def score(
    gold: Sequence[Label],
    predicted: Sequence[Label],
    include_unknown: bool = True,
) -> EvalReport:
    """Confusion-based report over two aligned label streams.

    By default UNKNOWN predictions stay in the denominator as errors;
    `include_unknown=False` drops those pairs before scoring, for
    measuring quality over the NPs the classifier actually covered.
    """
    if len(gold) != len(predicted):
        raise ValueError(
            f"gold ({len(gold)}) and predicted ({len(predicted)}) differ in length"
        )
    if not include_unknown:
        pairs = [(g, p) for g, p in zip(gold, predicted) if p is not Label.UNKNOWN]
        gold = [g for g, _ in pairs]
        predicted = [p for _, p in pairs]
    tallies = {
        Label.ANIMATE: [0, 0, 0],  # tp, fp, fn
        Label.INANIMATE: [0, 0, 0],
    }
    correct = 0
    unknown = 0
    for g, p in zip(gold, predicted):
        if g not in tallies:
            raise ValueError(f"gold labels must be animate or inanimate, got {g}")
        if p is Label.UNKNOWN:
            unknown += 1
            tallies[g][2] += 1
            continue
        if p not in tallies:
            raise ValueError(f"prediction {p!r} is not a label")
        if p == g:
            correct += 1
            tallies[g][0] += 1
        else:
            tallies[p][1] += 1
            tallies[g][2] += 1
    per_class = {
        label: ClassScores(*counts) for label, counts in tallies.items()
    }
    return EvalReport(
        total=len(gold),
        correct=correct,
        unknown_predictions=unknown,
        per_class=per_class,
    )


def kappa(
    first: Sequence[Hashable], second: Sequence[Hashable]
) -> tuple[float | None, float]:
    """Chance-corrected agreement between two aligned annotation streams.

    Returns (kappa, raw agreement).  When both streams are constant and
    identical the expected agreement is 1 and kappa is undefined (None).
    """
    if len(first) != len(second):
        raise ValueError("annotation streams differ in length")
    if not first:
        raise ValueError("cannot compute agreement over empty streams")
    n = len(first)
    observed = sum(1 for a, b in zip(first, second) if a == b) / n

    by_label_first: dict[Hashable, int] = {}
    by_label_second: dict[Hashable, int] = {}
    for a in first:
        by_label_first[a] = by_label_first.get(a, 0) + 1
    for b in second:
        by_label_second[b] = by_label_second.get(b, 0) + 1
    expected = sum(
        (by_label_first.get(label, 0) / n) * (by_label_second.get(label, 0) / n)
        for label in set(by_label_first) | set(by_label_second)
    )
    if expected == 1.0:
        return None, observed
    return (observed - expected) / (1.0 - expected), observed


def baseline(
    mode: str,
    docs: Iterable[Document],
    seed: int | None = None,
) -> list[Label]:
    """Reference prediction stream over a corpus, in NP order.

    random: fair coin per NP.  weighted: animate with probability equal to
    the document's animate pronoun ratio.  dummy: always inanimate.  The
    stochastic modes require a seed so runs are reproducible.
    """
    if mode not in BASELINE_MODES:
        raise ValueError(f"unknown baseline mode {mode!r}")
    if mode == "dummy":
        return [Label.INANIMATE for _ in iter_nps(docs)]
    if seed is None:
        raise ValueError(f"baseline mode {mode!r} requires a seed")
    rng = default_rng(seed)
    out = []
    for doc, _ in iter_nps(docs):
        threshold = 0.5 if mode == "random" else pronoun_ratio(doc)
        out.append(Label.ANIMATE if rng.random() < threshold else Label.INANIMATE)
    return out


def as_percent(ratio: float | Fraction | None, decimals: int = 2) -> float | None:
    """Percentage truncated (not rounded) to the given number of decimals.

    Reported figures use truncation, so 0.882188... prints as 88.21.  A
    Fraction truncates exactly (29/50 gives 58.0); a float carries its
    binary round-off, which can cost the last decimal on an exact boundary.
    """
    if ratio is None:
        return None
    scale = 10 ** decimals
    return math.floor(ratio * 100 * scale) / scale


def format_report(report: EvalReport) -> str:
    """Two-line TSV: accuracy plus per-class precision/recall/F, as
    truncated percentages with '-' for undefined entries.

    Every figure is an exact fraction of counts, so truncation never
    loses a hundredth to float round-off.
    """

    def cell(numerator: int, denominator: int) -> str:
        if not denominator:
            return "-"
        return f"{as_percent(Fraction(numerator, denominator)):.2f}"

    def class_cells(scores: ClassScores) -> list[str]:
        tp, fp, fn = scores.true_positives, scores.false_positives, scores.false_negatives
        # F = 2pr/(p+r) = 2tp/(2tp+fp+fn), defined when p+r > 0, i.e. tp > 0
        return [cell(tp, tp + fp), cell(tp, tp + fn),
                cell(2 * tp, 2 * tp + fp + fn) if tp else "-"]

    header = [
        "accuracy",
        "animate_precision", "animate_recall", "animate_f",
        "inanimate_precision", "inanimate_recall", "inanimate_f",
        "unknown_predictions",
    ]
    row = [
        cell(report.correct, report.total or 1),  # an empty report scores 0
        *class_cells(report.scores(Label.ANIMATE)),
        *class_cells(report.scores(Label.INANIMATE)),
        str(report.unknown_predictions),
    ]
    return "\t".join(header) + "\n" + "\t".join(row) + "\n"
