"""Rule-based animacy classification from unique-beginner sense counts.

For a head noun, the fraction of its senses rooted at animate unique
beginners (and the same fraction for the governing verb of subject NPs)
feeds a fixed threshold cascade.  Sense weighting can replace the raw
counts with per-sense weights; everything else is unchanged.  Each sense's
beginner class is decided once per run, by the `SenseTable` that
`sense_table` builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .corpus import Label, NPRecord
from .taxonomy import NOUN, VERB, BeginnerClass, SenseTable, Taxonomy

if TYPE_CHECKING:
    from .wsd import SenseWeighting


@dataclass(frozen=True)
class Thresholds:
    """Cascade thresholds; the defaults are the tuned operating point."""

    noun_animacy: float = 0.71
    noun_inanimacy: float = 0.92
    verb_animacy: float = 0.90

    def __post_init__(self):
        for value in (self.noun_animacy, self.noun_inanimacy, self.verb_animacy):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"threshold {value} outside [0, 1]")


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


def sense_table(taxonomy: Taxonomy, beginners: BeginnerClass = BeginnerClass()) -> SenseTable:
    """The senses of `taxonomy`, animate when rooted at an animate unique
    beginner of `beginners`."""
    beginner_of, pos_of, is_animate = taxonomy.beginner_of, taxonomy.pos_of, beginners.is_animate
    return SenseTable(taxonomy, lambda sid: is_animate(beginner_of(sid), pos_of(sid)))


def _ratios(lemma: str, pos: str, table: SenseTable,
            weighting: "SenseWeighting | None") -> RatioResult:
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


def noun_ratios(lemma: str, table: SenseTable,
                weighting: "SenseWeighting | None" = None) -> RatioResult:
    """Animate and inanimate fractions over a noun's senses.

    A lemma with no noun senses yields (0, 0, 0); downstream that forces an
    UNKNOWN classification rather than an exception.
    """
    return _ratios(lemma, NOUN, table, weighting)


def verb_ratios(lemma: str, table: SenseTable,
                weighting: "SenseWeighting | None" = None) -> RatioResult:
    return _ratios(lemma, VERB, table, weighting)


def compute_ratios(np: NPRecord, table: SenseTable,
                   weighting: "SenseWeighting | None" = None) -> AnimacyRatios:
    noun = _ratios(np.head_lemma, NOUN, table, weighting)
    verb = (_ratios(np.verb_lemma, VERB, table, weighting)
            if np.is_subject and np.verb_lemma is not None else RatioResult(0.0, 0.0, 0))
    return AnimacyRatios(noun.animate, noun.inanimate, verb.animate, verb.inanimate,
                         noun.total, verb.total)


def classify_rule(
    np: NPRecord,
    ratios: AnimacyRatios,
    thresholds: Thresholds = Thresholds(),
    reflexive_counts: bool = True,
) -> Label:
    """Threshold cascade over the sense fractions.

    All comparisons are strict.  In order: high noun animacy wins, then
    high noun inanimacy, then joint noun+verb majority, then the contextual
    rule (a who-complementizer, optionally an animate reflexive, or high
    verb animacy).  The final fall-through is INANIMATE, except that a head
    with no senses and no contextual evidence is UNKNOWN so that consumers
    can ignore it instead of trusting a default.

    `reflexive_counts=False` restricts the contextual rule to the
    who-complementizer alone.
    """
    if ratios.noun_animacy > thresholds.noun_animacy:
        return Label.ANIMATE
    if ratios.noun_inanimacy > thresholds.noun_inanimacy:
        return Label.INANIMATE
    if (
        ratios.noun_animacy > ratios.noun_inanimacy
        and ratios.verb_animacy > ratios.verb_inanimacy
    ):
        return Label.ANIMATE
    contextual = np.has_who or (reflexive_counts and np.has_reflexive)
    if contextual or ratios.verb_animacy > thresholds.verb_animacy:
        return Label.ANIMATE
    if ratios.noun_sense_total == 0:
        return Label.UNKNOWN
    return Label.INANIMATE


def classify_np(
    np: NPRecord,
    table: SenseTable,
    thresholds: Thresholds = Thresholds(),
    weighting: "SenseWeighting | None" = None,
    reflexive_counts: bool = True,
) -> Label:
    """The cascade's label for one NP, its senses judged by `table`
    (see `sense_table`)."""
    ratios = compute_ratios(np, table, weighting)
    return classify_rule(np, ratios, thresholds, reflexive_counts)
