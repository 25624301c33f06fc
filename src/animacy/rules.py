"""Rule-based animacy classification from unique-beginner sense counts.

For a head noun, the fraction of its senses rooted at animate unique
beginners (and the same fraction for the governing verb of subject NPs)
feeds a fixed threshold cascade.  Sense weighting can replace the raw
counts with per-sense weights; everything else is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .corpus import Label, NPRecord
from .taxonomy import NOUN, VERB, BeginnerClass, Taxonomy, sense_mass

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


def _ratios(
    lemma: str,
    pos: str,
    taxonomy: Taxonomy,
    beginners: BeginnerClass,
    weighting: "SenseWeighting | None",
) -> RatioResult:
    sense_ids = taxonomy.senses(lemma, pos)
    if not sense_ids:
        return RatioResult(0.0, 0.0, 0)

    def is_animate(sid: str) -> bool:
        return beginners.is_animate(taxonomy.beginner_of(sid), pos)

    weights = weighting.for_lemma(lemma, sense_ids) if weighting is not None else None
    animate_mass, inanimate_mass = sense_mass(sense_ids, is_animate, weights)
    total_mass = animate_mass + inanimate_mass
    if total_mass == 0.0:
        # every sense carried weight zero; fall back to plain counts
        animate_mass, inanimate_mass = sense_mass(sense_ids, is_animate)
        total_mass = animate_mass + inanimate_mass
    animate = animate_mass / total_mass
    return RatioResult(animate, 1.0 - animate, len(sense_ids))


def noun_ratios(
    lemma: str,
    taxonomy: Taxonomy,
    beginners: BeginnerClass = BeginnerClass(),
    weighting: "SenseWeighting | None" = None,
) -> RatioResult:
    """Animate and inanimate fractions over a noun's senses.

    A lemma with no noun senses yields (0, 0, 0); downstream that forces an
    UNKNOWN classification rather than an exception.
    """
    return _ratios(lemma, NOUN, taxonomy, beginners, weighting)


def verb_ratios(
    lemma: str,
    taxonomy: Taxonomy,
    beginners: BeginnerClass = BeginnerClass(),
    weighting: "SenseWeighting | None" = None,
) -> RatioResult:
    return _ratios(lemma, VERB, taxonomy, beginners, weighting)


def compute_ratios(
    np: NPRecord,
    taxonomy: Taxonomy,
    beginners: BeginnerClass = BeginnerClass(),
    weighting: "SenseWeighting | None" = None,
) -> AnimacyRatios:
    noun = noun_ratios(np.head_lemma, taxonomy, beginners, weighting)
    if np.is_subject and np.verb_lemma is not None:
        verb = verb_ratios(np.verb_lemma, taxonomy, beginners, weighting)
    else:
        verb = RatioResult(0.0, 0.0, 0)
    return AnimacyRatios(
        noun_animacy=noun.animate,
        noun_inanimacy=noun.inanimate,
        verb_animacy=verb.animate,
        verb_inanimacy=verb.inanimate,
        noun_sense_total=noun.total,
        verb_sense_total=verb.total,
    )


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
    taxonomy: Taxonomy,
    beginners: BeginnerClass = BeginnerClass(),
    thresholds: Thresholds = Thresholds(),
    weighting: "SenseWeighting | None" = None,
    reflexive_counts: bool = True,
) -> Label:
    ratios = compute_ratios(np, taxonomy, beginners, weighting)
    return classify_rule(np, ratios, thresholds, reflexive_counts)
