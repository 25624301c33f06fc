"""Rule-based animacy classification from unique-beginner sense counts.

For a head noun, the fraction of its senses rooted at animate unique
beginners (and the same fraction for the governing verb of subject NPs)
feeds a fixed threshold cascade.  Each sense's animacy is a column over
the synsets, read at its unique beginner (`sense_table`).  The sense
masses come from the columns that the memory-based learner reads too
(`mbl.sense_masses`), under the one weighing rule of both classifiers
(`mbl.lemma_mass`): a lemma counts its senses' weights only when the
weights cover every sense and are not all zero, else it counts plainly.
The cascade is a few elementwise comparisons over a whole corpus's
fraction columns (`classify_corpus`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .corpus import Document, Label, NPRecord, np_columns
from .mbl import lemma_mass, sense_masses
from .taxonomy import NOUN, VERB, BeginnerClass, SenseTable, Taxonomy

if TYPE_CHECKING:
    from .wsd import ICTable, SenseWeighting

_LABELS = (Label.ANIMATE, Label.INANIMATE, Label.UNKNOWN)


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


def sense_table(taxonomy: Taxonomy, beginners: BeginnerClass = BeginnerClass()) -> SenseTable:
    """The senses of `taxonomy`, animate when rooted at an animate unique
    beginner of `beginners`: each beginner is asked once, when a looked-up
    sense first reaches it."""
    beginner_of, pos_of, is_animate = taxonomy.beginner_of, taxonomy.pos_of, beginners.is_animate
    return SenseTable(taxonomy, taxonomy.beginner_stops(), np.zeros(len(taxonomy), np.int8),
                      lambda sid: is_animate(beginner_of(sid), pos_of(sid)))


def _fractions(masses, known) -> tuple[np.ndarray, np.ndarray]:
    """Animate and inanimate fractions of the (animate, inanimate) mass
    columns `masses`, 2 x n, zeros where not `known`."""
    masses = np.asarray(masses, dtype=np.float64).reshape(2, -1)
    animate = np.zeros(masses.shape[1])
    np.divide(masses[0], masses[0] + masses[1], out=animate, where=known)
    return animate, np.where(known, 1.0 - animate, 0.0)


def _lemma_fractions(lemma: str, pos: str, table: SenseTable,
                     weighting: "SenseWeighting | None") -> tuple[float, float, int]:
    total = len(table.senses(lemma, pos))
    (animate,), (inanimate,) = _fractions(lemma_mass(lemma, pos, table, weighting), [total > 0])
    return float(animate), float(inanimate), total


def noun_ratios(lemma: str, table: SenseTable,
                weighting: "SenseWeighting | None" = None) -> tuple[float, float, int]:
    """Animate and inanimate fractions of a noun's `lemma_mass`, and its
    number of senses.

    A lemma with no noun senses yields (0, 0, 0); downstream that forces an
    UNKNOWN classification rather than an exception.
    """
    return _lemma_fractions(lemma, NOUN, table, weighting)


def verb_ratios(lemma: str, table: SenseTable,
                weighting: "SenseWeighting | None" = None) -> tuple[float, float, int]:
    return _lemma_fractions(lemma, VERB, table, weighting)


def cascade(ratios: np.ndarray, noun_senses: Sequence[int], has_who: Sequence[bool],
            has_reflexive: Sequence[bool], thresholds: Thresholds = Thresholds(),
            reflexive_counts: bool = True) -> list[Label]:
    """Threshold cascade over columns, one per NP: `ratios` holds the rows
    of noun animacy, noun inanimacy, verb animacy and verb inanimacy.

    All comparisons are strict.  In order: high noun animacy wins, then
    high noun inanimacy, then joint noun+verb majority, then the contextual
    rule (a who-complementizer, optionally an animate reflexive, or high
    verb animacy).  The final fall-through is INANIMATE, except that a head
    with no senses and no contextual evidence is UNKNOWN so that consumers
    can ignore it instead of trusting a default.

    `reflexive_counts=False` restricts the contextual rule to the
    who-complementizer alone.
    """
    na, ni, va, vi = ratios
    contextual = np.array(has_who, bool) | (np.array(has_reflexive, bool) & reflexive_counts)
    codes = np.select(
        [na > thresholds.noun_animacy, ni > thresholds.noun_inanimacy,
         (na > ni) & (va > vi) | contextual | (va > thresholds.verb_animacy),
         np.array(noun_senses, np.int64) == 0],
        [0, 1, 0, 2], 1)
    return [_LABELS[code] for code in codes.tolist()]


def _classify(senses, noun, verb, has_who, has_reflexive, thresholds,
              reflexive_counts) -> list[Label]:
    """The labels of NPs given as columns: the head noun's sense count,
    its `lemma_mass` and the verb's plain counts, each 2 x n."""
    verb = np.asarray(verb, np.float64).reshape(2, -1)
    senses = np.asarray(senses, np.int64)
    ratios = np.array([*_fractions(noun, senses > 0), *_fractions(verb, verb[0] + verb[1] > 0)])
    return cascade(ratios, senses, has_who, has_reflexive, thresholds, reflexive_counts)


def classify_corpus(docs: Sequence[Document], table: SenseTable,
                    thresholds: Thresholds = Thresholds(), reflexive_counts: bool = True,
                    ic: "ICTable | None" = None) -> list[Label]:
    """The label of each NP of `docs` in corpus order, its senses judged by
    `table` and weighted by `ic` if given; no `NPRecord` is built."""
    columns, _ = np_columns(docs)
    masses = sense_masses(docs, table, ic)
    return _classify(masses.senses, masses.noun, masses.verb, columns.has_who,
                     columns.has_reflexive, thresholds, reflexive_counts)


def classify_np(
    np: NPRecord,
    table: SenseTable,
    thresholds: Thresholds = Thresholds(),
    weighting: "SenseWeighting | None" = None,
    reflexive_counts: bool = True,
) -> Label:
    """The cascade's label for one NP, its senses judged by `table`
    (see `sense_table`)."""
    head, verb = np.head_lemma, np.verb_lemma
    return _classify([len(table.senses(head, NOUN))], lemma_mass(head, NOUN, table, weighting),
                     (0.0, 0.0) if verb is None else table.mass(verb, VERB), [np.has_who],
                     [np.has_reflexive], thresholds, reflexive_counts)[0]
