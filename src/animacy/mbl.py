"""Memory-based animacy classification.

Training stores labelled feature vectors as-is; classification compares a
query against every stored instance with a feature-weighted overlap
distance and lets the nearest neighbours vote.  Feature weights are gain
ratios computed from the training instances alone.  `k` counts nearest
*distances*: every instance tied at an included distance joins the vote.

Instances are held as columns (`FeatureTable`), so one query costs a
dozen vector operations over the whole store, and gain ratios count each
(value, label) pair with `np.unique`.  Cross-validation extracts the
features once into one table and builds each fold's store from row
slices of it.  The vector arithmetic follows the scalar order of
operations, so weights, distances and vote sums, and with them every
exact tie, are the same bit for bit.

The instance encodes the head lemma, the lemma's animate and inanimate
sense counts under the enriched taxonomy, the same pair for the governing
verb of subjects (zero otherwise), and the document's animate pronoun
ratio.  Unweighted sense counts depend only on the lemma, so they are
computed once per lemma and beginner class (`EnrichedTaxonomy.lemma_mass`);
only weighted head-noun masses are computed per NP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np
from numpy.random import default_rng

from .corpus import Document, Label, NPRecord, iter_nps, pronoun_ratio
from .enrichment import EnrichedTaxonomy
from .evaluation import EvalReport, score
from .taxonomy import NOUN, VERB, BeginnerClass, sense_mass

if TYPE_CHECKING:
    from .wsd import SenseWeighting

OOV_LEMMA = "<oov>"

_NUMERIC = ("animate_senses", "inanimate_senses", "verb_animate",
            "verb_inanimate", "pronoun_ratio")
LABELS = tuple(Label)


@dataclass(frozen=True)
class FeatureVector:
    """One classification instance; `label` is set on training instances.

    Sense counts are floats so that weighted (soft) counts fit the same
    shape; without weighting they are whole numbers.
    """

    lemma: str
    animate_senses: float
    inanimate_senses: float
    verb_animate: float
    verb_inanimate: float
    pronoun_ratio: float
    label: Label | None = None

    def numeric(self) -> tuple[float, ...]:
        return (self.animate_senses, self.inanimate_senses,
                self.verb_animate, self.verb_inanimate, self.pronoun_ratio)


@dataclass(frozen=True)
class MblConfig:
    k: int = 3

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


def extract_features(
    np_record: NPRecord,
    doc: Document,
    enriched: EnrichedTaxonomy,
    beginners: BeginnerClass = BeginnerClass(),
    weighting: "SenseWeighting | None" = None,
) -> FeatureVector:
    """Build the instance for one NP occurrence.

    Out-of-vocabulary heads get zero sense counts and a marker lemma.
    Verb counts apply to subjects with a known governing verb only.
    """
    lemma = np_record.head_lemma
    senses = enriched.base.senses(lemma, NOUN)
    if not senses:
        lemma = OOV_LEMMA
        noun_animate = noun_inanimate = 0.0
    elif weighting is None:
        noun_animate, noun_inanimate = enriched.lemma_mass(lemma, NOUN, beginners)
    else:
        # a lemma without stored weights takes uniform shares, so its
        # counts stay on the scale of the weighted ones
        weights = (weighting.for_lemma(lemma, senses)
                   or dict.fromkeys(senses, 1.0 / len(senses)))
        noun_animate, noun_inanimate = sense_mass(
            senses, lambda sid: enriched.resolve_animate(sid, beginners), weights
        )

    verb_animate = verb_inanimate = 0.0
    if np_record.is_subject and np_record.verb_lemma is not None:
        verb_animate, verb_inanimate = enriched.lemma_mass(
            np_record.verb_lemma, VERB, beginners
        )

    return FeatureVector(
        lemma=lemma,
        animate_senses=noun_animate,
        inanimate_senses=noun_inanimate,
        verb_animate=verb_animate,
        verb_inanimate=verb_inanimate,
        pronoun_ratio=pronoun_ratio(doc),
        label=np_record.gold,
    )


@dataclass(frozen=True, eq=False)
class FeatureTable:
    """Labelled instances as columns: int64 lemma codes (`lemma_ids` maps
    each lemma to its code), the 5 x n float64 numeric block and int8 codes
    into `LABELS`.  Row slices share the whole table's lemma codes, so a
    lemma that a slice lacks has a code that no row of the slice holds.
    """

    lemma_ids: dict[str, int]
    codes: np.ndarray
    numeric: np.ndarray
    labels: np.ndarray

    @classmethod
    def of(cls, instances: Iterable[FeatureVector]) -> "FeatureTable":
        rows = tuple(instances)
        if any(inst.label is None for inst in rows):
            raise ValueError("training instances need labels")
        lemma_ids: dict[str, int] = {}
        codes = [lemma_ids.setdefault(inst.lemma, len(lemma_ids)) for inst in rows]
        numeric = np.array([inst.numeric() for inst in rows], dtype=np.float64)
        return cls(lemma_ids, np.array(codes, dtype=np.int64),
                   numeric.reshape(len(rows), len(_NUMERIC)).T.copy(),
                   np.array([LABELS.index(inst.label) for inst in rows], dtype=np.int8))

    def take(self, rows: np.ndarray) -> "FeatureTable":
        """The table of `rows`, in the order given."""
        # `take` keeps each numeric column contiguous; `numeric[:, rows]`
        # would stride every kNN pass over it
        return FeatureTable(self.lemma_ids, self.codes[rows],
                            self.numeric.take(rows, axis=1), self.labels[rows])


def _plog2p(p: np.ndarray) -> np.ndarray:
    # math.log2 of each distinct value: numpy's SIMD log2 may round the
    # last bit differently, and the weights must match the scalar ones
    values, inverse = np.unique(p, return_inverse=True)
    return p * np.array([math.log2(v) for v in values.tolist()])[inverse]


def _group_entropies(column: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Size and label entropy of each value's rows, values in order of
    first occurrence.  Each entropy sums its terms in the order in which
    the labels first occur among the value's rows."""
    _, first, inverse = np.unique(column, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    group = rank[inverse]
    sizes = np.bincount(group)
    pairs, pair_first, counts = np.unique(
        group * len(LABELS) + labels, return_index=True, return_counts=True
    )
    order = np.lexsort((pair_first, pairs // len(LABELS)))
    pair_group, counts = pairs[order] // len(LABELS), counts[order]
    # one row of terms per group, in label order; the zero padding leaves
    # each row's sum unchanged
    slot = np.arange(len(order)) - np.searchsorted(pair_group, pair_group)
    terms = np.zeros((len(sizes), len(LABELS)))
    terms[pair_group, slot] = _plog2p(counts / sizes[pair_group])
    return sizes, 0.0 - np.cumsum(terms, axis=1)[:, -1]


def gain_ratio_weights(table: FeatureTable) -> tuple[float, ...]:
    """Gain ratio of each feature against the labels, lemma first.

    Numeric feature values act as discrete symbols here (the distance
    treats them numerically); the continuous pronoun ratio is cut into ten
    equal buckets.  A feature constant across the instances has zero split
    information and gets weight 0; a single-class instance set yields all
    zeros.  Every sum runs in the order of a scalar loop over the values
    in first-occurrence order, so the weights are the same bit for bit.
    """
    labels = table.labels
    total = len(labels)
    class_entropy = float(_group_entropies(np.zeros(total, np.int64), labels)[1][0])
    ratio_buckets = np.minimum(table.numeric[4] * 10, 9).astype(np.int64)
    weights = []
    for column in (table.codes, *table.numeric[:4], ratio_buckets):
        sizes, entropies = _group_entropies(column, labels)
        p = sizes / total
        # cumsum adds left to right, rounding like the scalar loop
        conditional = float(np.cumsum(p * entropies)[-1])
        split_info = 0.0 - float(np.cumsum(_plog2p(p))[-1])
        gain = max(class_entropy - conditional, 0.0)
        weights.append(gain / split_info if split_info > 0 else 0.0)
    return tuple(weights)


class InstanceStore:
    """Immutable training memory: instances, weights and numeric ranges.

    Weights and the per-feature value ranges used for distance scaling
    come from the stored instances only, never from queries.  The
    instances are held as their `FeatureTable`, in store order, with one
    boolean mask per label.  A store is built from instances or from a
    table.
    """

    def __init__(self, instances: Iterable[FeatureVector] | FeatureTable):
        table = (instances if isinstance(instances, FeatureTable)
                 else FeatureTable.of(instances))
        if not len(table.codes):
            raise ValueError("instance store cannot be empty")
        self.table = table
        self.weights = gain_ratio_weights(table)
        self.ranges = [(float(col.min()), float(col.max())) for col in table.numeric]
        self.label_masks = {
            LABELS[code]: table.labels == code for code in np.unique(table.labels).tolist()
        }

    @property
    def instances(self) -> tuple[FeatureVector, ...]:
        """The stored instances in store order, rebuilt from the columns."""
        table = self.table
        lemmas = list(table.lemma_ids)
        return tuple(FeatureVector(lemmas[code], *values, LABELS[label]) for code, values, label
                     in zip(table.codes.tolist(), table.numeric.T.tolist(), table.labels.tolist()))


def knn_classify(
    query: FeatureVector,
    store: InstanceStore,
    config: MblConfig = MblConfig(),
) -> Label:
    """Vote of the nearest stored instances.

    The distance is a weighted overlap: 0/1 mismatch on the lemma plus the
    range-scaled absolute difference on each numeric feature.  It is
    accumulated column by column in feature order, so every distance
    equals the scalar left-to-right sum bit for bit; ties below rely on
    that exact equality.

    The k smallest distinct distances define the neighbourhood.  Vote ties
    go to the class with the smaller summed neighbour distance and then to
    INANIMATE, the majority-class prior.
    """
    weights, table = store.weights, store.table
    qid = table.lemma_ids.get(query.lemma, -1)
    distances = weights[0] * (table.codes != qid)
    for idx, value in enumerate(query.numeric()):
        lo, hi = store.ranges[idx]
        span = hi - lo
        # a zero weight adds nothing, and 0 * inf (a difference scaled by a
        # subnormal span) would turn every distance into NaN
        if span > 0 and weights[idx + 1]:
            distances += weights[idx + 1] * (
                np.abs(value - table.numeric[idx]) / span
            )

    # the k-th smallest distinct distance, by successive minima
    cutoff = distances.min()
    for _ in range(config.k - 1):
        farther = distances[distances > cutoff]
        if not farther.size:
            break
        cutoff = farther.min()
    near = distances <= cutoff

    votes: dict[Label, int] = {}
    summed: dict[Label, float] = {}
    for label, mask in store.label_masks.items():
        chosen = distances[mask & near]
        if chosen.size:
            votes[label] = int(chosen.size)
            # a left-to-right sum in store order, rounded like the scalar
            # loop; np.sum's pairwise order could break exact ties
            summed[label] = float(np.cumsum(chosen)[-1])

    best = max(votes.values())
    tied = sorted(label for label, count in votes.items() if count == best)
    if len(tied) == 1:
        return tied[0]
    closest = min(summed[label] for label in tied)
    tied = [label for label in tied if summed[label] == closest]
    if len(tied) == 1:
        return tied[0]
    return Label.INANIMATE if Label.INANIMATE in tied else tied[0]


def _labelled_features(docs, enriched, beginners, weightings):
    """Every gold-labelled NP of `docs` in corpus order, and its instance,
    as two lists; `weightings` maps document ids to sense weightings."""
    labelled, features = [], []
    for doc, np_record in iter_nps(docs):
        if np_record.gold is not None:
            labelled.append(np_record)
            features.append(extract_features(
                np_record, doc, enriched, beginners,
                weightings.get(doc.doc_id) if weightings else None,
            ))
    return labelled, features


def build_store(
    docs: Iterable[Document],
    enriched: EnrichedTaxonomy,
    beginners: BeginnerClass = BeginnerClass(),
    weightings: dict[str, "SenseWeighting"] | None = None,
) -> InstanceStore:
    """Training store over every gold-labelled NP of a corpus."""
    return InstanceStore(_labelled_features(docs, enriched, beginners, weightings)[1])


def cross_validate(
    docs: Sequence[Document],
    enriched: EnrichedTaxonomy,
    folds: int = 10,
    config: MblConfig = MblConfig(),
    seed: int = 0,
    beginners: BeginnerClass = BeginnerClass(),
    weightings: dict[str, "SenseWeighting"] | None = None,
) -> tuple[EvalReport, list[tuple[NPRecord, Label]]]:
    """Seeded k-fold evaluation over the gold-labelled NPs.

    Instances are shuffled once and split into near-equal folds; each fold
    is predicted by a store built from the others, so feature weights never
    see the held-out part.  Returns the pooled report plus per-NP
    predictions in corpus order.
    """
    if folds < 2:
        raise ValueError("folds must be >= 2")
    labelled, features = _labelled_features(docs, enriched, beginners, weightings)
    if len(labelled) < folds:
        raise ValueError(f"{len(labelled)} labelled instances cannot fill {folds} folds")

    table = FeatureTable.of(features)
    rng = default_rng(seed)
    order = rng.permutation(len(labelled))
    predictions: list[Label | None] = [None] * len(labelled)
    for fold_indices in np.array_split(order, folds):
        held_out = np.zeros(len(labelled), dtype=bool)
        held_out[fold_indices] = True
        # the store keeps corpus order, without the held-out rows
        store = InstanceStore(table.take(np.flatnonzero(~held_out)))
        for idx in np.flatnonzero(held_out).tolist():
            predictions[idx] = knn_classify(features[idx], store, config)

    report = score([np_record.gold for np_record in labelled], predictions)
    return report, list(zip(labelled, predictions))
