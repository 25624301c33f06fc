"""Memory-based animacy classification.

Training stores labelled feature vectors as-is; classification compares a
query against every stored instance with a feature-weighted overlap
distance and lets the nearest neighbours vote.  Feature weights are gain
ratios computed from the training instances alone.  `k` counts nearest
*distances*: every instance tied at an included distance joins the vote.

The store keeps its instances as numpy columns, so one query costs a
dozen vector operations over the whole store rather than a Python loop
per instance; 10-fold cross-validation over 19.7k labelled NPs takes
seconds.  The vector arithmetic follows the scalar order of operations,
so distances and vote sums, and with them every exact tie, are the same
bit for bit.

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

from .corpus import Document, Label, NPRecord, iter_nps
from .enrichment import EnrichedTaxonomy
from .evaluation import EvalReport, score
from .taxonomy import NOUN, VERB, BeginnerClass, sense_mass

if TYPE_CHECKING:
    from .wsd import SenseWeighting

OOV_LEMMA = "<oov>"

_NUMERIC = ("animate_senses", "inanimate_senses", "verb_animate",
            "verb_inanimate", "pronoun_ratio")


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
    from .corpus import pronoun_ratio

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


def _entropy(counts: dict) -> float:
    total = sum(counts.values())
    if total == 0:
        return 0.0
    h = 0.0
    for n in counts.values():
        if n:
            p = n / total
            h -= p * math.log2(p)
    return h


def _discretize(feature: str, value) -> object:
    # the pronoun ratio is continuous; ten equal buckets make it countable
    if feature == "pronoun_ratio":
        return min(int(value * 10), 9)
    return value


def gain_ratio_weights(instances: Sequence[FeatureVector]) -> tuple[float, ...]:
    """Gain ratio of each feature against the labels, lemma first.

    Numeric feature values act as discrete symbols here (the distance
    treats them numerically).  A feature constant across the instances has
    zero split information and gets weight 0; a single-class instance set
    yields all zeros.
    """
    labels = [inst.label for inst in instances]
    class_entropy = _entropy(_tally(labels))
    weights = []
    for feature in ("lemma",) + _NUMERIC:
        by_value: dict[object, dict] = {}
        for inst in instances:
            value = _discretize(feature, getattr(inst, feature))
            by_value.setdefault(value, {}).setdefault(inst.label, 0)
            by_value[value][inst.label] += 1
        total = len(instances)
        conditional = 0.0
        split_info = 0.0
        for group in by_value.values():
            size = sum(group.values())
            p = size / total
            conditional += p * _entropy(group)
            split_info -= p * math.log2(p)
        gain = max(class_entropy - conditional, 0.0)
        weights.append(gain / split_info if split_info > 0 else 0.0)
    return tuple(weights)


def _tally(values) -> dict:
    out: dict = {}
    for v in values:
        out[v] = out.get(v, 0) + 1
    return out


class InstanceStore:
    """Immutable training memory: instances, weights and numeric ranges.

    Weights and the per-feature value ranges used for distance scaling
    come from the stored instances only, never from queries.  The
    instances are also held column-wise as arrays: lemma ids, the raw
    numeric columns and one boolean mask per label, all in store order.
    """

    def __init__(self, instances: Iterable[FeatureVector]):
        self.instances = tuple(instances)
        if not self.instances:
            raise ValueError("instance store cannot be empty")
        for inst in self.instances:
            if inst.label is None:
                raise ValueError("training instances need labels")
        self.weights = gain_ratio_weights(self.instances)
        self.lemma_ids: dict[str, int] = {}
        self.ids = np.array(
            [self.lemma_ids.setdefault(inst.lemma, len(self.lemma_ids))
             for inst in self.instances],
            dtype=np.int64,
        )
        self.columns = np.array(
            [inst.numeric() for inst in self.instances], dtype=np.float64
        ).T.copy()
        self.ranges = [(float(col.min()), float(col.max())) for col in self.columns]
        labels = np.array([inst.label.value for inst in self.instances])
        self.label_masks = {
            label: labels == label.value
            for label in sorted({inst.label for inst in self.instances})
        }


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
    weights = store.weights
    qid = store.lemma_ids.get(query.lemma, -1)
    distances = weights[0] * (store.ids != qid)
    for idx, value in enumerate(query.numeric()):
        lo, hi = store.ranges[idx]
        span = hi - lo
        if span > 0:
            distances += weights[idx + 1] * (
                np.abs(value - store.columns[idx]) / span
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


def build_store(
    docs: Iterable[Document],
    enriched: EnrichedTaxonomy,
    beginners: BeginnerClass = BeginnerClass(),
    weightings: dict[str, "SenseWeighting"] | None = None,
) -> InstanceStore:
    """Training store over every gold-labelled NP of a corpus."""
    instances = []
    for doc, np_record in iter_nps(docs):
        if np_record.gold is None:
            continue
        weighting = weightings.get(doc.doc_id) if weightings else None
        instances.append(
            extract_features(np_record, doc, enriched, beginners, weighting)
        )
    return InstanceStore(instances)


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
    pairs = [(doc, np_record) for doc, np_record in iter_nps(docs)
             if np_record.gold is not None]
    if len(pairs) < folds:
        raise ValueError(f"{len(pairs)} labelled instances cannot fill {folds} folds")

    features = [
        extract_features(
            np_record, doc, enriched, beginners,
            weightings.get(doc.doc_id) if weightings else None,
        )
        for doc, np_record in pairs
    ]
    rng = default_rng(seed)
    order = rng.permutation(len(pairs))
    predictions: list[Label | None] = [None] * len(pairs)
    for fold_indices in np.array_split(order, folds):
        held_out = set(int(i) for i in fold_indices)
        store = InstanceStore(
            fv for idx, fv in enumerate(features) if idx not in held_out
        )
        for idx in sorted(held_out):
            predictions[idx] = knn_classify(features[idx], store, config)

    gold = [np_record.gold for _, np_record in pairs]
    report = score(gold, predictions)
    detailed = [(np_record, predictions[idx]) for idx, (_, np_record) in enumerate(pairs)]
    return report, detailed
