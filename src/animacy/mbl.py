"""Memory-based animacy classification.

Training stores labelled feature vectors as-is; classification compares a
query against every stored instance with a feature-weighted overlap
distance and lets the nearest neighbours vote.  Feature weights are gain
ratios computed from the training instances alone.  `k` counts nearest
*distances*: every instance tied at an included distance joins the vote.

Instances and queries are rows of a `FeatureTable` read from the NP
columns, with no record or instance built per NP; one query costs a
dozen vector operations over the whole store.  A query's lemma code is
the store's: cross-validation queries the held-out rows of the one table
that its fold stores are row slices of, and `classify` codes the test
rows through the training store's `lemma_ids`.  The vector arithmetic
follows the scalar order of operations, so weights, distances and vote
sums, and with them every exact tie, are the same bit for bit.

The instance encodes the head lemma, the lemma's animate and inanimate
sense counts under the enriched taxonomy, the same pair for the governing
verb of subjects (zero otherwise), and the document's animate pronoun
ratio.  The senses' animacy comes from the enriched taxonomy's
`SenseTable` for one beginner class (`EnrichedTaxonomy.sense_table`), a
column over the synsets.  `sense_masses` reads a corpus's plain counts
from it once per distinct lemma and gathers them to the NP rows; only
weighted masses (`--wsd`) are summed per NP, one document at a time.  The
rules read their masses from the same columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from numpy.random import default_rng

from . import wsd
from .corpus import Document, Label, NPRecord, np_columns, pronoun_ratio
from .evaluation import EvalReport, score
from .taxonomy import NOUN, VERB, SenseTable

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


@dataclass(frozen=True)
class MblConfig:
    k: int = 3

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


def lemma_mass(lemma: str, pos: str, table: SenseTable, weighting=None) -> tuple:
    """The sense count, plain (animate, inanimate) counts and weighted
    masses (None unless the weighting covers every sense) of `lemma`."""
    senses = table.senses(lemma, pos)
    weights = None if weighting is None else weighting.for_lemma(lemma, senses)
    return (len(senses), table.mass(lemma, pos),
            None if weights is None else table.mass(lemma, pos, weights))


def np_masses(lemma: str, verb: str | None, table: SenseTable, weighting=None) -> tuple:
    """The head noun's `lemma_mass`, then the plain counts of the governing
    verb `verb` (a subject's, else None: zeros).  Document weights cover
    noun senses only, and synset ids are unique across parts of speech, so
    a verb always counts plainly."""
    total, counts, weighted = lemma_mass(lemma, NOUN, table, weighting)
    return total, counts, weighted, (0.0, 0.0) if verb is None else table.mass(verb, VERB)


class SenseMasses(NamedTuple):
    """The sense masses of a corpus's NPs as columns, entry i for NP i in
    corpus order."""

    ratio: np.ndarray  # the document's pronoun ratio
    senses: np.ndarray  # the head noun's sense count
    noun: np.ndarray  # 2 x n: the head noun's plain animate, inanimate counts
    # the head noun's weighted masses, None where the document's weights
    # miss the lemma; the column itself is None without weights
    weighted: list[tuple[float, float] | None] | None
    verb: np.ndarray  # 2 x n: a subject's verb's plain counts, else zeros


def _row_counts(lemmas: Sequence[str | None], pos: str, table: SenseTable) -> np.ndarray:
    """`SenseTable.counts` of each row's lemma under `pos` (zeros for
    None), read once per distinct lemma and gathered to the rows."""
    code = {None: 0}
    rows = np.array([code.setdefault(lemma, len(code)) for lemma in lemmas], np.int64)
    counts = np.zeros((3, len(code)))
    counts[:, 1:] = table.counts(list(code)[1:], pos)
    return counts[:, rows]


def sense_masses(docs: Sequence[Document], table: SenseTable,
                 ic: "wsd.ICTable | None" = None) -> SenseMasses:
    """The `SenseMasses` of `docs`' NPs under `table`, read from the NP
    columns.  Document weights cover noun senses only, and synset ids are
    unique across parts of speech, so a verb always counts plainly.  Given
    `ic`, each document is weighed just before its NPs' weighted masses
    are summed, and dropped after them."""
    columns, counts = np_columns(docs)
    heads = columns.head_lemma
    noun = _row_counts(heads, NOUN, table)
    weighted = None
    if ic is not None:
        weighted, start = [], 0
        for doc, count in zip(docs, counts):
            weighting = wsd.document_weights(doc, table.taxonomy, ic)
            weighted += [lemma_mass(heads[i], NOUN, table, weighting)[2]
                         for i in range(start, start + count)]
            start += count
    ratio = np.repeat(np.array([pronoun_ratio(doc) for doc in docs], np.float64), counts)
    return SenseMasses(ratio, noun[0], noun[1:], weighted,
                       _row_counts(columns.verb_lemma, VERB, table)[1:])


def _head_pair(lemma: str, senses: float, counts, weighted, table: SenseTable, weighing: bool):
    """The head-noun pair of a lemma with `senses` senses, under weights
    if `weighing`."""
    if not senses:
        return 0.0, 0.0
    if weighted is None and weighing:
        # a lemma without stored weights takes uniform shares, so its
        # counts stay on the scale of the weighted ones
        ids = table.senses(lemma, NOUN)
        return table.mass(lemma, NOUN, dict.fromkeys(ids, 1.0 / senses))
    return weighted or counts


def extract_features(
    np_record: NPRecord,
    doc: Document,
    senses: SenseTable,
    weighting: "wsd.SenseWeighting | None" = None,
) -> FeatureVector:
    """Build the instance for one NP occurrence, its senses judged by an
    enriched taxonomy's `senses` table.

    Out-of-vocabulary heads get zero sense counts and a marker lemma.
    Verb counts apply to subjects with a known governing verb only.
    """
    head = np_record.head_lemma
    total, counts, weighted, verb = np_masses(head, np_record.verb_lemma, senses, weighting)
    noun = _head_pair(head, total, counts, weighted, senses, weighting is not None)
    return FeatureVector(head if total else OOV_LEMMA, *noun, *verb, pronoun_ratio(doc),
                         np_record.gold)


@dataclass(frozen=True, eq=False)
class FeatureTable:
    """Instances or queries as columns: int64 lemma codes (`lemma_ids`
    maps each lemma to its code, -1 for one it lacks), the 5 x n float64
    numeric block and int8 codes into `LABELS` (-1: no label).  Row slices
    share the whole table's lemma codes, so a lemma that a slice lacks has
    a code that no row of the slice holds.
    """

    lemma_ids: dict[str, int]
    codes: np.ndarray
    numeric: np.ndarray
    labels: np.ndarray

    @classmethod
    def of_columns(cls, lemmas: list[str], numeric: np.ndarray,
                   labels: list[Label | None],
                   lemma_ids: dict[str, int] | None = None) -> "FeatureTable":
        """The table of rows given as a lemma, a column of the 5 x n
        numeric block and a label (or None) each.  Lemmas get codes of
        their own, or those of `lemma_ids` if given."""
        if lemma_ids is None:
            lemma_ids = {}
            codes = [lemma_ids.setdefault(lemma, len(lemma_ids)) for lemma in lemmas]
        else:
            codes = [lemma_ids.get(lemma, -1) for lemma in lemmas]
        block = np.asarray(numeric, dtype=np.float64).reshape(len(_NUMERIC), len(codes))
        return cls(lemma_ids, np.array(codes, dtype=np.int64), np.ascontiguousarray(block),
                   np.array([-1 if label is None else LABELS.index(label) for label in labels],
                            dtype=np.int8))

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
    instances are held as the rows of their `FeatureTable`, in store order,
    every row labelled, with one boolean mask per label.
    """

    def __init__(self, table: FeatureTable):
        if not len(table.codes):
            raise ValueError("instance store cannot be empty")
        if (table.labels < 0).any():
            raise ValueError("training instances need labels")
        self.table = table
        self.weights = gain_ratio_weights(table)
        self.ranges = [(float(col.min()), float(col.max())) for col in table.numeric]
        self.label_masks = {
            LABELS[code]: table.labels == code for code in np.unique(table.labels).tolist()
        }


def knn_classify(
    queries: FeatureTable,
    row: int,
    store: InstanceStore,
    config: MblConfig = MblConfig(),
) -> Label:
    """Vote of the nearest stored instances on row `row` of `queries`,
    whose lemma codes are those of the store's table.

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
    if queries.lemma_ids is not table.lemma_ids:
        raise ValueError("query rows must be coded through the store's lemma_ids")
    distances = weights[0] * (table.codes != queries.codes[row])
    for idx, value in enumerate(queries.numeric[:, row].tolist()):
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


def feature_table(
    docs: Sequence[Document],
    senses: SenseTable,
    ic: "wsd.ICTable | None" = None,
    lemma_ids: dict[str, int] | None = None,
) -> FeatureTable:
    """The rows of `docs`' NPs in corpus order under the sense table
    `senses`, weighted by `ic` if given (see `sense_masses`).  These are
    the gold-labelled NPs with lemma codes of their own, or, given a
    store's `lemma_ids`, every NP coded through them.  The NPs are read
    from their columns, with no `NPRecord` or `FeatureVector` per NP."""
    columns, _ = np_columns(docs)
    masses = sense_masses(docs, senses, ic)
    heads, gold, known = columns.head_lemma, columns.gold, masses.senses.tolist()
    noun = masses.noun
    if ic is not None:
        noun = np.array([_head_pair(head, total, counts, weighted, senses, True)
                         for head, total, counts, weighted
                         in zip(heads, known, noun.T.tolist(), masses.weighted)],
                        np.float64).reshape(-1, 2).T
    rows = [i for i, label in enumerate(gold) if lemma_ids is not None or label is not None]
    block = np.concatenate([noun, masses.verb, masses.ratio[None]]).take(rows, axis=1)
    return FeatureTable.of_columns([heads[i] if known[i] else OOV_LEMMA for i in rows], block,
                                   [gold[i] for i in rows], lemma_ids)


def build_store(
    docs: Iterable[Document],
    senses: SenseTable,
    ic: "wsd.ICTable | None" = None,
) -> InstanceStore:
    """Training store over every gold-labelled NP of a corpus."""
    return InstanceStore(feature_table(list(docs), senses, ic))


def cross_validate(
    docs: Sequence[Document],
    senses: SenseTable,
    folds: int = 10,
    config: MblConfig = MblConfig(),
    seed: int = 0,
    ic: "wsd.ICTable | None" = None,
) -> tuple[EvalReport, list[Label]]:
    """Seeded k-fold evaluation over the gold-labelled NPs, weighted by `ic` if given.

    Instances are shuffled once and split into near-equal folds; each fold
    is predicted by a store built from the others, so feature weights never
    see the held-out part.  Returns the pooled report and the predicted
    labels of the gold-labelled NPs, in corpus order.
    """
    if folds < 2:
        raise ValueError("folds must be >= 2")
    table = feature_table(docs, senses, ic)
    total = len(table.codes)
    if total < folds:
        raise ValueError(f"{total} labelled instances cannot fill {folds} folds")

    order = default_rng(seed).permutation(total)
    predictions: list[Label | None] = [None] * total
    for fold_indices in np.array_split(order, folds):
        held_out = np.zeros(total, dtype=bool)
        held_out[fold_indices] = True
        # the store keeps corpus order, without the held-out rows
        store = InstanceStore(table.take(np.flatnonzero(~held_out)))
        for idx in np.flatnonzero(held_out).tolist():
            predictions[idx] = knn_classify(table, idx, store, config)

    report = score([LABELS[code] for code in table.labels.tolist()], predictions)
    return report, predictions
