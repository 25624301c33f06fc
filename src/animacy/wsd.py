"""Per-sense weights from information content, for soft sense counting.

Instead of giving every sense of a polysemous noun the same vote, the
senses that plausibly fit the surrounding text get more weight.  For each
pair of nouns that co-occur in a document, the most informative synset
subsuming any sense pair supports, with its information content, every
sense of either noun that it subsumes.  Per-lemma support is normalized to
a distribution; nouns with no pairwise support fall back to uniform
weights.

The common subsumers of all sense pairs of two nouns are the intersection
of the nouns' closure unions.  The IC table memoizes, per lemma, each noun
sense's closure and their union as sets of (-IC, id) rank keys, so a noun
pair's subsumer is the smallest key the two unions share and a sense gets
support when its closure holds that key.  Closures are built once per
lemma for the table's lifetime; per document only the noun pairs are
visited, each with one set intersection.
"""

from __future__ import annotations

import math
import re
import sys
from typing import Collection, Iterable, Mapping

from .corpus import Document, np_columns
from .fileio import read_lines
from .taxonomy import NOUN, VERB, Taxonomy


class ICTable:
    """Information content per synset of one taxonomy: -log p, with p
    estimated from propagated occurrence counts plus add-one smoothing.

    Only the propagated counts and the per-pos norms are stored; `of`
    evaluates a synset's IC on demand.  Each lemma's noun sense closures,
    as frozensets of (-IC, id) rank keys, and their union are memoized on
    first use, so they are built once per lemma, not once per document.
    """

    def __init__(self, direct: Mapping[str, float], taxonomy: Taxonomy):
        # propagate direct occurrence counts to every ancestor and sum the
        # smoothed root counts per part of speech
        if len(taxonomy) == 0:
            raise ValueError("cannot build an information-content table for an empty taxonomy")
        raw: dict[str, float] = {}
        for sid, count in direct.items():
            for anc in taxonomy.ancestors(sid, include_self=True):
                raw[anc] = raw.get(anc, 0.0) + count
        self.taxonomy = taxonomy
        self._raw = raw
        self._norm = {
            pos: sum(raw.get(root, 0.0) + 1.0
                     for root in taxonomy.roots if taxonomy.pos_of(root) == pos)
            for pos in (NOUN, VERB)
        }
        self._keys: dict[str, tuple[float, str]] = {}
        self._lemmas: dict[str, tuple[tuple[tuple[str, frozenset], ...], frozenset]] = {}

    def of(self, sid: str) -> float:
        norm = self._norm[self.taxonomy.pos_of(sid)]
        return -math.log((self._raw.get(sid, 0.0) + 1.0) / norm) if norm > 0 else 0.0

    @property
    def ic(self) -> dict[str, float]:
        return {sid: self.of(sid) for sid in self.taxonomy}

    @property
    def counts(self) -> dict[str, float]:
        return {sid: self._raw.get(sid, 0.0) + 1.0 for sid in self.taxonomy}

    def _closures(self, lemma: str) -> tuple[tuple[tuple[str, frozenset], ...], frozenset]:
        """(sense, closure keys) per noun sense of `lemma`, in sense order,
        and the union of those closures; memoized per lemma."""
        entry = self._lemmas.get(lemma)
        if entry is None:
            keys, taxonomy = self._keys, self.taxonomy
            senses = []
            for sid in taxonomy.senses(lemma, NOUN):
                closure = []
                for node in (sid, *taxonomy.ancestors(sid)):
                    key = keys.get(node)
                    if key is None:
                        key = keys[node] = (-self.of(node), node)
                    closure.append(key)
                senses.append((sid, frozenset(closure)))
            union = frozenset().union(*(closure for _, closure in senses))
            entry = self._lemmas[lemma] = (tuple(senses), union)
        return entry


def information_content(docs: Iterable[Document], taxonomy: Taxonomy) -> ICTable:
    """Estimate information content from a sense-annotated corpus.

    Every NP with a resolvable sense key contributes one occurrence to its
    synset and to each ancestor (once per occurrence).  Gold labels are not
    needed; this is a plain frequency estimate.
    """
    direct: dict[str, float] = {}
    for sense in np_columns(docs)[0].sense_key:
        if sense is not None and sense in taxonomy:
            direct[sense] = direct.get(sense, 0.0) + 1.0
    return ICTable(direct, taxonomy)


# a COUNT value; `float` alone would also take "+2", " 2 " and "1_0"
_DECIMAL = re.compile(r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")


def load_counts(path, taxonomy: Taxonomy) -> ICTable:
    """Read a COUNT<TAB>synset_id<TAB>value file of direct occurrence counts.

    Counts are propagated to ancestors and smoothed exactly as corpus
    counts would be, so an external frequency source slots in unchanged.
    A value that is not a finite unsigned decimal number (digits, an
    optional fraction and exponent) is an error naming the file and line,
    and so is a value that takes the sum of all counts so high that a
    root's smoothed count could overflow.
    """
    direct: dict[str, float] = {}
    total, bound = 0.0, sys.float_info.max / (len(taxonomy.roots) + 1)
    for lineno, line in read_lines(path):
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        try:
            if len(fields) != 3 or fields[0] != "COUNT":
                raise ValueError("expected COUNT<TAB>id<TAB>value")
            sid, value = fields[1], float(fields[2])
            if sid not in taxonomy:
                raise ValueError(f"unknown synset {sid}")
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"count must be finite and >= 0, got {fields[2]!r}")
            if not _DECIMAL.fullmatch(fields[2]):
                raise ValueError(f"count must be an unsigned decimal number, got {fields[2]!r}")
            total += value
            if total > bound:
                raise ValueError("the counts sum past the float range")
        except ValueError as exc:
            raise ValueError(f"{path} line {lineno}: {exc}") from None
        direct[sid] = direct.get(sid, 0.0) + value
    return ICTable(direct, taxonomy)


class SenseWeighting:
    """Normalized per-sense weights: one map of synset id to weight per
    lemma, kept as given and read without copying.

    Lemmas without stored weights report None, which consumers treat as
    plain unweighted counting.
    """

    def __init__(self, weights: Mapping[str, Mapping[str, float]]):
        self._weights = weights

    def weight(self, lemma: str, sid: str) -> float | None:
        return self._weights.get(lemma, {}).get(sid)

    def for_lemma(self, lemma: str, sense_ids: Collection[str]) -> Mapping[str, float] | None:
        """The lemma's weight map if it weighs every one of `sense_ids`
        (at least one), else None.  The map is shared: do not change it."""
        weights = self._weights.get(lemma)
        if weights is None or not sense_ids or any(sid not in weights for sid in sense_ids):
            return None
        return weights


def disambiguation_weights(
    nouns: Iterable[str],
    taxonomy: Taxonomy,
    ic: ICTable,
) -> SenseWeighting:
    """Weights for the senses of a document's nouns.

    The input is treated as a set; lemmas absent from the taxonomy are
    ignored.  Monosemous lemmas end up with weight 1 on their only sense,
    and a single-noun document yields uniform weights throughout.
    """
    if ic.taxonomy is not taxonomy:
        raise ValueError("information-content table was built from another taxonomy")
    lemmas = sorted({x for x in nouns if taxonomy.senses(x, NOUN)})
    # per lemma: (sense, closure keys) in sense order and their union U
    closures, unions, support = {}, {}, {}
    for lemma in lemmas:
        closures[lemma], unions[lemma] = ic._closures(lemma)
        support[lemma] = {sid: 0.0 for sid, _ in closures[lemma]}

    for i, lemma_a in enumerate(lemmas):
        union_a = unions[lemma_a]
        for lemma_b in lemmas[i + 1:]:
            # the common subsumers of all sense pairs are exactly U_a & U_b,
            # and the best one has the smallest (-IC, id) key
            common = union_a & unions[lemma_b]
            if not common:
                continue
            subsumer = min(common)
            value = -subsumer[0]  # negation is exact: the subsumer's IC
            for lemma in (lemma_a, lemma_b):
                per_sense = support[lemma]
                for sid, closure in closures[lemma]:
                    if subsumer in closure:
                        per_sense[sid] += value

    # normalize in place: the per-lemma maps become the weighting
    for per_sense in support.values():
        total = sum(per_sense.values())
        for sid, value in per_sense.items():
            per_sense[sid] = value / total if total > 0.0 else 1.0 / len(per_sense)
    return SenseWeighting(support)


def document_weights(doc: Document, taxonomy: Taxonomy, ic: ICTable) -> SenseWeighting:
    """Disambiguation weights over the head lemmas of one document."""
    return disambiguation_weights(set(np_columns([doc])[0].head_lemma), taxonomy, ic)

