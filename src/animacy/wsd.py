"""Per-sense weights from information content, for soft sense counting.

Instead of giving every sense of a polysemous noun the same vote, the
senses that plausibly fit the surrounding text get more weight.  For each
pair of nouns that co-occur in a document, the most informative synset
subsuming any sense pair supports, with its information content, every
sense of either noun that it subsumes.  Per-lemma support is normalized to
a distribution; nouns with no pairwise support fall back to uniform
weights.

The common subsumers of all sense pairs of two nouns are the intersection
of the nouns' closure unions, so each noun's union is ranked once per
document by information content, and a noun pair's subsumer is the first
synset of one ranking inside the other union: per document one ancestor
lookup per sense and one sort per noun, per noun pair one partial scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .corpus import Document, iter_nps
from .fileio import read_lines
from .taxonomy import NOUN, Taxonomy


@dataclass(frozen=True)
class ICTable:
    """Information content per synset: -log p, with p estimated from
    propagated occurrence counts plus add-one smoothing."""

    ic: Mapping[str, float]
    counts: Mapping[str, float]

    def of(self, sid: str) -> float:
        return self.ic[sid]


def _ic_from_counts(direct: dict[str, float], taxonomy: Taxonomy) -> ICTable:
    """Propagate direct occurrence counts to every ancestor, smooth, and
    take -log p per part of speech."""
    if len(taxonomy) == 0:
        raise ValueError("cannot build an information-content table for an empty taxonomy")
    raw: dict[str, float] = {}
    for sid, count in direct.items():
        for anc in taxonomy.ancestors(sid, include_self=True):
            raw[anc] = raw.get(anc, 0.0) + count
    smoothed = {sid: raw.get(sid, 0.0) + 1.0 for sid in taxonomy}
    norm = {}
    for pos in ("n", "v"):
        norm[pos] = sum(
            smoothed[root] for root in taxonomy.roots if taxonomy.pos_of(root) == pos
        )
    ic = {}
    for sid in taxonomy:
        pos = taxonomy.pos_of(sid)
        ic[sid] = -math.log(smoothed[sid] / norm[pos]) if norm[pos] > 0 else 0.0
    return ICTable(ic=ic, counts=smoothed)


def information_content(docs: Iterable[Document], taxonomy: Taxonomy) -> ICTable:
    """Estimate information content from a sense-annotated corpus.

    Every NP with a resolvable sense key contributes one occurrence to its
    synset and to each ancestor (once per occurrence).  Gold labels are not
    needed; this is a plain frequency estimate.
    """
    direct: dict[str, float] = {}
    for _, np in iter_nps(docs):
        if np.sense_key is not None and np.sense_key in taxonomy:
            direct[np.sense_key] = direct.get(np.sense_key, 0.0) + 1.0
    return _ic_from_counts(direct, taxonomy)


def load_counts(path, taxonomy: Taxonomy) -> ICTable:
    """Read a COUNT<TAB>synset_id<TAB>value file of direct occurrence counts.

    Counts are propagated to ancestors and smoothed exactly as corpus
    counts would be, so an external frequency source slots in unchanged.
    A value that is not a finite, non-negative number is an error naming
    the file and line.
    """
    direct: dict[str, float] = {}
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
        except ValueError as exc:
            raise ValueError(f"{path} line {lineno}: {exc}") from None
        direct[sid] = direct.get(sid, 0.0) + value
    return _ic_from_counts(direct, taxonomy)


class SenseWeighting:
    """Normalized per-sense weights, keyed by (lemma, synset id).

    Lemmas without stored weights report None, which consumers treat as
    plain unweighted counting.
    """

    def __init__(self, weights: Mapping[tuple[str, str], float]):
        self._weights = dict(weights)

    def weight(self, lemma: str, sid: str) -> float | None:
        return self._weights.get((lemma, sid))

    def for_lemma(self, lemma: str, sense_ids: Iterable[str]) -> dict[str, float] | None:
        out = {}
        for sid in sense_ids:
            w = self._weights.get((lemma, sid))
            if w is None:
                return None
            out[sid] = w
        return out if out else None


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
    lemmas = sorted({x for x in nouns if taxonomy.senses(x, NOUN)})
    ic_of = ic.ic
    # per lemma: (sense, strict ancestors) in sense order, the union U of the
    # sense closures, U ranked by descending IC (ties by id), and the support
    closures, unions, ranked, support = {}, {}, {}, {}
    for lemma in lemmas:
        senses = tuple(
            (sid, taxonomy.ancestors(sid)) for sid in taxonomy.senses(lemma, NOUN)
        )
        closures[lemma] = senses
        unions[lemma] = {sid for sid, _ in senses}.union(*(anc for _, anc in senses))
        ranked[lemma] = sorted(unions[lemma], key=lambda sid: (-ic_of[sid], sid))
        support[lemma] = {sid: 0.0 for sid, _ in senses}

    for i, lemma_a in enumerate(lemmas):
        ranked_a = ranked[lemma_a]
        for lemma_b in lemmas[i + 1:]:
            # the common subsumers of all sense pairs are exactly U_a & U_b,
            # so the best one is the first of ranked_a that lies in U_b
            union_b = unions[lemma_b]
            for subsumer in ranked_a:
                if subsumer in union_b:
                    break
            else:
                continue
            value = ic_of[subsumer]
            for lemma in (lemma_a, lemma_b):
                per_sense = support[lemma]
                for sid, anc in closures[lemma]:
                    if sid == subsumer or subsumer in anc:
                        per_sense[sid] += value

    weights: dict[tuple[str, str], float] = {}
    for lemma in lemmas:
        per_sense = support[lemma]
        total = sum(per_sense.values())
        if total > 0.0:
            for sid, value in per_sense.items():
                weights[(lemma, sid)] = value / total
        else:
            share = 1.0 / len(per_sense)
            for sid in per_sense:
                weights[(lemma, sid)] = share
    return SenseWeighting(weights)


def document_weights(doc: Document, taxonomy: Taxonomy, ic: ICTable) -> SenseWeighting:
    """Disambiguation weights over the head lemmas of one document."""
    return disambiguation_weights(
        {np.head_lemma for np in doc.nps}, taxonomy, ic
    )

