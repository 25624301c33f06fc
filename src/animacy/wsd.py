"""Per-sense weights from information content, for soft sense counting.

Instead of giving every sense of a polysemous noun the same vote, the
senses that plausibly fit the surrounding text get more weight.  For each
pair of nouns that co-occur in a document, the most informative synset
subsuming any sense pair supports, with its information content, every
sense of either noun that it subsumes.  Per-lemma support is normalized to
a distribution; nouns with no pairwise support fall back to uniform
weights.

Information content is a float column over the taxonomy.  Its counts and
the noun sense closures to be weighed come from one level-wise pass up
the hypernym columns (`taxonomy.closure_pairs`): once for the counts, and
once per batch of lemmas not yet held (`ICTable.prepare`), so each
lemma's closures are built once.

The common subsumers of all sense pairs of two nouns are the keys shared
by the unions of their sense closures, and the pair's subsumer is the
shared key of smallest (-IC, id) rank.  Per document, the shared keys are
ranked once, and each sense's closure and each noun's union become rows
of bits packed into 64-bit words in rank order: a noun pair's subsumer is
the lowest set bit of the first nonzero word of the AND of its rows.  A
sense's support is its row of hits over the other nouns, in lemma order,
summed left to right from 0.0, which are the additions of a loop over the
noun pairs, so the weights are that loop's bit for bit.  The pairs are
searched and summed for a block of nouns at a time, each block holding at
most about `BLOCK_WORDS` elements, so a document needs memory for its
packed rows and closures only, not for its noun pairs.
"""

from __future__ import annotations

import math
import re
import sys
from typing import Collection, Iterable, Mapping

import numpy as np

from .corpus import Document, np_columns
from .fileio import read_lines
from .taxonomy import NOUN, VERB, Taxonomy, _distinct, closure_pairs

# the most words (or floats) one block of noun pairs may hold
BLOCK_WORDS = 1 << 16


class ICTable:
    """Information content per synset of one taxonomy: -log p, with p
    estimated from propagated occurrence counts plus add-one smoothing.

    The propagated counts and the IC are float columns in taxonomy order;
    `of` reads the IC of a synset.  Each lemma's noun sense closures, as
    synset positions, are held once `prepare` (or `disambiguation_weights`)
    has asked for the lemma, so they are built once per lemma, not once per
    document.
    """

    def __init__(self, direct: Mapping[str, float], taxonomy: Taxonomy):
        # propagate direct occurrence counts to every ancestor and sum the
        # smoothed root counts per part of speech
        if len(taxonomy) == 0:
            raise ValueError("cannot build an information-content table for an empty taxonomy")
        index, n = taxonomy._index, len(taxonomy)
        start = np.fromiter(map(index.__getitem__, direct), np.int64, len(direct))
        owner, node = closure_pairs(taxonomy, np.arange(len(direct)), start)
        # `bincount` adds in pair order, which is `direct`'s key order per
        # synset, so each sum is the one a loop over `direct` would make
        count = np.fromiter(direct.values(), np.float64, len(direct))
        raw = np.bincount(node, count[owner], n)
        smoothed = raw + 1.0
        roots = [index[root] for root in taxonomy.roots]
        norm = {
            pos: sum(value for i, value in zip(roots, smoothed[roots].tolist())
                     if taxonomy._pos[i] == pos)
            for pos in (NOUN, VERB)
        }
        # every synset lies below a root of its own pos, so its norm is at
        # least its own smoothed count: p is in (0, 1]
        pos = np.frombuffer(taxonomy._pos.encode("ascii"), np.uint8)
        p = smoothed / np.where(pos == ord(NOUN), norm[NOUN], norm[VERB])
        # `math.log` per distinct p: numpy's log may differ in the last bit
        values, inverse = np.unique(p, return_inverse=True)
        self.taxonomy = taxonomy
        self._raw = raw
        self._ic = np.array([-math.log(x) for x in values.tolist()])[inverse]
        # lemma -> (noun senses, their closures' positions concatenated in
        # sense order, the closure sizes)
        self._closures: dict[str, tuple[tuple[str, ...], np.ndarray, np.ndarray]] = {}

    def of(self, sid: str) -> float:
        return float(self._ic[self.taxonomy._position(sid)])

    def prepare(self, lemmas: Iterable[str]) -> None:
        """Build the noun sense closures of the lemmas not held yet, in one
        pass up the hypernym columns, and hold them."""
        taxonomy, held = self.taxonomy, self._closures
        new = [(lemma, senses) for lemma in dict.fromkeys(lemmas) if lemma not in held
               for senses in (taxonomy.senses(lemma, NOUN),) if senses]
        if not new:
            return
        index = taxonomy._index
        start = np.array([index[sid] for _, senses in new for sid in senses], np.int64)
        owner, node = closure_pairs(taxonomy, np.arange(start.size), start)
        bounds = np.searchsorted(owner, np.arange(start.size + 1))
        sizes = np.diff(bounds)
        first = 0
        for lemma, senses in new:
            last = first + len(senses)
            held[lemma] = (senses, node[bounds[first]:bounds[last]], sizes[first:last])
            first = last


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
    ic.prepare(lemmas)
    entries = [ic._closures[lemma] for lemma in lemmas]
    support = _support(entries, ic)
    weights, first = {}, 0
    for lemma, (senses, _, _) in zip(lemmas, entries):
        last = first + len(senses)
        values = support[first:last]
        first = last
        total = sum(values)
        weights[lemma] = (dict(zip(senses, [value / total for value in values]))
                          if total > 0.0 else dict.fromkeys(senses, 1.0 / len(senses)))
    return SenseWeighting(weights)


def _support(entries: list, ic: ICTable) -> list[float]:
    """Each sense's summed support, in lemma and then sense order, over the
    lemmas' entries of `ic._closures` (lemmas in ascending order)."""
    counts = [len(senses) for senses, _, _ in entries]
    if len(counts) < 2:
        return [0.0] * sum(counts)
    nodes = np.concatenate([closures for _, closures, _ in entries])
    row = np.repeat(np.arange(sum(counts)), np.concatenate([sizes for _, _, sizes in entries]))
    lemma_of = np.repeat(np.arange(len(entries)), counts)

    # only a key in the unions of two lemmas can subsume a pair
    keys = _distinct(nodes)
    at = np.searchsorted(keys, nodes)
    in_unions = _distinct(lemma_of[row] * keys.size + at) % keys.size
    shared = np.flatnonzero(np.bincount(in_unions, minlength=keys.size) > 1)
    if not shared.size:
        return [0.0] * len(lemma_of)
    # rank the shared keys by (-IC, id), ids in `str` order; a numpy string
    # array drops trailing NULs, so ids holding a NUL are sorted in Python
    ic_of = ic._ic[keys[shared]]
    ids = ic.taxonomy._ids
    names = [ids[key] for key in keys[shared].tolist()]
    if "\x00" in "".join(names):
        minus = (-ic_of).tolist()
        order = np.array(sorted(range(len(names)), key=lambda k: (minus[k], names[k])), np.intp)
    else:
        order = np.lexsort((np.array(names), -ic_of))
    rank = np.full(keys.size, -1)
    rank[shared[order]] = np.arange(shared.size)
    value = ic_of[order]

    # each sense's closure and each lemma's union as rows of packed bits,
    # bit r of a row set when it holds the key of rank r
    nwords = (shared.size + 63) // 64
    rank_at = rank[at]
    kept = rank_at >= 0
    row, rank_at = row[kept], rank_at[kept]
    senses = np.zeros((len(lemma_of), nwords), np.uint64)
    np.bitwise_or.at(senses, (row, rank_at >> 6),
                     np.left_shift(np.uint64(1), (rank_at & 63).astype(np.uint64)))
    bounds = np.cumsum([0] + counts)
    unions = np.bitwise_or.reduceat(senses, bounds[:-1], axis=0)

    # per block of lemmas: the rank of each pair's subsumer with every
    # lemma, then each sense's hits over the other lemmas in lemma order,
    # summed left to right after a leading 0.0, as a loop over the pairs
    # would add them
    n, support = len(entries), np.empty(len(lemma_of))
    # a block's words, and its senses' terms, each stay within the budget
    step = max(1, BLOCK_WORDS // (n * max(nwords, *counts)))
    for start in range(0, n, step):
        stop = min(n, start + step)
        ranks = _subsumers(unions[start:stop], unions)
        # a lemma is not its own pair
        ranks[np.arange(stop - start), np.arange(start, stop)] = -1
        first, last = bounds[start], bounds[stop]
        r = ranks[lemma_of[first:last] - start]
        word = senses[np.arange(first, last)[:, None], r >> 6]
        hit = (word >> (r & 63).astype(np.uint64)) & np.uint64(1)
        terms = np.zeros((last - first, n + 1))
        np.copyto(terms[:, 1:], value[r], where=(r >= 0) & (hit != 0))
        support[first:last] = np.cumsum(terms, axis=1)[:, -1]
    return support.tolist()


def _subsumers(rows: np.ndarray, unions: np.ndarray) -> np.ndarray:
    """The rank of the first key each of `rows` shares with each lemma's
    packed union row, or -1 where they share none."""
    both = (rows[:, None, :] & unions[None, :, :]).reshape(-1, unions.shape[1])
    first = (both != 0).argmax(axis=1)
    word = both[np.arange(len(both)), first]
    # the lowest set bit, a power of two, which float64 holds exactly
    low = word & (~word + np.uint64(1))
    bit = np.frexp(low.astype(np.float64))[1] - 1
    return np.where(word != 0, first * 64 + bit, -1).reshape(len(rows), len(unions))


def document_weights(doc: Document, taxonomy: Taxonomy, ic: ICTable) -> SenseWeighting:
    """Disambiguation weights over the head lemmas of one document."""
    return disambiguation_weights(set(np_columns([doc])[0].head_lemma), taxonomy, ic)

