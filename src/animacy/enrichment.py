"""Corpus-driven animacy statuses for every synset of a taxonomy.

Sense-annotated NP occurrences are counted at their synset and at every
hypernym ancestor (once per occurrence, even when diamond structure offers
several paths).  Verb synsets are counted through the gold animacy of the
subjects governed by the verb; with no verb sense annotation available,
each occurrence credits every sense of the verb lemma.  Occurrences are
first tallied per distinct sense key and verb lemma; one level-wise pass
over the taxonomy's hypernym columns then finds every (tally, synset)
pair of the closures, each once, and sums the tallies per synset.

A synset whose observed occurrences are all of one class takes that class
outright.  A synset with mixed evidence is tested with a goodness-of-fit
statistic over its observed hyponyms against two hypotheses: that every
occurrence below it is animate, and the inanimate mirror.  Passing exactly
one test decides the synset; passing neither (or failing the
expected-frequency validity rule) leaves it Undecided, as does having no
observed evidence at all.

Low-frequency hyponyms are merged once per synset, and that one table
gives both statistics.  The merge reads only each cell's total, its id and
which of its counts is zero, never the hypothesis.  It joins only cells
with the same zero count, which add either their total or nothing to a
statistic, so merging leaves both statistics as they were and changes only
the degrees of freedom and the validity, which depend on the totals alone.
"""

from __future__ import annotations

import enum
import math
from functools import lru_cache
from heapq import nsmallest
from typing import Iterable, NamedTuple

import numpy as np

from .corpus import Document, Label, np_columns
from .fileio import read_lines
from .taxonomy import VERB, BeginnerClass, SenseTable, Taxonomy, TaxonomyError, _gather

# Validity rule for the goodness-of-fit test: at most this fraction of
# cells may have an expected frequency below the floor.
LOW_EXPECTED_FLOOR = 5.0
MAX_LOW_EXPECTED_FRACTION = 0.20


class Status(str, enum.Enum):
    ANIMATE = "A"
    INANIMATE = "I"
    UNDECIDED = "U"

    def __str__(self) -> str:
        return self.value


class SynsetCounts:
    """Per-synset animate/inanimate occurrence counts (direct + inherited).

    Two int columns with the same keys: in taxonomy order as
    `accumulate_counts` returns them, else in order of first `add`.
    """

    def __init__(self):
        self._animate: dict[str, int] = {}
        self._inanimate: dict[str, int] = {}

    def add(self, sid: str, animate: bool, amount: int = 1) -> None:
        ani, inani = self._animate, self._inanimate
        ani[sid] = ani.get(sid, 0) + (amount if animate else 0)
        inani[sid] = inani.get(sid, 0) + (0 if animate else amount)

    def animate(self, sid: str) -> int:
        return self._animate.get(sid, 0)

    def inanimate(self, sid: str) -> int:
        return self._inanimate.get(sid, 0)

    def total(self, sid: str) -> int:
        return self._animate.get(sid, 0) + self._inanimate.get(sid, 0)

    def observed_ids(self) -> tuple[str, ...]:
        return tuple(self._animate)


class ChiSquareResult(NamedTuple):
    """The goodness-of-fit statistics of both hypotheses over one merged
    table: all-animate (the sum of inanimate squared over total) and
    all-inanimate (animate squared over total)."""

    animate_statistic: float
    inanimate_statistic: float
    df: int
    valid: bool


def merge_low_frequency(
    children: Iterable[tuple[str, int, int]],
) -> list[tuple[str, int, int]]:
    """Merge similar low-frequency cells until the validity rule is met.

    A cell is one observed hyponym as (id, animate count, inanimate count);
    its total is the expected frequency.  While more than the allowed
    fraction of cells has a total under the floor, the two lowest-total
    similar cells are combined in the place of the earlier one, their ids
    joined by "+".  Two cells are similar when they agree on which count is
    zero.  Each such group ranks its cells by (total, id), and the group
    whose best pair ranks lower merges it (the group without animate counts
    on an exact tie).  Stops as soon as the table complies or no similar
    pair remains.  A negative count or a zero total is a `ValueError`.
    """
    cells = []
    for sid, ani, inani in children:
        if ani < 0 or inani < 0:
            raise ValueError(f"cell {sid}: negative count")
        if ani + inani < 1:
            # such a sense never occurred, so it must not be a cell at all
            raise ValueError(f"cell {sid}: zero total")
        cells.append((sid, ani, inani))
    low = sum(1 for _, ani, inani in cells if ani + inani < LOW_EXPECTED_FLOOR)
    while low and low / len(cells) > MAX_LOW_EXPECTED_FRACTION:
        # each group's two lowest (total, id, index), the cells without
        # animate counts first, so that `min` picks that group on a tie
        pairs = [nsmallest(2, [(ani + inani, sid, i) for i, (sid, ani, inani)
                               in enumerate(cells) if not (ani if no_animate else inani)])
                 for no_animate in (True, False)]
        pairs = [pair for pair in pairs if len(pair) == 2]
        if not pairs:
            break
        (total_a, _, a), (total_b, _, b) = min(
            pairs, key=lambda pair: (*pair[0][:2], *pair[1][:2]))
        low -= ((total_a < LOW_EXPECTED_FLOOR) + (total_b < LOW_EXPECTED_FLOOR)
                - (total_a + total_b < LOW_EXPECTED_FLOOR))
        a, b = sorted((a, b))
        (sid_a, ani_a, inani_a), (sid_b, ani_b, inani_b) = cells[a], cells[b]
        cells[a] = (f"{sid_a}+{sid_b}", ani_a + ani_b, inani_a + inani_b)
        del cells[b]
    return cells


def chi_square(children: Iterable[tuple[str, int, int]]) -> ChiSquareResult:
    """Both hypotheses' statistics over the observed hyponyms, given as
    (id, animate count, inanimate count), after `merge_low_frequency`.

    Validity is a result, not an error: the test is invalid when, even
    after merging, more than 20% of the expected frequencies fall below 5.
    """
    cells = merge_low_frequency(children)
    animate = inanimate = 0.0
    low = 0
    for _, ani, inani in cells:
        total = ani + inani
        animate += inani * inani / total
        inanimate += ani * ani / total
        low += total < LOW_EXPECTED_FLOOR
    valid = not low or low / len(cells) <= MAX_LOW_EXPECTED_FRACTION
    return ChiSquareResult(animate, inanimate, len(cells) - 1, valid)


def _chi2_sf(x: float, df: int, log_gammas: list[tuple[float, float]]) -> float:
    """P(X >= x) for df degrees of freedom: Q(df/2, x/2) in closed form.

    For integer df, Q(df/2, y) is erfc(sqrt(y)) for odd df (0 for even)
    plus the sum of y^a e^-y / G(a+1) over a = df/2 - 1, df/2 - 2, ... down
    to 1/2 or 0.
    Each term is exponentiated from its logarithm, so e^-y cannot underflow
    on its own at large df; `log_gammas` holds the (a, lgamma(a+1)) pairs.
    """
    if x <= 0.0:
        return 1.0
    y = 0.5 * x
    log_y = math.log(y)
    exp = math.exp
    tail = math.erfc(math.sqrt(y)) if df % 2 else 0.0
    return tail + sum([exp(a * log_y - y - log_gamma) for a, log_gamma in log_gammas])


@lru_cache(maxsize=None)
def chi2_critical(df: int, alpha: float = 0.05) -> float:
    """Upper critical value: the x with P(X >= x) = alpha for df degrees of
    freedom, bisected on doubles until the bracket cannot shrink."""
    if df < 1:
        raise ValueError("df must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    half = (df % 2) / 2.0
    log_gammas = [(a, math.lgamma(a + 1.0)) for a in (j + half for j in range(df // 2))]
    lo, hi = 0.0, float(df)
    while _chi2_sf(hi, df, log_gammas) > alpha:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return hi
        if _chi2_sf(mid, df, log_gammas) > alpha:
            lo = mid
        else:
            hi = mid


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of an int array, ascending: `np.unique` by one
    sort, which on ints is several times faster than its hashing path."""
    keys = np.sort(keys)
    first = np.empty(keys.size, bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def accumulate_counts(
    docs: Iterable[Document],
    taxonomy: Taxonomy,
) -> tuple[SynsetCounts, list[tuple[str, int, int, str]]]:
    """Count annotated occurrences into the taxonomy.

    Nouns need both a gold label and a sense key; the key's synset and all
    of its ancestors receive one increment per occurrence.  Subjects with a
    known governing verb additionally credit the union of that verb's
    senses and their ancestors.  Occurrences are tallied per distinct
    sense key and per distinct verb lemma first.  Each tally then owns the
    synsets it credits: one pass up the hypernym columns, level by level,
    collects the (owner, synset) pairs, each once however many paths or
    depths reach it, and the tallies are summed per synset.  Returns the
    counts, observed synsets in taxonomy order, plus a list of skipped
    records whose sense key did not resolve, as (doc, sent, np, sense), in
    corpus order.  The NPs are read from their columns (`np_columns`).
    """
    # [animate, inanimate] occurrences per sense key and per verb lemma
    by_sense: dict[str, list[int]] = {}
    by_verb: dict[str, list[int]] = {}
    skipped: list[tuple[str, int, int, str]] = []
    index, n = taxonomy._index, len(taxonomy)
    columns, _ = np_columns(docs)
    for key, gold, sense, subject, verb in zip(
        columns.keys, columns.gold, columns.sense_key, columns.is_subject,
        columns.verb_lemma,
    ):
        if gold is None:
            continue
        side = gold is not Label.ANIMATE
        if sense is not None:
            if sense in index:
                tally = by_sense.get(sense) or by_sense.setdefault(sense, [0, 0])
                tally[side] += 1
            else:
                skipped.append((*key, sense))
        if subject and verb is not None:
            tally = by_verb.get(verb) or by_verb.setdefault(verb, [0, 0])
            tally[side] += 1

    # owner k is the k-th sense key, then the verb lemmas; each starts at
    # its own synset or at every sense of its lemma
    starts = [[index[key]] for key in by_sense]
    starts += [[index[vid] for vid in taxonomy.senses(lemma, VERB)] for lemma in by_verb]
    tallies = np.array([*by_sense.values(), *by_verb.values()], np.int64).reshape(-1, 2)
    owner = np.repeat(np.arange(len(starts)), [len(nodes) for nodes in starts])
    node = np.array([i for nodes in starts for i in nodes], np.intp)
    up = np.frombuffer(taxonomy._up, np.int64)
    links = np.frombuffer(taxonomy._up_links, np.int64)
    level = _distinct(owner * n + node)
    levels = [level]
    while level.size:
        owner, node = np.divmod(level, n)
        owner = np.repeat(owner, up[node + 1] - up[node])
        level = _distinct(owner * n + _gather(up, links, node))
        levels.append(level)
    # a synset reached at several depths is one pair of its owner
    owner, node = np.divmod(_distinct(np.concatenate(levels)), n)
    # sums of whole numbers in float64 stay exact up to 2**53
    animate = np.bincount(node, tallies[owner, 0], n).astype(np.int64)
    inanimate = np.bincount(node, tallies[owner, 1], n).astype(np.int64)
    observed = np.flatnonzero(animate + inanimate)
    counts = SynsetCounts()
    ids = [taxonomy._ids[i] for i in observed.tolist()]
    counts._animate = dict(zip(ids, animate[observed].tolist()))
    counts._inanimate = dict(zip(ids, inanimate[observed].tolist()))
    return counts, skipped


def classify_node(
    node: str,
    counts: SynsetCounts,
    taxonomy: Taxonomy,
    alpha: float = 0.05,
) -> Status:
    """Status of one synset from the accumulated counts.

    Unanimous observations settle the node directly.  Otherwise the animate
    and inanimate hypotheses are tested over the observed hyponyms; if both
    pass (possible at tiny counts) the larger observed proportion wins and
    an exact tie stays Undecided.
    """
    ani = counts.animate(node)
    inani = counts.inanimate(node)
    if ani == 0 and inani == 0:
        return Status.UNDECIDED
    if inani == 0:
        return Status.ANIMATE
    if ani == 0:
        return Status.INANIMATE

    children = [(child, counts.animate(child), counts.inanimate(child))
                for child in taxonomy.hyponyms(node) if counts.total(child)]
    # one cell, merged or not, leaves no degree of freedom
    if len(children) < 2:
        return Status.UNDECIDED
    result = chi_square(children)
    if not result.valid or result.df < 1:
        return Status.UNDECIDED
    critical = chi2_critical(result.df, alpha)
    animate_ok = result.animate_statistic < critical
    inanimate_ok = result.inanimate_statistic < critical
    if animate_ok and inanimate_ok:
        if ani > inani:
            return Status.ANIMATE
        if inani > ani:
            return Status.INANIMATE
        return Status.UNDECIDED
    if animate_ok:
        return Status.ANIMATE
    if inanimate_ok:
        return Status.INANIMATE
    return Status.UNDECIDED


class EnrichedTaxonomy:
    """A taxonomy plus one animacy status per synset.

    `skipped` lists the annotated records whose sense key the taxonomy did
    not know, as (doc, sent, np, sense); their noun evidence is missing
    from the statuses.  It is empty for statuses loaded from a file.
    """

    def __init__(self, base: Taxonomy, status: dict[str, Status],
                 skipped: Iterable[tuple[str, int, int, str]] = ()):
        column = dict.fromkeys(base, Status.UNDECIDED)
        for sid, value in status.items():
            if sid not in column:
                raise ValueError(f"status for unknown synset {sid}")
            column[sid] = value
        self._adopt(base, column, skipped)

    @classmethod
    def _from_column(cls, base: Taxonomy, column: dict[str, Status],
                     skipped: Iterable[tuple[str, int, int, str]] = ()) -> EnrichedTaxonomy:
        """Wrap a status for every synset of `base`, keyed in its order,
        without checking or copying it."""
        enriched = cls.__new__(cls)
        enriched._adopt(base, column, skipped)
        return enriched

    def _adopt(self, base, column, skipped) -> None:
        self.base = base
        self.skipped = tuple(skipped)
        self._status = column

    def status(self, sid: str) -> Status:
        try:
            return self._status[sid]
        except KeyError:
            raise TaxonomyError(f"unknown synset id {sid}") from None

    def coverage(self) -> float:
        """Fraction of synsets carrying a decided status."""
        if len(self.base) == 0:
            return 0.0
        decided = sum(1 for s in self._status.values() if s is not Status.UNDECIDED)
        return decided / len(self.base)

    def sense_table(self, beginners: BeginnerClass = BeginnerClass()) -> SenseTable:
        """The senses of the base taxonomy under `resolve_animate` with
        `beginners`: each sense is resolved once per table.

        An Undecided sense with exactly one hypernym answers as that
        hypernym does (see `resolve_animate`), so a chain of them is
        climbed once and its answer kept for every node on it, in a memo
        per table; only an Undecided root or multi-parent node walks.
        """
        base, column, memo = self.base, self._status, {}

        def is_animate(sid: str) -> bool:
            chain = []
            while column[sid] is Status.UNDECIDED and sid not in memo:
                parents = base.hypernyms(sid)
                if len(parents) != 1:
                    memo[sid] = self.resolve_animate(sid, beginners)
                    break
                chain.append(sid)
                sid = parents[0]
            answer = memo[sid] if sid in memo else column[sid] is Status.ANIMATE
            for sid in chain:
                memo[sid] = answer
            return answer

        return SenseTable(base, is_animate)

    def resolve_animate(self, sid: str, beginners: BeginnerClass) -> bool:
        """Animacy of one sense, with fallbacks for Undecided statuses.

        An Undecided sense takes the majority of its nearest decided
        ancestors, found breadth-first; when they tie, or when no ancestor
        is decided, the unique-beginner class has the final say.  Each
        call walks.  Below a node with exactly one hypernym, the frontier
        is the hypernym's own shifted by one level and `beginner_of`
        follows the chain, so that hypernym's answer is the node's too;
        `sense_table` relies on it.  At a multi-parent node no parent's
        answer can stand in for the merged frontier.
        """
        status = self.status(sid)
        if status is not Status.UNDECIDED:
            return status is Status.ANIMATE
        base, seen = self.base, {sid}
        frontier = base.hypernyms(sid)
        while frontier:
            decided = [s for s in map(self._status.__getitem__, frontier)
                       if s is not Status.UNDECIDED]
            if decided:
                twice_animate = 2 * decided.count(Status.ANIMATE)
                if twice_animate == len(decided):
                    break  # equally many decided ancestors on each side
                return twice_animate > len(decided)
            seen.update(frontier)
            # the next level, each node once, in order of first reach
            frontier = list(dict.fromkeys(
                hyp for node in frontier for hyp in base.hypernyms(node) if hyp not in seen))
        return beginners.is_animate(base.beginner_of(sid), base.pos_of(sid))

    def __eq__(self, other) -> bool:
        if not isinstance(other, EnrichedTaxonomy):
            return NotImplemented
        return self.base == other.base and self._status == other._status


def enrich(
    taxonomy: Taxonomy,
    docs: Iterable[Document],
    alpha: float = 0.05,
) -> EnrichedTaxonomy:
    """Classify every synset from a gold- and sense-annotated corpus.

    The per-node decision depends only on the accumulated counts, so the
    outcome is independent of traversal order.  A synset without counts is
    Undecided and one with counts of a single class takes that class, as
    `classify_node` decides them; only the mixed synsets are tested.
    Records whose sense key is not in the taxonomy are kept on the result
    as `skipped`.  An `alpha` outside (0, 1) is a `ValueError`, whatever
    the corpus.
    """
    chi2_critical(1, alpha)  # rejects an alpha outside (0, 1) before counting
    counts, skipped = accumulate_counts(docs, taxonomy)
    status = dict.fromkeys(taxonomy, Status.UNDECIDED)
    animate = counts._animate
    for sid, ani, inani in zip(animate, animate.values(), counts._inanimate.values()):
        status[sid] = (Status.ANIMATE if not inani else Status.INANIMATE if not ani
                       else classify_node(sid, counts, taxonomy, alpha))
    return EnrichedTaxonomy._from_column(taxonomy, status, skipped)


_STATUS_SUFFIX = {status: f"\t{status.value}\n" for status in Status}
_STATUS_OF = {status.value: status for status in Status}


def dump_statuses(enriched: EnrichedTaxonomy) -> str:
    # joined from each record's three pieces, so no string is built per line
    statuses = enriched._status
    parts = ["STATUS\t"] * (3 * len(statuses))
    parts[1::3] = statuses
    parts[2::3] = map(_STATUS_SUFFIX.__getitem__, statuses.values())
    return "".join(parts)


def load_enriched(path, base: Taxonomy) -> EnrichedTaxonomy:
    """Read STATUS lines as `dump_statuses` writes them.

    SYNSET lines and comments are skipped, so a combined taxonomy+status
    file loads with the same call.  Synsets without a STATUS line default
    to Undecided; a second STATUS line for a synset is an error.
    """
    # None until the synset's STATUS line is read; a set of the ids seen
    # would hold another 96k entries at paper scale
    column: dict[str, Status | None] = dict.fromkeys(base)
    status_of = _STATUS_OF
    for lineno, line in read_lines(path):
        if not line or line.startswith("#") or line.startswith("SYNSET\t"):
            continue
        fields = line.split("\t")
        try:
            if fields[0] != "STATUS" or len(fields) != 3:
                raise ValueError("expected STATUS record")
            sid, value = fields[1], fields[2]
            if sid not in column:
                raise ValueError(f"status for unknown synset {sid}")
            if column[sid] is not None:
                raise ValueError(f"duplicate STATUS for synset {sid}")
            column[sid] = status_of.get(value) or Status(value)
        except ValueError as exc:
            raise ValueError(f"{path} line {lineno}: {exc}") from None
    for sid, status in column.items():
        if status is None:
            column[sid] = Status.UNDECIDED
    return EnrichedTaxonomy._from_column(base, column)
