"""WordNet-style taxonomy of noun and verb synsets.

A taxonomy is a DAG whose nodes (synsets) carry a part of speech, a set of
lemmas and a lexicographer-file number.  Nodes without hypernyms are the
unique beginners (roots) of the hierarchy.  The on-disk format is one
tab-separated record per line:

    SYNSET <TAB> id <TAB> pos(n|v) <TAB> lexfile <TAB> lemma,... <TAB> hyp,...

with the hypernym field left empty for roots and ``#`` starting a comment
line.  A lemma may hold a comma (WordNet's ``2,4-d``), so inside a lemma
``%`` is written ``%25`` and ``,`` is written ``%2c``; the loader reads
both back, and any other ``%`` as it stands.  ``STATUS`` lines (animacy
statuses appended by the enrichment step) are tolerated and skipped so
that a combined file can be loaded as a plain taxonomy.

`load_taxonomy` reads the file once, line by line, adding each synset's
fields to flat columns.  A SYNSET line that passes a few cheap tests goes
in as it is; any other line is parsed by `_parse_synset_line`, which
shares `_check_fields` with `Synset` and cleans the line or names what is
wrong with it.  The structural checks then run once over the columns:
ids by one dict, hypernym links by one lookup pass, part of speech and
acyclicity with numpy.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .fileio import is_int, is_utf8, read_lines

NOUN = "n"
VERB = "v"
_POS = frozenset({NOUN, VERB})

# Default unique-beginner animacy classes by lexicographer-file number:
# nouns under animal (05), person (18) or relation (24) count as animate,
# subjects of verbs under cognition (31), communication (32), emotion (37)
# or social (41) do as well.  Lexfile numbering drifts between taxonomy
# versions, so both sets are configuration.
ANIMATE_NOUN_LEXFILES = frozenset({5, 18, 24})
ANIMATE_VERB_LEXFILES = frozenset({31, 32, 37, 41})


class TaxonomyError(ValueError):
    """Malformed or inconsistent taxonomy data."""


def _check_fields(sid: str, pos: str, lemmas: tuple[str, ...],
                  hypernyms: tuple[str, ...]) -> None:
    """The checks on one synset's own fields, for `Synset` and the loader."""
    if not sid:
        raise TaxonomyError("synset id must be non-empty")
    if pos not in (NOUN, VERB):
        raise TaxonomyError(f"{sid}: pos must be 'n' or 'v', got {pos!r}")
    if not lemmas:
        raise TaxonomyError(f"{sid}: at least one lemma required")
    if len(lemmas) > 1 and len(set(lemmas)) != len(lemmas):
        raise TaxonomyError(f"{sid}: duplicate lemma")
    if len(hypernyms) > 1 and len(set(hypernyms)) != len(hypernyms):
        raise TaxonomyError(f"{sid}: duplicate hypernym id")
    for lemma in lemmas:
        if lemma != lemma.lower():
            raise TaxonomyError(f"{sid}: lemma {lemma!r} is not lowercase")


@dataclass(frozen=True)
class Synset:
    """One node of the taxonomy."""

    id: str
    pos: str
    lemmas: tuple[str, ...]
    hypernyms: tuple[str, ...]
    lexfile: int

    def __post_init__(self):
        _check_fields(self.id, self.pos, self.lemmas, self.hypernyms)
        # values no taxonomy file can hold, so the loaders never meet them
        if "" in self.lemmas:
            raise TaxonomyError(f"{self.id}: empty lemma")
        for text in (self.id, *self.lemmas, *self.hypernyms):
            if "\t" in text or "\r" in text or "\n" in text or not is_utf8(text):
                raise TaxonomyError(
                    f"{self.id!r}: {text!r} holds a tab, line break or lone surrogate")
        for hyp in self.hypernyms:
            if "," in hyp:
                raise TaxonomyError(f"{self.id}: comma in hypernym id {hyp!r}")


@dataclass(frozen=True)
class BeginnerClass:
    """Configurable split of unique beginners into animate and inanimate."""

    animate_noun_lexfiles: frozenset[int] = ANIMATE_NOUN_LEXFILES
    animate_verb_lexfiles: frozenset[int] = ANIMATE_VERB_LEXFILES

    def __post_init__(self):
        if not self.animate_noun_lexfiles or not self.animate_verb_lexfiles:
            raise TaxonomyError("animate lexfile sets must be non-empty")

    def is_animate(self, lexfile: int, pos: str) -> bool:
        """True iff a sense rooted at this unique beginner counts as animate."""
        if pos == NOUN:
            return lexfile in self.animate_noun_lexfiles
        if pos == VERB:
            return lexfile in self.animate_verb_lexfiles
        raise TaxonomyError(f"unknown pos {pos!r}")


class SenseTable:
    """Each sense's animacy under one per-synset column, for both classifiers.

    Both classifiers count a lemma's senses by animacy and differ only in
    which senses count as animate: those under an animate unique beginner
    for the rules, those of animate resolved enriched status for the
    memory-based learner.  Either answer is the value at the synset's
    nearest stop up its single-parent chain, so the table takes each
    synset's stop (`chain_stops`) and an int8 column of values, read at
    the stops: 1 animate, -1 inanimate, 0 not yet known.  `resolve` is
    asked for an unknown stop, by id, the first time a looked-up sense
    reaches it, and its answer is kept in the table's copy of the column.

    `counts` answers many distinct lemmas in one pass; `mass` one lemma,
    with or without weights, keeping per noun or verb lemma its senses in
    file order and their flags.  Every answer is a pure function of the
    taxonomy, the stops and the column, so a table built once serves a
    whole run.
    """

    def __init__(self, taxonomy: Taxonomy, stops: np.ndarray, values: np.ndarray,
                 resolve: Callable[[str], bool]):
        self.taxonomy = taxonomy
        self._stops = stops
        self._values = np.array(values, np.int8)
        self._resolve = resolve
        # pos -> lemma -> (senses, flags, (animate count, inanimate count))
        self._lemmas: dict[str, dict[str, tuple]] = {NOUN: {}, VERB: {}}

    def _animate(self, positions: np.ndarray) -> np.ndarray:
        """Whether each synset at `positions` is animate: its stop's value,
        each unknown stop reached resolved once."""
        stops, values = self._stops[positions], self._values
        found = values[stops]
        if not found.all():
            ids = self.taxonomy._ids
            for stop in np.unique(stops[found == 0]).tolist():
                values[stop] = 1 if self._resolve(ids[stop]) else -1
            found = values[stops]
        return found > 0

    def counts(self, lemmas: Sequence[str], pos: str) -> np.ndarray:
        """The sense count and the animate and inanimate counts of each of
        `lemmas` under `pos`, as the three rows of a float array: one
        lemma-index lookup per lemma, the senses' flags gathered from the
        column at once and summed per lemma.  A count is a sum of ones, so
        it is exact, and equal to `mass(lemma, pos)`."""
        senses, index = self.taxonomy.senses, self.taxonomy._index
        groups = [senses(lemma, pos) for lemma in lemmas]
        sizes = np.fromiter(map(len, groups), np.int64, len(groups))
        positions = np.fromiter(map(index.__getitem__, chain.from_iterable(groups)),
                                np.int64, int(sizes.sum()))
        owner = np.repeat(np.arange(len(groups)), sizes)
        animate = np.bincount(owner, self._animate(positions), len(groups))
        return np.array([sizes, animate, sizes - animate], np.float64)

    def _entry(self, lemma: str, pos: str) -> tuple:
        entry = self._lemmas[pos].get(lemma)
        if entry is None:
            senses, index = self.taxonomy.senses(lemma, pos), self.taxonomy._index
            flags = tuple(self._animate(np.array([index[sid] for sid in senses], np.int64))
                          .tolist())
            count = flags.count(True)
            entry = self._lemmas[pos][lemma] = (
                senses, flags, (float(count), float(len(senses) - count)))
        return entry

    def senses(self, lemma: str, pos: str) -> tuple[str, ...]:
        """The senses of `lemma` under `pos`, as `Taxonomy.senses` gives them."""
        return self._entry(lemma, pos)[0]

    def mass(self, lemma: str, pos: str,
             weights: Mapping[str, float] | None = None) -> tuple[float, float]:
        """Animate and inanimate mass over the lemma's senses: each sense
        adds its weight, or 1 without weights, to its side, in sense order."""
        senses, flags, counts = self._entry(lemma, pos)
        if weights is None:
            return counts
        animate = inanimate = 0.0
        for sid, flag in zip(senses, flags):
            if flag:
                animate += weights[sid]
            else:
                inanimate += weights[sid]
        return animate, inanimate


class Taxonomy:
    """Validated, immutable synset graph with a lemma index.

    Synsets are stored as columns indexed by position in input order: id,
    part of speech (one character each, in one string), lexfile, and the
    lemmas as one tab-joined string per synset, split only by `get` and
    `dump_taxonomy`.  No file field or WordNet database token holds a tab,
    while a WordNet lemma may hold a comma (``2,4-d``), which the file
    escapes.
    Hypernym and hyponym links are CSR int columns: a start offset per
    synset and one flat array of positions, so the hypernyms of position
    i are ``up_links[up[i]:up[i + 1]]`` in field order, and its hyponyms
    are stored the same way in file order.  The lemma index maps each part
    of speech and lemma to the id of its one synset, or, for a polysemous
    lemma only, to the tuple of its synsets in file order.

    Construction checks all structural invariants: unique ids, resolvable
    same-pos hypernym links and acyclicity.  Loading the 96,099-synset
    benchmark taxonomy (4.4 MB) takes about 0.35 to 0.6 s on a 2-vCPU VM
    and leaves it holding about 45 MB; the load's own peak is a few MB
    above that, the flat hypernym ids being its largest transient.

    The graph is immutable; `ancestors` memoizes its results in a dict
    filled on first use, `beginner_of` reads a column of every synset's
    beginner that its first call computes (`chain_stops`), and the columns
    and lemma index are never written after construction.  Each memo is
    a pure function of the graph, so threads sharing an instance can at
    worst compute one twice and store equal values (a single dict or
    attribute store is atomic in CPython).
    """

    def __init__(self, synsets: Iterable[Synset]):
        records = list(synsets)
        links = [s.hypernyms for s in records]
        self._build(
            [s.id for s in records], "".join([s.pos for s in records]),
            [s.lexfile for s in records], ["\t".join(s.lemmas) for s in records],
            np.fromiter(map(len, links), np.intp, len(links)),
            list(chain.from_iterable(links)),
        )

    @classmethod
    def _from_columns(cls, *columns) -> Taxonomy:
        taxonomy = cls.__new__(cls)
        taxonomy._build(*columns)
        return taxonomy

    def _build(self, ids: list[str], pos: str, lexfiles: list[int], lemmas: list[str],
               counts: np.ndarray, hypernyms: list[str]):
        # Fields come in checked: `counts` holds each synset's number of
        # hypernyms, whose ids are listed flat in `hypernyms`; they are
        # resolved to positions, and the list is emptied.
        n = len(ids)
        index = dict(zip(ids, range(n)))
        if len(index) != n:
            seen: dict[str, int] = {}
            for i, sid in enumerate(ids):
                if seen.setdefault(sid, i) != i:
                    raise TaxonomyError(f"duplicate synset id {sid}")

        codes = np.frombuffer(pos.encode("ascii"), np.uint8)
        child = np.repeat(np.arange(n), counts)
        try:
            parent = np.fromiter(map(index.get, hypernyms), np.intp, len(hypernyms))
        except TypeError:  # a dangling id resolves to None
            parent = None
        if parent is None or (codes[parent] != codes[child]).any():
            _raise_bad_link(ids, pos, index, child.tolist(), hypernyms)
        # the ids are resolved: free them before the lemma index is built
        hypernyms.clear()

        up = _offsets(counts)
        down = _offsets(np.bincount(parent, minlength=n))
        below = child[np.argsort(parent, kind="stable")]
        del child

        # Kahn's topological pass from the roots, one level at a time: a
        # node joins the next level once all of its hypernyms are ordered,
        # so nodes left over lie on or below a cycle.
        pending = counts.copy()
        level = np.flatnonzero(pending == 0)
        roots = tuple([ids[i] for i in level.tolist()])
        ordered = 0
        while level.size:
            ordered += level.size
            kids, times = np.unique(_gather(down, below, level), return_counts=True)
            pending[kids] -= times
            level = kids[pending[kids] == 0]
        if ordered != n:
            node, hyp = _cycle_edge(up, parent, pending)
            raise TaxonomyError(f"hypernym cycle involving {ids[node]} and {ids[hyp]}")

        self._senses = _lemma_index(ids, pos, lemmas)
        self._ids = ids
        self._index = index
        self._pos = pos
        self._lexfiles = lexfiles
        self._lemmas = lemmas
        self._up, self._up_links = _int_column(up), _int_column(parent)
        self._down, self._down_links = _int_column(down), _int_column(below)
        self.roots: tuple[str, ...] = roots
        self._ancestor_cache: dict[str, frozenset[str]] = {}
        self._beginner_column: np.ndarray | None = None

    def _position(self, sid: str) -> int:
        try:
            return self._index[sid]
        except KeyError:
            raise TaxonomyError(f"unknown synset id {sid}") from None

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, sid: str) -> bool:
        return sid in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self._ids)

    def get(self, sid: str) -> Synset:
        i = self._position(sid)
        return Synset(sid, self._pos[i], tuple(self._lemmas[i].split("\t")),
                      self.hypernyms(sid), self._lexfiles[i])

    def pos_of(self, sid: str) -> str:
        return self._pos[self._position(sid)]

    def senses(self, lemma: str, pos: str) -> tuple[str, ...]:
        """All synset ids listing `lemma` under `pos`, in file order.

        Unknown lemmas yield an empty tuple; that is the normal
        out-of-vocabulary signal, not an error.
        """
        by_lemma = self._senses.get(pos)
        found = by_lemma.get(lemma, ()) if by_lemma is not None else ()
        return (found,) if found.__class__ is str else found

    def hyponyms(self, sid: str) -> tuple[str, ...]:
        i, start, ids = self._position(sid), self._down, self._ids
        return tuple([ids[c] for c in self._down_links[start[i]:start[i + 1]]])

    def hypernyms(self, sid: str) -> tuple[str, ...]:
        i, start, ids = self._position(sid), self._up, self._ids
        return tuple([ids[p] for p in self._up_links[start[i]:start[i + 1]]])

    def ancestors(self, sid: str, include_self: bool = False) -> frozenset[str]:
        """Hypernym closure of a synset.

        Shared ancestors reached along several paths appear once, which is
        what IC count propagation (`wsd`) relies on.
        """
        cached = self._ancestor_cache.get(sid)
        if cached is None:
            start, links = self._up, self._up_links
            closure: set[int] = set()
            i = self._position(sid)
            stack = list(links[start[i]:start[i + 1]])
            while stack:
                node = stack.pop()
                if node in closure:
                    continue
                closure.add(node)
                stack.extend(links[start[node]:start[node + 1]])
            ids = self._ids
            cached = frozenset([ids[node] for node in closure])
            self._ancestor_cache[sid] = cached
        if include_self:
            return cached | {sid}
        return cached

    def beginner_stops(self) -> np.ndarray:
        """The position of each synset's unique beginner, in taxonomy
        order: single-parent chains are followed upward, and a synset with
        several hypernyms is its own beginner, so DAG nodes resolve to
        exactly one.  Found for every synset on first use (`chain_stops`)."""
        column = self._beginner_column
        if column is None:
            column = self._beginner_column = chain_stops(self, np.zeros(len(self), bool))
        return column

    def beginner_of(self, sid: str) -> int:
        """Lexicographer file of the unique beginner above a synset."""
        return self._lexfiles[self.beginner_stops()[self._position(sid)]]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Taxonomy):
            return NotImplemented
        return len(self) == len(other) and all(
            sid in other and self.get(sid) == other.get(sid) for sid in self
        )

    def __repr__(self) -> str:
        return f"Taxonomy({len(self)} synsets, {len(self.roots)} roots)"


def _offsets(counts: np.ndarray) -> np.ndarray:
    """CSR start offsets, one per node plus the end, from per-node counts."""
    start = np.zeros(len(counts) + 1, np.intp)
    np.cumsum(counts, out=start[1:])
    return start


def _gather(start: np.ndarray, links: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """The CSR links of `nodes`, concatenated in node order."""
    first = start[nodes]
    sizes = start[nodes + 1] - first
    ends = np.cumsum(sizes)
    return links[np.repeat(first - ends + sizes, sizes) + np.arange(ends[-1])]


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of an int array, ascending: `np.unique` by one
    sort, which on ints is several times faster than its hashing path."""
    keys = np.sort(keys)
    first = np.empty(keys.size, bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def closure_pairs(taxonomy: Taxonomy, owner: np.ndarray,
                  start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The hypernym closures, each synset included, of many owners at once.

    Owner `owner[i]` starts at synset position `start[i]`; an owner may
    start at several synsets.  One pass goes up the hypernym columns level
    by level, and returns the distinct (owner, synset) pairs of the
    closures as two int arrays, sorted by owner and then by synset
    position: a synset reached along several paths or at several depths
    is one pair of its owner.
    """
    n = len(taxonomy)
    up = np.frombuffer(taxonomy._up, np.int64)
    links = np.frombuffer(taxonomy._up_links, np.int64)
    level = _distinct(np.asarray(owner, np.int64) * n + start)
    levels = [level]
    while level.size:
        owner, node = np.divmod(level, n)
        owner = np.repeat(owner, up[node + 1] - up[node])
        level = _distinct(owner * n + _gather(up, links, node))
        levels.append(level)
    return np.divmod(_distinct(np.concatenate(levels)), n)


def chain_stops(taxonomy: Taxonomy, stop: np.ndarray) -> np.ndarray:
    """The position of each synset's nearest stop up its single-parent
    chain: a synset is a stop if `stop` marks it or it has other than one
    hypernym, and any other synset answers as its one hypernym does.

    Every stop is found at once by pointer jumping: each synset points at
    itself if it is a stop and else at its hypernym, and every pointer is
    then replaced by its target's until none changes, which takes about
    log2 of the longest chain passes.
    """
    up = np.frombuffer(taxonomy._up, np.int64)
    links = np.frombuffer(taxonomy._up_links, np.int64)
    first = up[:-1]
    single = (up[1:] - first == 1) & ~stop
    target = np.arange(len(taxonomy))
    target[single] = links[first[single]]
    while True:
        jumped = target[target]
        if np.array_equal(jumped, target):
            return target
        target = jumped


def _int_column(values: np.ndarray) -> array:
    # an array of machine ints indexes and slices to plain Python ints
    # without keeping one int object per entry
    return array("q", values.astype(np.int64).tobytes())


def _raise_bad_link(ids, pos, index, child, hypernyms) -> None:
    """Report the first dangling or cross-pos link, in file order."""
    for i, hyp in zip(child, hypernyms):
        parent = index.get(hyp)
        if parent is None:
            raise TaxonomyError(f"{ids[i]}: dangling hypernym id {hyp}")
        if pos[parent] != pos[i]:
            raise TaxonomyError(f"{ids[i]}: hypernym {hyp} has different part of speech")


def _lemma_index(ids: list[str], pos: str, lemmas: list[str]) -> dict:
    """pos -> lemma -> the id of its only synset, or its ids in file order."""
    senses: dict[str, dict[str, str | tuple[str, ...]]] = {NOUN: {}, VERB: {}}
    for sid, p, names in zip(ids, pos, lemmas):
        by_lemma = senses[p]
        for lemma in names.split("\t"):
            found = by_lemma.get(lemma)
            if found is None:
                by_lemma[lemma] = sid
            elif found.__class__ is str:
                by_lemma[lemma] = (found, sid)
            else:
                by_lemma[lemma] = found + (sid,)
    return senses


def _cycle_edge(start: np.ndarray, links: np.ndarray, pending: np.ndarray) -> tuple[int, int]:
    """The (node, hypernym) edge closing a cycle among Kahn's leftover nodes.

    Each leftover node has a leftover hypernym, so walking the first such
    hypernym from the first leftover node must revisit a node; the edge
    into it is the back edge a depth-first colouring would name.  Nodes
    hanging below the cycle are only ever walked through.
    """
    node = int(np.flatnonzero(pending)[0])
    walked = set()
    while True:
        walked.add(node)
        parent = next(int(p) for p in links[start[node]:start[node + 1]] if pending[p])
        if parent in walked:
            return node, parent
        node = parent


def _unescape(lemma: str) -> str:
    """One lemma as `dump_taxonomy` escaped it: "%2c" is a comma and "%25"
    a percent sign, and any other "%" stands for itself."""
    # no "%2c" overlaps a "%25", and a restored comma starts none
    return lemma.replace("%2c", ",").replace("%25", "%")


def _split_list(field: str) -> tuple[str, ...]:
    items = tuple(field.split(",")) if field else ()
    return tuple(x for x in items if x) if "" in items else items


def _parse_synset_line(line: str) -> tuple:
    fields = line.split("\t")
    if len(fields) == 5:
        # trailing tab of an empty hypernym field is commonly lost in editing
        fields.append("")
    if len(fields) != 6:
        raise TaxonomyError(f"expected 6 tab-separated fields, got {len(fields)}")
    _, sid, pos, lexfile, lemmas, hypernyms = fields
    if not is_int(lexfile):
        raise TaxonomyError(f"bad lexfile number {lexfile!r}")
    lex = int(lexfile)
    lemma_tuple = tuple([_unescape(lemma) for lemma in _split_list(lemmas)])
    hyper_tuple = _split_list(hypernyms)
    _check_fields(sid, pos, lemma_tuple, hyper_tuple)
    return sid, pos, lex, lemma_tuple, hyper_tuple


def load_taxonomy(path) -> Taxonomy:
    """Load and validate a taxonomy file.

    Raises TaxonomyError naming the path, with the line number for format
    problems and the offending ids for dangling links, duplicates or
    cycles.  The file is read once, line by line.  A SYNSET line that
    passes a few cheap tests, which together imply `_check_fields`, adds
    its fields to the columns as they are; any other record line goes
    through `_parse_synset_line`, which cleans it (a lost trailing tab,
    an empty list item) or names what is wrong with it.  Lemmas holding a
    ``%`` are unescaped on either path.
    """
    ids: list[str] = []
    pos: list[str] = []
    lexfiles: list[int] = []
    lemmas: list[str] = []
    counts: list[int] = []
    hypernyms: list[str] = []
    for lineno, line in read_lines(path, TaxonomyError):
        fields = line.split("\t")
        clean = len(fields) == 6 and fields[0] == "SYNSET"
        if clean:
            _, sid, p, lexfile, names, links = fields
            items, links = names.split(","), links.split(",") if links else []
            if "%" in names:
                items = [_unescape(item) for item in items]
            clean = (sid and p in _POS and lexfile.isdecimal() and lexfile.isascii()
                     and "" not in items and "" not in links and names == names.lower()
                     and (len(items) == 1 or len(set(items)) == len(items))
                     and (len(links) < 2 or len(set(links)) == len(links)))
        if not clean:
            kind = fields[0]
            if not line or line[0] == "#" or kind == "STATUS":
                continue
            try:
                if kind != "SYNSET":
                    raise TaxonomyError(f"unknown record kind {kind!r}")
                sid, p, lexfile, items, links = _parse_synset_line(line)
            except TaxonomyError as exc:
                raise TaxonomyError(f"{path} line {lineno}: {exc}") from None
        ids.append(sid)
        pos.append(p)
        lexfiles.append(int(lexfile))
        lemmas.append("\t".join(items))
        counts.append(len(links))
        hypernyms += links
    # the per-synset lists give way to their compact forms before the build
    pos, counts = "".join(pos), np.array(counts, np.intp)
    try:
        return Taxonomy._from_columns(ids, pos, lexfiles, lemmas, counts, hypernyms)
    except TaxonomyError as exc:
        raise TaxonomyError(f"{path}: {exc}") from None


def dump_taxonomy(taxonomy: Taxonomy) -> str:
    ids, start, links = taxonomy._ids, taxonomy._up, taxonomy._up_links
    lines = [
        "SYNSET\t%s\t%s\t%d\t%s\t%s"
        % (sid, p, lexfile, names.replace("%", "%25").replace(",", "%2c").replace("\t", ","),
           ",".join([ids[x] for x in links[start[i]:start[i + 1]]]))
        for i, (sid, p, lexfile, names) in enumerate(zip(
            ids, taxonomy._pos, taxonomy._lexfiles, taxonomy._lemmas
        ))
    ]
    return "\n".join(lines) + "\n" if lines else ""
