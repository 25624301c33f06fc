"""WordNet-style taxonomy of noun and verb synsets.

A taxonomy is a DAG whose nodes (synsets) carry a part of speech, a set of
lemmas and a lexicographer-file number.  Nodes without hypernyms are the
unique beginners (roots) of the hierarchy.  The on-disk format is one
tab-separated record per line:

    SYNSET <TAB> id <TAB> pos(n|v) <TAB> lexfile <TAB> lemma,... <TAB> hyp,...

with the hypernym field left empty for roots and ``#`` starting a comment
line.  ``STATUS`` lines (animacy statuses appended by the enrichment step)
are tolerated and skipped so that a combined file can be loaded as a plain
taxonomy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .fileio import read_lines, write_atomic

NOUN = "n"
VERB = "v"

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


def sense_mass(
    senses: Iterable[str],
    is_animate: Callable[[str], bool],
    weights: Mapping[str, float] | None = None,
) -> tuple[float, float]:
    """Animate and inanimate mass over a lemma's senses, in sense order.

    Each sense adds its weight, or 1 without weights, to the side that
    `is_animate` picks; both classifiers count senses this way and differ
    only in the predicate.
    """
    animate = 0.0
    inanimate = 0.0
    for sid in senses:
        mass = weights[sid] if weights is not None else 1.0
        if is_animate(sid):
            animate += mass
        else:
            inanimate += mass
    return animate, inanimate


class Taxonomy:
    """Validated, immutable synset graph with a lemma index.

    Synsets are stored as columns indexed by position in input order: id,
    part of speech, lexfile, lemmas, and the positions of the hypernyms and
    hyponyms.  Construction checks all structural invariants: unique ids,
    resolvable same-pos hypernym links and acyclicity.  The graph is
    immutable; `ancestors` and `beginner_of` memoize their results in
    dicts filled on first use.  Each memo entry is a pure function of the
    graph, so threads sharing an instance can at worst compute an entry
    twice and store equal values (a single dict store is atomic in
    CPython).
    """

    def __init__(self, synsets: Iterable[Synset]):
        records = [(s.id, s.pos, s.lexfile, s.lemmas, s.hypernyms) for s in synsets]
        self._build(*(zip(*records) if records else ((),) * 5))

    @classmethod
    def _from_columns(cls, *columns: Sequence) -> Taxonomy:
        taxonomy = cls.__new__(cls)
        taxonomy._build(*columns)
        return taxonomy

    def _build(self, ids: Sequence[str], pos: Sequence[str], lexfiles: Sequence[int],
               lemmas: Sequence[tuple[str, ...]], hypernyms: Sequence[tuple[str, ...]]):
        # Fields come in checked; hypernym ids are resolved to positions and
        # not kept.
        index: dict[str, int] = {}
        for i, sid in enumerate(ids):
            if index.setdefault(sid, i) != i:
                raise TaxonomyError(f"duplicate synset id {sid}")

        senses: dict[str, dict[str, tuple[str, ...]]] = {NOUN: {}, VERB: {}}
        for sid, p, names in zip(ids, pos, lemmas):
            by_lemma = senses[p]
            for lemma in names:
                by_lemma[lemma] = by_lemma.get(lemma, ()) + (sid,)

        parents: list[tuple[int, ...]] = []
        children: dict[int, list[int]] = {}
        for i, hyps in enumerate(hypernyms):
            for hyp in hyps:
                parent = index.get(hyp)
                if parent is None:
                    raise TaxonomyError(f"{ids[i]}: dangling hypernym id {hyp}")
                if pos[parent] != pos[i]:
                    raise TaxonomyError(
                        f"{ids[i]}: hypernym {hyp} has different part of speech"
                    )
                children.setdefault(parent, []).append(i)
            parents.append(tuple([index[hyp] for hyp in hyps]))

        # Kahn's topological pass from the roots: a node is ordered once all
        # of its hypernyms are, so nodes left over lie on or below a cycle.
        pending = [len(links) for links in parents]
        order = [i for i, links in enumerate(parents) if not links]
        roots = tuple(ids[i] for i in order)
        for node in order:
            for child in children.get(node, ()):
                pending[child] -= 1
                if not pending[child]:
                    order.append(child)
        if len(order) != len(ids):
            child, parent = _cycle_edge(parents, pending)
            raise TaxonomyError(
                f"hypernym cycle involving {ids[child]} and {ids[parent]}"
            )

        self._ids = ids
        self._index = index
        self._pos = pos
        self._lexfiles = lexfiles
        self._lemmas = lemmas
        self._parents = parents
        self._children = children
        self._senses = senses
        self.roots: tuple[str, ...] = roots
        self._ancestor_cache: dict[str, frozenset[str]] = {}
        self._beginners: dict[str, int] = {}

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
        return Synset(sid, self._pos[i], self._lemmas[i], self.hypernyms(sid), self._lexfiles[i])

    def pos_of(self, sid: str) -> str:
        return self._pos[self._position(sid)]

    def senses(self, lemma: str, pos: str) -> tuple[str, ...]:
        """All synset ids listing `lemma` under `pos`, in file order.

        Unknown lemmas yield an empty tuple; that is the normal
        out-of-vocabulary signal, not an error.
        """
        by_lemma = self._senses.get(pos)
        return by_lemma.get(lemma, ()) if by_lemma is not None else ()

    def lemmas(self, pos: str | None = None) -> tuple[str, ...]:
        """Distinct lemmas in the taxonomy, optionally restricted by pos."""
        found: set[str] = set()
        for p, by_lemma in self._senses.items():
            if pos is None or p == pos:
                found.update(by_lemma)
        return tuple(sorted(found))

    def hyponyms(self, sid: str) -> tuple[str, ...]:
        ids = self._ids
        return tuple([ids[c] for c in self._children.get(self._position(sid), ())])

    def hypernyms(self, sid: str) -> tuple[str, ...]:
        ids = self._ids
        return tuple([ids[p] for p in self._parents[self._position(sid)]])

    def ancestors(self, sid: str, include_self: bool = False) -> frozenset[str]:
        """Hypernym closure of a synset.

        Shared ancestors reached along several paths appear once, which is
        what occurrence propagation relies on.
        """
        cached = self._ancestor_cache.get(sid)
        if cached is None:
            parents = self._parents
            closure: set[int] = set()
            stack = list(parents[self._position(sid)])
            while stack:
                node = stack.pop()
                if node in closure:
                    continue
                closure.add(node)
                stack.extend(parents[node])
            ids = self._ids
            cached = frozenset([ids[node] for node in closure])
            self._ancestor_cache[sid] = cached
        if include_self:
            return cached | {sid}
        return cached

    def beginner_of(self, sid: str) -> int:
        """Lexicographer file of the unique beginner above a synset.

        Single-parent chains are followed upward.  A synset with several
        hypernyms keeps its own lexfile, so DAG nodes resolve to exactly
        one beginner.  The result is memoized on every node of the chain
        walked.
        """
        lexfile = self._beginners.get(sid)
        if lexfile is None:
            # walk up to the beginner or to a memoized node, then memoize
            # the beginner's lexfile on every node walked
            beginners, ids, parents = self._beginners, self._ids, self._parents
            node = self._position(sid)
            walked = [sid]
            while len(parents[node]) == 1:
                node = parents[node][0]
                lexfile = beginners.get(ids[node])
                if lexfile is not None:
                    break
                walked.append(ids[node])
            else:
                lexfile = self._lexfiles[node]
            for name in walked:
                beginners[name] = lexfile
        return lexfile

    def __eq__(self, other) -> bool:
        if not isinstance(other, Taxonomy):
            return NotImplemented
        return len(self) == len(other) and all(
            sid in other and self.get(sid) == other.get(sid) for sid in self
        )

    def __repr__(self) -> str:
        return f"Taxonomy({len(self)} synsets, {len(self.roots)} roots)"


def _cycle_edge(parents: list[tuple[int, ...]], pending: list[int]) -> tuple[int, int]:
    """The (node, hypernym) edge closing a cycle among Kahn's leftover nodes.

    Each leftover node has a leftover hypernym, so walking the first such
    hypernym from the first leftover node must revisit a node; the edge
    into it is the back edge a depth-first colouring would name.  Nodes
    hanging below the cycle are only ever walked through.
    """
    node = next(i for i, left in enumerate(pending) if left)
    walked = set()
    while True:
        walked.add(node)
        parent = next(p for p in parents[node] if pending[p])
        if parent in walked:
            return node, parent
        node = parent


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
    try:
        lex = int(lexfile)
    except ValueError:
        raise TaxonomyError(f"bad lexfile number {lexfile!r}") from None
    lemma_tuple = _split_list(lemmas)
    hyper_tuple = _split_list(hypernyms)
    _check_fields(sid, pos, lemma_tuple, hyper_tuple)
    return sid, pos, lex, lemma_tuple, hyper_tuple


def load_taxonomy(path) -> Taxonomy:
    """Load and validate a taxonomy file.

    Raises TaxonomyError naming the path, with the line number for format
    problems and the offending ids for dangling links, duplicates or
    cycles.
    """
    ids, pos, lexfiles, lemmas, hypernyms = columns = ([], [], [], [], [])
    for lineno, line in read_lines(path, TaxonomyError):
        if not line or line.startswith("#"):
            continue
        kind = line.split("\t", 1)[0]
        if kind == "STATUS":
            continue
        try:
            if kind != "SYNSET":
                raise TaxonomyError(f"unknown record kind {kind!r}")
            sid, p, lexfile, names, hyps = _parse_synset_line(line)
        except TaxonomyError as exc:
            raise TaxonomyError(f"{path} line {lineno}: {exc}") from None
        ids.append(sid)
        pos.append(p)
        lexfiles.append(lexfile)
        lemmas.append(names)
        hypernyms.append(hyps)
    try:
        return Taxonomy._from_columns(*columns)
    except TaxonomyError as exc:
        raise TaxonomyError(f"{path}: {exc}") from None


def dump_taxonomy(taxonomy: Taxonomy) -> str:
    ids = taxonomy._ids
    lines = [
        "SYNSET\t%s\t%s\t%d\t%s\t%s"
        % (sid, p, lexfile, ",".join(names), ",".join([ids[x] for x in links]))
        for sid, p, lexfile, names, links in zip(
            ids, taxonomy._pos, taxonomy._lexfiles, taxonomy._lemmas, taxonomy._parents
        )
    ]
    return "\n".join(lines) + "\n" if lines else ""


def save_taxonomy(taxonomy: Taxonomy, path) -> None:
    write_atomic(path, dump_taxonomy(taxonomy))
