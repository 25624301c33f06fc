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
from typing import Callable, Iterable, Iterator, Mapping

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


@dataclass(frozen=True)
class Synset:
    """One node of the taxonomy."""

    id: str
    pos: str
    lemmas: tuple[str, ...]
    hypernyms: tuple[str, ...]
    lexfile: int

    def __post_init__(self):
        if not self.id:
            raise TaxonomyError("synset id must be non-empty")
        if self.pos not in (NOUN, VERB):
            raise TaxonomyError(f"{self.id}: pos must be 'n' or 'v', got {self.pos!r}")
        if not self.lemmas:
            raise TaxonomyError(f"{self.id}: at least one lemma required")
        if len(set(self.lemmas)) != len(self.lemmas):
            raise TaxonomyError(f"{self.id}: duplicate lemma")
        if len(set(self.hypernyms)) != len(self.hypernyms):
            raise TaxonomyError(f"{self.id}: duplicate hypernym id")
        for lemma in self.lemmas:
            if lemma != lemma.lower():
                raise TaxonomyError(f"{self.id}: lemma {lemma!r} is not lowercase")

    @property
    def is_root(self) -> bool:
        return not self.hypernyms


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

    Construction checks all structural invariants: unique ids, resolvable
    same-pos hypernym links and acyclicity.  Instances are safe to share
    across threads; all lookups are read-only.
    """

    def __init__(self, synsets: Iterable[Synset]):
        self._synsets: dict[str, Synset] = {}
        for syn in synsets:
            if syn.id in self._synsets:
                raise TaxonomyError(f"duplicate synset id {syn.id}")
            self._synsets[syn.id] = syn

        self._lemma_index: dict[tuple[str, str], tuple[str, ...]] = {}
        index: dict[tuple[str, str], list[str]] = {}
        for syn in self._synsets.values():
            for lemma in syn.lemmas:
                index.setdefault((lemma, syn.pos), []).append(syn.id)
        self._lemma_index = {key: tuple(ids) for key, ids in index.items()}

        children: dict[str, list[str]] = {sid: [] for sid in self._synsets}
        for syn in self._synsets.values():
            for hyp in syn.hypernyms:
                parent = self._synsets.get(hyp)
                if parent is None:
                    raise TaxonomyError(f"{syn.id}: dangling hypernym id {hyp}")
                if parent.pos != syn.pos:
                    raise TaxonomyError(
                        f"{syn.id}: hypernym {hyp} has different part of speech"
                    )
                children[hyp].append(syn.id)
        self._hyponyms = {sid: tuple(ids) for sid, ids in children.items()}

        self.roots: tuple[str, ...] = tuple(
            sid for sid, syn in self._synsets.items() if syn.is_root
        )
        self._check_acyclic()
        self._ancestor_cache: dict[str, frozenset[str]] = {}

    def _check_acyclic(self):
        # iterative DFS with colouring; reports one offending edge
        WHITE, GREY, BLACK = 0, 1, 2
        colour = {sid: WHITE for sid in self._synsets}
        for start in self._synsets:
            if colour[start] != WHITE:
                continue
            stack: list[tuple[str, Iterator[str]]] = [
                (start, iter(self._synsets[start].hypernyms))
            ]
            colour[start] = GREY
            while stack:
                node, edges = stack[-1]
                advanced = False
                for nxt in edges:
                    if colour[nxt] == GREY:
                        raise TaxonomyError(
                            f"hypernym cycle involving {node} and {nxt}"
                        )
                    if colour[nxt] == WHITE:
                        colour[nxt] = GREY
                        stack.append((nxt, iter(self._synsets[nxt].hypernyms)))
                        advanced = True
                        break
                if not advanced:
                    colour[node] = BLACK
                    stack.pop()

    def __len__(self) -> int:
        return len(self._synsets)

    def __contains__(self, sid: str) -> bool:
        return sid in self._synsets

    def __iter__(self) -> Iterator[str]:
        return iter(self._synsets)

    def get(self, sid: str) -> Synset:
        try:
            return self._synsets[sid]
        except KeyError:
            raise TaxonomyError(f"unknown synset id {sid}") from None

    def senses(self, lemma: str, pos: str) -> tuple[str, ...]:
        """All synset ids listing `lemma` under `pos`, in file order.

        Unknown lemmas yield an empty tuple; that is the normal
        out-of-vocabulary signal, not an error.
        """
        return self._lemma_index.get((lemma, pos), ())

    def lemmas(self, pos: str | None = None) -> tuple[str, ...]:
        """Distinct lemmas in the taxonomy, optionally restricted by pos."""
        found = {
            lemma
            for (lemma, p) in self._lemma_index
            if pos is None or p == pos
        }
        return tuple(sorted(found))

    def hyponyms(self, sid: str) -> tuple[str, ...]:
        self.get(sid)
        return self._hyponyms[sid]

    def hypernyms(self, sid: str) -> tuple[str, ...]:
        return self.get(sid).hypernyms

    def ancestors(self, sid: str, include_self: bool = False) -> frozenset[str]:
        """Hypernym closure of a synset.

        Shared ancestors reached along several paths appear once, which is
        what occurrence propagation relies on.
        """
        self.get(sid)
        cached = self._ancestor_cache.get(sid)
        if cached is None:
            closure: set[str] = set()
            stack = list(self._synsets[sid].hypernyms)
            while stack:
                node = stack.pop()
                if node in closure:
                    continue
                closure.add(node)
                stack.extend(self._synsets[node].hypernyms)
            cached = frozenset(closure)
            self._ancestor_cache[sid] = cached
        if include_self:
            return cached | {sid}
        return cached

    def beginner_of(self, sid: str) -> int:
        """Lexicographer file of the unique beginner above a synset.

        Single-parent chains are followed upward.  A synset with several
        hypernyms keeps its own lexfile, so DAG nodes resolve to exactly
        one beginner.
        """
        syn = self.get(sid)
        while len(syn.hypernyms) == 1:
            syn = self.get(syn.hypernyms[0])
        return syn.lexfile

    def __eq__(self, other) -> bool:
        if not isinstance(other, Taxonomy):
            return NotImplemented
        return self._synsets == other._synsets

    def __repr__(self) -> str:
        return f"Taxonomy({len(self)} synsets, {len(self.roots)} roots)"


def _parse_synset_line(line: str) -> Synset:
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
    lemma_tuple = tuple(x for x in lemmas.split(",") if x)
    hyper_tuple = tuple(x for x in hypernyms.split(",") if x)
    return Synset(sid, pos, lemma_tuple, hyper_tuple, lex)


def load_taxonomy(path) -> Taxonomy:
    """Load and validate a taxonomy file.

    Raises TaxonomyError naming the path, with the line number for format
    problems and the offending ids for dangling links, duplicates or
    cycles.
    """
    synsets = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            kind = line.split("\t", 1)[0]
            if kind == "STATUS":
                continue
            try:
                if kind != "SYNSET":
                    raise TaxonomyError(f"unknown record kind {kind!r}")
                synsets.append(_parse_synset_line(line))
            except TaxonomyError as exc:
                raise TaxonomyError(f"{path} line {lineno}: {exc}") from None
    try:
        return Taxonomy(synsets)
    except TaxonomyError as exc:
        raise TaxonomyError(f"{path}: {exc}") from None


def dump_taxonomy(taxonomy: Taxonomy) -> str:
    lines = []
    for sid in taxonomy:
        syn = taxonomy.get(sid)
        lines.append(
            "SYNSET\t%s\t%s\t%d\t%s\t%s"
            % (syn.id, syn.pos, syn.lexfile, ",".join(syn.lemmas), ",".join(syn.hypernyms))
        )
    return "\n".join(lines) + "\n" if lines else ""


def save_taxonomy(taxonomy: Taxonomy, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_taxonomy(taxonomy))
