import random
import re
import tempfile
import tracemalloc
from typing import Iterator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from animacy.fileio import write_atomic
from animacy.taxonomy import (
    BeginnerClass,
    SenseTable,
    Synset,
    Taxonomy,
    TaxonomyError,
    chain_stops,
    dump_taxonomy,
    load_taxonomy,
)

LEMMAS = ["fox", "vat", "oak", "imp", "cog", "elm"]


def all_lemmas(taxonomy: Taxonomy, pos: str | None = None) -> tuple[str, ...]:
    """Distinct lemmas in the taxonomy, optionally restricted by pos."""
    found: set[str] = set()
    for p, by_lemma in taxonomy._senses.items():
        if pos is None or p == pos:
            found.update(by_lemma)
    return tuple(sorted(found))


@st.composite
def random_synsets(draw, mixed_pos=False):
    """Synsets of a small random DAG, each listed after its hypernyms.

    With `mixed_pos`, each synset is a noun or a verb and takes hypernyms
    of its own part of speech only, so there are several roots per pos.
    """
    size = draw(st.integers(1, 12))
    synsets = []
    for i in range(size):
        pos = draw(st.sampled_from(["n", "v"])) if mixed_pos else "n"
        earlier = [f"s{j}" for j in range(i) if synsets[j].pos == pos]
        parent_count = draw(st.integers(0, min(2, len(earlier))))
        parents = draw(st.lists(
            st.sampled_from(earlier) if earlier else st.nothing(),
            min_size=parent_count, max_size=parent_count, unique=True,
        )) if parent_count else []
        lemmas = draw(st.lists(
            st.sampled_from(LEMMAS), min_size=1, max_size=2, unique=True,
        ))
        synsets.append(Synset(
            f"s{i}", pos, tuple(lemmas), tuple(parents),
            draw(st.sampled_from([5, 6, 18, 24])),
        ))
    return synsets


def random_taxonomies(mixed_pos=False):
    """Small random DAGs: parents always precede children, so acyclic."""
    return random_synsets(mixed_pos).map(Taxonomy)


def accepted(**fields) -> bool:
    """True iff `Synset` accepts these fields in an otherwise plain synset."""
    try:
        Synset(**{"id": "x", "pos": "n", "lemmas": ("x",), "hypernyms": (),
                  "lexfile": 0, **fields})
    except TaxonomyError:
        return False
    return True


# any text, with the separators of the file format drawn often
FIELD_TEXT = st.text(st.sampled_from("\t\r\n, #") | st.characters(), max_size=4)


@st.composite
def text_synsets(draw):
    """A random DAG over drawn text ids and lemmas that `Synset` accepts.

    Only a lemma holding a comma is left out, since the file's lemma list
    cannot carry one yet.  Synsets come in any order.
    """
    ids = draw(st.lists(FIELD_TEXT.filter(lambda t: accepted(id=t)),
                        min_size=1, max_size=6, unique=True))
    lemma = FIELD_TEXT.filter(lambda t: "," not in t and accepted(lemmas=(t,)))
    synsets = []
    for i, sid in enumerate(ids):
        pos = draw(st.sampled_from(["n", "v"]))
        earlier = [s.id for s in synsets
                   if s.pos == pos and accepted(hypernyms=(s.id,))]
        parents = draw(st.lists(st.sampled_from(earlier), max_size=2, unique=True)
                       if earlier else st.just([]))
        lemmas = draw(st.lists(lemma, min_size=1, max_size=3, unique=True))
        synsets.append(Synset(sid, pos, tuple(lemmas), tuple(parents),
                              draw(st.integers())))
    return draw(st.permutations(synsets))


class OracleTaxonomy:
    """The dict-of-`Synset` taxonomy that the column store replaced.

    Kept as a slow reference: same construction checks in the same order,
    same lookups, with a depth-first colouring as the cycle check.
    """

    def __init__(self, synsets):
        self._synsets: dict[str, Synset] = {}
        for syn in synsets:
            if syn.id in self._synsets:
                raise TaxonomyError(f"duplicate synset id {syn.id}")
            self._synsets[syn.id] = syn

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

        self.roots = tuple(
            sid for sid, syn in self._synsets.items() if not syn.hypernyms
        )
        self._check_acyclic()

    def _check_acyclic(self):
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

    def __len__(self):
        return len(self._synsets)

    def __contains__(self, sid):
        return sid in self._synsets

    def __iter__(self):
        return iter(self._synsets)

    def get(self, sid):
        try:
            return self._synsets[sid]
        except KeyError:
            raise TaxonomyError(f"unknown synset id {sid}") from None

    def senses(self, lemma, pos):
        return self._lemma_index.get((lemma, pos), ())

    def lemmas(self, pos=None):
        return tuple(sorted({
            lemma for (lemma, p) in self._lemma_index if pos is None or p == pos
        }))

    def hyponyms(self, sid):
        self.get(sid)
        return self._hyponyms[sid]

    def hypernyms(self, sid):
        return self.get(sid).hypernyms

    def ancestors(self, sid, include_self=False):
        self.get(sid)
        closure: set[str] = set()
        stack = list(self._synsets[sid].hypernyms)
        while stack:
            node = stack.pop()
            if node not in closure:
                closure.add(node)
                stack.extend(self._synsets[node].hypernyms)
        return frozenset(closure | {sid} if include_self else closure)

    def beginner_of(self, sid):
        syn = self.get(sid)
        while len(syn.hypernyms) == 1:
            syn = self.get(syn.hypernyms[0])
        return syn.lexfile


def oracle_synset(line):
    """The loader's line parse and field checks as they were written out."""
    fields = line.split("\t")
    if len(fields) == 5:
        fields.append("")
    if len(fields) != 6:
        raise TaxonomyError(f"expected 6 tab-separated fields, got {len(fields)}")
    _, sid, pos, lexfile, lemmas, hypernyms = fields
    # the writers' spelling: ASCII digits, optionally negative
    if not re.fullmatch(r"-?[0-9]+", lexfile, re.ASCII):
        raise TaxonomyError(f"bad lexfile number {lexfile!r}")
    lex = int(lexfile)
    lemmas = tuple(x for x in lemmas.split(",") if x)
    hypernyms = tuple(x for x in hypernyms.split(",") if x)
    if not sid:
        raise TaxonomyError("synset id must be non-empty")
    if pos not in ("n", "v"):
        raise TaxonomyError(f"{sid}: pos must be 'n' or 'v', got {pos!r}")
    if not lemmas:
        raise TaxonomyError(f"{sid}: at least one lemma required")
    if len(set(lemmas)) != len(lemmas):
        raise TaxonomyError(f"{sid}: duplicate lemma")
    if len(set(hypernyms)) != len(hypernyms):
        raise TaxonomyError(f"{sid}: duplicate hypernym id")
    for lemma in lemmas:
        if lemma != lemma.lower():
            raise TaxonomyError(f"{sid}: lemma {lemma!r} is not lowercase")
    return Synset(sid, pos, lemmas, hypernyms, lex)


def oracle_load(path):
    synsets = []
    # undecodable bytes read as lone surrogates, reported by line; a
    # leading byte-order mark is dropped
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.rstrip("\n")
            escaped = [c for c in line if "\udc80" <= c <= "\udcff"]
            if escaped:
                raise TaxonomyError(f"{path} line {lineno}: invalid UTF-8 byte "
                                    f"0x{ord(escaped[0]) - 0xDC00:02x}")
            if not line or line.startswith("#"):
                continue
            kind = line.split("\t", 1)[0]
            if kind == "STATUS":
                continue
            try:
                if kind != "SYNSET":
                    raise TaxonomyError(f"unknown record kind {kind!r}")
                synsets.append(oracle_synset(line))
            except TaxonomyError as exc:
                raise TaxonomyError(f"{path} line {lineno}: {exc}") from None
    try:
        return OracleTaxonomy(synsets)
    except TaxonomyError as exc:
        raise TaxonomyError(f"{path}: {exc}") from None


def chain_taxonomy():
    return Taxonomy([
        Synset("r", "n", ("thing",), (), 18),
        Synset("m", "n", ("being",), ("r",), 18),
        Synset("l", "n", ("mortal",), ("m",), 18),
    ])


class TestLoading:
    def test_three_synset_chain(self, tmp_path):
        path = tmp_path / "chain.tax"
        path.write_text(
            "SYNSET\tr\tn\t18\tthing\t\n"
            "SYNSET\tm\tn\t18\tbeing\tr\n"
            "SYNSET\tl\tn\t18\tmortal\tm\n"
        )
        t = load_taxonomy(path)
        assert len(t) == 3
        assert t.roots == ("r",)

    def test_cycle_is_rejected_naming_both_ids(self, tmp_path):
        path = tmp_path / "cycle.tax"
        path.write_text(
            "SYNSET\ta\tn\t18\tup\tb\n"
            "SYNSET\tb\tn\t18\tdown\ta\n"
        )
        with pytest.raises(TaxonomyError, match="cycle") as err:
            load_taxonomy(path)
        assert "a" in str(err.value) and "b" in str(err.value)

    def test_dangling_hypernym(self, tmp_path):
        path = tmp_path / "dangling.tax"
        path.write_text("SYNSET\ta\tn\t18\tword\tnowhere\n")
        with pytest.raises(TaxonomyError, match="dangling"):
            load_taxonomy(path)

    def test_duplicate_id(self):
        with pytest.raises(TaxonomyError, match="duplicate"):
            Taxonomy([
                Synset("x", "n", ("one",), (), 18),
                Synset("x", "n", ("two",), (), 18),
            ])

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.tax"
        path.write_text("SYNSET\ta\tn\teighteen\tword\t\n")
        with pytest.raises(TaxonomyError, match="line 1"):
            load_taxonomy(path)

    def test_duplicate_lemma_or_hypernym_within_synset(self):
        with pytest.raises(TaxonomyError, match="duplicate lemma"):
            Synset("x", "n", ("cat", "cat"), (), 5)
        with pytest.raises(TaxonomyError, match="duplicate hypernym"):
            Taxonomy([
                Synset("r", "n", ("top",), (), 18),
                Synset("x", "n", ("cat",), ("r", "r"), 5),
            ])

    def test_pos_mismatch_across_hypernym_edge(self):
        with pytest.raises(TaxonomyError, match="part of speech"):
            Taxonomy([
                Synset("r", "n", ("thing",), (), 18),
                Synset("v1", "v", ("do",), ("r",), 31),
            ])

    def test_round_trip(self, toy_taxonomy, tmp_path):
        path = tmp_path / "copy.tax"
        write_atomic(path, dump_taxonomy(toy_taxonomy))
        assert load_taxonomy(path) == toy_taxonomy


class TestSenses:
    def test_monosemous_lemma(self, toy_taxonomy):
        assert toy_taxonomy.senses("teacher", "n") == ("n-teacher",)

    def test_unknown_lemma_is_empty_not_error(self, toy_taxonomy):
        assert toy_taxonomy.senses("quux", "n") == ()

    def test_cat_spans_two_beginners_in_file_order(self, toy_taxonomy):
        senses = toy_taxonomy.senses("cat", "n")
        assert senses == ("n-cat-animal", "n-cat-machine")
        assert toy_taxonomy.beginner_of("n-cat-animal") == 5
        assert toy_taxonomy.beginner_of("n-cat-machine") == 6

    def test_lemma_index_matches_membership(self, toy_taxonomy):
        for sid in toy_taxonomy:
            syn = toy_taxonomy.get(sid)
            for lemma in syn.lemmas:
                assert sid in toy_taxonomy.senses(lemma, syn.pos)


class TestBeginners:
    def test_root_is_its_own_beginner(self, toy_taxonomy):
        assert toy_taxonomy.beginner_of("n-person") == 18

    def test_chain_to_person_root(self, toy_taxonomy):
        assert toy_taxonomy.beginner_of("n-teacher") == 18

    def test_multi_parent_node_keeps_own_lexfile(self, toy_taxonomy):
        # n-sentinel sits under both n-person (18) and n-device (6)
        assert toy_taxonomy.beginner_of("n-sentinel") == 18

    def test_beginner_total_on_whole_taxonomy(self, toy_taxonomy):
        for sid in toy_taxonomy:
            assert isinstance(toy_taxonomy.beginner_of(sid), int)

    def test_unknown_synset(self, toy_taxonomy):
        with pytest.raises(TaxonomyError):
            toy_taxonomy.beginner_of("n-missing")


class TestBeginnerClass:
    def test_noun_defaults(self):
        c = BeginnerClass()
        assert c.animate_noun_lexfiles == frozenset({5, 18, 24})
        assert c.is_animate(18, "n")
        assert not c.is_animate(6, "n")

    def test_verb_defaults(self):
        c = BeginnerClass()
        assert c.animate_verb_lexfiles == frozenset({31, 32, 37, 41})
        assert c.is_animate(32, "v")
        assert not c.is_animate(38, "v")

    def test_empty_set_rejected(self):
        with pytest.raises(TaxonomyError):
            BeginnerClass(animate_noun_lexfiles=frozenset())


def sense_mass(senses, is_animate, weights=None):
    """Animate and inanimate mass over `senses`, in sense order: each
    sense adds its weight, or 1 without weights, to the side that
    `is_animate` picks, decided anew on every call."""
    animate = 0.0
    inanimate = 0.0
    for sid in senses:
        mass = weights[sid] if weights is not None else 1.0
        if is_animate(sid):
            animate += mass
        else:
            inanimate += mass
    return animate, inanimate


def own_column(taxonomy, animate):
    """The stops and values of a `SenseTable` in which each synset is its
    own stop, animate iff it is in `animate`."""
    return (np.arange(len(taxonomy)),
            np.array([1 if sid in animate else -1 for sid in taxonomy], np.int8))


def unasked(sid):
    raise AssertionError(f"{sid} has a value and must not be resolved")


class TestSenseTable:
    def test_each_sense_is_judged_once(self):
        t = Taxonomy([
            Synset("a", "n", ("fox", "oak"), (), 5),
            Synset("b", "n", ("fox",), (), 6),
            Synset("c", "v", ("fox",), (), 31),
        ])
        asked = []
        table = SenseTable(t, np.arange(3), np.zeros(3, np.int8),
                           lambda sid: asked.append(sid) or sid != "b")
        for _ in range(2):
            assert table.mass("fox", "n") == (1.0, 1.0)
            assert table.mass("oak", "n", {"a": 0.25}) == (0.25, 0.0)
            assert table.mass("fox", "v") == (1.0, 0.0)
            assert table.senses("elm", "n") == ()
            assert table.counts(["fox", "elm", "oak"], "n").tolist() == [
                [2.0, 0.0, 1.0], [1.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
        assert asked == ["a", "b", "c"]

    def test_a_chain_answers_as_its_stop(self):
        # c2 -> c1 -> r is one chain, whose stop r is resolved once for all
        t = Taxonomy([
            Synset("r", "n", ("top",), (), 5),
            Synset("c1", "n", ("mid",), ("r",), 6),
            Synset("c2", "n", ("fox",), ("c1",), 6),
        ])
        asked = []
        table = SenseTable(t, chain_stops(t, np.zeros(3, bool)), np.zeros(3, np.int8),
                           lambda sid: asked.append(sid) or True)
        assert table.counts(["fox", "mid", "top"], "n").tolist() == [
            [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]
        assert asked == ["r"]

    @settings(max_examples=100, deadline=None)
    @given(taxonomy=random_taxonomies(mixed_pos=True), data=st.data())
    def test_masses_match_oracle_exactly(self, taxonomy, data):
        animate = data.draw(st.sets(st.sampled_from(list(taxonomy))))
        table = SenseTable(taxonomy, *own_column(taxonomy, animate), unasked)
        weight = st.sampled_from([0.0, 1.0, 0.1, 1 / 3]) | st.floats(0.0, 1.0)
        for lemma in (*LEMMAS, "ghost"):
            for pos in ("n", "v"):
                senses = taxonomy.senses(lemma, pos)
                assert table.senses(lemma, pos) == senses
                weights = {sid: data.draw(weight) for sid in senses}
                for given_weights in (None, weights):
                    got = table.mass(lemma, pos, given_weights)
                    expected = sense_mass(senses, animate.__contains__, given_weights)
                    assert [x.hex() for x in got] == [x.hex() for x in expected]

    @settings(max_examples=100, deadline=None)
    @given(taxonomy=random_taxonomies(mixed_pos=True), data=st.data())
    def test_bulk_counts_equal_mass(self, taxonomy, data):
        """The per-lemma triples of one `counts` call, OOV lemmas and
        repeats included, are each lemma's sense count and `mass`."""
        animate = data.draw(st.sets(st.sampled_from(list(taxonomy))))
        lemmas = data.draw(st.lists(st.sampled_from([*LEMMAS, "ghost", "quux"]), max_size=10))
        for pos in ("n", "v"):
            # one table answers in bulk before any single lemma, one after
            fresh = SenseTable(taxonomy, *own_column(taxonomy, animate), unasked)
            bulk = fresh.counts(lemmas, pos)
            warm = SenseTable(taxonomy, *own_column(taxonomy, animate), unasked)
            singles = [(float(len(taxonomy.senses(lemma, pos))), *warm.mass(lemma, pos))
                       for lemma in lemmas]
            assert bulk.shape == (3, len(lemmas))
            assert [tuple(row) for row in bulk.T.tolist()] == singles
            assert warm.counts(lemmas, pos).tolist() == bulk.tolist()


class TestGeneratedTaxonomies:
    @settings(max_examples=60, deadline=None)
    @given(taxonomy=random_taxonomies())
    def test_save_load_round_trip(self, taxonomy):
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/roundtrip.tax"
            write_atomic(path, dump_taxonomy(taxonomy))
            assert load_taxonomy(path) == taxonomy

    @settings(max_examples=200, deadline=None)
    @given(synsets=text_synsets())
    def test_any_accepted_text_round_trips(self, synsets):
        taxonomy = Taxonomy(synsets)
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/roundtrip.tax"
            write_atomic(path, dump_taxonomy(taxonomy))
            loaded = load_taxonomy(path)
        assert loaded == taxonomy
        assert [loaded.get(syn.id) for syn in synsets] == synsets

    @settings(max_examples=60, deadline=None)
    @given(taxonomy=random_taxonomies())
    def test_lemma_index_is_inverse_of_membership(self, taxonomy):
        for sid in taxonomy:
            syn = taxonomy.get(sid)
            for lemma in syn.lemmas:
                assert sid in taxonomy.senses(lemma, syn.pos)
        for lemma in all_lemmas(taxonomy, "n"):
            for sid in taxonomy.senses(lemma, "n"):
                assert lemma in taxonomy.get(sid).lemmas

    @settings(max_examples=60, deadline=None)
    @given(taxonomy=random_taxonomies())
    def test_beginner_is_total_and_a_real_root_unless_multiparent(self, taxonomy):
        for sid in taxonomy:
            lexfile = taxonomy.beginner_of(sid)
            assert isinstance(lexfile, int)


def test_ancestors_deduplicate_diamond(toy_taxonomy):
    # lamp reaches n-artifact through both n-device and n-furniture
    anc = toy_taxonomy.ancestors("n-lamp")
    assert anc == frozenset({"n-device", "n-furniture", "n-artifact"})


def test_status_lines_are_tolerated(tmp_path):
    path = tmp_path / "combined.tax"
    path.write_text(
        "SYNSET\tr\tn\t18\tthing\t\n"
        "STATUS\tr\tA\n"
    )
    assert len(load_taxonomy(path)) == 1


def assert_same_taxonomy(taxonomy, oracle):
    ids = list(oracle)
    assert list(taxonomy) == ids
    assert len(taxonomy) == len(oracle)
    assert taxonomy.roots == oracle.roots
    for sid in ids + ["nowhere"]:
        assert (sid in taxonomy) == (sid in oracle)
    for sid in ids:
        assert taxonomy.get(sid) == oracle.get(sid)
        assert taxonomy.hypernyms(sid) == oracle.hypernyms(sid)
        assert taxonomy.hyponyms(sid) == oracle.hyponyms(sid)
        assert taxonomy.ancestors(sid) == oracle.ancestors(sid)
        assert taxonomy.ancestors(sid, include_self=True) == oracle.ancestors(
            sid, include_self=True)
        assert taxonomy.beginner_of(sid) == oracle.beginner_of(sid)
    for pos in ("n", "v", "x"):
        for lemma in LEMMAS + ["quux"]:
            assert taxonomy.senses(lemma, pos) == oracle.senses(lemma, pos)
    for pos in (None, "n", "v", "x"):
        assert all_lemmas(taxonomy, pos) == oracle.lemmas(pos)
    with pytest.raises(TaxonomyError) as new_err:
        taxonomy.get("nowhere")
    with pytest.raises(TaxonomyError) as old_err:
        oracle.get("nowhere")
    assert str(new_err.value) == str(old_err.value)


def shuffled_synsets():
    """Random DAG synsets in an order where hypernyms may come later."""
    return random_synsets(mixed_pos=True).flatmap(st.permutations)


class TestColumnStoreMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(synsets=shuffled_synsets())
    def test_lookups_match_dict_of_synsets(self, synsets):
        taxonomy = Taxonomy(synsets)
        assert_same_taxonomy(taxonomy, OracleTaxonomy(synsets))
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/copy.tax"
            write_atomic(path, dump_taxonomy(taxonomy))
            loaded = load_taxonomy(path)
            assert loaded == Taxonomy(synsets)
            assert_same_taxonomy(loaded, oracle_load(path))

    @settings(max_examples=150, deadline=None)
    @given(synsets=shuffled_synsets(), data=st.data())
    def test_memoized_beginners_match_oracle_in_any_order(self, synsets, data):
        # the column of beginners is filled on the first query, whichever
        # synset it names, and read by every later one
        taxonomy = Taxonomy(synsets)
        oracle = OracleTaxonomy(synsets)
        for _ in range(2):
            for sid in data.draw(st.permutations([s.id for s in synsets])):
                assert taxonomy.beginner_of(sid) == oracle.beginner_of(sid), sid

    @settings(max_examples=60, deadline=None)
    @given(synsets=shuffled_synsets(), data=st.data())
    def test_equality_ignores_order(self, synsets, data):
        reordered = data.draw(st.permutations(synsets))
        assert Taxonomy(synsets) == Taxonomy(reordered)
        changed = list(synsets)
        first = changed[0]
        changed[0] = Synset(first.id, first.pos, first.lemmas + ("yew",),
                            first.hypernyms, first.lexfile)
        assert Taxonomy(synsets) != Taxonomy(changed)


CORRUPTIONS = ("duplicate id", "dangling hypernym", "cross-pos edge",
               "bad lexfile", "malformed line", "uppercase lemma",
               "duplicate lemma", "duplicate hypernym", "empty id", "bad pos",
               "empty lemma field", "empty list items", "hypernym cycle")


def corrupt(lines, kind, rng):
    """Apply one corruption in place to the SYNSET lines of a saved file."""
    records = [i for i, line in enumerate(lines) if line.startswith("SYNSET")]
    at = rng.choice(records or range(len(lines)))
    fields = lines[at].split("\t")
    if kind == "duplicate id":
        copy = list(fields)
        copy[4] = "twin"
        lines.insert(rng.randrange(len(lines) + 1), "\t".join(copy))
        return
    if kind == "dangling hypernym":
        fields[5] = ",".join([x for x in fields[5].split(",") if x] + ["ghost"])
    elif kind == "cross-pos edge":
        # flip the part of speech: every edge to or from the line crosses
        # pos, and a line with no edges gets one to a synset of the other
        fields[2] = "v" if fields[2] == "n" else "n"
        if not fields[5]:
            others = [x.split("\t") for x in lines]
            targets = [f[1] for f in others if f[2] != fields[2]]
            if targets:
                fields[5] = rng.choice(targets)
            else:
                fields[5] = "ghost"
    elif kind == "bad lexfile":
        # `int` alone would take the last four
        fields[3] = rng.choice(["x", "", "1.5", "1_8", "+5", " 5", "\u0661\u0668"])
    elif kind == "uppercase lemma":
        fields[4] = rng.choice([fields[4].upper(), fields[4].capitalize()])
    elif kind == "duplicate lemma":
        fields[4] += "," + rng.choice(fields[4].split(","))
    elif kind == "duplicate hypernym":
        links = [x for x in fields[5].split(",") if x]
        links = links or [rng.choice(lines).split("\t")[1]]
        fields[5] = ",".join(links + [rng.choice(links)])
    elif kind == "empty id":
        fields[1] = ""
    elif kind == "bad pos":
        fields[2] = rng.choice(["a", "", "N", "nv"])
    elif kind == "empty lemma field":
        fields[4] = rng.choice(["", ",", ",,"])
    elif kind == "empty list items":
        # valid: empty items are dropped on load
        field = rng.choice([4, 5])
        fields[field] = rng.choice([",", ",,", ""]) + fields[field] + rng.choice([",", ""])
    elif kind == "hypernym cycle":
        close_cycle(lines, at, rng)
        return
    else:
        fields = rng.choice([fields[:3], fields + ["extra"], ["SYNSTE"] + fields[1:]])
    lines[at] = "\t".join(fields)


def close_cycle(lines, at, rng):
    """Close a hypernym cycle through line `at`: walk up hypernyms from its
    synset, then give the synset reached that line's synset as a hypernym."""
    records = [line.split("\t") for line in lines]
    rows = {fields[1]: row for row, fields in enumerate(records) if len(fields) == 6}
    row, walked = at, set()
    while row not in walked:
        walked.add(row)
        links = [x for x in records[row][5].split(",") if x in rows]
        if not links:
            break
        row = rows[rng.choice(links)]
    links = [x for x in records[row][5].split(",") if x]
    records[row][5] = ",".join(links + [records[at][1]])
    lines[row] = "\t".join(records[row])


class TestLoaderErrorsMatchOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        synsets=shuffled_synsets(),
        kinds=st.lists(st.sampled_from(CORRUPTIONS), min_size=1, max_size=2),
        seed=st.integers(0, 2**16),
    )
    def test_same_first_error(self, synsets, kinds, seed):
        rng = random.Random(seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/bad.tax"
            write_atomic(path, dump_taxonomy(Taxonomy(synsets)))
            with open(path, encoding="utf-8") as handle:
                lines = handle.read().splitlines()
            # a malformed line goes last, so the other corruptions find
            # well-formed fields to change
            for kind in sorted(kinds, key=lambda k: k == "malformed line"):
                corrupt(lines, kind, rng)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
            # two corruptions can cancel out, so a clean load must match too
            expected = load_outcome(oracle_load, path)
            assert load_outcome(load_taxonomy, path) == expected
            if expected is None:
                assert_same_taxonomy(load_taxonomy(path), oracle_load(path))


EDGE_CASES = {
    "empty list items": "SYNSET\tr\tn\t18\tx,,y,\t\nSYNSET\tc\tn\t5\t,z\t,r,\n",
    "empty first item": "SYNSET\tr\tn\t18\t,x\t\nSYNSET\tc\tn\t5\tz\t,r\n",
    "empty inner item": "SYNSET\tr\tn\t18\tx,,y\t\nSYNSET\tc\tn\t5\tz\tr\n",
    "empty last item": "SYNSET\tr\tn\t18\tx\t\nSYNSET\tc\tn\t5\tz,\tr,\n",
    "lost trailing tab": "SYNSET\tr\tn\t18\tthing\n",
    "comments and statuses": "# c\n\nSTATUS\tr\tA\nSYNSET\tr\tn\t18\tthing\t\n",
    "uppercase lemma": "SYNSET\tr\tn\t18\tThing\t\n",
    "duplicate lemma": "SYNSET\tr\tn\t18\tthing,thing\t\n",
    "duplicate hypernym": "SYNSET\tr\tn\t18\tthing\t\nSYNSET\tc\tn\t18\tcat\tr,r\n",
    "empty id": "SYNSET\t\tn\t18\tthing\t\n",
    "bad pos": "SYNSET\tr\ta\t18\tthing\t\n",
    "no lemmas": "SYNSET\tr\tn\t18\t,\t\n",
    "cross-pos before dangling": (
        "SYNSET\tr\tn\t18\tthing\t\nSYNSET\tv1\tv\t31\tdo\tr\n"
        "SYNSET\tc\tn\t18\tcat\tghost\n"
    ),
    "dangling before cross-pos": (
        "SYNSET\tr\tn\t18\tthing\t\nSYNSET\tc\tn\t18\tcat\tghost\n"
        "SYNSET\tv1\tv\t31\tdo\tr\n"
    ),
    "line error after duplicate": (
        "SYNSET\tr\tn\t18\tthing\t\nSYNSET\tr\tn\t18\tthing\t\n"
        "SYNSET\tx\tn\teighteen\tw\t\n"
    ),
    "two-cycle": "SYNSET\ta\tn\t5\tx\tb\nSYNSET\tb\tn\t5\ty\ta\n",
    "two-cycle with hanging chain": (
        "SYNSET\td\tn\t5\tw\tc\nSYNSET\tc\tn\t5\tz\ta\n"
        "SYNSET\ta\tn\t5\tx\tb\nSYNSET\tb\tn\t5\ty\ta\n"
    ),
    "crlf line endings": "SYNSET\tr\tn\t18\tthing\t\r\nSYNSET\tc\tn\t5\tcat,fox\tr\r\n",
    "lone cr line endings": "SYNSET\tr\tn\t18\tthing\t\rSYNSET\tc\tn\t5\tcat\tr\r",
    "crlf line error": "SYNSET\tr\tn\t18\tthing\t\r\nSYNSET\tc\tn\t5\tCat\tr\r\n",
    "lines between records": (
        "SYNSET\tr\tn\t18\tthing\t\n# note\n\nSTATUS\tr\tA\nSTATUS\n"
        "SYNSET\tc\tn\t5\tcat\tr\n\n"
    ),
    "lost trailing tab between records": (
        "SYNSET\tr\tn\t18\tthing\nSYNSET\tc\tn\t5\tcat\tr\nSYNSET\tv\tv\t31\tdo\n"
    ),
    "no final newline": "SYNSET\tr\tn\t18\tthing\t\nSYNSET\tc\tn\t5\tcat\tr",
    "non-ascii lemma": (
        "SYNSET\tr\tn\t18\tcaf\u00e9,na\u00efve\t\nSYNSET\tc\tn\t5\tfox,caf\u00e9\tr\n"
    ),
    "non-ascii uppercase lemma": (
        "SYNSET\tr\tn\t18\tcaf\u00e9\t\nSYNSET\tc\tn\t5\t\u00e9clair,\u00c9cole\tr\n"
    ),
    "invalid utf-8 byte": "SYNSET\tr\tn\t18\tthing\t\nSYNSET\tc\tn\t5\tcaf\udce9\tr\n",
    "invalid utf-8 byte in a comment": "SYNSET\tr\tn\t18\tthing\t\n# caf\udce9\n",
    "invalid utf-8 byte after a line error": (
        "SYNSET\tr\tn\tx\tthing\t\nSYNSET\tc\tn\t5\tcaf\udce9\tr\n"
    ),
    "byte order mark": "\ufeffSYNSET\tr\tn\t18\tthing\t\n",
    "underscore in a lexfile": "SYNSET\tr\tn\t1_8\tthing\t\n",
    "plus sign on a lexfile": "SYNSET\tr\tn\t18\tthing\t\nSYNSET\tc\tn\t+5\tcat\tr\n",
    "space after a lexfile": "SYNSET\tr\tn\t18 \tthing\t\n",
    "arabic-indic lexfile": "SYNSET\tr\tn\t\u0661\u0668\tthing\t\n",
    "arabic-indic lexfile on a line to clean": "SYNSET\tr\tn\t\u0661\u0668\tthing\n",
    "negative lexfile": "SYNSET\tr\tn\t-18\tthing\t\n",
    "unknown record kind": "SYNSET\tr\tn\t18\tthing\t\nSYNSETS\tc\tn\t5\tcat\tr\n",
    "record kind alone": "SYNSET\tr\tn\t18\tthing\t\nSYNSET\n",
    "too many fields": "SYNSET\tr\tn\t18\tthing\t\t\n",
    "empty id in a later record": "SYNSET\tr\tn\t18\tthing\t\nSYNSET\t\tn\t5\tcat\t\n",
    "duplicate lemma in a long list": "SYNSET\tr\tn\t18\ta,b,c,d,b\t\n",
    "hypernym cycle through three records": (
        "SYNSET\tr\tn\t18\tthing\t\nSYNSET\ta\tn\t5\tx\tc,r\n"
        "SYNSET\tb\tn\t5\ty\ta\nSYNSET\tc\tn\t5\tz\tb\n"
    ),
    "polysemous lemmas": (
        "SYNSET\tr\tn\t18\tfox,oak\t\nSYNSET\tc\tn\t5\toak,fox,elm\tr\n"
        "SYNSET\td\tv\t31\tfox\t\nSYNSET\te\tn\t5\tfox\tc,r\n"
    ),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_hand_written_files_load_as_oracle(tmp_path, case):
    path = tmp_path / "case.tax"
    path.write_bytes(EDGE_CASES[case].encode("utf-8", "surrogateescape"))
    expected = load_outcome(oracle_load, path)
    assert load_outcome(load_taxonomy, path) == expected
    if expected is None:
        assert_same_taxonomy(load_taxonomy(path), oracle_load(path))


def generated_lines(size=6000, seed=15):
    """A deterministic taxonomy file of `size` synsets, as lines.

    One synset in five is a verb.  Most have one to three hypernyms among
    earlier synsets of their part of speech, and lemmas mix LEMMAS (so many
    are polysemous) with rarer ones.  The lines are shuffled, so hypernyms
    often come after their hyponyms, and a comment and a STATUS line sit
    among them.
    """
    rng = random.Random(seed)
    lines = []
    for i in range(size):
        pos = "v" if i % 5 == 0 else "n"
        earlier = [j for j in rng.sample(range(i), min(i, 8)) if (j % 5 == 0) == (pos == "v")]
        links = earlier[:rng.choice([0, 1, 1, 1, 1, 2, 3])] if i > 20 else []
        names = dict.fromkeys(rng.choice(LEMMAS + [f"w{rng.randrange(size)}"])
                              for _ in range(rng.randint(1, 4)))
        lines.append(f"SYNSET\ts{i}\t{pos}\t{rng.choice([5, 6, 18, 24, 31])}\t"
                     f"{','.join(names)}\t{','.join(f's{j}' for j in links)}")
    rng.shuffle(lines)
    lines.insert(size // 3, "# generated")
    lines.insert(size // 2, "STATUS\ts7\tA")
    return lines


@pytest.fixture(scope="module")
def generated_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("generated") / "generated.tax"
    path.write_text("\n".join(generated_lines()) + "\n")
    return path


class TestGeneratedFile:
    def test_loads_as_oracle(self, generated_path):
        taxonomy, oracle = load_taxonomy(generated_path), oracle_load(generated_path)
        assert_same_taxonomy(taxonomy, oracle)
        for pos in ("n", "v"):
            for lemma in oracle.lemmas(pos):
                assert taxonomy.senses(lemma, pos) == oracle.senses(lemma, pos)

    @pytest.mark.parametrize("kind", CORRUPTIONS)
    def test_same_first_error(self, tmp_path, generated_path, kind):
        lines = generated_path.read_text().splitlines()
        corrupt(lines, kind, random.Random(kind))
        path = tmp_path / "bad.tax"
        path.write_text("\n".join(lines) + "\n")
        expected = load_outcome(oracle_load, path)
        assert load_outcome(load_taxonomy, path) == expected
        if expected is None:
            assert_same_taxonomy(load_taxonomy(path), oracle_load(path))

    def test_load_holds_one_block_of_fields_at_a_time(self, generated_path):
        # Measured here: the loaded taxonomy keeps 1.7 MB, and the load
        # peaks at 2.1 MB.  A parse that splits the whole file at once
        # peaks at 2.9 MB, 1.7 times what it keeps.
        tracemalloc.start()
        try:
            taxonomy = load_taxonomy(generated_path)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(taxonomy) == 6000
        assert peak < 1.5 * retained


def load_outcome(load, path):
    """The error message of loading `path`, or None when it loads."""
    try:
        load(path)
    except TaxonomyError as exc:
        return str(exc)
    return None


CYCLE = re.compile(r"hypernym cycle involving (\S+) and (\S+)$")


def cycle_edge(build):
    with pytest.raises(TaxonomyError) as err:
        build()
    match = CYCLE.search(str(err.value))
    assert match, str(err.value)
    return match.groups()


def load_text(tmp_path, text):
    path = tmp_path / "cyclic.tax"
    path.write_text(text)
    return lambda: load_taxonomy(path)


def synset_lines(synsets):
    return "".join(
        f"SYNSET\t{s.id}\t{s.pos}\t{s.lexfile}\t{','.join(s.lemmas)}\t"
        f"{','.join(s.hypernyms)}\n"
        for s in synsets
    )


class TestCycleReport:
    def test_self_loop(self, tmp_path):
        loop = [Synset("a", "n", ("up",), ("a",), 18)]
        assert cycle_edge(lambda: Taxonomy(loop)) == ("a", "a")
        assert cycle_edge(load_text(tmp_path, synset_lines(loop))) == ("a", "a")

    # a -> b -> c -> a, with d -> a, e -> d, f -> e hanging below the cycle
    # and an unrelated tree r <- s <- t
    CYCLIC = {
        "a": ("b",), "b": ("c",), "c": ("a",),
        "d": ("a",), "e": ("d",), "f": ("e",),
        "r": (), "s": ("r",), "t": ("s",),
    }
    ON_CYCLE = {("a", "b"), ("b", "c"), ("c", "a")}

    @pytest.mark.parametrize("order", [
        "abcdefrst", "fedcbatsr", "rstfedabc", "tdaefbsrc",
    ])
    def test_three_cycle_names_an_edge_of_it(self, tmp_path, order):
        synsets = [
            Synset(sid, "n", (f"w{sid}",), self.CYCLIC[sid], 18) for sid in order
        ]
        assert cycle_edge(lambda: Taxonomy(synsets)) in self.ON_CYCLE
        loaded = cycle_edge(load_text(tmp_path, synset_lines(synsets)))
        assert loaded in self.ON_CYCLE


def oracle_stops(synsets, stop):
    """Each synset's nearest stop up its single-parent chain, walked: a
    synset is a stop if `stop` holds its id or it has other than one
    hypernym."""
    by_id = {syn.id: syn for syn in synsets}

    def walk(sid):
        while sid not in stop and len(by_id[sid].hypernyms) == 1:
            sid = by_id[sid].hypernyms[0]
        return sid

    return {sid: walk(sid) for sid in by_id}


class TestChainStops:
    @settings(max_examples=150, deadline=None)
    @given(synsets=shuffled_synsets(), data=st.data())
    def test_pointer_jumping_matches_walk(self, synsets, data):
        taxonomy = Taxonomy(synsets)
        stop = data.draw(st.sets(st.sampled_from([syn.id for syn in synsets])))
        got = chain_stops(taxonomy, np.array([sid in stop for sid in taxonomy], bool))
        ids = list(taxonomy)
        assert {sid: ids[at] for sid, at in zip(ids, got.tolist())} == oracle_stops(
            synsets, stop)

    def test_long_chain(self):
        synsets = [Synset("s0", "n", ("fox",), (), 5)] + [
            Synset(f"s{i}", "n", ("fox",), (f"s{i - 1}",), 6) for i in range(1, 100)]
        taxonomy = Taxonomy(synsets)
        assert chain_stops(taxonomy, np.zeros(100, bool)).tolist() == [0] * 100
        stop = np.zeros(100, bool)
        stop[50] = True
        assert chain_stops(taxonomy, stop).tolist() == [0] * 50 + [50] * 50

    def test_empty_taxonomy(self):
        assert chain_stops(Taxonomy([]), np.zeros(0, bool)).tolist() == []
