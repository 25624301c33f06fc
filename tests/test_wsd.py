import math
import random
import re
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from animacy.corpus import Document
from animacy.enrichment import EnrichedTaxonomy, Status
from animacy.mbl import extract_features
from animacy.rules import noun_ratios, sense_table, verb_ratios
from animacy import wsd
from animacy.taxonomy import NOUN, BeginnerClass, Synset, Taxonomy
from animacy.wsd import (
    ICTable,
    SenseWeighting,
    disambiguation_weights,
    document_weights,
    information_content,
    load_counts,
)
from tests.test_corpus import make_np
from tests.test_taxonomy import all_lemmas, random_taxonomies, sense_mass


def pair_taxonomy():
    """Six synsets: a high-information hub shared by one sense of each of
    two lemmas, whose other senses sit directly under the root."""
    return Taxonomy([
        Synset("root", "n", ("top",), (), 6),
        Synset("hub", "n", ("hub",), ("root",), 6),
        Synset("s1a", "n", ("alpha",), ("hub",), 6),
        Synset("s2a", "n", ("beta",), ("hub",), 6),
        Synset("s1b", "n", ("alpha",), ("root",), 6),
        Synset("s2b", "n", ("beta",), ("root",), 6),
    ])


def uniform_weighting(taxonomy):
    """Equal weight on every sense of every lemma (nouns and verbs)."""
    weights = {}
    for pos in ("n", "v"):
        for lemma in all_lemmas(taxonomy, pos):
            senses = taxonomy.senses(lemma, pos)
            for sid in senses:
                weights.setdefault(lemma, {})[sid] = 1.0 / len(senses)
    return SenseWeighting(weights)


class FlatSenseWeighting:
    """Reference for `SenseWeighting`: one flat table keyed by (lemma,
    synset id), from which `for_lemma` copies a lemma's weights out."""

    def __init__(self, weights):
        self._weights = dict(weights)

    def for_lemma(self, lemma, sense_ids):
        out = {}
        for sid in sense_ids:
            w = self._weights.get((lemma, sid))
            if w is None:
                return None
            out[sid] = w
        return out if out else None


def occurrences(sense_times):
    nps = []
    i = 0
    for sense, times in sense_times:
        for _ in range(times):
            nps.append(make_np(sent=0, np=i, head="x", sense_key=sense))
            i += 1
    return [Document("d", tuple(nps), 0, 0)]


def oracle_most_informative_subsumer(senses_a, senses_b, taxonomy, ic):
    """Best (ic, synset) over the common subsumers of every sense pair,
    ties toward the smaller synset id."""
    best = None
    for sa in senses_a:
        closure_a = taxonomy.ancestors(sa, include_self=True)
        for sb in senses_b:
            common = closure_a & taxonomy.ancestors(sb, include_self=True)
            for sub in common:
                value = ic.of(sub)
                if best is None or value > best[0] or (value == best[0] and sub < best[1]):
                    best = (value, sub)
    return best


def oracle_weights(nouns, taxonomy: Taxonomy, ic: ICTable) -> dict:
    """Slow reference for `disambiguation_weights`: intersect the closures
    of every sense pair of every lemma pair."""
    lemmas = sorted({x for x in nouns if taxonomy.senses(x, NOUN)})
    support = {
        lemma: {sid: 0.0 for sid in taxonomy.senses(lemma, NOUN)} for lemma in lemmas
    }
    for i, lemma_a in enumerate(lemmas):
        senses_a = taxonomy.senses(lemma_a, NOUN)
        for lemma_b in lemmas[i + 1:]:
            senses_b = taxonomy.senses(lemma_b, NOUN)
            best = oracle_most_informative_subsumer(senses_a, senses_b, taxonomy, ic)
            if best is None:
                continue
            value, subsumer = best
            for lemma, senses in ((lemma_a, senses_a), (lemma_b, senses_b)):
                for sid in senses:
                    if subsumer in taxonomy.ancestors(sid, include_self=True):
                        support[lemma][sid] += value
    return normalized(support)


def normalized(support: dict) -> dict:
    """Per-lemma support as weights keyed by (lemma, synset id)."""
    weights = {}
    for lemma, per_sense in support.items():
        total = sum(per_sense.values())
        for sid, value in per_sense.items():
            weights[(lemma, sid)] = value / total if total > 0.0 else 1.0 / len(per_sense)
    return weights


def pair_loop_weights(nouns, taxonomy: Taxonomy, ic: ICTable) -> dict:
    """A faster reference for large documents: one loop over the noun pairs.

    The common subsumers of all sense pairs of two lemmas are the synsets
    shared by the unions of their sense closures, so each pair takes one
    set intersection of (-IC, id) keys, whose smallest is the subsumer.
    `test_drawn_large_documents_match_the_oracle` holds it to
    `oracle_weights`."""
    lemmas = sorted({x for x in nouns if taxonomy.senses(x, NOUN)})
    closures = {
        lemma: [(sid, frozenset((-ic.of(node), node)
                                for node in taxonomy.ancestors(sid, include_self=True)))
                for sid in taxonomy.senses(lemma, NOUN)]
        for lemma in lemmas
    }
    unions = {lemma: frozenset().union(*(closure for _, closure in per_sense))
              for lemma, per_sense in closures.items()}
    support = {lemma: {sid: 0.0 for sid, _ in closures[lemma]} for lemma in lemmas}
    for i, lemma_a in enumerate(lemmas):
        for lemma_b in lemmas[i + 1:]:
            common = unions[lemma_a] & unions[lemma_b]
            if not common:
                continue
            subsumer = min(common)
            for lemma in (lemma_a, lemma_b):
                for sid, closure in closures[lemma]:
                    if subsumer in closure:
                        support[lemma][sid] += -subsumer[0]
    return normalized(support)


POOL = ("fox", "vat", "oak", "imp", "cog", "elm")


NOUN_LISTS = st.lists(st.sampled_from(POOL + ("ghost", "only0")), max_size=8)


@st.composite
def sense_taxonomies(draw):
    """A small DAG with several roots and multi-parent nodes, lemmas with
    one to six senses, and tiny direct counts (so many synsets tie on IC).
    Ids are shuffled against file order so the id tie-break cannot
    coincide with iteration order."""
    size = draw(st.integers(3, 14))
    roots = draw(st.integers(2, min(3, size)))
    ids = draw(st.permutations([f"s{i:02d}" for i in range(size)]))
    chosen = {
        lemma: set(draw(st.lists(
            st.integers(0, size - 1), min_size=1, max_size=min(6, size), unique=True,
        )))
        for lemma in POOL
    }
    synsets = []
    for i in range(size):
        parents = draw(st.lists(
            st.sampled_from(ids[:i]), max_size=3, unique=True,
        )) if i >= roots else []
        lemmas = tuple(lemma for lemma in POOL if i in chosen[lemma]) or (f"only{i}",)
        synsets.append(Synset(ids[i], "n", lemmas, tuple(parents), 6))
    direct = [(sid, draw(st.sampled_from([0, 0, 1, 2]))) for sid in ids]
    return Taxonomy(synsets), direct


@st.composite
def sense_documents(draw):
    """A drawn taxonomy, its IC table and one document's nouns."""
    taxonomy, direct = draw(sense_taxonomies())
    table = information_content(occurrences(direct), taxonomy)
    return taxonomy, table, draw(NOUN_LISTS)


@st.composite
def large_documents(draw):
    """A seeded noun DAG of 80 to 400 synsets with one or two hypernyms
    each, up to 200 lemmas of one to four senses, small direct counts (so
    many synsets tie on IC) and ids shuffled against file order; then a
    document naming every lemma.  Most documents share more than 64 keys,
    several packed words."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(80, 400))
    lemmas = [f"w{k:03d}" for k in range(draw(st.integers(2, 200)))]
    ids = [f"s{i:03d}" for i in range(size)]
    rng.shuffle(ids)
    named = [[] for _ in range(size)]
    for lemma in lemmas:
        for i in rng.sample(range(size), rng.randint(1, 4)):
            named[i].append(lemma)
    roots = rng.randint(1, 3)
    synsets = [
        Synset(ids[i], "n", tuple(named[i]) or (f"only{i}",),
               tuple(rng.sample(ids[:i], rng.choice((1, 1, 1, 2)) if i > 1 else 1))
               if i >= roots else (), 6)
        for i in range(size)
    ]
    taxonomy = Taxonomy(synsets)
    direct = [(sid, rng.choice((0, 0, 0, 1, 2))) for sid in ids]
    return taxonomy, information_content(occurrences(direct), taxonomy), lemmas


def thousand_lemma_document():
    """A four-level noun tree (1, 12, 144 and 1,728 synsets) with 1,100
    lemmas of two or three senses at its leaves: 905 keys shared by two
    lemmas or more, fifteen packed words per row."""
    rng = random.Random(5)
    synsets = [Synset("r", "n", ("root",), (), 6)]
    levels = [["r"]]
    for depth, width in enumerate((12, 144, 1728), 1):
        level = [f"m{depth}-{i:04d}" for i in range(width)]
        synsets += [Synset(sid, "n", (f"mid{depth}-{i}",), (rng.choice(levels[-1]),), 6)
                    for i, sid in enumerate(level)]
        levels.append(level)
    lemmas = [f"n{k:04d}" for k in range(1100)]
    for lemma in lemmas:
        for j in range(rng.choice((2, 2, 3))):
            synsets.append(Synset(f"{lemma}-{j}", "n", (lemma,), (rng.choice(levels[-1]),), 6))
    taxonomy = Taxonomy(synsets)
    direct = [(f"{lemma}-0", rng.choice((0, 1, 3))) for lemma in lemmas[::3]]
    return taxonomy, information_content(occurrences(direct), taxonomy), lemmas


def oracle_ic(direct: dict, taxonomy: Taxonomy) -> tuple[dict, dict]:
    """The eager tables that the lazy `ICTable` replaced: -log p and the
    smoothed propagated count of every synset, as two dicts."""
    raw = {}
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
    return ic, smoothed


_FUZZ_TEXT = st.text(st.sampled_from("\t #x0.e-") | st.characters(exclude_characters="\r\n"),
                     max_size=8)
_COUNT_VALUES = (
    st.sampled_from(["0", "-0", "-1", "nan", "NaN", "inf", "-inf", "1e308", "1e400",
                     "1.7976931348623157e308", "", " 2 ", "1_0", "0x10"])
    | st.floats().map(repr) | _FUZZ_TEXT
)
_IDS = st.sampled_from(["root", "hub", "s1a", "s2a", "s1b", "s2b"]) | _FUZZ_TEXT


def _utf8(text: str) -> bytes:
    # a lone surrogate becomes bytes that are not valid UTF-8
    return text.encode("utf-8", "surrogatepass")


# one line of a COUNT file, as bytes: well-formed and malformed records,
# comments, and bytes that are not UTF-8
COUNT_LINES = st.one_of(
    st.tuples(_IDS, _COUNT_VALUES).map(lambda f: _utf8(f"COUNT\t{f[0]}\t{f[1]}")),
    st.lists(_FUZZ_TEXT, max_size=5).map(lambda fields: _utf8("\t".join(fields))),
    st.sampled_from([b"", b"# note", b"COUNT\ts1a\t1\x00", b"COUNT\ts1a\t\xff1",
                     b"\xc3\x28", b"COUNT\ts1a\t1\t", b"count\ts1a\t1"]),
    st.binary(max_size=12).filter(lambda b: b"\n" not in b and b"\r" not in b),
)


def table_ic(table: ICTable) -> dict:
    """Every synset's information content, by synset id."""
    return {sid: table.of(sid) for sid in table.taxonomy}


def table_counts(table: ICTable) -> dict:
    """Every synset's smoothed propagated count, read from the table's
    count column."""
    return dict(zip(table.taxonomy, (table._raw + 1.0).tolist()))


def assert_same_table(table: ICTable, direct: dict, taxonomy: Taxonomy) -> None:
    ic, counts = oracle_ic(direct, taxonomy)
    for sid in taxonomy:
        # hex() tells -0.0 from 0.0, so this is bit equality
        assert table.of(sid).hex() == ic[sid].hex(), sid
    assert table_ic(table) == ic
    assert table_counts(table) == counts


class TestInformationContent:
    def test_single_root_has_zero_ic(self):
        t = pair_taxonomy()
        table = information_content(occurrences([("s1a", 2)]), t)
        assert table.of("root") == 0.0

    def test_unseen_leaf_is_finite_and_positive(self):
        t = pair_taxonomy()
        table = information_content(occurrences([("s1a", 2)]), t)
        assert 0.0 < table.of("s2b") < math.inf

    def test_parent_count_at_least_child_count(self, toy_taxonomy, mini_corpus):
        counts = table_counts(information_content(mini_corpus, toy_taxonomy))
        for sid in toy_taxonomy:
            for parent in toy_taxonomy.hypernyms(sid):
                assert counts[parent] >= counts[sid]

    def test_ic_monotone_up_the_hierarchy(self, toy_taxonomy, mini_corpus):
        table = information_content(mini_corpus, toy_taxonomy)
        for sid in toy_taxonomy:
            for parent in toy_taxonomy.hypernyms(sid):
                assert table.of(parent) <= table.of(sid) + 1e-12

    def test_count_file_equivalent_to_corpus(self, tmp_path):
        t = pair_taxonomy()
        from_corpus = information_content(occurrences([("s1a", 2), ("s2b", 3)]), t)
        path = tmp_path / "freq.tsv"
        path.write_text("COUNT\ts1a\t2\nCOUNT\ts2b\t3\n")
        from_file = load_counts(path, t)
        assert table_ic(from_file) == table_ic(from_corpus)

    def test_empty_taxonomy_rejected(self):
        with pytest.raises(ValueError):
            information_content([], Taxonomy([]))

    @settings(max_examples=150, deadline=None)
    @given(taxonomy=random_taxonomies(mixed_pos=True), data=st.data())
    def test_lazy_table_is_bit_equal_to_eager_oracle(self, taxonomy, data, tmp_path_factory):
        ids = list(taxonomy)
        # corpus counts: whole occurrences, summed in order of first mention
        mentions = data.draw(st.lists(st.sampled_from(ids), max_size=12))
        direct = {}
        for sid in mentions:
            direct[sid] = direct.get(sid, 0.0) + 1.0
        table = information_content(occurrences([(sid, 1) for sid in mentions]), taxonomy)
        assert_same_table(table, direct, taxonomy)
        # count file: fractional values, repeated ids summed in file order
        rows = data.draw(st.lists(st.tuples(
            st.sampled_from(ids),
            st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
        ), max_size=12))
        path = tmp_path_factory.mktemp("counts") / "freq.tsv"
        path.write_text("".join(f"COUNT\t{sid}\t{value!r}\n" for sid, value in rows))
        direct = {}
        for sid, value in rows:
            direct[sid] = direct.get(sid, 0.0) + value
        assert_same_table(load_counts(path, taxonomy), direct, taxonomy)

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(COUNT_LINES, max_size=8))
    def test_count_file_fuzz_fails_only_with_its_line(self, lines, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "freq.count"
        path.write_bytes(b"\n".join(lines))
        taxonomy = pair_taxonomy()
        try:
            table = load_counts(path, taxonomy)
        except ValueError as exc:
            named = re.match(rf"{re.escape(str(path))} line (\d+): ", str(exc))
            assert named and 1 <= int(named.group(1)) <= len(lines), str(exc)
            return
        # an accepted file gives a finite information content everywhere
        assert all(math.isfinite(value) for value in table_ic(table).values())

    @pytest.mark.parametrize("value", ["1_0", " 2 ", "+2"])
    def test_value_outside_the_decimal_grammar_is_rejected(self, value, tmp_path):
        # `float` reads each of these (as 10, 2 and 2)
        path = tmp_path / "freq.count"
        path.write_text(f"COUNT\ts1a\t1\nCOUNT\ts2b\t{value}\n")
        with pytest.raises(ValueError) as info:
            load_counts(path, pair_taxonomy())
        assert str(info.value) == (
            f"{path} line 2: count must be an unsigned decimal number, got {value!r}")

    # up to the sum bound, which a single root puts at half the float range
    @settings(max_examples=200, deadline=None)
    @given(value=st.floats(min_value=0.0, max_value=sys.float_info.max / 2))
    def test_every_non_negative_float_repr_loads(self, value, tmp_path_factory):
        path = tmp_path_factory.mktemp("counts") / "freq.count"
        path.write_text(f"COUNT\ts1a\t{value!r}\n")
        assert_same_table(load_counts(path, pair_taxonomy()), {"s1a": value}, pair_taxonomy())

    # (c, T): -log((c + 1) / (T + 1)), from a leaf with count c beside one
    # with count T - c, is a value where numpy's vectorized log has been
    # seen to differ from `math.log` in the last bit
    @pytest.mark.parametrize("count, total", [(33, 34), (13, 36), (44, 45), (67, 69), (27, 73)])
    def test_information_content_is_math_log_bit_for_bit(self, count, total):
        t = pair_taxonomy()
        direct = {"s1a": float(count), "s2b": float(total - count)}
        assert_same_table(ICTable(direct, t), direct, t)

    def test_unknown_synset_raises(self):
        table = information_content(occurrences([("s1a", 2)]), pair_taxonomy())
        with pytest.raises(ValueError):
            table.of("nowhere")


class TestDisambiguation:
    def ic(self):
        t = pair_taxonomy()
        # hub-heavy counts: ic(hub) = ln 5, ic(root) = 0
        table = information_content(
            occurrences([("s1a", 2), ("s2a", 2), ("s1b", 10), ("s2b", 10)]), t
        )
        assert table.of("hub") == pytest.approx(math.log(5))
        return t, table

    def test_shared_subsumer_senses_take_all_weight(self):
        t, table = self.ic()
        w = disambiguation_weights({"alpha", "beta"}, t, table)
        # hand-run: the only informative pair support goes through the hub
        assert w.weight("alpha", "s1a") == 1.0
        assert w.weight("alpha", "s1b") == 0.0
        assert w.weight("beta", "s2a") == 1.0
        assert w.weight("beta", "s2b") == 0.0

    def test_single_noun_gets_uniform_weights(self):
        t, table = self.ic()
        w = disambiguation_weights({"alpha"}, t, table)
        assert w.weight("alpha", "s1a") == 0.5
        assert w.weight("alpha", "s1b") == 0.5

    def test_monosemous_lemma_weight_one(self, toy_taxonomy, mini_corpus):
        table = information_content(mini_corpus, toy_taxonomy)
        w = disambiguation_weights({"teacher", "table"}, toy_taxonomy, table)
        assert w.weight("teacher", "n-teacher") == 1.0

    def test_normalization_within_tolerance(self, toy_taxonomy, mini_corpus):
        table = information_content(mini_corpus, toy_taxonomy)
        lemmas = set(all_lemmas(toy_taxonomy, "n"))
        w = disambiguation_weights(lemmas, toy_taxonomy, table)
        for lemma in lemmas:
            senses = toy_taxonomy.senses(lemma, "n")
            total = sum(w.weight(lemma, sid) for sid in senses)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_order_independence(self, toy_taxonomy, mini_corpus):
        table = information_content(mini_corpus, toy_taxonomy)
        lemmas = ["cat", "mouse", "teacher", "table", "head"]
        first = disambiguation_weights(lemmas, toy_taxonomy, table)
        second = disambiguation_weights(list(reversed(lemmas)), toy_taxonomy, table)
        for lemma in lemmas:
            for sid in toy_taxonomy.senses(lemma, "n"):
                assert first.weight(lemma, sid) == second.weight(lemma, sid)

    def test_equal_ic_subsumers_break_toward_smaller_id(self):
        # hub-b and hub-a carry the same counts, so the same IC; each lemma
        # lists its hub-b sense first, but hub-a has the smaller id and wins
        t = Taxonomy([
            Synset("root", "n", ("top",), (), 6),
            Synset("hub-b", "n", ("hub",), ("root",), 6),
            Synset("hub-a", "n", ("nave",), ("root",), 6),
            Synset("ay", "n", ("alpha",), ("hub-b",), 6),
            Synset("ax", "n", ("alpha",), ("hub-a",), 6),
            Synset("by", "n", ("beta",), ("hub-b",), 6),
            Synset("bx", "n", ("beta",), ("hub-a",), 6),
        ])
        table = information_content(
            occurrences([("ay", 1), ("ax", 1), ("by", 1), ("bx", 1)]), t
        )
        assert table.of("hub-a") == table.of("hub-b") > table.of("root")
        w = disambiguation_weights({"alpha", "beta"}, t, table)
        assert (w.weight("alpha", "ax"), w.weight("alpha", "ay")) == (1.0, 0.0)
        assert (w.weight("beta", "bx"), w.weight("beta", "by")) == (1.0, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(case=sense_documents())
    def test_matches_pairwise_oracle_exactly(self, case):
        taxonomy, table, nouns = case
        expected = oracle_weights(nouns, taxonomy, table)
        w = disambiguation_weights(nouns, taxonomy, table)
        for (lemma, sid), value in expected.items():
            assert w.weight(lemma, sid) == value, (lemma, sid)
        for lemma in POOL:
            if lemma not in nouns:
                assert w.for_lemma(lemma, taxonomy.senses(lemma, NOUN)) is None

    @settings(max_examples=100, deadline=None)
    @given(case=sense_taxonomies(), documents=st.lists(NOUN_LISTS, min_size=2, max_size=6))
    def test_documents_in_turn_against_one_table(self, case, documents):
        # the shared table's lemma memo warms up document by document; each
        # document must still match the oracle and a table that is fresh
        taxonomy, direct = case
        shared = information_content(occurrences(direct), taxonomy)
        for nouns in documents:
            expected = oracle_weights(nouns, taxonomy, shared)
            fresh_table = information_content(occurrences(direct), taxonomy)
            fresh = disambiguation_weights(nouns, taxonomy, fresh_table)
            warm = disambiguation_weights(nouns, taxonomy, shared)
            for (lemma, sid), value in expected.items():
                assert warm.weight(lemma, sid) == value == fresh.weight(lemma, sid)
            for lemma in POOL + ("only0",):
                senses = taxonomy.senses(lemma, NOUN)
                assert warm.for_lemma(lemma, senses) == fresh.for_lemma(lemma, senses)

    @settings(max_examples=30, deadline=None)
    @given(case=large_documents(), block=st.sampled_from([1, 5, 64, wsd.BLOCK_WORDS]))
    def test_drawn_large_documents_match_the_oracle(self, case, block):
        # small blocks split the pair search and the sums into many blocks
        taxonomy, table, nouns = case
        expected = oracle_weights(nouns, taxonomy, table)
        assert pair_loop_weights(nouns, taxonomy, table) == expected
        with mock.patch.object(wsd, "BLOCK_WORDS", block):
            w = disambiguation_weights(nouns, taxonomy, table)
        for (lemma, sid), value in expected.items():
            assert w.weight(lemma, sid).hex() == value.hex(), (lemma, sid)

    def test_equal_ic_subsumers_compare_ids_as_python_strings(self):
        # "a" < "a\x00" as `str`, but a numpy string array drops a trailing
        # NUL and holds the two equal; "a\x00" comes first in file order
        t = Taxonomy([
            Synset("root", "n", ("top",), (), 6),
            Synset("a\x00", "n", ("nul",), ("root",), 6),
            Synset("a", "n", ("plain",), ("root",), 6),
            Synset("x1", "n", ("alpha",), ("a\x00",), 6),
            Synset("x2", "n", ("alpha",), ("a",), 6),
            Synset("y1", "n", ("beta",), ("a\x00",), 6),
            Synset("y2", "n", ("beta",), ("a",), 6),
        ])
        table = information_content(
            occurrences([("x1", 1), ("x2", 1), ("y1", 1), ("y2", 1)]), t
        )
        assert table.of("a") == table.of("a\x00") > table.of("root")
        w = disambiguation_weights({"alpha", "beta"}, t, table)
        assert (w.weight("alpha", "x1"), w.weight("alpha", "x2")) == (0.0, 1.0)
        assert (w.weight("beta", "y1"), w.weight("beta", "y2")) == (0.0, 1.0)
        for (lemma, sid), value in oracle_weights({"alpha", "beta"}, t, table).items():
            assert w.weight(lemma, sid) == value, (lemma, sid)

    def test_thousand_lemma_document_matches_the_oracle_in_bounded_memory(self):
        taxonomy, table, nouns = thousand_lemma_document()
        expected = pair_loop_weights(nouns, taxonomy, table)
        table.prepare(nouns)
        tracemalloc.start()
        try:
            w = disambiguation_weights(nouns, taxonomy, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for (lemma, sid), value in expected.items():
            assert w.weight(lemma, sid).hex() == value.hex(), (lemma, sid)
        # the pair search over all 1,100 x 1,100 rows of fifteen words at
        # once would take 145 MB, and the subsumer ranks of all pairs 4.8 MB
        # as int32; in blocks the peak is about 2 MB
        assert peak < 6e6

    @settings(max_examples=60, deadline=None)
    @given(case=sense_taxonomies(), documents=st.lists(NOUN_LISTS, min_size=2, max_size=6))
    def test_unprepared_table_matches_one_prepare(self, case, documents):
        # a table that gathers its lemmas document by document gives the
        # weights of one prepared once for every lemma, and keeps each
        # lemma's closures as it first built them
        taxonomy, direct = case
        lazy = information_content(occurrences(direct), taxonomy)
        ready = information_content(occurrences(direct), taxonomy)
        ready.prepare(noun for nouns in documents for noun in nouns)
        held = {}
        for nouns in documents:
            got = disambiguation_weights(nouns, taxonomy, lazy)
            want = disambiguation_weights(nouns, taxonomy, ready)
            for lemma in POOL + ("only0",):
                senses = taxonomy.senses(lemma, NOUN)
                got_map, want_map = got.for_lemma(lemma, senses), want.for_lemma(lemma, senses)
                assert (got_map is None) == (want_map is None), lemma
                if got_map is not None:
                    assert [got_map[sid].hex() for sid in senses] == [
                        want_map[sid].hex() for sid in senses], lemma
            for lemma, entry in held.items():
                assert lazy._closures[lemma] is entry
            held.update(lazy._closures)

    def test_table_of_another_taxonomy_is_rejected(self):
        t, table = self.ic()
        # an equal taxonomy is still another instance: the memo is tied to t
        other = pair_taxonomy()
        assert other == t
        with pytest.raises(ValueError, match="another taxonomy"):
            disambiguation_weights({"alpha", "beta"}, other, table)
        doc = Document("d", (make_np(head="alpha"),), 0, 0)
        with pytest.raises(ValueError, match="another taxonomy"):
            document_weights(doc, other, table)

    def test_toy_taxonomy_matches_oracle_exactly(self, toy_taxonomy, mini_corpus):
        table = information_content(mini_corpus, toy_taxonomy)
        lemmas = all_lemmas(toy_taxonomy, "n")
        expected = oracle_weights(lemmas, toy_taxonomy, table)
        w = disambiguation_weights(lemmas, toy_taxonomy, table)
        assert expected
        for (lemma, sid), value in expected.items():
            assert w.weight(lemma, sid) == value, (lemma, sid)


def head_mass(lemma, weighting, enriched):
    """The weighted head-noun sense mass that `extract_features` encodes."""
    features = extract_features(
        make_np(head=lemma), Document("d", (), 0, 0), enriched.sense_table(), weighting,
    )
    return features.animate_senses, features.inanimate_senses


class TestWeightedCounts:
    """Weighted animate/inanimate sense mass under the enriched statuses."""

    def resolve(self, enriched):
        return lambda sid: enriched.resolve_animate(sid, BeginnerClass())

    def test_point_mass_on_animate_sense(self, enriched):
        w = SenseWeighting({"cat": {"n-cat-animal": 1.0, "n-cat-machine": 0.0}})
        senses = enriched.base.senses("cat", NOUN)
        assert sense_mass(senses, self.resolve(enriched), w.for_lemma("cat", senses)) == (1.0, 0.0)

    def test_linear_split(self, enriched):
        w = SenseWeighting({"cat": {"n-cat-animal": 0.7, "n-cat-machine": 0.3}})
        senses = enriched.base.senses("cat", NOUN)
        assert sense_mass(senses, self.resolve(enriched), w.for_lemma("cat", senses)) == (0.7, 0.3)

    def test_uniform_equals_unweighted_ratios_everywhere(self, toy_taxonomy, enriched):
        uniform = uniform_weighting(toy_taxonomy)
        beginners = BeginnerClass()
        for lemma in all_lemmas(toy_taxonomy, "n"):
            senses = toy_taxonomy.senses(lemma, "n")
            hard_animate = sum(
                1 for sid in senses if enriched.resolve_animate(sid, beginners)
            )
            animate, inanimate = head_mass(lemma, uniform, enriched)
            assert animate == hard_animate / len(senses)
            assert inanimate == (len(senses) - hard_animate) / len(senses)
            assert animate + inanimate == 1.0
            # a lemma without stored weights takes the same uniform shares
            assert head_mass(lemma, SenseWeighting({}), enriched) == (animate, inanimate)

    def test_uniform_reproduces_rule_ratios_exactly(self, toy_taxonomy):
        uniform = uniform_weighting(toy_taxonomy)
        senses = sense_table(toy_taxonomy)
        for lemma in all_lemmas(toy_taxonomy, "n"):
            assert noun_ratios(lemma, senses) == noun_ratios(lemma, senses, weighting=uniform)
        for lemma in all_lemmas(toy_taxonomy, "v"):
            assert verb_ratios(lemma, senses) == verb_ratios(lemma, senses, weighting=uniform)

    def test_fallback_chain_covers_undecided_senses(self, toy_taxonomy):
        undecided = EnrichedTaxonomy(
            toy_taxonomy, {sid: Status.UNDECIDED for sid in toy_taxonomy}
        )
        uniform = uniform_weighting(toy_taxonomy)
        animate, inanimate = head_mass("mouse", uniform, undecided)
        # beginner classes decide: person and animal animate, device not
        assert (animate, inanimate) == (pytest.approx(2 / 3), pytest.approx(1 / 3))


# lemma -> (noun senses, verb senses); "run" and "cut" have both
LEMMA_SENSES = {
    "cat": (("n1", "n2"), ()),
    "run": (("n3",), ("v1", "v2")),
    "cut": (("n4", "n5", "n6"), ("v3",)),
    "oak": (("n7",), ()),
}
SENSE_WEIGHTS = st.sampled_from([0.0, 1.0, 0.5, 1 / 3]) | st.floats(0.0, 1.0)


@st.composite
def drawn_weightings(draw):
    """Per-lemma weight maps over a drawn subset of the lemmas and of each
    lemma's noun and verb senses, so coverage may be partial."""
    weights = {}
    for lemma in draw(st.lists(st.sampled_from(sorted(LEMMA_SENSES)), unique=True)):
        senses = LEMMA_SENSES[lemma][0] + LEMMA_SENSES[lemma][1]
        chosen = draw(st.lists(st.sampled_from(senses), unique=True))
        weights[lemma] = {sid: draw(SENSE_WEIGHTS) for sid in chosen}
    return weights


# two beginner classes that split the drawn beginners differently
RULE_CLASSES = (BeginnerClass(), BeginnerClass(animate_noun_lexfiles=frozenset({6, 18}),
                                               animate_verb_lexfiles=frozenset({30, 38})))


@st.composite
def drawn_beginners(draw):
    """The lexfile of the unique beginner above each sense of LEMMA_SENSES."""
    return {sid: draw(st.sampled_from((5, 6, 18) if sid[0] == "n" else (30, 31, 38)))
            for noun, verb in LEMMA_SENSES.values() for sid in noun + verb}


def beginner_taxonomy(beginners):
    """Every sense of LEMMA_SENSES, in order, below a chain to the root
    whose lexfile `beginners` gives it; the senses' own lexfile is 0."""
    synsets = [Synset(f"root-{pos}{lexfile}", pos, (f"root{lexfile}",), (), lexfile)
               for pos, lexfile in sorted({(sid[0], lex) for sid, lex in beginners.items()})]
    for lemma, (noun, verb) in LEMMA_SENSES.items():
        for sid in noun + verb:
            synsets.append(Synset(f"{sid}-mid", sid[0], (f"mid-{sid}",),
                                  (f"root-{sid[0]}{beginners[sid]}",), 0))
            synsets.append(Synset(sid, sid[0], (lemma,), (f"{sid}-mid",), 0))
    return Taxonomy(synsets)


def oracle_rule_ratios(senses, is_animate, weights):
    """The rule method's fractions over `senses`: weighted masses, or
    plain counts when there are no weights or they sum to zero."""
    if not senses:
        return (0.0, 0.0, 0)
    animate, inanimate = sense_mass(senses, is_animate, weights)
    if animate + inanimate == 0.0:
        animate, inanimate = sense_mass(senses, is_animate)
    share = animate / (animate + inanimate)
    return (share, 1.0 - share, len(senses))


class TestWeightTableMatchesFlatOracle:
    @settings(max_examples=300, deadline=None)
    @given(weights=drawn_weightings(), animate=st.sets(st.sampled_from(
        ["n1", "n2", "n3", "n4", "n5", "n6", "n7", "v1", "v2", "v3"])),
        beginners=drawn_beginners(), data=st.data())
    def test_for_lemma_and_sense_mass(self, weights, animate, beginners, data):
        table = SenseWeighting(weights)
        oracle = FlatSenseWeighting(
            {(lemma, sid): w for lemma, per_sense in weights.items() for sid, w in per_sense.items()}
        )
        for lemma in (*LEMMA_SENSES, "ghost"):
            for senses in LEMMA_SENSES.get(lemma, ((), ())):
                asked = data.draw(st.sampled_from([senses, senses[:1], senses[::-1]]))
                got, expected = table.for_lemma(lemma, asked), oracle.for_lemma(lemma, asked)
                assert (got is None) == (expected is None), (lemma, asked)
                if got is None:
                    continue
                for sid in asked:
                    assert got[sid].hex() == expected[sid].hex(), (lemma, sid)
                mass = sense_mass(asked, animate.__contains__, got)
                assert [x.hex() for x in mass] == [
                    x.hex() for x in sense_mass(asked, animate.__contains__, expected)]

        # the rule ratios under the drawn beginners, one sense table per
        # beginner class, the classes taking turns on every lemma
        taxonomy = beginner_taxonomy(beginners)
        tables = [sense_table(taxonomy, classes) for classes in RULE_CLASSES]
        for _ in range(2):
            for lemma in (*LEMMA_SENSES, "ghost"):
                for pos, ratios, senses in zip(
                        "nv", (noun_ratios, verb_ratios), LEMMA_SENSES.get(lemma, ((), ()))):
                    for senses_of, classes in zip(tables, RULE_CLASSES):
                        got = ratios(lemma, senses_of, table)
                        expected = oracle_rule_ratios(
                            senses, lambda sid: classes.is_animate(beginners[sid], pos),
                            oracle.for_lemma(lemma, senses))
                        assert got[2] == expected[2], (lemma, pos)
                        assert [x.hex() for x in got[:2]] == [
                            x.hex() for x in expected[:2]], (lemma, pos, classes)
