import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from animacy import enrichment, rules
from animacy.corpus import Document, Label
from animacy.enrichment import (
    EnrichedTaxonomy,
    Status,
    accumulate_counts,
    chi2_critical,
    chi_square,
    classify_node,
    dump_statuses,
    enrich,
    load_enriched,
    merge_low_frequency,
)
from animacy.fileio import write_atomic
from animacy.taxonomy import VERB, BeginnerClass, Synset, Taxonomy
from tests.chi2_critical_table import CRITICAL, DFS
from tests.test_cli import FREE_TEXT
from tests.test_corpus import iter_nps, make_np, reloaded, write_lines
from tests.test_taxonomy import LEMMAS, OracleTaxonomy, random_taxonomies

# Conventional 0.05 upper critical values (three-decimal table, df 1..10).
TEXTBOOK_CRITICAL = {
    1: 3.841, 2: 5.991, 3: 7.815, 4: 9.488, 5: 11.070,
    6: 12.592, 7: 14.067, 8: 15.507, 9: 16.919, 10: 18.307,
}


def doc_of(senses_and_labels, doc_id="d"):
    """Document whose NPs carry the given (sense_key, gold) pairs."""
    nps = tuple(
        make_np(doc=doc_id, sent=0, np=i, head=f"w{i}", gold=label, sense_key=sense)
        for i, (sense, label) in enumerate(senses_and_labels)
    )
    return Document(doc_id, nps, 0, 0)


def counts_at(counts, taxonomy, sid):
    """The (animate, inanimate) counts of `sid` in `accumulate_counts`'
    two columns."""
    i = taxonomy._index[sid]
    return int(counts[0][i]), int(counts[1][i])


def observed(counts, taxonomy):
    """The synsets with a count in either column, in taxonomy order."""
    animate, inanimate = counts
    return tuple(taxonomy._ids[i] for i in np.flatnonzero(animate + inanimate).tolist())


def count_columns(taxonomy, credits):
    """Count columns in `accumulate_counts`' form, from (synset, animate,
    inanimate) credits summed per synset."""
    columns = np.zeros((2, len(taxonomy)), np.int64)
    for sid, ani, inani in credits:
        columns[:, taxonomy._index[sid]] += (ani, inani)
    return columns[0], columns[1]


def enriched_of(base, status):
    """An `EnrichedTaxonomy` from a status per synset id, Undecided where
    none is given; an id that `base` does not hold is a `ValueError`."""
    column = np.zeros(len(base), np.int8)
    for sid, value in status.items():
        if sid not in base:
            raise ValueError(f"status for unknown synset {sid}")
        column[base._index[sid]] = enrichment._CODE[value]
    return EnrichedTaxonomy(base, column)


def chain():
    return Taxonomy([
        Synset("r", "n", ("thing",), (), 18),
        Synset("m", "n", ("being",), ("r",), 18),
        Synset("l", "n", ("mortal",), ("m",), 18),
    ])


class TestCounts:
    def test_chain_propagation(self):
        t = chain()
        counts, skipped = accumulate_counts([doc_of([("l", Label.ANIMATE)])], t)
        assert not skipped
        assert [counts_at(counts, t, sid)[0] for sid in ("l", "m", "r")] == [1, 1, 1]

    def test_diamond_counts_once_per_ancestor(self, toy_taxonomy):
        # n-lamp reaches n-artifact via n-device and n-furniture
        docs = [doc_of([("n-lamp", Label.INANIMATE)])]
        counts, _ = accumulate_counts(docs, toy_taxonomy)
        for sid in ("n-lamp", "n-device", "n-furniture", "n-artifact"):
            assert counts_at(counts, toy_taxonomy, sid)[1] == 1, sid

    def test_empty_corpus_all_zero(self, toy_taxonomy):
        counts, _ = accumulate_counts([], toy_taxonomy)
        assert observed(counts, toy_taxonomy) == ()

    def test_unresolvable_sense_is_skipped_and_reported(self, toy_taxonomy):
        docs = [doc_of([("n-ghost", Label.ANIMATE), ("n-dog", Label.ANIMATE)])]
        counts, skipped = accumulate_counts(docs, toy_taxonomy)
        assert skipped == [("d", 0, 0, "n-ghost")]
        assert counts_at(counts, toy_taxonomy, "n-dog")[0] == 1

    def test_verb_occurrences_credit_all_senses_once(self, toy_taxonomy):
        doc = Document("d", (
            make_np(sent=0, np=0, head="dog", is_subject=True,
                    verb_lemma="run", gold=Label.ANIMATE),
        ), 0, 0)
        counts, _ = accumulate_counts([doc], toy_taxonomy)
        assert counts_at(counts, toy_taxonomy, "v-run-motion")[0] == 1
        assert counts_at(counts, toy_taxonomy, "v-run-social")[0] == 1
        # shared nothing, but each root once
        assert counts_at(counts, toy_taxonomy, "v-motion")[0] == 1
        assert counts_at(counts, toy_taxonomy, "v-social")[0] == 1

    def test_count_conservation_at_root_of_a_tree(self):
        t = chain()
        docs = [doc_of([("l", Label.ANIMATE), ("m", Label.ANIMATE),
                        ("l", Label.INANIMATE)])]
        counts, _ = accumulate_counts(docs, t)
        assert counts_at(counts, t, "r") == (2, 1)


class TestChiSquare:
    def test_hand_computed_example(self):
        result = chi_square([("a", 4, 1), ("b", 5, 0)])
        assert result.animate_statistic == pytest.approx(0.2)
        assert result.inanimate_statistic == pytest.approx(16 / 5 + 25 / 5)
        assert result.df == 1
        assert result.valid

    def test_exact_fit_is_zero(self):
        result = chi_square([("a", 3, 0), ("b", 7, 0)])
        assert result.animate_statistic == 0.0
        assert result.inanimate_statistic == 10.0

    def test_unmergeable_low_cells_invalidate(self):
        # two of three totals under 5 and with opposite zero counts
        cells = [("a", 0, 2), ("b", 2, 0), ("c", 5, 5)]
        result = chi_square(cells)
        assert not result.valid

    def test_statistic_invariant_under_permutation(self):
        cells = [("a", 4, 5), ("b", 7, 0), ("c", 0, 6)]
        base = chi_square(cells)
        for perm in itertools.permutations(cells):
            result = chi_square(list(perm))
            assert result.animate_statistic == pytest.approx(base.animate_statistic)
            assert result.inanimate_statistic == pytest.approx(base.inanimate_statistic)

    @given(st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60))
                    .filter(lambda counts: sum(counts) > 0), max_size=12))
    def test_statistics_are_the_unmerged_sums(self, counts):
        # merging joins only cells with the same zero count, so each
        # statistic is the sum over the hyponyms before any merge
        result = chi_square([(f"c{i}", ani, inani) for i, (ani, inani) in enumerate(counts)])
        animate = sum(inani * inani / (ani + inani) for ani, inani in counts)
        inanimate = sum(ani * ani / (ani + inani) for ani, inani in counts)
        assert result.animate_statistic == pytest.approx(animate)
        assert result.inanimate_statistic == pytest.approx(inanimate)

    @given(st.integers(1, 10))
    def test_critical_values_match_textbook_table(self, df):
        assert chi2_critical(df) == pytest.approx(TEXTBOOK_CRITICAL[df], abs=5e-4)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -0.05, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            chi2_critical(1, alpha)

    def test_expected_below_one_asserted(self):
        with pytest.raises(ValueError, match="zero total"):
            chi_square([("a", 0, 0)])

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="negative count"):
            chi_square([("a", -1, 3), ("b", 2, 2)])


class TestCriticalValue:
    @pytest.mark.parametrize("alpha", sorted(CRITICAL))
    def test_matches_pinned_scipy_values(self, alpha):
        for df, expected in zip(DFS, CRITICAL[alpha]):
            assert chi2_critical(df, alpha) == pytest.approx(expected, rel=1e-13, abs=0), df

    def test_rises_with_df_and_falls_as_alpha_grows(self):
        rows = [[chi2_critical(df, alpha) for df in DFS] for alpha in sorted(CRITICAL)]
        for row in rows:
            assert all(a < b for a, b in zip(row, row[1:]))
        for smaller_alpha, larger_alpha in zip(rows, rows[1:]):
            assert all(a > b for a, b in zip(smaller_alpha, larger_alpha))

    @pytest.mark.parametrize("df", [0, -3])
    def test_df_below_one_rejected(self, df):
        with pytest.raises(ValueError, match="df"):
            chi2_critical(df)

    def test_cli_import_leaves_scipy_out(self):
        import animacy

        src = os.path.dirname(os.path.dirname(os.path.abspath(animacy.__file__)))
        probe = (
            "import sys, animacy.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.stdout == "[]\n"


class TestMerging:
    def test_similar_low_cells_merge(self):
        cells = [("a", 0, 2), ("b", 0, 3), ("c", 8, 0)]
        assert merge_low_frequency(cells) == [("a+b", 0, 5), ("c", 8, 0)]

    def test_compliant_table_unchanged(self):
        cells = [("a", 4, 1), ("b", 5, 0)]
        assert merge_low_frequency(cells) == cells

    def test_opposite_attributes_do_not_merge(self):
        cells = [("a", 0, 2), ("b", 2, 0)]
        assert merge_low_frequency(cells) == cells


def star_taxonomy(n_children):
    synsets = [Synset("root", "n", ("top",), (), 18)]
    for i in range(n_children):
        synsets.append(Synset(f"c{i}", "n", (f"w{i}",), ("root",), 18))
    return Taxonomy(synsets)


def counts_for(taxonomy, children):
    """Count columns over `star_taxonomy`; children: list of (ani, inani)
    per child, each also credited to the root."""
    return count_columns(taxonomy, [
        (sid, ani, inani) for i, (ani, inani) in enumerate(children)
        for sid in (f"c{i}", "root")])


class TestClassifyNode:
    def test_unanimous_animate(self):
        t = star_taxonomy(2)
        assert classify_node("root", counts_for(t, [(3, 0), (2, 0)]), t) is Status.ANIMATE

    def test_unanimous_inanimate(self):
        t = star_taxonomy(2)
        assert classify_node("root", counts_for(t, [(0, 3), (0, 4)]), t) is Status.INANIMATE

    def test_chi_square_accepts_small_deviation(self):
        # animate table (4,5),(5,5): statistic 0.2 < 3.841
        t = star_taxonomy(2)
        status = classify_node("root", counts_for(t, [(4, 1), (5, 0)]), t)
        assert status is Status.ANIMATE

    def test_heavily_mixed_is_undecided(self):
        # both hypotheses give statistic 10 on df 1
        t = star_taxonomy(2)
        status = classify_node("root", counts_for(t, [(10, 10), (10, 10)]), t)
        assert status is Status.UNDECIDED

    def test_no_evidence_is_undecided(self):
        t = star_taxonomy(2)
        assert classify_node("root", count_columns(t, []), t) is Status.UNDECIDED

    def test_mixed_terminal_is_undecided(self):
        t = star_taxonomy(1)
        counts = count_columns(t, [("c0", 4, 2)])
        assert classify_node("c0", counts, t) is Status.UNDECIDED

    @pytest.mark.parametrize("short", ["animate", "inanimate"])
    def test_columns_of_another_length_are_rejected(self, short):
        t = star_taxonomy(2)
        animate, inanimate = counts_for(t, [(3, 1), (2, 2)])
        counts = (animate[:-1], inanimate) if short == "animate" else (animate, inanimate[:-1])
        with pytest.raises(ValueError, match="3 synsets"):
            classify_node("root", counts, t)


class TestEnrich:
    def test_statuses_match_hand_analysis(self, enriched):
        expected = {
            "n-person": Status.ANIMATE,
            "n-relation": Status.ANIMATE,
            "n-pet": Status.ANIMATE,
            "n-animal": Status.UNDECIDED,
            "n-device": Status.UNDECIDED,
            "n-artifact": Status.INANIMATE,  # chi-square absorbs the sentinel
            "n-furniture": Status.INANIMATE,
            "n-cognition": Status.INANIMATE,
            "v-communication": Status.ANIMATE,
            "v-social": Status.UNDECIDED,
            "v-stative": Status.INANIMATE,
        }
        for sid, status in expected.items():
            assert enriched.status(sid) is status, sid

    def test_verb_with_all_animate_subjects(self, enriched):
        assert enriched.status("v-think") is Status.ANIMATE

    def test_zero_count_synsets_stay_undecided(self, enriched):
        assert enriched.status("n-head-person") is Status.UNDECIDED

    def test_order_independence(self, toy_taxonomy, mini_corpus):
        statuses = {
            sid: enrich(toy_taxonomy, mini_corpus).status(sid)
            for sid in toy_taxonomy
        }
        reversed_docs = list(reversed(mini_corpus))
        again = enrich(toy_taxonomy, reversed_docs)
        assert all(again.status(sid) is statuses[sid] for sid in toy_taxonomy)

    def test_status_soundness_recheck(self, enriched, toy_taxonomy, mini_corpus):
        counts, _ = accumulate_counts(mini_corpus, toy_taxonomy)
        for sid in toy_taxonomy:
            status = enriched.status(sid)
            if status is Status.UNDECIDED:
                continue
            again = classify_node(sid, counts, toy_taxonomy)
            assert again is status

    def test_unknown_sense_key_is_kept_as_skipped(self, enriched, toy_taxonomy, mini_corpus):
        ghost = doc_of([("n-ghost", Label.ANIMATE)], doc_id="ghost")
        again = enrich(toy_taxonomy, list(mini_corpus) + [ghost])
        assert enriched.skipped == ()
        assert again.skipped == (("ghost", 0, 0, "n-ghost"),)
        assert again == enriched  # the record adds no evidence

    def test_merges_each_mixed_synset_once(self, toy_taxonomy, mini_corpus, monkeypatch):
        # one merged table gives both hypotheses' statistics
        merged = []
        merge = enrichment.merge_low_frequency

        def counting(children):
            children = list(children)
            merged.append(tuple(sid for sid, _, _ in children))
            return merge(children)

        monkeypatch.setattr(enrichment, "merge_low_frequency", counting)
        enrich(toy_taxonomy, mini_corpus)
        counts, _ = accumulate_counts(mini_corpus, toy_taxonomy)
        tested = []
        for sid in observed(counts, toy_taxonomy):
            children = tuple(child for child in toy_taxonomy.hyponyms(sid)
                             if sum(counts_at(counts, toy_taxonomy, child)))
            if all(counts_at(counts, toy_taxonomy, sid)) and len(children) >= 2:
                tested.append(children)
        assert len(tested) == 4
        assert sorted(merged) == sorted(tested)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.05, float("nan")])
    @pytest.mark.parametrize("corpus", ["empty", "unanimous"])
    def test_alpha_checked_before_counting(self, toy_taxonomy, alpha, corpus):
        docs = [] if corpus == "empty" else [doc_of([("n-dog", Label.ANIMATE)])]
        with pytest.raises(ValueError, match="alpha"):
            enrich(toy_taxonomy, docs, alpha=alpha)

    @settings(max_examples=100, deadline=None)
    @given(base=random_taxonomies(mixed_pos=True), data=st.data())
    def test_drawn_statuses_round_trip(self, base, data):
        """`load_enriched(dump_statuses(e), base) == e` over drawn
        taxonomies and status columns, and the file's bytes come back."""
        e = enriched_of(base, {sid: data.draw(st.sampled_from(list(Status))) for sid in base})
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/statuses.tsv"
            write_atomic(path, dump_statuses(e))
            loaded = load_enriched(path, base)
        assert loaded == e
        assert dump_statuses(loaded) == dump_statuses(e)

    def test_save_and_load_round_trip(self, enriched, toy_taxonomy, tmp_path):
        path = tmp_path / "statuses.tsv"
        write_atomic(path, dump_statuses(enriched))
        assert load_enriched(path, toy_taxonomy) == enriched

    def test_statuses_may_sit_alongside_synset_lines(self, enriched, toy_taxonomy, tmp_path):
        from animacy.taxonomy import load_taxonomy
        from animacy.data import toy_taxonomy_path

        combined = tmp_path / "combined.tax"
        combined.write_text(
            Path(toy_taxonomy_path()).read_text(encoding="utf-8")
            + dump_statuses(enriched)
        )
        assert load_taxonomy(combined) == toy_taxonomy
        assert load_enriched(combined, toy_taxonomy) == enriched


class TestResolution:
    def statuses(self, **overrides):
        t = Taxonomy([
            Synset("root", "n", ("top",), (), 6),
            Synset("mid", "n", ("middle",), ("root",), 6),
            Synset("leaf", "n", ("word",), ("mid",), 6),
        ])
        status = {sid: Status.UNDECIDED for sid in t}
        status.update(overrides)
        return enriched_of(t, status)

    def test_decided_sense_wins(self):
        e = self.statuses(leaf=Status.ANIMATE)
        assert e.resolve_animate("leaf", BeginnerClass()) is True

    def test_walk_up_to_nearest_decided_ancestor(self):
        e = self.statuses(mid=Status.ANIMATE, root=Status.INANIMATE)
        assert e.resolve_animate("leaf", BeginnerClass()) is True

    def test_beginner_class_is_final_fallback(self):
        e = self.statuses()
        # all undecided; lexfile 6 is not an animate noun beginner
        assert e.resolve_animate("leaf", BeginnerClass()) is False


def oracle_resolve(enriched, sid, beginners):
    """Reference resolution: the nearest-decided-ancestor walk, redone on
    every call with no memo."""
    base = enriched.base
    status = enriched.status(sid)
    if status is not Status.UNDECIDED:
        return status is Status.ANIMATE
    seen = {sid}
    frontier = list(base.hypernyms(sid))
    while frontier:
        decided = [enriched.status(x) for x in frontier
                   if enriched.status(x) is not Status.UNDECIDED]
        animate = sum(1 for s in decided if s is Status.ANIMATE)
        inanimate = len(decided) - animate
        if animate > inanimate:
            return True
        if inanimate > animate:
            return False
        if decided:
            break
        seen.update(frontier)
        nxt = []
        for node in frontier:
            for hyp in base.hypernyms(node):
                if hyp not in seen and hyp not in nxt:
                    nxt.append(hyp)
        frontier = nxt
    return beginners.is_animate(base.beginner_of(sid), base.get(sid).pos)


class TestResolutionMemo:
    """Memoised resolution answers exactly as the uncached walk does."""

    BEGINNERS = (BeginnerClass(), BeginnerClass(animate_noun_lexfiles=frozenset({6})))

    @settings(max_examples=100, deadline=None)
    @given(taxonomy=random_taxonomies(), data=st.data())
    def test_matches_uncached_walk(self, taxonomy, data):
        ids = list(taxonomy)
        statuses = data.draw(st.lists(
            st.sampled_from(list(Status)), min_size=len(ids), max_size=len(ids),
        ))
        enriched = enriched_of(taxonomy, dict(zip(ids, statuses)))
        queries = data.draw(st.permutations(
            [(sid, b) for sid in ids for b in self.BEGINNERS] * 2
        ))
        for sid, beginners in queries:
            assert enriched.resolve_animate(sid, beginners) == oracle_resolve(
                enriched, sid, beginners
            ), sid

    def test_multi_parent_frontier_majority(self):
        # x's parents resolve animate, animate, inanimate, but its
        # deduplicated frontier {a, i1, i2} is inanimate
        t = Taxonomy([
            Synset("a", "n", ("ay",), (), 6),
            Synset("i1", "n", ("eye",), (), 6),
            Synset("i2", "n", ("eye",), (), 6),
            Synset("p1", "n", ("pone",), ("a",), 6),
            Synset("p2", "n", ("ptwo",), ("a",), 6),
            Synset("p3", "n", ("pthree",), ("i1", "i2"), 6),
            Synset("x", "n", ("ex",), ("p1", "p2", "p3"), 6),
        ])
        e = enriched_of(t, {"a": Status.ANIMATE, "i1": Status.INANIMATE,
                                 "i2": Status.INANIMATE})
        beginners = BeginnerClass()
        assert [e.resolve_animate(p, beginners) for p in ("p1", "p2", "p3")] == [
            True, True, False]
        assert e.resolve_animate("x", beginners) is False

    def test_memo_is_kept_per_beginner_class(self, toy_taxonomy):
        undecided = enriched_of(toy_taxonomy, {})
        default = BeginnerClass()
        device_animate = BeginnerClass(animate_noun_lexfiles=frozenset({6}))
        sid = "n-mouse-device"
        for _ in range(2):
            assert undecided.resolve_animate(sid, default) is False
            assert undecided.resolve_animate(sid, device_animate) is True


def column_flags(table, sids):
    """The animacy that `table`'s column gives each synset of `sids`."""
    index = table.taxonomy._index
    return tuple(table._animate(np.array([index[sid] for sid in sids], np.int64)).tolist())


def oracle_sense_flags(enriched, beginners):
    """The per-sense walk the column replaced: an Undecided sense with one
    hypernym climbs to it, until a decided sense, a memoized one or one
    with other than one hypernym, which `oracle_resolve` decides; the
    answer is memoized on every sense climbed."""
    base, memo = enriched.base, {}

    def is_animate(sid):
        chain = []
        while enriched.status(sid) is Status.UNDECIDED and sid not in memo:
            parents = base.hypernyms(sid)
            if len(parents) != 1:
                memo[sid] = oracle_resolve(enriched, sid, beginners)
                break
            chain.append(sid)
            sid = parents[0]
        answer = memo[sid] if sid in memo else enriched.status(sid) is Status.ANIMATE
        for sid in chain:
            memo[sid] = answer
        return answer

    return is_animate


@st.composite
def chained_synsets(draw):
    """Synsets of a random DAG of nouns and verbs, each after its
    hypernyms: a synset often continues the latest one of its part of
    speech, so single-parent chains grow long, and else is a root or has
    one to three earlier hypernyms.  Lexfiles come from both beginner
    classes of either part of speech."""
    synsets = []
    for i in range(draw(st.integers(1, 30))):
        pos = draw(st.sampled_from("nv"))
        earlier = [syn.id for syn in synsets if syn.pos == pos]
        shape = draw(st.sampled_from(["chain", "chain", "root", "parents"]))
        if not earlier or shape == "root":
            parents = ()
        elif shape == "chain":
            parents = (earlier[-1],)
        else:
            parents = tuple(draw(st.lists(st.sampled_from(earlier), min_size=1, max_size=3,
                                          unique=True)))
        lemmas = draw(st.lists(st.sampled_from(LEMMAS), min_size=1, max_size=2, unique=True))
        lexfile = draw(st.sampled_from((5, 6, 18, 24) if pos == "n" else (30, 31, 32, 38)))
        synsets.append(Synset(f"s{i}", pos, tuple(lemmas), parents, lexfile))
    return synsets


# Undecided drawn most often, for long Undecided chains and roots
DRAWN_STATUS = st.sampled_from([Status.ANIMATE, Status.INANIMATE] + [Status.UNDECIDED] * 3)
# beginner classes that split nouns and verbs differently
COLUMN_CLASSES = (BeginnerClass(), BeginnerClass(animate_noun_lexfiles=frozenset({6, 18}),
                                                 animate_verb_lexfiles=frozenset({30, 38})))


class TestSenseColumnMatchesOracle:
    """Both sense tables' per-synset columns against the walks they replaced."""

    @settings(max_examples=150, deadline=None)
    @given(synsets=chained_synsets(), data=st.data())
    def test_enriched_column_matches_walk_and_resolution(self, synsets, data):
        taxonomy = Taxonomy(synsets)
        ids = list(taxonomy)
        statuses = data.draw(st.lists(DRAWN_STATUS, min_size=len(ids), max_size=len(ids)))
        enriched = enriched_of(taxonomy, dict(zip(ids, statuses)))
        walked = TestSenseTableMatchesOracle.walked(enriched)
        for beginners in COLUMN_CLASSES:
            table = enriched.sense_table(beginners)
            walk = oracle_sense_flags(enriched, beginners)
            order = data.draw(st.permutations(ids))
            expected = tuple(walk(sid) for sid in order)
            assert column_flags(table, order) == expected
            assert expected == tuple(oracle_resolve(enriched, sid, beginners) for sid in order)
            # asked again, the column answers without resolving anew
            calls = len(walked)
            assert column_flags(table, ids) == tuple(walk(sid) for sid in ids)
            assert len(walked) == calls
        # each table resolves each Undecided stop once
        stops = [sid for sid in ids if enriched.status(sid) is Status.UNDECIDED
                 and len(taxonomy.hypernyms(sid)) != 1]
        assert sorted(walked) == sorted(stops * len(COLUMN_CLASSES))

    @settings(max_examples=150, deadline=None)
    @given(synsets=chained_synsets(), data=st.data())
    def test_rule_column_matches_walking_beginner(self, synsets, data):
        taxonomy, oracle = Taxonomy(synsets), OracleTaxonomy(synsets)
        order = data.draw(st.permutations(list(taxonomy)))
        for sid in order:
            assert taxonomy.beginner_of(sid) == oracle.beginner_of(sid), sid
        for beginners in COLUMN_CLASSES:
            table = rules.sense_table(taxonomy, beginners)
            assert column_flags(table, order) == tuple(
                beginners.is_animate(oracle.beginner_of(sid), oracle.get(sid).pos)
                for sid in order)

    @settings(max_examples=100, deadline=None)
    @given(synsets=chained_synsets(), data=st.data())
    def test_bulk_triples_equal_mass(self, synsets, data):
        """Each lemma's triple of one `counts` call, OOV lemmas included,
        is its sense count and `mass`, on tables of both kinds."""
        taxonomy = Taxonomy(synsets)
        ids = list(taxonomy)
        statuses = data.draw(st.lists(DRAWN_STATUS, min_size=len(ids), max_size=len(ids)))
        enriched = enriched_of(taxonomy, dict(zip(ids, statuses)))
        lemmas = data.draw(st.permutations([*LEMMAS, "ghost"]))
        for beginners in COLUMN_CLASSES:
            for make in (enriched.sense_table, lambda b: rules.sense_table(taxonomy, b)):
                bulk, single = make(beginners), make(beginners)
                for pos in ("n", "v"):
                    got = [tuple(row) for row in bulk.counts(lemmas, pos).T.tolist()]
                    assert got == [(float(len(taxonomy.senses(lemma, pos))),
                                    *single.mass(lemma, pos)) for lemma in lemmas]


class TestSenseTableMatchesOracle:
    """The column of `sense_table` answers as the walk does."""

    BEGINNERS = TestResolutionMemo.BEGINNERS

    @staticmethod
    def walked(enriched):
        """Record the senses `sense_table` hands to `resolve_animate`."""
        calls = []
        resolve = enriched.resolve_animate

        def recording(sid, beginners):
            calls.append(sid)
            return resolve(sid, beginners)

        enriched.resolve_animate = recording
        return calls

    @settings(max_examples=150, deadline=None)
    @given(taxonomy=random_taxonomies(mixed_pos=True), data=st.data())
    def test_flags_of_interleaved_tables(self, taxonomy, data):
        ids = list(taxonomy)
        # Undecided drawn most often, for long single-parent chains
        statuses = data.draw(st.lists(
            st.sampled_from([Status.ANIMATE, Status.INANIMATE] + [Status.UNDECIDED] * 3),
            min_size=len(ids), max_size=len(ids),
        ))
        enriched = enriched_of(taxonomy, dict(zip(ids, statuses)))
        walked = self.walked(enriched)
        tables = [enriched.sense_table(b) for b in self.BEGINNERS]
        queries = data.draw(st.permutations(
            [(k, lemma, pos) for k in range(2) for lemma in LEMMAS for pos in "nv"]))
        for k, lemma, pos in queries:
            senses = tables[k].senses(lemma, pos)
            flags = column_flags(tables[k], senses)
            assert flags == tuple(
                oracle_resolve(enriched, sid, self.BEGINNERS[k]) for sid in senses), lemma
        for sid in walked:
            assert enriched.status(sid) is Status.UNDECIDED
            assert len(taxonomy.hypernyms(sid)) != 1, sid

    def test_single_parent_chain_below_a_tied_two_parent_node(self):
        # "m" is Undecided under one animate and one inanimate root, so its
        # frontier ties and its own lexfile (18) decides; the chain below
        # it has other lexfiles, which `beginner_of` passes over
        t = Taxonomy([
            Synset("a", "n", ("ay",), (), 5),
            Synset("i", "n", ("eye",), (), 6),
            Synset("m", "n", ("em",), ("a", "i"), 18),
            Synset("c1", "n", ("cone",), ("m",), 6),
            Synset("c2", "n", ("ctwo",), ("c1",), 24),
            Synset("c3", "n", ("cthree", "em"), ("c2",), 6),
        ])
        e = enriched_of(t, {"a": Status.ANIMATE, "i": Status.INANIMATE})
        walked = self.walked(e)
        for beginners, expected in zip(self.BEGINNERS, (True, False)):
            table = e.sense_table(beginners)
            # the leaf first, so its stop is resolved before the chain above it is read
            for sid in ("c3", "c1", "c2", "m"):
                assert column_flags(table, [sid]) == (expected,), sid
                assert oracle_resolve(e, sid, beginners) is expected, sid
            assert table.mass("em", "n") == (float(2 * expected), float(2 * (not expected)))
        assert walked == ["m", "m"]


class TestCountPropagationProperty:
    """Counts at a node must equal the occurrences in its closure, on any DAG."""

    @settings(max_examples=50, deadline=None)
    @given(taxonomy=random_taxonomies(), data=st.data())
    def test_counts_equal_closure_membership(self, taxonomy, data):
        ids = list(taxonomy)
        events = data.draw(st.lists(
            st.tuples(st.sampled_from(ids), st.booleans()),
            min_size=0, max_size=15,
        ))
        nps = tuple(
            make_np(sent=0, np=i, head="w",
                    gold=Label.ANIMATE if animate else Label.INANIMATE,
                    sense_key=sid)
            for i, (sid, animate) in enumerate(events)
        )
        counts, _ = accumulate_counts([Document("d", nps, 0, 0)], taxonomy)
        for node in ids:
            expected_animate = sum(
                1 for sid, animate in events
                if animate and node in taxonomy.ancestors(sid, include_self=True)
            )
            expected_inanimate = sum(
                1 for sid, animate in events
                if not animate and node in taxonomy.ancestors(sid, include_self=True)
            )
            assert counts_at(counts, taxonomy, node) == (expected_animate, expected_inanimate)


def oracle_accumulate_counts(docs, taxonomy):
    """Reference counting: every occurrence walks and credits its own
    closure, with no tally, into plain animate and inanimate dicts."""
    counts = ({}, {})
    skipped = []
    for doc, np in iter_nps(docs):
        if np.gold is None:
            continue
        column = counts[0 if np.gold is Label.ANIMATE else 1]
        if np.sense_key is not None:
            if np.sense_key not in taxonomy:
                skipped.append((np.doc_id, np.sent_id, np.np_id, np.sense_key))
            else:
                for sid in taxonomy.ancestors(np.sense_key, include_self=True):
                    column[sid] = column.get(sid, 0) + 1
        if np.is_subject and np.verb_lemma is not None:
            touched = set()
            for vid in taxonomy.senses(np.verb_lemma, VERB):
                touched |= taxonomy.ancestors(vid, include_self=True)
            for sid in touched:
                column[sid] = column.get(sid, 0) + 1
    return counts, skipped


@st.composite
def annotated_corpora(draw, taxonomy):
    """One to three documents of NPs over `taxonomy`: repeated and unknown
    sense keys, unlabelled NPs, and subjects whose verb lemma may have
    several senses, or none."""
    senses = st.one_of(st.none(), st.sampled_from(list(taxonomy)),
                       st.sampled_from(["ghost", "n-ghost"]))
    verbs = st.one_of(st.none(), st.sampled_from(LEMMAS + ["unseen"]))
    golds = st.sampled_from([None, Label.ANIMATE, Label.INANIMATE])
    events = draw(st.lists(
        st.tuples(senses, golds, st.booleans(), verbs, st.integers(1, 6)), max_size=25,
    ))
    nps = []
    for sense, gold, subject, verb, repeat in events:
        for _ in range(repeat):
            nps.append(dict(head="w", gold=gold, sense_key=sense,
                            is_subject=subject or verb is not None, verb_lemma=verb))
    n_docs = draw(st.integers(1, 3))
    return [
        Document(f"d{k}", tuple(make_np(doc=f"d{k}", sent=i % 3, np=i, **fields)
                                for i, fields in enumerate(nps[k::n_docs])), 0, 0)
        for k in range(n_docs)
    ]


class TestCountsMatchOracle:
    """Tallied counting equals per-occurrence counting, nouns and verbs."""

    @settings(max_examples=100, deadline=None)
    @given(taxonomy=random_taxonomies(mixed_pos=True), data=st.data())
    def test_same_counts_and_skipped_order(self, taxonomy, data):
        docs = data.draw(annotated_corpora(taxonomy))
        (animate, inanimate), expected_skipped = oracle_accumulate_counts(docs, taxonomy)
        for form in (docs, reloaded(docs)):
            counts, skipped = accumulate_counts(form, taxonomy)
            assert skipped == expected_skipped
            assert [(len(column), column.dtype) for column in counts] == [
                (len(taxonomy), np.int64)] * 2
            assert set(observed(counts, taxonomy)) == animate.keys() | inanimate.keys()
            for sid in taxonomy:
                assert counts_at(counts, taxonomy, sid) == (
                    animate.get(sid, 0), inanimate.get(sid, 0)), sid


def subject_doc(*events):
    """One document of (sense key, verb lemma, gold) NPs, each a subject
    when it has a verb."""
    return [Document("d", tuple(
        make_np(sent=0, np=i, head="w", gold=gold, sense_key=sense,
                is_subject=verb is not None, verb_lemma=verb)
        for i, (sense, verb, gold) in enumerate(events)), 0, 0)]


class TestCountEdgeCases:
    """Closure-pass corner cases, each checked against the per-occurrence
    oracle."""

    def assert_oracle_counts(self, docs, taxonomy):
        (animate, inanimate), expected_skipped = oracle_accumulate_counts(docs, taxonomy)
        counts, skipped = accumulate_counts(docs, taxonomy)
        assert skipped == expected_skipped
        assert observed(counts, taxonomy) == tuple(
            sid for sid in taxonomy if sid in animate or sid in inanimate)
        for sid in taxonomy:
            assert counts_at(counts, taxonomy, sid) == (
                animate.get(sid, 0), inanimate.get(sid, 0)), sid
        return counts, skipped

    def test_node_reached_at_two_depths(self):
        # "x" reaches "r" directly (one level up) and through "b" and "a"
        # (three levels up): one credit per occurrence all the same
        t = Taxonomy([
            Synset("r", "n", ("top",), (), 6),
            Synset("a", "n", ("ay",), ("r",), 6),
            Synset("b", "n", ("bee",), ("a",), 6),
            Synset("x", "n", ("ex",), ("b", "r"), 6),
        ])
        docs = subject_doc(("x", None, Label.ANIMATE), ("x", None, Label.INANIMATE),
                           ("b", None, Label.ANIMATE))
        counts, _ = self.assert_oracle_counts(docs, t)
        assert counts_at(counts, t, "r") == (2, 1)

    def test_verb_senses_sharing_ancestors(self):
        # both senses of "go" lie under "v-move", which is credited once
        t = Taxonomy([
            Synset("v-act", "v", ("act",), (), 41),
            Synset("v-move", "v", ("move",), ("v-act",), 38),
            Synset("v-go-walk", "v", ("go",), ("v-move",), 38),
            Synset("v-go-ride", "v", ("go", "ride"), ("v-move", "v-act"), 38),
        ])
        docs = subject_doc((None, "go", Label.ANIMATE), (None, "go", Label.ANIMATE),
                           (None, "ride", Label.INANIMATE))
        counts, _ = self.assert_oracle_counts(docs, t)
        assert counts_at(counts, t, "v-act")[0] == counts_at(counts, t, "v-move")[0] == 2
        assert counts_at(counts, t, "v-act")[1] == 1

    def test_verb_lemma_without_senses(self, toy_taxonomy):
        docs = subject_doc(("n-dog", "unseen", Label.ANIMATE), (None, "unseen", Label.ANIMATE))
        counts, _ = self.assert_oracle_counts(docs, toy_taxonomy)
        assert not any(toy_taxonomy.pos_of(sid) == VERB
                       for sid in observed(counts, toy_taxonomy))

    def test_empty_corpus(self, toy_taxonomy):
        counts, skipped = self.assert_oracle_counts([], toy_taxonomy)
        assert observed(counts, toy_taxonomy) == () and skipped == []

    def test_every_key_skipped(self, toy_taxonomy):
        docs = subject_doc(("n-ghost", None, Label.ANIMATE), ("ghost", None, Label.INANIMATE),
                           ("n-ghost", None, None))
        counts, skipped = self.assert_oracle_counts(docs, toy_taxonomy)
        assert observed(counts, toy_taxonomy) == ()
        assert skipped == [("d", 0, 0, "n-ghost"), ("d", 0, 1, "ghost")]


class OracleCounts:
    """The dict form the count columns replaced: animate and inanimate
    occurrence counts per synset id, with the same keys, in order of first
    `add`."""

    def __init__(self):
        self._animate: dict[str, int] = {}
        self._inanimate: dict[str, int] = {}

    def add(self, sid, animate, amount=1):
        self._animate[sid] = self._animate.get(sid, 0) + (amount if animate else 0)
        self._inanimate[sid] = self._inanimate.get(sid, 0) + (0 if animate else amount)

    def animate(self, sid):
        return self._animate.get(sid, 0)

    def inanimate(self, sid):
        return self._inanimate.get(sid, 0)

    def total(self, sid):
        return self.animate(sid) + self.inanimate(sid)

    def observed_ids(self):
        return tuple(self._animate)


def oracle_classify_node(node, counts, taxonomy, alpha=0.05):
    """Status of one synset as the dict form decided it: its counts and
    its observed hyponyms' looked up by id, the hyponyms walked by
    `Taxonomy.hyponyms`."""
    ani, inani = counts.animate(node), counts.inanimate(node)
    if ani == 0 and inani == 0:
        return Status.UNDECIDED
    if inani == 0:
        return Status.ANIMATE
    if ani == 0:
        return Status.INANIMATE
    children = [(child, counts.animate(child), counts.inanimate(child))
                for child in taxonomy.hyponyms(node) if counts.total(child)]
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


def oracle_counts(animate, inanimate):
    """The dict form of `oracle_accumulate_counts`' two dicts."""
    counts = OracleCounts()
    for column, is_animate in ((animate, True), (inanimate, False)):
        for sid, amount in column.items():
            counts.add(sid, is_animate, amount)
    return counts


# mostly zero, so that many synsets are unobserved or unanimous, and up to
# 40, so that chi-square tables reach every decision
DRAWN_COUNT = st.one_of(st.just(0), st.just(0), st.integers(1, 40))


class TestClassifyNodeMatchesOracle:
    """`classify_node` on the count columns decides every observed synset
    as the dict form did, on DAGs with multi-parent nodes and long chains."""

    @settings(max_examples=150, deadline=None)
    @given(synsets=chained_synsets(), data=st.data(), alpha=st.sampled_from([0.05, 0.01]))
    def test_on_accumulated_counts(self, synsets, data, alpha):
        # corpora with verb subjects, repeated and unresolved sense keys
        taxonomy = Taxonomy(synsets)
        docs = data.draw(annotated_corpora(taxonomy))
        oracle = oracle_counts(*oracle_accumulate_counts(docs, taxonomy)[0])
        counts, _ = accumulate_counts(docs, taxonomy)
        assert set(observed(counts, taxonomy)) == set(oracle.observed_ids())
        for sid in oracle.observed_ids():
            assert classify_node(sid, counts, taxonomy, alpha) is oracle_classify_node(
                sid, oracle, taxonomy, alpha), sid

    @settings(max_examples=150, deadline=None)
    @given(synsets=chained_synsets(), data=st.data(), alpha=st.sampled_from([0.05, 0.01]))
    def test_on_drawn_counts(self, synsets, data, alpha):
        # counts drawn per synset, not summed up the hierarchy, so that
        # large mixed tables are common
        taxonomy = Taxonomy(synsets)
        drawn = data.draw(st.lists(st.tuples(DRAWN_COUNT, DRAWN_COUNT),
                                   min_size=len(taxonomy), max_size=len(taxonomy)))
        credits = [(sid, ani, inani) for sid, (ani, inani) in zip(taxonomy, drawn)]
        oracle = OracleCounts()
        for sid, ani, inani in credits:
            if ani or inani:
                oracle.add(sid, True, ani)
                oracle.add(sid, False, inani)
        counts = count_columns(taxonomy, credits)
        for sid in oracle.observed_ids():
            assert classify_node(sid, counts, taxonomy, alpha) is oracle_classify_node(
                sid, oracle, taxonomy, alpha), sid


class TestEnrichMatchesOracle:
    """Testing only the observed synsets equals testing every synset."""

    @settings(max_examples=100, deadline=None)
    @given(taxonomy=random_taxonomies(mixed_pos=True), data=st.data(),
           alpha=st.sampled_from([0.05, 0.01]))
    def test_status_column_in_taxonomy_order(self, taxonomy, data, alpha):
        docs = data.draw(annotated_corpora(taxonomy))
        counts, _ = accumulate_counts(docs, taxonomy)  # pinned by TestCountsMatchOracle
        expected = {sid: classify_node(sid, counts, taxonomy, alpha) for sid in taxonomy}
        got = enrich(taxonomy, docs, alpha)
        assert got._status.dtype == np.int8 and len(got._status) == len(taxonomy)
        assert [(sid, got.status(sid)) for sid in taxonomy] == list(expected.items())


def test_coverage_boundaries(toy_taxonomy):
    all_animate = enriched_of(
        toy_taxonomy, {sid: Status.ANIMATE for sid in toy_taxonomy}
    )
    assert all_animate.coverage() == 1.0
    none_decided = enriched_of(toy_taxonomy, {})
    assert none_decided.coverage() == 0.0


def oracle_load_statuses(lines, base):
    """One status per synset of `base`, in its order, or the number of the
    first line that is malformed, names an unknown synset or repeats one."""
    given = {}
    for lineno, line in enumerate(lines, 1):
        if not line or line.startswith("#") or line.startswith("SYNSET\t"):
            continue
        fields = line.split("\t")
        if (len(fields) != 3 or fields[0] != "STATUS" or fields[1] not in set(base)
                or fields[1] in given or fields[2] not in ("A", "I", "U")):
            return lineno
        given[fields[1]] = Status(fields[2])
    return [(sid, given.get(sid, Status.UNDECIDED)) for sid in base]


STATUS_LINES = st.lists(st.one_of(
    st.tuples(
        st.sampled_from(["STATUS", "STATUS", "status", "SYNSET"]),
        st.sampled_from(["n-animal", "n-person", "n-table", "v-social", "n-ghost", ""]),
        st.sampled_from(["A", "I", "U", "X", ""]),
    ).map("\t".join),
    st.lists(FREE_TEXT, max_size=4).map("\t".join),
    st.sampled_from(["", "# note", "STATUS\tn-animal\tA\textra"]),
), max_size=8)


class TestStatusLoaderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(lines=STATUS_LINES)
    def test_statuses_or_value_error_naming_the_line(self, toy_taxonomy, lines):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_lines(tmp, lines)
            expected = oracle_load_statuses(lines, toy_taxonomy)
            try:
                got = load_enriched(path, toy_taxonomy)
            except ValueError as exc:
                assert isinstance(expected, int), exc
                assert str(exc).startswith(f"{path} line {expected}: ")
            else:
                assert [(sid, got.status(sid)) for sid in toy_taxonomy] == expected
