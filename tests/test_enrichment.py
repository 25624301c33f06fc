import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from animacy import enrichment
from animacy.corpus import Document, Label, iter_nps
from animacy.enrichment import (
    EnrichedTaxonomy,
    Status,
    SynsetCounts,
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
from tests.test_corpus import make_np, reloaded, write_lines
from tests.test_taxonomy import LEMMAS, random_taxonomies

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
        assert counts.animate("l") == counts.animate("m") == counts.animate("r") == 1

    def test_diamond_counts_once_per_ancestor(self, toy_taxonomy):
        # n-lamp reaches n-artifact via n-device and n-furniture
        docs = [doc_of([("n-lamp", Label.INANIMATE)])]
        counts, _ = accumulate_counts(docs, toy_taxonomy)
        assert counts.inanimate("n-lamp") == 1
        assert counts.inanimate("n-device") == 1
        assert counts.inanimate("n-furniture") == 1
        assert counts.inanimate("n-artifact") == 1

    def test_empty_corpus_all_zero(self, toy_taxonomy):
        counts, _ = accumulate_counts([], toy_taxonomy)
        assert counts.observed_ids() == ()

    def test_unresolvable_sense_is_skipped_and_reported(self, toy_taxonomy):
        docs = [doc_of([("n-ghost", Label.ANIMATE), ("n-dog", Label.ANIMATE)])]
        counts, skipped = accumulate_counts(docs, toy_taxonomy)
        assert skipped == [("d", 0, 0, "n-ghost")]
        assert counts.animate("n-dog") == 1

    def test_verb_occurrences_credit_all_senses_once(self, toy_taxonomy):
        doc = Document("d", (
            make_np(sent=0, np=0, head="dog", is_subject=True,
                    verb_lemma="run", gold=Label.ANIMATE),
        ), 0, 0)
        counts, _ = accumulate_counts([doc], toy_taxonomy)
        assert counts.animate("v-run-motion") == 1
        assert counts.animate("v-run-social") == 1
        # shared nothing, but each root once
        assert counts.animate("v-motion") == 1
        assert counts.animate("v-social") == 1

    def test_count_conservation_at_root_of_a_tree(self):
        t = chain()
        docs = [doc_of([("l", Label.ANIMATE), ("m", Label.ANIMATE),
                        ("l", Label.INANIMATE)])]
        counts, _ = accumulate_counts(docs, t)
        assert counts.animate("r") == 2
        assert counts.inanimate("r") == 1


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


def counts_for(children):
    """children: list of (ani, inani) per child of `star_taxonomy`."""
    counts = SynsetCounts()
    for i, (ani, inani) in enumerate(children):
        counts.add(f"c{i}", True, ani)
        counts.add(f"c{i}", False, inani)
        counts.add("root", True, ani)
        counts.add("root", False, inani)
    return counts


class TestClassifyNode:
    def test_unanimous_animate(self):
        t = star_taxonomy(2)
        assert classify_node("root", counts_for([(3, 0), (2, 0)]), t) is Status.ANIMATE

    def test_unanimous_inanimate(self):
        t = star_taxonomy(2)
        assert classify_node("root", counts_for([(0, 3), (0, 4)]), t) is Status.INANIMATE

    def test_chi_square_accepts_small_deviation(self):
        # animate table (4,5),(5,5): statistic 0.2 < 3.841
        t = star_taxonomy(2)
        status = classify_node("root", counts_for([(4, 1), (5, 0)]), t)
        assert status is Status.ANIMATE

    def test_heavily_mixed_is_undecided(self):
        # both hypotheses give statistic 10 on df 1
        t = star_taxonomy(2)
        status = classify_node("root", counts_for([(10, 10), (10, 10)]), t)
        assert status is Status.UNDECIDED

    def test_no_evidence_is_undecided(self):
        t = star_taxonomy(2)
        assert classify_node("root", SynsetCounts(), t) is Status.UNDECIDED

    def test_mixed_terminal_is_undecided(self):
        t = star_taxonomy(1)
        counts = SynsetCounts()
        counts.add("c0", True, 4)
        counts.add("c0", False, 2)
        assert classify_node("c0", counts, t) is Status.UNDECIDED


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
        for sid in counts.observed_ids():
            children = tuple(child for child in toy_taxonomy.hyponyms(sid) if counts.total(child))
            if counts.animate(sid) and counts.inanimate(sid) and len(children) >= 2:
                tested.append(children)
        assert len(tested) == 4
        assert sorted(merged) == sorted(tested)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.05, float("nan")])
    @pytest.mark.parametrize("corpus", ["empty", "unanimous"])
    def test_alpha_checked_before_counting(self, toy_taxonomy, alpha, corpus):
        docs = [] if corpus == "empty" else [doc_of([("n-dog", Label.ANIMATE)])]
        with pytest.raises(ValueError, match="alpha"):
            enrich(toy_taxonomy, docs, alpha=alpha)

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
        return EnrichedTaxonomy(t, status)

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
        enriched = EnrichedTaxonomy(taxonomy, dict(zip(ids, statuses)))
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
        e = EnrichedTaxonomy(t, {"a": Status.ANIMATE, "i1": Status.INANIMATE,
                                 "i2": Status.INANIMATE})
        beginners = BeginnerClass()
        assert [e.resolve_animate(p, beginners) for p in ("p1", "p2", "p3")] == [
            True, True, False]
        assert e.resolve_animate("x", beginners) is False

    def test_memo_is_kept_per_beginner_class(self, toy_taxonomy):
        undecided = EnrichedTaxonomy(toy_taxonomy, {})
        default = BeginnerClass()
        device_animate = BeginnerClass(animate_noun_lexfiles=frozenset({6}))
        sid = "n-mouse-device"
        for _ in range(2):
            assert undecided.resolve_animate(sid, default) is False
            assert undecided.resolve_animate(sid, device_animate) is True


class TestSenseTableMatchesOracle:
    """The single-parent memo of `sense_table` answers as the walk does."""

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
        enriched = EnrichedTaxonomy(taxonomy, dict(zip(ids, statuses)))
        walked = self.walked(enriched)
        tables = [enriched.sense_table(b) for b in self.BEGINNERS]
        queries = data.draw(st.permutations(
            [(k, lemma, pos) for k in range(2) for lemma in LEMMAS for pos in "nv"]))
        for k, lemma, pos in queries:
            senses = tables[k].senses(lemma, pos)
            flags = tables[k]._lemmas[pos][lemma][1]
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
        e = EnrichedTaxonomy(t, {"a": Status.ANIMATE, "i": Status.INANIMATE})
        walked = self.walked(e)
        for beginners, expected in zip(self.BEGINNERS, (True, False)):
            table = e.sense_table(beginners)
            # the leaf first, so the chain above it is memoized from below
            for sid in ("c3", "c1", "c2", "m"):
                assert table._is_animate(sid) is expected, sid
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
            assert counts.animate(node) == expected_animate
            assert counts.inanimate(node) == expected_inanimate


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
            assert set(counts.observed_ids()) == animate.keys() | inanimate.keys()
            for sid in taxonomy:
                assert counts.animate(sid) == animate.get(sid, 0), sid
                assert counts.inanimate(sid) == inanimate.get(sid, 0), sid


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
        assert counts.observed_ids() == tuple(
            sid for sid in taxonomy if sid in animate or sid in inanimate)
        for sid in taxonomy:
            assert counts.animate(sid) == animate.get(sid, 0), sid
            assert counts.inanimate(sid) == inanimate.get(sid, 0), sid
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
        assert (counts.animate("r"), counts.inanimate("r")) == (2, 1)

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
        assert counts.animate("v-act") == counts.animate("v-move") == 2
        assert counts.inanimate("v-act") == 1

    def test_verb_lemma_without_senses(self, toy_taxonomy):
        docs = subject_doc(("n-dog", "unseen", Label.ANIMATE), (None, "unseen", Label.ANIMATE))
        counts, _ = self.assert_oracle_counts(docs, toy_taxonomy)
        assert not any(toy_taxonomy.pos_of(sid) == VERB for sid in counts.observed_ids())

    def test_empty_corpus(self, toy_taxonomy):
        counts, skipped = self.assert_oracle_counts([], toy_taxonomy)
        assert counts.observed_ids() == () and skipped == []

    def test_every_key_skipped(self, toy_taxonomy):
        docs = subject_doc(("n-ghost", None, Label.ANIMATE), ("ghost", None, Label.INANIMATE),
                           ("n-ghost", None, None))
        counts, skipped = self.assert_oracle_counts(docs, toy_taxonomy)
        assert counts.observed_ids() == ()
        assert skipped == [("d", 0, 0, "n-ghost"), ("d", 0, 1, "ghost")]


class TestEnrichMatchesOracle:
    """Testing only the observed synsets equals testing every synset."""

    @settings(max_examples=100, deadline=None)
    @given(taxonomy=random_taxonomies(mixed_pos=True), data=st.data(),
           alpha=st.sampled_from([0.05, 0.01]))
    def test_status_column_in_taxonomy_order(self, taxonomy, data, alpha):
        docs = data.draw(annotated_corpora(taxonomy))
        counts, _ = accumulate_counts(docs, taxonomy)  # pinned by TestCountsMatchOracle
        expected = {sid: classify_node(sid, counts, taxonomy, alpha) for sid in taxonomy}
        got = enrich(taxonomy, docs, alpha)._status
        assert list(got.items()) == list(expected.items())


def test_coverage_boundaries(toy_taxonomy):
    all_animate = EnrichedTaxonomy(
        toy_taxonomy, {sid: Status.ANIMATE for sid in toy_taxonomy}
    )
    assert all_animate.coverage() == 1.0
    none_decided = EnrichedTaxonomy(toy_taxonomy, {})
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
                assert [(sid, got.status(sid)) for sid in got._status] == expected
