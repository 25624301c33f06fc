import math
import random
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from animacy.corpus import Document, Label, PronounRecord
from animacy.resolution import (
    CompiledCorpus,
    InfeasibleTargetError,
    _run_seed,
    candidate_set,
    compile_corpus,
    gold_assignment,
    inject_errors,
    marginal_csv,
    run_harness,
    sweep,
    sweep_csv,
)
from tests.test_corpus import iter_nps, make_np, reloaded

A, I, U = Label.ANIMATE, Label.INANIMATE, Label.UNKNOWN


def filter_candidates(pronoun_animate, candidates):
    """Drop (NP, label) candidates whose animacy disagrees with the
    pronoun; UNKNOWN candidates always survive."""
    drop = I if pronoun_animate else A
    return [np for np, label in candidates if label is not drop]


def resolve_recency(pronoun, candidates):
    """Most recent surviving candidate, or None when the set is empty."""
    return candidates[-1] if candidates else None


def measured_precision_recall(gold, perturbed):
    """Animate-class precision and recall of a perturbed stream."""
    tp = sum(1 for g, p in zip(gold, perturbed) if g is A and p is A)
    fp = sum(1 for g, p in zip(gold, perturbed) if g is not A and p is A)
    fn = sum(1 for g, p in zip(gold, perturbed) if g is A and p is not A)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return precision, recall


@dataclass(frozen=True)
class FilterOutcome:
    doc_id: str
    pronoun: PronounRecord
    candidates_before: int
    candidates_after: int
    gold_in_before: bool
    gold_survived: bool
    resolved_correctly: bool


def oracle_run_harness(docs, labels, window=2, count_prefilter_misses=True):
    """The harness as one record per pronoun, then sums over the records;
    returns (success_rate, avg_candidates, pct_no_antecedent, outcomes)."""
    outcomes = []
    for doc in docs:
        for pronoun in doc.pronouns:
            before = candidate_set(pronoun, doc, window)
            labelled = [
                (np, labels.get(np.key, Label.UNKNOWN)) for np in before
            ]
            after = filter_candidates(pronoun.animate, labelled)
            gold = pronoun.antecedent
            gold_in_before = gold is not None and any(
                (np.sent_id, np.np_id) == gold for np in before
            )
            gold_survived = gold is not None and any(
                (np.sent_id, np.np_id) == gold for np in after
            )
            chosen = resolve_recency(pronoun, after)
            resolved = (
                chosen is not None
                and gold is not None
                and (chosen.sent_id, chosen.np_id) == gold
            )
            outcomes.append(
                FilterOutcome(
                    doc_id=doc.doc_id,
                    pronoun=pronoun,
                    candidates_before=len(before),
                    candidates_after=len(after),
                    gold_in_before=gold_in_before,
                    gold_survived=gold_survived,
                    resolved_correctly=resolved,
                )
            )
    if not outcomes:
        raise ValueError("corpus contains no pronoun records")

    total = len(outcomes)
    if count_prefilter_misses:
        missing = sum(1 for o in outcomes if not o.gold_survived)
    else:
        missing = sum(1 for o in outcomes if o.gold_in_before and not o.gold_survived)
    return (
        sum(o.resolved_correctly for o in outcomes) / total,
        sum(o.candidates_after for o in outcomes) / total,
        missing / total,
        tuple(outcomes),
    )


def doc_with_sentences(np_sents, pronouns=()):
    nps = []
    per_sent = {}
    for sent in np_sents:
        idx = per_sent.get(sent, 0)
        per_sent[sent] = idx + 1
        nps.append(make_np(sent=sent, np=idx, head=f"w{sent}_{idx}", gold=I))
    return Document("d", tuple(nps), 0, 0, tuple(pronouns))


class TestCandidateSet:
    def test_window_two(self):
        doc = doc_with_sentences([0, 1, 2, 3, 4, 5, 5, 6])
        pron = PronounRecord(5, "it", False, None)
        cands = candidate_set(pron, doc, window=2)
        assert [(c.sent_id, c.np_id) for c in cands] == [(3, 0), (4, 0), (5, 0), (5, 1)]

    def test_window_zero_same_sentence_only(self):
        doc = doc_with_sentences([0, 1, 1, 2])
        pron = PronounRecord(1, "it", False, None)
        cands = candidate_set(pron, doc, window=0)
        assert all(c.sent_id == 1 for c in cands) and len(cands) == 2

    def test_document_start_clamps(self):
        doc = doc_with_sentences([0, 1])
        pron = PronounRecord(0, "it", False, None)
        assert len(candidate_set(pron, doc, window=5)) == 1

    def test_negative_window_rejected(self):
        doc = doc_with_sentences([0])
        with pytest.raises(ValueError):
            candidate_set(PronounRecord(0, "it", False, None), doc, -1)


class TestFiltering:
    def pair(self, label):
        return make_np(head="x"), label

    def test_animate_pronoun_keeps_animate(self):
        man, table = make_np(np=0, head="man"), make_np(np=1, head="table")
        kept = filter_candidates(True, [(man, A), (table, I)])
        assert kept == [man]

    def test_unknown_always_survives(self):
        gizmo = make_np(head="gizmo")
        assert filter_candidates(True, [(gizmo, U)]) == [gizmo]
        assert filter_candidates(False, [(gizmo, U)]) == [gizmo]

    def test_total_filtering_leaves_empty(self):
        man = make_np(head="man")
        assert filter_candidates(False, [(man, A)]) == []

    def test_subset_property(self, mini_corpus):
        labels = gold_assignment(mini_corpus)
        for doc in mini_corpus:
            for pron in doc.pronouns:
                before = candidate_set(pron, doc)
                after = filter_candidates(
                    pron.animate, [(np, labels.get(np.key, U)) for np in before]
                )
                assert set(x.key for x in after) <= set(x.key for x in before)


class TestRecency:
    def test_two_survivors_take_later(self):
        first, second = make_np(sent=0, head="a"), make_np(sent=1, head="b")
        assert resolve_recency(None, [first, second]) is second

    def test_empty_gives_none(self):
        assert resolve_recency(None, []) is None

    def test_singleton(self):
        only = make_np(head="only")
        assert resolve_recency(None, [only]) is only


class TestHarness:
    def two_pronoun_document(self):
        man = make_np(sent=0, np=0, head="man", gold=A)
        rock = make_np(sent=0, np=1, head="rock", gold=I)
        box = make_np(sent=1, np=0, head="box", gold=I)
        pronouns = (
            PronounRecord(1, "he", True, (0, 0)),
            PronounRecord(1, "it", False, (1, 0)),
        )
        return [Document("d", (man, rock, box), 1, 1, pronouns)]

    def test_hand_traced_metric_triple(self):
        docs = self.two_pronoun_document()
        result = run_harness(docs, gold_assignment(docs))
        # he: filtered {man} -> man (correct); it: filtered {rock, box} -> box (correct)
        assert result.success_rate == 1.0
        assert result.avg_candidates == 1.5
        assert result.pct_no_antecedent == 0.0

    def test_no_filter_run_reproduces_unfiltered_average(self, mini_corpus):
        unfiltered = run_harness(mini_corpus, {})  # everything UNKNOWN survives
        gold = run_harness(mini_corpus, gold_assignment(mini_corpus))
        assert gold.avg_candidates <= unfiltered.avg_candidates

    def test_gold_filtering_beats_no_filtering_on_recency(self, mini_corpus):
        gold = run_harness(mini_corpus, gold_assignment(mini_corpus))
        unfiltered = run_harness(mini_corpus, {})
        assert gold.success_rate >= unfiltered.success_rate
        # frozen from a hand trace of the bundled corpus
        assert gold.success_rate == pytest.approx(10 / 12)
        assert unfiltered.success_rate == pytest.approx(2 / 12)

    def test_agreeing_gold_antecedents_always_survive_gold_filtering(self, mini_corpus):
        # with every agreeing antecedent kept, only the pronouns that have
        # no gold antecedent at all lack one after filtering
        result = run_harness(mini_corpus, gold_assignment(mini_corpus))
        pronouns = [p for doc in mini_corpus for p in doc.pronouns]
        without_gold = sum(1 for p in pronouns if p.antecedent is None)
        assert result.pct_no_antecedent * len(pronouns) == without_gold

    def test_prefilter_miss_flag(self, mini_corpus):
        labels = gold_assignment(mini_corpus)
        with_empties = run_harness(mini_corpus, labels, count_prefilter_misses=True)
        only_losses = run_harness(mini_corpus, labels, count_prefilter_misses=False)
        # the bundled corpus has one pronoun with no gold antecedent at all
        assert with_empties.pct_no_antecedent == pytest.approx(1 / 12)
        assert only_losses.pct_no_antecedent == 0.0

    def test_corpus_without_pronouns_rejected(self):
        docs = [Document("d", (make_np(gold=I),), 0, 0)]
        with pytest.raises(ValueError, match="pronoun"):
            run_harness(docs, gold_assignment(docs))


@st.composite
def harness_corpora(draw):
    """Small random corpora with unlabelled NPs, NPs out of sentence order,
    document ids that repeat (so NP keys can too), and pronouns without
    an antecedent or with one outside the window, before or after the
    pronoun's sentence."""
    docs = []
    for d in range(draw(st.integers(1, 3))):
        doc_id = draw(st.sampled_from([f"d{d}", "d0"]))
        sentences = draw(st.integers(1, 6))
        nps = [
            make_np(doc=doc_id, sent=sent, np=idx, head=f"w{sent}_{idx}",
                    gold=draw(st.sampled_from([A, I, None])))
            for sent in range(sentences)
            for idx in range(draw(st.integers(0, 3)))
        ]
        nps = draw(st.permutations(nps))
        spans = [(np.sent_id, np.np_id) for np in nps]
        pronouns = tuple(
            PronounRecord(
                draw(st.integers(0, sentences - 1)), "it", draw(st.booleans()),
                draw(st.none() | st.sampled_from(spans)) if spans else None,
            )
            for _ in range(draw(st.integers(0, 4)))
        )
        docs.append(Document(doc_id, tuple(nps), 0, 0, pronouns))
    return docs


@st.composite
def twin_key_corpora(draw):
    """Drawn corpora with two documents "t" inserted, each holding the NP
    key ("t", 0, 0) with a different gold label and pronouns of both
    animacies whose antecedent it is, so flips land on both twins."""
    docs = draw(harness_corpora())
    for gold in draw(st.permutations([A, I])):
        twin = make_np(doc="t", sent=0, np=0, head="twin", gold=gold)
        pronouns = (PronounRecord(0, "he", True, (0, 0)),
                    PronounRecord(0, "it", False, (0, 0)))
        docs.insert(draw(st.integers(0, len(docs))),
                    Document("t", (twin,), 0, 0, pronouns))
    return docs


ID_BASES = [-(2**63) + 1, -(2**40), -3, 0, 2**31 - 2, 2**40, 2**63 - 2, 2**64]


@st.composite
def wide_id_corpora(draw):
    """Corpora whose sentence and NP ids are negative or beyond int32,
    some beyond int64 or with a window reaching past it, and with empty
    documents and sentences."""
    docs = []
    for d in range(draw(st.integers(1, 4))):
        base = draw(st.sampled_from(ID_BASES))
        sentences = draw(st.lists(st.integers(0, 6), max_size=5, unique=True))
        nps = [
            make_np(doc=f"w{d}", sent=base + sent, np=base + idx, head="x",
                    gold=draw(st.sampled_from([A, I, None])))
            for sent in sentences
            for idx in range(draw(st.integers(0, 3)))
        ]
        nps = draw(st.permutations(nps))
        spans = [(np.sent_id, np.np_id) for np in nps]
        pronouns = tuple(
            PronounRecord(
                base + draw(st.integers(0, 7)), "it", draw(st.booleans()),
                draw(st.none() | st.sampled_from(spans)) if spans else None,
            )
            for _ in range(draw(st.integers(0, 4)))
        )
        docs.append(Document(f"w{d}", tuple(nps), 0, 0, pronouns))
    return docs


def oracle_compile_corpus(docs, window=2):
    """`compile_corpus` as one `candidate_set` scan of the document per
    pronoun."""
    every_np = [np for _, np in iter_nps(docs)]
    position = {id(np): i for i, np in enumerate(every_np)}
    pronouns, flat, drop, gold_at, gold_end = [], [], [], [], []
    for doc in docs:
        for pronoun in doc.pronouns:
            window_nps = candidate_set(pronoun, doc, window)
            for j, candidate in enumerate(window_nps):
                if (candidate.sent_id, candidate.np_id) == pronoun.antecedent:
                    gold_at.append(len(flat) + j)
                    gold_end.append(len(flat) + len(window_nps))
            flat.extend(position[id(candidate)] for candidate in window_nps)
            drop.extend([2 if pronoun.animate else 1] * len(window_nps))
            pronouns.append(pronoun)
    used, candidates = np.unique(np.array(flat, dtype=np.intp),
                                 return_inverse=True)
    return CompiledCorpus(
        window=window,
        keys=tuple(every_np[i].key for i in used.tolist()),
        pronouns=tuple(pronouns),
        candidates=candidates,
        drop_code=np.array(drop, dtype=np.int8),
        gold_at=np.array(gold_at, dtype=np.intp),
        gold_end=np.array(gold_end, dtype=np.intp),
    )


def assert_same_compiled(got, expected):
    """Every field equal, the pronoun tuples holding the same objects and
    the arrays of the same dtype and shape."""
    assert got.window == expected.window
    assert len(got.pronouns) == len(expected.pronouns)
    assert all(a is b for a, b in zip(got.pronouns, expected.pronouns))
    assert got.keys == expected.keys
    for name in ("candidates", "drop_code", "gold_at", "gold_end"):
        a, b = getattr(got, name), getattr(expected, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert np.array_equal(a, b), name


def long_document(nps=2000, pronouns=500, seed=5):
    """One document of `nps` NPs, five to a sentence, with a few pairs
    out of sentence order, and `pronouns` pronouns across it."""
    rng = random.Random(seed)
    records = [make_np(sent=i // 5, np=i % 5, head="x", gold=rng.choice([A, I, None]))
               for i in range(nps)]
    for _ in range(nps // 50):
        i = rng.randrange(nps - 1)
        records[i], records[i + 1] = records[i + 1], records[i]
    last = (nps - 1) // 5
    prons = []
    for _ in range(pronouns):
        sent = rng.randint(0, last)
        antecedent = (rng.randint(max(0, sent - 4), sent), rng.randrange(5))
        prons.append(PronounRecord(sent, "it", rng.random() < 0.5,
                                   rng.choice([antecedent, None])))
    return [Document("d", tuple(records), 0, 0, tuple(prons))]


@st.composite
def label_map(draw, docs):
    """Labels for a corpus, with missing keys and explicit UNKNOWN."""
    labels = {}
    for _, np_record in iter_nps(docs):
        label = draw(st.sampled_from([A, I, U, None]))
        if label is not None:
            labels[np_record.key] = label
    return labels


@st.composite
def harness_inputs(draw, max_maps=1):
    """A corpus and 1 to `max_maps` label maps for it."""
    docs = draw(harness_corpora())
    maps = [draw(label_map(docs)) for _ in range(draw(st.integers(1, max_maps)))]
    return docs, maps


def harness_figures(harness, *args, **kwargs):
    """The three figures of a harness run, or its error message."""
    try:
        result = harness(*args, **kwargs)
    except ValueError as exc:
        return str(exc)
    if isinstance(result, tuple):
        return result[:3]
    return (result.success_rate, result.avg_candidates, result.pct_no_antecedent)


def label_code_array(compiled, labels):
    """`labels` as one code per compiled NP, looked up key by key."""
    code_of = {A: 1, I: 2}
    return np.array([code_of.get(labels.get(key), 0) for key in compiled.keys],
                    dtype=np.int8)


INFEASIBLE = (True, True, 0)  # nan mean, nan deviation, no runs


def oracle_inject_errors(labels, precision, recall, seed):
    """`inject_errors` with the flips made label by label in a list."""
    if not 0.0 < precision <= 1.0 or not 0.0 < recall <= 1.0:
        raise ValueError("precision and recall must be in (0, 1]")
    animate_at = [i for i, lab in enumerate(labels) if lab is A]
    inanimate_at = [i for i, lab in enumerate(labels) if lab is I]
    drop = round((1.0 - recall) * len(animate_at))
    fake = round(recall * len(animate_at) * (1.0 - precision) / precision)
    if fake > len(inanimate_at):
        raise InfeasibleTargetError("too many false positives")
    out = list(labels)
    rng = np.random.default_rng(seed)
    for i in rng.choice(len(animate_at), size=drop, replace=False):
        out[animate_at[int(i)]] = I
    for i in rng.choice(len(inanimate_at), size=fake, replace=False):
        out[inanimate_at[int(i)]] = A
    return out


def oracle_sweep(docs, precisions, recalls, runs, seed, window):
    """The sweep as a loop of label-by-label injections and oracle harness
    runs: {cell: (mean, std, runs)}, INFEASIBLE cells, or the error."""
    labelled = [np for _, np in iter_nps(docs) if np.gold is not None]
    gold = [np.gold for np in labelled]
    cells = {}
    try:
        for p_pct in precisions:
            for r_pct in recalls:
                rates = []
                try:
                    for run in range(runs):
                        perturbed = oracle_inject_errors(
                            gold, p_pct / 100.0, r_pct / 100.0,
                            _run_seed(seed, p_pct, r_pct, run),
                        )
                        assignment = {np.key: lab for np, lab in zip(labelled, perturbed)}
                        rates.append(oracle_run_harness(docs, assignment, window)[0])
                except InfeasibleTargetError:
                    cells[(p_pct, r_pct)] = INFEASIBLE
                    continue
                cells[(p_pct, r_pct)] = (
                    float(np.mean(rates)), float(np.std(rates)), runs
                )
    except ValueError as exc:
        return str(exc)
    return cells


def sweep_figures(docs, precisions, recalls, runs, seed, window):
    """`sweep` in the form of `oracle_sweep`."""
    try:
        grid = sweep(docs, precisions, recalls, runs=runs, seed=seed, window=window)
    except ValueError as exc:
        return str(exc)
    return {
        cell: (stats.mean_success, stats.std_success, stats.runs) if stats.feasible
        else (math.isnan(stats.mean_success), math.isnan(stats.std_success), stats.runs)
        for cell, stats in grid.cells.items()
    }


SWEEP_GRIDS = dict(
    precisions=st.lists(st.sampled_from([10, 35, 60, 85, 100]),
                        min_size=1, max_size=3, unique=True),
    recalls=st.lists(st.sampled_from([40, 75, 100]),
                     min_size=1, max_size=2, unique=True),
    runs=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    window=st.integers(0, 3),
)


class TestHarnessMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        inputs=harness_inputs(),
        window=st.integers(0, 3),
        count_prefilter_misses=st.booleans(),
    )
    def test_same_figures(self, inputs, window, count_prefilter_misses):
        docs, (labels,) = inputs
        kwargs = dict(window=window, count_prefilter_misses=count_prefilter_misses)
        assert harness_figures(run_harness, docs, labels, **kwargs) == (
            harness_figures(oracle_run_harness, docs, labels, **kwargs)
        )

    @settings(max_examples=200, deadline=None)
    @given(inputs=harness_inputs(max_maps=3), window=st.integers(0, 3))
    def test_compiled_corpus_serves_many_label_maps(self, inputs, window):
        docs, maps = inputs
        compiled = compile_corpus(docs, window)
        for labels in maps:
            codes = label_code_array(compiled, labels)
            for count_prefilter_misses in (True, False):
                kwargs = dict(window=window,
                              count_prefilter_misses=count_prefilter_misses)
                expected = harness_figures(oracle_run_harness, docs, labels, **kwargs)
                assert harness_figures(run_harness, compiled, labels, **kwargs) == expected
                assert harness_figures(run_harness, compiled, codes, **kwargs) == expected

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_codes_of_another_length_rejected(self, mini_corpus, extra):
        compiled = compile_corpus(mini_corpus, 2)
        n = len(compiled.keys)
        codes = np.zeros(n + extra, dtype=np.int8)
        with pytest.raises(ValueError, match=f"expected {n} label codes.*\\({n + extra},\\)"):
            run_harness(compiled, codes)

    def test_compiled_corpus_rejects_another_window(self, mini_corpus):
        compiled = compile_corpus(mini_corpus, 2)
        with pytest.raises(ValueError, match="compiled for window 2, not 1"):
            run_harness(compiled, {}, window=1)

    @pytest.mark.parametrize("window", [0, 1, 2, 3])
    @pytest.mark.parametrize("count_prefilter_misses", [True, False])
    def test_bundled_corpus(self, mini_corpus, window, count_prefilter_misses):
        for labels in ({}, gold_assignment(mini_corpus)):
            kwargs = dict(window=window, count_prefilter_misses=count_prefilter_misses)
            assert harness_figures(run_harness, mini_corpus, labels, **kwargs) == (
                harness_figures(oracle_run_harness, mini_corpus, labels, **kwargs)
            )

    @pytest.mark.parametrize("window", [1, 2])
    def test_sweep_equals_oracle_loop(self, mini_corpus, window):
        precisions, recalls = [10, 60, 85, 100], [50, 80, 100]
        args = (mini_corpus, precisions, recalls, 6, 11, window)
        cells = sweep_figures(*args)
        assert cells == oracle_sweep(*args)
        assert sorted(cells) == [(p, r) for p in precisions for r in recalls]
        assert cells[(10, 100)] == INFEASIBLE

    @settings(max_examples=150, deadline=None)
    @given(docs=harness_corpora(), **SWEEP_GRIDS)
    def test_sweep_equals_oracle_loop_on_drawn_corpora(
        self, docs, precisions, recalls, runs, seed, window
    ):
        args = (precisions, recalls, runs, seed, window)
        expected = oracle_sweep(docs, *args)
        for form in (docs, reloaded(docs)):
            assert sweep_figures(form, *args) == expected

    @settings(max_examples=150, deadline=None)
    @given(docs=twin_key_corpora(), **SWEEP_GRIDS)
    def test_sweep_equals_oracle_loop_with_flips_on_twin_keys(
        self, docs, precisions, recalls, runs, seed, window
    ):
        args = (precisions, recalls, runs, seed, window)
        expected = oracle_sweep(docs, *args)
        for form in (docs, reloaded(docs)):
            assert sweep_figures(form, *args) == expected

    @pytest.mark.parametrize("precisions, outcome", [
        ([100], "corpus contains no pronoun records"),  # a feasible cell
        ([10], {(10, 100): INFEASIBLE}),  # no feasible cell: no pass made
    ])
    def test_sweep_without_pronouns(self, precisions, outcome):
        nps = (make_np(np=0, head="man", gold=A), make_np(np=1, head="rock", gold=I))
        args = ([Document("d", nps, 0, 0)], precisions, [100], 2, 0, 2)
        assert sweep_figures(*args) == oracle_sweep(*args) == outcome

    @settings(max_examples=100, deadline=None)
    @given(docs=harness_corpora() | twin_key_corpora() | wide_id_corpora())
    def test_gold_assignment_equals_record_walk(self, docs):
        expected = {}
        for _, np_record in iter_nps(docs):
            if np_record.gold is not None:
                expected[np_record.key] = np_record.gold
        for form in (docs, reloaded(docs)):
            assert list(gold_assignment(form).items()) == list(expected.items())


class TestCompileMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(docs=harness_corpora() | twin_key_corpora() | wide_id_corpora(),
           window=st.integers(0, 3))
    def test_same_compiled_corpus(self, docs, window):
        loaded = reloaded(docs)
        for form in (docs, loaded):
            assert_same_compiled(compile_corpus(form, window),
                                 oracle_compile_corpus(form, window))
        assert compile_corpus(loaded, window).keys == compile_corpus(docs, window).keys

    @pytest.mark.parametrize("window", [0, 1, 2, 3])
    def test_bundled_corpus(self, mini_corpus, window):
        assert_same_compiled(compile_corpus(mini_corpus, window),
                             oracle_compile_corpus(mini_corpus, window))

    @pytest.mark.parametrize("window", [0, 1, 2, 3])
    def test_long_document(self, window):
        docs = long_document()
        for form in (docs, reloaded(docs)):
            assert_same_compiled(compile_corpus(form, window),
                                 oracle_compile_corpus(form, window))

    def test_long_document_memory_is_linear(self):
        # a layout of one int64 per (pronoun, document NP) pair alone
        # would take 8 MB here
        docs = long_document()
        tracemalloc.start()
        try:
            compile_corpus(docs, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_negative_window_rejected_only_with_pronouns(self):
        docs = long_document(nps=10, pronouns=1)
        with pytest.raises(ValueError, match="window must be >= 0"):
            compile_corpus(docs, -1)
        empty = [Document("d", docs[0].nps, 0, 0)]
        assert len(compile_corpus(empty, -1).keys) == 0


class TestInjectErrors:
    def stream(self, animate, inanimate):
        return [A] * animate + [I] * inanimate

    def test_count_algebra_at_eighty_eighty(self):
        labels = self.stream(100, 400)
        out = inject_errors(labels, 0.8, 0.8, seed=5)
        a_to_i = sum(1 for g, p in zip(labels, out) if g is A and p is I)
        i_to_a = sum(1 for g, p in zip(labels, out) if g is I and p is A)
        assert (a_to_i, i_to_a) == (20, 20)
        assert measured_precision_recall(labels, out) == (0.8, 0.8)

    def test_identity_at_perfect_targets(self):
        labels = self.stream(10, 40)
        assert inject_errors(labels, 1.0, 1.0, seed=0) == labels

    def test_infeasible_pair_names_the_bound(self):
        labels = self.stream(100, 5)
        with pytest.raises(InfeasibleTargetError, match="900"):
            inject_errors(labels, 0.1, 1.0, seed=0)

    def test_out_of_range_targets(self):
        with pytest.raises(ValueError):
            inject_errors(self.stream(5, 5), 0.0, 1.0, seed=0)

    @settings(max_examples=30, deadline=None)
    @given(
        animate=st.integers(5, 60), inanimate=st.integers(40, 120),
        p=st.sampled_from([0.5, 0.6, 0.8, 0.9, 1.0]),
        r=st.sampled_from([0.5, 0.7, 0.9, 1.0]),
        seed=st.integers(0, 2**31),
    )
    def test_flip_counts_match_formula(self, animate, inanimate, p, r, seed):
        labels = self.stream(animate, inanimate)
        expected_drop = round((1 - r) * animate)
        expected_fake = round(r * animate * (1 - p) / p)
        if expected_fake > inanimate:
            return
        out = inject_errors(labels, p, r, seed=seed)
        a_to_i = sum(1 for g, x in zip(labels, out) if g is A and x is I)
        i_to_a = sum(1 for g, x in zip(labels, out) if g is I and x is A)
        assert (a_to_i, i_to_a) == (expected_drop, expected_fake)


class TestSweep:
    @pytest.mark.parametrize("runs", [0, -3])
    def test_runs_below_one_rejected(self, mini_corpus, runs):
        with pytest.raises(ValueError, match="runs must be >= 1"):
            sweep(mini_corpus, [100], [100], runs=runs, seed=0)

    def test_deterministic_csv(self, mini_corpus):
        first = sweep(mini_corpus, [80, 100], [90, 100], runs=4, seed=9)
        second = sweep(mini_corpus, [80, 100], [90, 100], runs=4, seed=9)
        assert sweep_csv(first) == sweep_csv(second)

    def test_identity_cell_matches_gold_run_with_zero_variance(self, mini_corpus):
        grid = sweep(mini_corpus, [100], [100], runs=5, seed=1)
        stats = grid.cells[(100, 100)]
        gold = run_harness(mini_corpus, gold_assignment(mini_corpus))
        assert stats.mean_success == gold.success_rate
        assert stats.std_success == 0.0

    def test_infeasible_cell_marked_not_fatal(self, mini_corpus):
        # 21 animate vs 39 inanimate: p=10% needs far too many false positives
        grid = sweep(mini_corpus, [10, 100], [100], runs=2, seed=2)
        assert not grid.cells[(10, 100)].feasible
        assert grid.cells[(100, 100)].feasible
        csv = sweep_csv(grid)
        assert "10,100,,,0,0" in csv

    def test_marginals_average_over_feasible_cells(self, mini_corpus):
        grid = sweep(mini_corpus, [90, 100], [90, 100], runs=2, seed=3)
        text = marginal_csv(grid)
        lines = text.strip().split("\n")
        assert lines[0] == "axis,value,mean_success"
        assert len(lines) == 5  # two precision rows + two recall rows
        expected = np.mean([
            grid.cells[(90, 90)].mean_success, grid.cells[(90, 100)].mean_success,
        ])
        assert f"precision,90,{float(expected)!r}" in text
